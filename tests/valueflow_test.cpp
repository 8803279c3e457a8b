// dsp-dataflow tests: every seeded fixture under tests/fixtures/valueflow
// fires exactly its own value-range or taint rule, the clean fixture
// stays silent, the repository's own src/ tree dataflow-scans clean, the
// CFG builder produces pinned golden graphs for the structured control
// flow it models, and inline `dsp-tidy: allow(ID)` comments suppress
// findings. Plus black-box coverage of dsp_tidy --dataflow (exit codes,
// --json via json_check, --list-rules).
#include "analysis/valueflow.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/cpp_index.h"
#include "analysis/cpp_lex.h"
#include "analysis/diagnostics.h"
#include "analysis/rules.h"
#include "analysis/srclint.h"

namespace {

using dsp::analysis::Cfg;
using dsp::analysis::CppIndex;
using dsp::analysis::Report;

std::string fixture(const std::string& name) {
  return std::string(DSP_VALUEFLOW_FIXTURE_DIR) + "/" + name;
}

std::set<std::string> fired_rules(const Report& report) {
  std::set<std::string> ids;
  for (const auto& d : report.diagnostics()) ids.insert(d.rule);
  return ids;
}

std::string dump(const Report& report) {
  std::string all;
  for (const auto& d : report.diagnostics())
    all += d.rule + " " + d.subject + ": " + d.message + "\n";
  return all;
}

/// Runs the dataflow rules over in-memory source text.
Report analyze_text(const std::string& path, const std::string& text) {
  CppIndex index;
  dsp::analysis::index_source(path, text, index);
  std::map<std::string, std::vector<dsp::analysis::Line>> lines;
  lines.emplace(dsp::analysis::normalize_path(path),
                dsp::analysis::lex_lines(text));
  Report report;
  dsp::analysis::analyze_value_index(index, lines, report);
  return report;
}

/// Builds the CFG of the named function in `text`.
Cfg cfg_of(const std::string& text, const std::string& name) {
  CppIndex index;
  dsp::analysis::index_source("cfg.cpp", text, index);
  index.finalize();
  for (const auto& fn : index.functions)
    if (fn.name == name) return build_cfg(fn, dsp::analysis::lex_lines(text));
  ADD_FAILURE() << "function " << name << " not indexed";
  return {};
}

void expect_fires_exactly(const std::string& file, const std::string& rule) {
  Report report;
  std::string error;
  ASSERT_TRUE(
      dsp::analysis::analyze_value_files({fixture(file)}, report, &error))
      << error;
  EXPECT_EQ(fired_rules(report), std::set<std::string>{rule})
      << file << " should fire " << rule << " and nothing else:\n"
      << dump(report);
  EXPECT_EQ(report.diagnostics().size(), 1u) << dump(report);
  for (const auto& d : report.diagnostics())
    EXPECT_NE(d.subject.find(".cpp:"), std::string::npos)
        << "subject should be path:line, got " << d.subject;
}

TEST(ValueflowTest, SeededFixturesFireExactlyTheirRule) {
  expect_fires_exactly("v000_div_zero_witness.cpp", "V000");
  expect_fires_exactly("v001_unsigned_sub_wrap.cpp", "V001");
  expect_fires_exactly("v002_narrowing_cast.cpp", "V002");
  expect_fires_exactly("v003_float_equality.cpp", "V003");
  expect_fires_exactly("v004_shift_out_of_range.cpp", "V004");
  expect_fires_exactly("v005_loop_counter_narrow.cpp", "V005");
  expect_fires_exactly("t000_tainted_index.cpp", "T000");
  expect_fires_exactly("t001_tainted_loop_bound.cpp", "T001");
  expect_fires_exactly("t002_tainted_alloc_size.cpp", "T002");
  expect_fires_exactly("t003_env_unvalidated.cpp", "T003");
}

TEST(ValueflowTest, CleanFixtureFiresNothing) {
  Report report;
  std::string error;
  ASSERT_TRUE(dsp::analysis::analyze_value_files({fixture("clean.cpp")},
                                                 report, &error))
      << error;
  EXPECT_TRUE(report.empty()) << dump(report);
}

TEST(ValueflowTest, RepositorySourceDataflowScansClean) {
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(dsp::analysis::collect_sources({DSP_SRC_DIR}, files, &error))
      << error;
  ASSERT_GT(files.size(), 40u) << "src/ tree looks truncated";
  Report report;
  ASSERT_TRUE(dsp::analysis::analyze_value_files(files, report, &error))
      << error;
  EXPECT_TRUE(report.empty()) << dump(report);
}

TEST(ValueflowTest, ValueAndTaintRulesAreInTheCatalog) {
  for (const char* id : {"V000", "V001", "V002", "V003", "V004", "V005",
                         "T000", "T001", "T002", "T003"}) {
    const auto* info = dsp::analysis::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->severity, dsp::analysis::Severity::kError) << id;
  }
}

TEST(ValueflowTest, AllowCommentSuppresses) {
  const std::string base =
      "bool drifted(double a) {\n"
      "  double x = a * 0.5;\n"
      "  double y = x + 1.0;\n"
      "  return x == y;\n"
      "}\n";
  EXPECT_EQ(fired_rules(analyze_text("adhoc.cpp", base)),
            std::set<std::string>{"V003"});

  std::string allowed = base;
  const std::string target = "return x == y;";
  const std::size_t pos = allowed.find(target);
  ASSERT_NE(pos, std::string::npos);
  allowed.replace(pos, target.size(),
                  "return x == y;  // dsp-tidy: allow(V003)");
  EXPECT_TRUE(analyze_text("adhoc.cpp", allowed).empty());
}

TEST(ValueflowTest, GuardClearsZeroWitness) {
  // The same division with and without a positivity guard: detection
  // must hinge on the branch refinement, not on the division itself.
  const std::string unguarded =
      "double f(double m) {\n"
      "  double r = 0.0;\n"
      "  if (m > 1.0) r = 2.0;\n"
      "  return m / r;\n"
      "}\n";
  EXPECT_EQ(fired_rules(analyze_text("adhoc.cpp", unguarded)),
            std::set<std::string>{"V000"});

  const std::string guarded =
      "double f(double m) {\n"
      "  double r = 0.0;\n"
      "  if (m > 1.0) r = 2.0;\n"
      "  if (r > 0.0) return m / r;\n"
      "  return 0.0;\n"
      "}\n";
  EXPECT_TRUE(analyze_text("adhoc.cpp", guarded).empty());
}

TEST(ValueflowTest, SanitizingClampSilencesTaint) {
  const std::string raw =
      "void f(std::vector<int>& v, const std::string& s) {\n"
      "  const int n = std::stoi(s);\n"
      "  v.resize(n);\n"
      "}\n";
  EXPECT_EQ(fired_rules(analyze_text("adhoc.cpp", raw)),
            std::set<std::string>{"T002"});

  const std::string clamped =
      "void f(std::vector<int>& v, const std::string& s) {\n"
      "  const int cap = 1024;\n"
      "  const int n = std::min(std::stoi(s), cap);\n"
      "  v.resize(n);\n"
      "}\n";
  EXPECT_TRUE(analyze_text("adhoc.cpp", clamped).empty());
}

// ---------------------------------------------------------------------------
// CFG golden tests
// ---------------------------------------------------------------------------

TEST(CppIndexTest, IndexesMethodsFreeFunctionsAndNamedLambdas) {
  CppIndex index;
  dsp::analysis::index_source("idx.cpp",
                              "namespace ns {\n"
                              "class Pool {\n"
                              " public:\n"
                              "  int size() const { return n_; }\n"
                              "  void run();\n"
                              "  int n_ = 0;\n"
                              "};\n"
                              "void Pool::run() {\n"
                              "  auto body = [&](int k) {\n"
                              "    n_ += k;\n"
                              "  };\n"
                              "  body(1);\n"
                              "}\n"
                              "int twice(int x) { return x + x; }  "
                              "// dsp-tidy: allow(V003)\n"
                              "}  // namespace ns\n",
                              index);
  index.finalize();
  std::vector<std::string> got;
  for (const auto& fn : index.functions)
    got.push_back(fn.qual + "@" + std::to_string(fn.begin_line) + "-" +
                  std::to_string(fn.end_line));
  EXPECT_EQ(got, (std::vector<std::string>{"Pool::size@4-4", "Pool::run@8-13",
                                           "Pool::run::body@9-11",
                                           "twice@14-14"}));
  ASSERT_EQ(index.by_name.count("body"), 1u);
  EXPECT_EQ(index.by_name.at("body"), std::vector<int>{2});
  EXPECT_TRUE(index.allowed_at("idx.cpp", 14, "V003"));
  EXPECT_FALSE(index.allowed_at("idx.cpp", 14, "V000"));
  EXPECT_FALSE(index.allowed_at("idx.cpp", 13, "V003"));
}

TEST(CfgTest, StraightLineBodyLandsInEntryBlock) {
  const Cfg cfg = cfg_of(
      "int twice(int x) {\n"
      "  int y = x + x;\n"
      "  return y;\n"
      "}\n",
      "twice");
  EXPECT_EQ(cfg.dump(),
            "cfg twice\n"
            "b0 (entry):\n"
            "  stmt int y = x + x\n"
            "  stmt return y\n"
            "  -> b1 fall\n"
            "b1 (exit):\n"
            "b2:\n"
            "  -> b1 fall\n");
}

TEST(CfgTest, IfElseDiamond) {
  const Cfg cfg = cfg_of(
      "int pick(int x) {\n"
      "  int r = 0;\n"
      "  if (x > 2) {\n"
      "    r = 1;\n"
      "  } else {\n"
      "    r = 2;\n"
      "  }\n"
      "  return r;\n"
      "}\n",
      "pick");
  EXPECT_EQ(cfg.dump(),
            "cfg pick\n"
            "b0 (entry):\n"
            "  stmt int r = 0\n"
            "  stmt x > 2\n"
            "  -> b2 true [x > 2]\n"
            "  -> b3 false [x > 2]\n"
            "b1 (exit):\n"
            "b2:\n"
            "  stmt r = 1\n"
            "  -> b4 fall\n"
            "b3:\n"
            "  stmt r = 2\n"
            "  -> b4 fall\n"
            "b4:\n"
            "  stmt return r\n"
            "  -> b1 fall\n"
            "b5:\n"
            "  -> b1 fall\n");
}

TEST(CfgTest, ForLoopHasHeadAndBackEdge) {
  const Cfg cfg = cfg_of(
      "int sum(int n) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    total += i;\n"
      "  }\n"
      "  return total;\n"
      "}\n",
      "sum");
  EXPECT_EQ(cfg.dump(),
            "cfg sum\n"
            "b0 (entry):\n"
            "  stmt int total = 0\n"
            "  stmt int i = 0\n"
            "  -> b2 fall\n"
            "b1 (exit):\n"
            "b2 [loop]:\n"
            "  stmt i < n\n"
            "  -> b3 true [i < n]\n"
            "  -> b5 false [i < n]\n"
            "b3:\n"
            "  stmt total += i\n"
            "  -> b4 fall\n"
            "b4:\n"
            "  stmt ++ i\n"
            "  -> b2 back\n"
            "b5:\n"
            "  stmt return total\n"
            "  -> b1 fall\n"
            "b6:\n"
            "  -> b1 fall\n");
}

TEST(CfgTest, WhileLoopMarksLoopHead) {
  const Cfg cfg = cfg_of(
      "int halve(int n) {\n"
      "  while (n > 1) {\n"
      "    n = n / 2;\n"
      "  }\n"
      "  return n;\n"
      "}\n",
      "halve");
  bool has_loop_head = false;
  for (const auto& b : cfg.blocks) has_loop_head |= b.is_loop_head;
  EXPECT_TRUE(has_loop_head) << cfg.dump();
  bool has_back_edge = false;
  for (const auto& b : cfg.blocks)
    for (const auto& e : b.succ)
      has_back_edge |= e.kind == dsp::analysis::EdgeKind::kBack;
  EXPECT_TRUE(has_back_edge) << cfg.dump();
}

TEST(CfgTest, UnlocatableBodyDegradesToEntryExit) {
  dsp::analysis::FunctionInfo fn;
  fn.file = "cfg.cpp";
  fn.qual = "ghost";
  fn.begin_line = 100;  // beyond the file
  fn.end_line = 120;
  const Cfg cfg = build_cfg(fn, dsp::analysis::lex_lines("int x = 0;\n"));
  ASSERT_EQ(cfg.blocks.size(), 2u);
  EXPECT_TRUE(cfg.blocks[0].stmts.empty());
  EXPECT_TRUE(cfg.blocks[1].stmts.empty());
}

// ---------------------------------------------------------------------------
// Black-box CLI tests
// ---------------------------------------------------------------------------

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_cmd(const std::string& command) {
  CliResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr)
    result.output += buf.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult run_tidy(const std::string& args) {
  return run_cmd(std::string(DSP_TIDY_BIN) + " " + args);
}

TEST(DspTidyDataflowCliTest, FixtureDirectoryExitsOneNamingEveryRule) {
  const CliResult r =
      run_tidy("--dataflow " + std::string(DSP_VALUEFLOW_FIXTURE_DIR));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  for (const char* id : {"V000", "V001", "V002", "V003", "V004", "V005",
                         "T000", "T001", "T002", "T003"})
    EXPECT_NE(r.output.find(id), std::string::npos) << id << "\n" << r.output;
}

TEST(DspTidyDataflowCliTest, CleanFixtureExitsZero) {
  const CliResult r = run_tidy("--dataflow " + fixture("clean.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(DspTidyDataflowCliTest, MissingFileExitsTwo) {
  const CliResult r = run_tidy("--dataflow no/such/file.cpp");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(DspTidyDataflowCliTest, UnknownRuleExitsTwo) {
  // L003 and D006 belonged to the removed lock-flow family.
  for (const char* id : {"V999", "L003", "D006"}) {
    const CliResult r = run_tidy("--dataflow " + fixture("clean.cpp") +
                                 " --rules " + id);
    EXPECT_EQ(r.exit_code, 2) << id << "\n" << r.output;
  }
}

TEST(DspTidyDataflowCliTest, ListRulesIncludesValueAndTaintFamilies) {
  const CliResult r = run_tidy("--list-rules");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("V000"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("T003"), std::string::npos) << r.output;
}

TEST(DspTidyDataflowCliTest, JsonOutputValidatesAndCarriesScanTime) {
  const std::string json = ::testing::TempDir() + "valueflow_tidy.json";
  const CliResult r = run_tidy("--dataflow " +
                               fixture("v000_div_zero_witness.cpp") +
                               " --json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const CliResult check =
      run_cmd(std::string(DSP_JSON_CHECK_BIN) + " " + json +
              " analyzer input.kind diagnostics scan.seconds summary.error");
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::remove(json.c_str());
}

TEST(DspTidyDataflowCliTest, TwoModeScanOfSrcIsCleanAndShared) {
  const CliResult r =
      run_tidy("--srclint --dataflow " + std::string(DSP_SRC_DIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

}  // namespace
