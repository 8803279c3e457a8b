#include "analysis/schedule_check.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "obs/json.h"

namespace dsp::analysis {
namespace {

std::string task_subject(std::size_t t) { return "task " + std::to_string(t); }

/// True when `v` is a number an int holds exactly (obs::json::fits_integer).
bool int_number(const obs::json::Value& v) {
  return v.is_number() && obs::json::fits_integer<int>(v.number);
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[192];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

double ScheduleDoc::completion_s(std::size_t t) const {
  const auto m = static_cast<std::size_t>(machine_of[t]);
  return start_s[t] + problem.tasks[t].size_mi / problem.machine_rates[m] +
         static_cast<double>(problem.tasks[t].n_preempt) * problem.recovery_s;
}

ScheduleDoc make_schedule_doc(const IlpProblem& problem,
                              const IlpScheduleResult& result) {
  ScheduleDoc doc;
  doc.problem = problem;
  doc.machine_of = result.machine_of;
  doc.start_s = result.start_s;
  doc.makespan_s = result.makespan_s;
  doc.has_makespan = result.ok();
  return doc;
}

bool read_schedule_json(std::istream& in, ScheduleDoc& out,
                        std::string* error) {
  auto fail = [error](std::string message) {
    if (error) *error = std::move(message);
    return false;
  };

  std::ostringstream buf;
  buf << in.rdbuf();
  obs::json::Value root;
  std::string parse_error;
  if (!obs::json::parse(buf.str(), root, &parse_error))
    return fail("invalid JSON: " + parse_error);

  const obs::json::Value* machines = root.find("machines");
  if (!machines || !machines->is_array() || machines->array.empty())
    return fail("missing or empty \"machines\" array");
  out.problem.machine_rates.clear();
  for (const auto& m : machines->array) {
    if (!m.is_number() || m.number <= 0.0)
      return fail("\"machines\" entries must be positive MIPS rates");
    out.problem.machine_rates.push_back(m.number);
  }

  if (const obs::json::Value* rec = root.find("recovery_s")) {
    if (!rec->is_number() || rec->number < 0.0)
      return fail("\"recovery_s\" must be a non-negative number");
    out.problem.recovery_s = rec->number;
  }
  out.has_makespan = false;
  if (const obs::json::Value* ms = root.find("makespan_s")) {
    if (!ms->is_number()) return fail("\"makespan_s\" must be a number");
    out.makespan_s = ms->number;
    out.has_makespan = true;
  }

  const obs::json::Value* tasks = root.find("tasks");
  if (!tasks || !tasks->is_array())
    return fail("missing \"tasks\" array");
  out.problem.tasks.clear();
  out.machine_of.clear();
  out.start_s.clear();
  for (std::size_t i = 0; i < tasks->array.size(); ++i) {
    const obs::json::Value& t = tasks->array[i];
    const std::string at = "task " + std::to_string(i) + ": ";
    if (!t.is_object()) return fail(at + "not an object");
    IlpTask task;
    const obs::json::Value* size = t.find("size_mi");
    if (!size || !size->is_number() || size->number <= 0.0)
      return fail(at + "missing or non-positive \"size_mi\"");
    task.size_mi = size->number;
    if (const obs::json::Value* d = t.find("deadline_s")) {
      if (!d->is_number()) return fail(at + "\"deadline_s\" must be a number");
      task.deadline_s = d->number;
    }
    if (const obs::json::Value* n = t.find("n_preempt")) {
      if (!n->is_number() || n->number < 0)
        return fail(at + "\"n_preempt\" must be a non-negative number");
      if (!int_number(*n)) return fail(at + "\"n_preempt\" out of range");
      task.n_preempt = static_cast<int>(n->number);
    }
    if (const obs::json::Value* parents = t.find("parents")) {
      if (!parents->is_array())
        return fail(at + "\"parents\" must be an array");
      for (const auto& p : parents->array) {
        if (!int_number(p) || p.number < 0 ||
            p.number >= static_cast<double>(tasks->array.size()))
          return fail(at + "\"parents\" out of range");
        task.parents.push_back(static_cast<int>(p.number));
      }
    }
    const obs::json::Value* machine = t.find("machine");
    const obs::json::Value* start = t.find("start_s");
    if (!machine || !machine->is_number())
      return fail(at + "missing \"machine\"");
    if (!int_number(*machine)) return fail(at + "\"machine\" out of range");
    if (!start || !start->is_number())
      return fail(at + "missing \"start_s\"");
    out.problem.tasks.push_back(std::move(task));
    out.machine_of.push_back(static_cast<int>(machine->number));
    out.start_s.push_back(start->number);
  }
  return true;
}

bool read_schedule_json(const std::string& path, ScheduleDoc& out,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open file: " + path;
    return false;
  }
  return read_schedule_json(in, out, error);
}

void write_schedule_json(std::ostream& out, const ScheduleDoc& doc) {
  char buf[64];
  out << "{\n  \"machines\": [";
  for (std::size_t m = 0; m < doc.problem.machine_rates.size(); ++m) {
    std::snprintf(buf, sizeof buf, "%s%.10g", m ? ", " : "",
                  doc.problem.machine_rates[m]);
    out << buf;
  }
  std::snprintf(buf, sizeof buf, "%.10g", doc.problem.recovery_s);
  out << "],\n  \"recovery_s\": " << buf;
  if (doc.has_makespan) {
    std::snprintf(buf, sizeof buf, "%.10g", doc.makespan_s);
    out << ",\n  \"makespan_s\": " << buf;
  }
  out << ",\n  \"tasks\": [";
  for (std::size_t t = 0; t < doc.problem.tasks.size(); ++t) {
    const IlpTask& task = doc.problem.tasks[t];
    out << (t ? ",\n    " : "\n    ");
    std::snprintf(buf, sizeof buf, "%.10g", task.size_mi);
    out << "{\"size_mi\": " << buf;
    if (std::isfinite(task.deadline_s)) {
      std::snprintf(buf, sizeof buf, "%.10g", task.deadline_s);
      out << ", \"deadline_s\": " << buf;
    }
    if (task.n_preempt > 0) out << ", \"n_preempt\": " << task.n_preempt;
    if (!task.parents.empty()) {
      out << ", \"parents\": [";
      for (std::size_t p = 0; p < task.parents.size(); ++p)
        out << (p ? ", " : "") << task.parents[p];
      out << ']';
    }
    out << ", \"machine\": "
        << (t < doc.machine_of.size() ? doc.machine_of[t] : -1);
    std::snprintf(buf, sizeof buf, "%.10g",
                  t < doc.start_s.size() ? doc.start_s[t] : -1.0);
    out << ", \"start_s\": " << buf << '}';
  }
  out << "\n  ]\n}\n";
}

void check_schedule(const ScheduleDoc& doc, const ScheduleCheckOptions& options,
                    Report& report) {
  const std::size_t T = doc.problem.tasks.size();
  const std::size_t M = doc.problem.machine_rates.size();
  const double tol = options.time_tol_s;

  // ---- S004: placement validity, constraints (9)-(11). -----------------
  std::vector<bool> placed(T, false);
  for (std::size_t t = 0; t < T; ++t) {
    const int m = t < doc.machine_of.size() ? doc.machine_of[t] : -1;
    const double start =
        t < doc.start_s.size() ? doc.start_s[t] : -1.0;
    if (m < 0 || static_cast<std::size_t>(m) >= M) {
      report.add("S004", task_subject(t),
                 "machine index " + std::to_string(m) + " is not in [0, " +
                     std::to_string(M) + ")");
      continue;
    }
    if (start < -tol || !std::isfinite(start)) {
      report.add("S004", task_subject(t),
                 fmt("start time %.6g s violates t_s >= 0 (constraint (11))",
                     start));
      continue;
    }
    placed[t] = true;
  }

  // ---- S001: precedence, constraint (7). -------------------------------
  for (std::size_t t = 0; t < T; ++t) {
    if (!placed[t]) continue;
    for (int parent : doc.problem.tasks[t].parents) {
      const auto p = static_cast<std::size_t>(parent);
      if (p >= T || !placed[p]) continue;  // reported by S004/parse
      const double parent_completion = doc.completion_s(p);
      if (doc.start_s[t] + tol < parent_completion) {
        report.add("S001", task_subject(t),
                   fmt("starts at %.6g s before parent completes at %.6g s",
                       doc.start_s[t], parent_completion) +
                       " (parent " + std::to_string(parent) + ")");
      }
    }
  }

  // ---- S002: per-machine non-overlap, constraints (5)/(8). -------------
  std::vector<std::vector<std::size_t>> by_machine(M);
  for (std::size_t t = 0; t < T; ++t)
    if (placed[t])
      by_machine[static_cast<std::size_t>(doc.machine_of[t])].push_back(t);
  for (std::size_t m = 0; m < M; ++m) {
    auto& tasks = by_machine[m];
    std::sort(tasks.begin(), tasks.end(), [&doc](std::size_t a, std::size_t b) {
      return doc.start_s[a] != doc.start_s[b] ? doc.start_s[a] < doc.start_s[b]
                                              : a < b;
    });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const std::size_t prev = tasks[i - 1], cur = tasks[i];
      const double prev_completion = doc.completion_s(prev);
      if (doc.start_s[cur] + tol < prev_completion) {
        report.add("S002",
                   "machine " + std::to_string(m) + " tasks " +
                       std::to_string(prev) + "/" + std::to_string(cur),
                   fmt("task starts at %.6g s while the previous occupant "
                       "completes at %.6g s",
                       doc.start_s[cur], prev_completion));
      }
    }
  }

  // ---- S003: deadlines, constraint (6). --------------------------------
  for (std::size_t t = 0; t < T; ++t) {
    if (!placed[t]) continue;
    const double deadline = doc.problem.tasks[t].deadline_s;
    if (!std::isfinite(deadline)) continue;
    const double completion = doc.completion_s(t);
    if (completion > deadline + tol) {
      report.add("S003", task_subject(t),
                 fmt("completes at %.6g s, after its deadline %.6g s "
                     "(includes preemption padding)",
                     completion, deadline));
    }
  }

  // ---- S005: declared makespan covers every completion, constraint (4).
  if (doc.has_makespan) {
    for (std::size_t t = 0; t < T; ++t) {
      if (!placed[t]) continue;
      const double completion = doc.completion_s(t);
      if (completion > doc.makespan_s + tol) {
        report.add("S005", task_subject(t),
                   fmt("completes at %.6g s, beyond the declared makespan "
                       "L_MS = %.6g s",
                       completion, doc.makespan_s));
      }
    }
  }
}

}  // namespace dsp::analysis
