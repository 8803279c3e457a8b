// Lightweight C++ function index for the dsp-dataflow analysis.
//
// This is a lexical indexer built on cpp_lex's stripped token stream, not
// a compiler front end: it recovers where each function definition
// (including lambdas assigned to variables) begins and ends, which is
// all cfg.h needs to re-tokenize a body, plus the `dsp-tidy: allow(...)`
// markers of every scanned line.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cpp_lex.h"

namespace dsp::analysis {

/// One indexed function (or variable-assigned lambda).
struct FunctionInfo {
  std::string file;
  std::string name;  ///< Simple name; lambdas use their variable name.
  std::string qual;  ///< "cls::name" or "name"; lambdas "parent::name".
  int begin_line = 0;
  int end_line = 0;
};

/// Whole-program index over every scanned file.
struct CppIndex {
  std::vector<FunctionInfo> functions;

  /// Simple name -> indices into `functions` (built by finalize()).
  std::map<std::string, std::vector<int>> by_name;

  /// file -> line -> suppressed rule ids (dsp-tidy: allow(...)).
  std::map<std::string, std::map<int, std::vector<std::string>>> allows;

  /// True when a rule id is suppressed on `file`:`line`.
  bool allowed_at(const std::string& file, int line,
                  std::string_view rule) const;

  /// Builds by_name. Call once after indexing every file.
  void finalize();
};

/// Indexes one file's contents into `index`. `path` is used for finding
/// subjects and rule scoping.
void index_source(std::string_view path, std::string_view text,
                  CppIndex& index);

/// Same indexing over pre-lexed lines (shared SourceCache — lex once for
/// every mode).
void index_source_lines(std::string_view path, const std::vector<Line>& lines,
                        CppIndex& index);

}  // namespace dsp::analysis
