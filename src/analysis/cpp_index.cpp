#include "analysis/cpp_index.h"

#include <cctype>
#include <regex>
#include <set>

#include "analysis/cpp_lex.h"

namespace dsp::analysis {
namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// C++ keywords (and cast/control tokens) that look like call names.
bool is_keyword(std::string_view name) {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "decltype", "noexcept",
      "throw",    "new",      "delete",   "static_assert", "alignas",
      "co_await", "co_yield", "co_return", "typeid",  "else",
      "case",     "do",       "goto",     "operator", "requires",
      "explicit", "constexpr", "const",   "static",   "inline",
      "defined",  "assert"};
  return kKeywords.count(name) > 0;
}

/// Index of the bracket matching text[open] (one of ( [ { <), or npos.
std::size_t match_bracket(const std::string& text, std::size_t open) {
  const char o = text[open];
  const char c = o == '(' ? ')' : o == '[' ? ']' : o == '{' ? '}' : '>';
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    else if (text[i] == c && --depth == 0) return i;
  }
  return std::string::npos;
}

const std::regex& call_re() {
  static const std::regex re(
      R"(((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*\()");
  return re;
}

const std::regex& lambda_assign_re() {
  static const std::regex re(R"(\b([A-Za-z_]\w*)\s*=\s*\[)");
  return re;
}

// ---------------------------------------------------------------------------
// Indexer state machine
// ---------------------------------------------------------------------------

struct Frame {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = kBlock;
  std::string name;     ///< Class name for kClass frames.
  int entry_depth = 0;  ///< Brace depth before this scope's '{'.
  int fn = -1;          ///< functions index for kFunction frames.
};

class Indexer {
 public:
  Indexer(std::string path, CppIndex& index)
      : file_(std::move(path)), index_(index) {}

  void run_lines(const std::vector<Line>& lines);

 private:
  Frame* innermost_function() {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
      if (it->kind == Frame::kFunction) return &*it;
    return nullptr;
  }
  std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
      if (it->kind == Frame::kClass) return it->name;
    return "";
  }

  void classify_open_brace(int line_no);
  bool try_start_function(const std::string& decl, int line_no,
                          bool as_lambda, const std::string& lambda_name);
  void prescan_lambdas(const std::string& code);

  std::string file_;
  CppIndex& index_;

  int depth_ = 0;
  std::vector<Frame> scopes_;
  std::string pending_;  ///< Declaration text since the last ; { }.

  /// Positions (within the current line) where a '{' opens the body of a
  /// variable-assigned lambda, with the variable name.
  std::map<std::size_t, std::string> lambda_bodies_;
};

/// Parses `decl` (the accumulated text before a '{') as a function
/// signature; on success creates the FunctionInfo and pushes its frame.
bool Indexer::try_start_function(const std::string& decl, int line_no,
                                 bool as_lambda,
                                 const std::string& lambda_name) {
  FunctionInfo fn;
  fn.file = file_;
  fn.begin_line = line_no;

  if (as_lambda) {
    fn.name = lambda_name;
    const Frame* parent = innermost_function();
    const std::string outer = parent != nullptr
                                  ? index_.functions[parent->fn].qual
                                  : current_class();
    fn.qual = (outer.empty() ? "" : outer + "::") + fn.name;
  } else {
    // Reject obvious non-functions: initializers and control flow.
    const std::string t = trim(decl);
    if (t.empty() || t.back() == '=' || t.back() == ',') return false;

    // The function name is the first (possibly ::-qualified) identifier
    // directly followed by '(' that is not a keyword. This lands on the
    // declarator for every signature shape in this codebase: leading
    // return types are never called ("void", "std::uint64_t"), and
    // constructor-initializer lists sit after the ')' so they cannot
    // match first.
    std::smatch m;
    std::string rest = decl;
    std::size_t offset = 0;
    std::string qual_name;
    std::size_t params_open = std::string::npos;
    while (std::regex_search(rest, m, call_re())) {
      const std::string candidate = m.str(1);
      std::string simple = candidate;
      const std::size_t sep = simple.rfind("::");
      if (sep != std::string::npos) simple = simple.substr(sep + 2);
      if (!is_keyword(simple) && !simple.empty()) {
        qual_name = candidate;
        params_open = offset + static_cast<std::size_t>(m.position(0)) +
                      m.str(0).size() - 1;
        break;
      }
      const std::size_t advance =
          static_cast<std::size_t>(m.position(0)) + m.str(0).size();
      offset += advance;
      rest = rest.substr(advance);
    }
    if (qual_name.empty()) return false;
    if (match_bracket(decl, params_open) == std::string::npos) return false;

    // Strip whitespace inside the qualified name ("EventLog :: open").
    std::string compact;
    for (const char c : qual_name)
      if (!std::isspace(static_cast<unsigned char>(c))) compact += c;
    const std::size_t sep = compact.rfind("::");
    fn.name = sep == std::string::npos ? compact : compact.substr(sep + 2);
    std::string cls;
    if (sep != std::string::npos) {
      const std::string before = compact.substr(0, sep);
      const std::size_t prev = before.rfind("::");
      cls = prev == std::string::npos ? before : before.substr(prev + 2);
    } else {
      cls = current_class();
    }
    fn.qual = cls.empty() ? fn.name : cls + "::" + fn.name;
  }

  const int idx = static_cast<int>(index_.functions.size());
  index_.functions.push_back(std::move(fn));
  Frame frame;
  frame.kind = Frame::kFunction;
  frame.entry_depth = depth_ - 1;  // '{' already counted
  frame.fn = idx;
  scopes_.push_back(frame);
  return true;
}

void Indexer::classify_open_brace(int line_no) {
  // Remove thread-safety attribute macros so "class DSP_CAPABILITY(..)
  // Mutex {" classifies by its real tokens.
  static const std::regex kAttr(R"(\bDSP_[A-Z_]+\s*(\([^)]*\))?)");
  std::string decl = std::regex_replace(pending_, kAttr, " ");
  static const std::regex kAccess(R"(\b(public|private|protected)\s*:)");
  decl = std::regex_replace(decl, kAccess, " ");

  std::smatch m;
  static const std::regex kNamespaceRe(
      R"(^\s*(?:inline\s+)?namespace\b\s*([A-Za-z_][\w:]*)?\s*$)");
  static const std::regex kClassRe(
      R"((?:class|struct|union)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{]*)?$)");
  static const std::regex kEnumExternRe(R"(^\s*(enum\b|extern\b[^(]*$))");

  const std::string t = trim(decl);
  Frame frame;
  frame.entry_depth = depth_ - 1;
  if (std::regex_match(t, m, kNamespaceRe)) {
    frame.kind = Frame::kNamespace;
    scopes_.push_back(frame);
  } else if (std::regex_search(t, m, kClassRe) &&
             t.find('(') == std::string::npos) {
    frame.kind = Frame::kClass;
    frame.name = m.str(1);
    scopes_.push_back(frame);
  } else if (std::regex_search(t, m, kEnumExternRe) ||
             !try_start_function(pending_, line_no, false, "")) {
    frame.kind = Frame::kBlock;
    scopes_.push_back(frame);
  }
  pending_.clear();
}

void Indexer::prescan_lambdas(const std::string& code) {
  lambda_bodies_.clear();
  for (std::sregex_iterator it(code.begin(), code.end(), lambda_assign_re()),
       end;
       it != end; ++it) {
    const std::string name = it->str(1);
    const std::size_t bracket =
        static_cast<std::size_t>(it->position(0)) + it->str(0).size() - 1;
    std::size_t close = match_bracket(code, bracket);
    if (close == std::string::npos) continue;
    std::size_t pos = close + 1;
    while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos])))
      ++pos;
    if (pos < code.size() && code[pos] == '(') {
      const std::size_t params_close = match_bracket(code, pos);
      if (params_close == std::string::npos) continue;
      pos = params_close + 1;
    }
    // Skip mutable / noexcept / -> type until the body brace.
    while (pos < code.size() && code[pos] != '{' && code[pos] != ';' &&
           code[pos] != ',')
      ++pos;
    if (pos < code.size() && code[pos] == '{') lambda_bodies_[pos] = name;
  }
}

void Indexer::run_lines(const std::vector<Line>& lines) {
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const Line& line = lines[li];
    const int line_no = static_cast<int>(li) + 1;

    const std::vector<std::string> allows = parse_allows(line.comment);
    if (!allows.empty()) index_.allows[file_][line_no] = allows;
    if (line.preprocessor) continue;

    prescan_lambdas(line.code);
    for (std::size_t j = 0; j < line.code.size(); ++j) {
      const char c = line.code[j];
      if (c == '{') {
        ++depth_;
        const auto lambda = lambda_bodies_.find(j);
        if (lambda != lambda_bodies_.end()) {
          try_start_function("", line_no, true, lambda->second);
        } else if (innermost_function() == nullptr) {
          // Plain blocks and inline lambdas inside a body need no frame.
          classify_open_brace(line_no);
        }
        continue;
      }
      if (c == '}') {
        --depth_;
        while (!scopes_.empty() && scopes_.back().entry_depth >= depth_) {
          const Frame& f = scopes_.back();
          if (f.kind == Frame::kFunction)
            index_.functions[f.fn].end_line = line_no;
          scopes_.pop_back();
        }
        if (innermost_function() == nullptr) pending_.clear();
        continue;
      }
      if (innermost_function() != nullptr) continue;
      // A ';' outside function bodies ends a declaration.
      if (c == ';') pending_.clear();
      else pending_ += c;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool CppIndex::allowed_at(const std::string& file, int line,
                          std::string_view rule) const {
  const auto fit = allows.find(file);
  if (fit == allows.end()) return false;
  const auto lit = fit->second.find(line);
  if (lit == fit->second.end()) return false;
  return allowed(lit->second, rule);
}

void CppIndex::finalize() {
  by_name.clear();
  for (std::size_t i = 0; i < functions.size(); ++i)
    by_name[functions[i].name].push_back(static_cast<int>(i));
}

void index_source(std::string_view path, std::string_view text,
                  CppIndex& index) {
  index_source_lines(path, lex_lines(text), index);
}

void index_source_lines(std::string_view path, const std::vector<Line>& lines,
                        CppIndex& index) {
  Indexer indexer(normalize_path(path), index);
  indexer.run_lines(lines);
}

}  // namespace dsp::analysis
