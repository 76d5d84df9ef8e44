// snor_lint: project-wide invariant checker for the snor tree.
//
// A token/line-level scanner in the spirit of cpplint — no libclang, no
// preprocessing. It walks src/, bench/, examples/, tests/ and tools/ and
// enforces the invariants the fault-tolerant pipelines depend on:
//
//   missing-nodiscard   A Status/Result-returning declaration, or a
//                       factory/loader API (Make*/Load*/Create*/Build*/
//                       Open*/Read* returning a value), lacks
//                       [[nodiscard]] in a header.
//   raw-new-delete      Raw new/delete outside src/nn/tensor (ownership
//                       must go through smart pointers / containers).
//   banned-rng          rand()/srand()/std::mt19937/std::random_device:
//                       all randomness must flow through util/rng so
//                       experiments stay reproducible bit-for-bit.
//   banned-sprintf      sprintf (unbounded); use StrFormat/snprintf.
//   cout-in-library     std::cout inside src/ (library code must use
//                       util/logging; binaries under examples//bench/
//                       may print).
//   include-guard       Header without a classic #ifndef/#define/#endif
//                       guard (the project convention; #pragma once does
//                       not count).
//   unordered-report    std::unordered_{map,set} in code that feeds
//                       printed reports (bench/, examples/, table,
//                       csv): iteration order would make report
//                       output non-deterministic.
//   span-metric-name    A string literal passed to SNOR_TRACE_SPAN,
//                       TraceInstant, or a registry .counter/.gauge/
//                       .histogram call does not follow the lowercase
//                       dotted `layer.stage.detail` naming convention
//                       (src/obs). Consistent names keep Perfetto
//                       tracks and metric dumps greppable. Also covers
//                       bench telemetry: the name passed to
//                       bench::EmitBenchJson and literal
//                       telemetry.emplace_back keys become JSON keys
//                       in BENCH_<name>.json and must be lowercase
//                       snake_case.
//
// Suppression: `// NOLINT`, `// NOLINT(rule)` on the offending line or
// `// NOLINTNEXTLINE(rule)` on the line above. A discarded Status or
// Result is a compile error (`class [[nodiscard]]` in util/status.h plus
// -Werror=unused-result in the root CMakeLists.txt), not a lint rule.
//
// Self-test: `snor_lint --self-test <dir>` scans fixture files that
// carry `// EXPECT-LINT: rule` annotations and verifies the checker
// produces exactly the expected violations (and nothing else). A
// `// LINT-AS: virtual/path` directive in a fixture makes path-scoped
// rules treat the fixture as that file.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace snor_lint {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Violation& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

// ------------------------------------------------------------------ text --

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

// Replaces the contents of comments and string/char literals with spaces,
// preserving line structure, so later passes never match inside them.
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // For R"delim( ... )delim".
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(text[i - 1]))) {
          // Raw string: find the delimiter up to '('.
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) {
            out += c;
            break;
          }
          raw_delim = ")" + text.substr(i + 2, open - i - 2) + "\"";
          state = State::kRawString;
          for (std::size_t j = i; j <= open; ++j) out += ' ';
          i = open;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          state = State::kCode;
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out += ' ';
          i += raw_delim.size() - 1;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

// ------------------------------------------------------------ source file --

struct SourceFile {
  std::string path;          // Path used for path-scoped rules.
  std::string real_path;     // Path on disk (differs under LINT-AS).
  std::vector<std::string> raw;   // Original lines.
  std::vector<std::string> code;  // Comment/string-stripped lines.
  // line (1-based) -> suppressed rules; empty set = all rules.
  std::map<int, std::set<std::string>> nolint;

  bool IsHeader() const {
    return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  }

  bool Suppressed(int line, const std::string& rule) const {
    auto it = nolint.find(line);
    if (it == nolint.end()) return false;
    return it->second.empty() || it->second.count(rule) > 0;
  }
};

// Parses NOLINT / NOLINTNEXTLINE directives out of the raw lines.
void CollectNolint(SourceFile* file) {
  for (std::size_t i = 0; i < file->raw.size(); ++i) {
    const std::string& line = file->raw[i];
    for (const char* marker : {"NOLINTNEXTLINE", "NOLINT"}) {
      const std::size_t pos = line.find(marker);
      if (pos == std::string::npos) continue;
      const bool next_line = std::string_view(marker) == "NOLINTNEXTLINE";
      std::set<std::string> rules;
      std::size_t after = pos + std::string_view(marker).size();
      if (after < line.size() && line[after] == '(') {
        const std::size_t close = line.find(')', after);
        if (close != std::string::npos) {
          std::string inside = line.substr(after + 1, close - after - 1);
          std::stringstream ss(inside);
          std::string rule;
          while (std::getline(ss, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                       rule.end());
            if (!rule.empty()) rules.insert(rule);
          }
        }
      }
      const int target = static_cast<int>(i) + (next_line ? 2 : 1);
      auto& slot = file->nolint[target];
      if (rules.empty()) {
        slot.clear();  // Bare NOLINT: suppress everything.
        break;
      }
      slot.insert(rules.begin(), rules.end());
      break;
    }
  }
}

bool LoadFile(const fs::path& disk_path, SourceFile* out) {
  std::ifstream in(disk_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  out->real_path = disk_path.generic_string();
  out->path = out->real_path;
  out->raw = SplitLines(text);
  out->code = SplitLines(StripCommentsAndStrings(text));
  // Honour a LINT-AS virtual path (fixtures use it to exercise
  // path-scoped rules).
  for (std::size_t i = 0; i < out->raw.size() && i < 5; ++i) {
    const std::size_t pos = out->raw[i].find("LINT-AS:");
    if (pos != std::string::npos) {
      // Value is the first whitespace-delimited token after the colon.
      std::size_t s = pos + 8;
      while (s < out->raw[i].size() &&
             std::isspace(static_cast<unsigned char>(out->raw[i][s]))) {
        ++s;
      }
      std::size_t e = s;
      while (e < out->raw[i].size() &&
             !std::isspace(static_cast<unsigned char>(out->raw[i][e]))) {
        ++e;
      }
      if (e > s) out->path = out->raw[i].substr(s, e - s);
    }
  }
  CollectNolint(out);
  return true;
}

bool PathContains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

// ------------------------------------------------------ declaration match --

// Heuristic match for "declaration of a function returning Status or
// Result<...>" on a single stripped line. Returns the declared name, or
// empty. `type_end` receives the column right after the return type.
std::string MatchFallibleDecl(const std::string& line, std::size_t* name_col) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (!IsIdentStart(line[i]) || (i > 0 && IsIdentChar(line[i - 1]))) {
      continue;
    }
    std::size_t j = i;
    while (j < line.size() && IsIdentChar(line[j])) ++j;
    const std::string_view word(&line[i], j - i);
    bool is_result = word == "Result";
    if (word != "Status" && !is_result) {
      i = j;
      continue;
    }
    std::size_t k = j;
    if (is_result) {
      // Require balanced template args: Result<...>.
      while (k < line.size() && std::isspace(static_cast<unsigned char>(line[k]))) ++k;
      if (k >= line.size() || line[k] != '<') continue;
      int depth = 0;
      for (; k < line.size(); ++k) {
        if (line[k] == '<') ++depth;
        if (line[k] == '>' && --depth == 0) {
          ++k;
          break;
        }
      }
      if (depth != 0) continue;  // Template args span lines; skip.
    }
    // The declared name: whitespace then identifier then '('.
    std::size_t n = k;
    while (n < line.size() && std::isspace(static_cast<unsigned char>(line[n]))) ++n;
    if (n == k && !is_result) continue;  // "Status(" is a constructor.
    std::size_t m = n;
    while (m < line.size() && IsIdentChar(line[m])) ++m;
    if (m == n) continue;  // No name: "Status&", "Status;", ctor, etc.
    std::size_t p = m;
    while (p < line.size() && std::isspace(static_cast<unsigned char>(line[p]))) ++p;
    if (p >= line.size() || line[p] != '(') {
      i = j;
      continue;  // "Status status;" member, "Status s = ..." local.
    }
    const std::string name = line.substr(n, m - n);
    // PascalCase API convention (plus the `status()` accessor) filters
    // out locals declared with constructor syntax.
    if (!std::isupper(static_cast<unsigned char>(name[0])) && name != "status") {
      i = j;
      continue;
    }
    if (name_col != nullptr) *name_col = n;
    return name;
  }
  return std::string();
}

// Factory/loader naming convention: Make*/Load*/Create*/Build*/Open*/
// Read* returning a value must be [[nodiscard]] in headers.
std::string MatchFactoryDecl(const std::string& line, std::size_t* name_col) {
  static const std::string_view kPrefixes[] = {"Make", "Load", "Create",
                                               "Build", "Open", "Read"};
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (!IsIdentStart(line[i]) || (i > 0 && IsIdentChar(line[i - 1]))) continue;
    std::size_t j = i;
    while (j < line.size() && IsIdentChar(line[j])) ++j;
    const std::string name = line.substr(i, j - i);
    bool prefixed = false;
    for (std::string_view prefix : kPrefixes) {
      if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
          std::isupper(static_cast<unsigned char>(name[prefix.size()]))) {
        prefixed = true;
        break;
      }
    }
    if (!prefixed || j >= line.size() || line[j] != '(') {
      i = j;
      continue;
    }
    // Must be a declaration: a return type token ends right before the
    // name, and the return type must not be void.
    std::size_t t = i;
    while (t > 0 && std::isspace(static_cast<unsigned char>(line[t - 1]))) --t;
    if (t == 0) {
      i = j;
      continue;  // Name at column 0 is a definition's continuation/call.
    }
    const char before = line[t - 1];
    if (!IsIdentChar(before) && before != '>' && before != '&' && before != '*') {
      i = j;
      continue;  // Preceded by '.', '(', '=', ... : a call, not a decl.
    }
    std::size_t r = t;
    while (r > 0 && IsIdentChar(line[r - 1])) --r;
    if (line.compare(r, t - r, "void") == 0 || line.compare(r, t - r, "return") == 0 ||
        line.compare(r, t - r, "co_return") == 0) {
      i = j;
      continue;
    }
    if (name_col != nullptr) *name_col = i;
    return name;
  }
  return std::string();
}

// ------------------------------------------------------------ line checks --

bool HasWord(const std::string& line, std::string_view word, std::size_t* at) {
  for (std::size_t pos = line.find(word); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) {
      if (at != nullptr) *at = pos;
      return true;
    }
  }
  return false;
}

// True when `line` has `word` as a whole token followed (after
// whitespace) by `(`.
bool HasCall(const std::string& line, std::string_view word) {
  for (std::size_t pos = line.find(word); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    std::size_t k = pos + word.size();
    if (k < line.size() && IsIdentChar(line[k])) continue;
    while (k < line.size() && std::isspace(static_cast<unsigned char>(line[k]))) ++k;
    if (left_ok && k < line.size() && line[k] == '(') return true;
  }
  return false;
}

void CheckBannedConstructs(const SourceFile& file, std::vector<Violation>* out) {
  const bool in_library = PathContains(file.path, "src/");
  const bool rng_exempt = PathContains(file.path, "src/util/rng");
  const bool new_exempt = PathContains(file.path, "src/nn/tensor");
  const bool logging_exempt = PathContains(file.path, "src/util/logging");
  const bool report_scope = PathContains(file.path, "bench/") ||
                            PathContains(file.path, "examples/") ||
                            PathContains(file.path, "src/util/table") ||
                            PathContains(file.path, "src/util/csv");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    const int lineno = static_cast<int>(i) + 1;
    auto emit = [&](const char* rule, std::string message) {
      if (!file.Suppressed(lineno, rule)) {
        out->push_back({file.path, lineno, rule, std::move(message)});
      }
    };

    if (!new_exempt) {
      std::size_t at = 0;
      if (HasWord(line, "new", &at)) {
        // `= delete`-style and `new`-as-substring already excluded; still
        // skip `operator new` declarations.
        std::size_t before = at;
        while (before > 0 && std::isspace(static_cast<unsigned char>(line[before - 1]))) --before;
        const bool operator_decl =
            before >= 8 && line.compare(before - 8, 8, "operator") == 0;
        if (!operator_decl) {
          emit("raw-new-delete",
               "raw `new` outside src/nn/tensor; use std::make_unique / "
               "containers");
        }
      }
      if (HasWord(line, "delete", &at)) {
        std::size_t before = at;
        while (before > 0 && std::isspace(static_cast<unsigned char>(line[before - 1]))) --before;
        const bool deleted_fn = before > 0 && line[before - 1] == '=';
        if (!deleted_fn) {
          emit("raw-new-delete",
               "raw `delete` outside src/nn/tensor; use RAII ownership");
        }
      }
    }

    if (!rng_exempt) {
      if (HasCall(line, "rand") || HasCall(line, "srand")) {
        emit("banned-rng",
             "rand()/srand() is non-deterministic across platforms; use "
             "snor::Rng (util/rng)");
      }
      if (HasWord(line, "mt19937", nullptr) ||
          HasWord(line, "random_device", nullptr)) {
        emit("banned-rng",
             "std::mt19937/std::random_device bypasses the seeded "
             "snor::Rng; all randomness must go through util/rng");
      }
    }

    if (HasWord(line, "sprintf", nullptr)) {
      emit("banned-sprintf",
           "sprintf is unbounded; use StrFormat or snprintf");
    }

    if (in_library && !logging_exempt && line.find("std::cout") != std::string::npos) {
      emit("cout-in-library",
           "std::cout in library code; use SNOR_LOG (util/logging) or "
           "take an std::ostream&");
    }

    if (report_scope && (line.find("std::unordered_map") != std::string::npos ||
                         line.find("std::unordered_set") != std::string::npos)) {
      emit("unordered-report",
           "unordered container in report-producing code: iteration "
           "order would make printed output non-deterministic; use "
           "std::map or sort explicitly");
    }
  }
}

// ------------------------------------------------------ span/metric names --

// Call sites whose first string-literal argument is a span or metric name
// subject to the `layer.stage.detail` convention. The literal must open
// directly after `(` (the project's clang-format style), which also keeps
// dynamically-built names (fault-point instrumentation) out of scope.
constexpr std::array<std::string_view, 6> kObsNamePatterns = {
    "SNOR_TRACE_SPAN(\"",     "SNOR_TRACE_SPAN_CTX(\"", "TraceInstant(\"",
    ".counter(\"",            ".gauge(\"",              ".histogram(\""};

// Bench telemetry call sites: the bench name passed to EmitBenchJson
// and literal keys of the telemetry vector become JSON keys in
// BENCH_<name>.json, consumed by downstream tables — they must be
// lowercase snake_case. Dynamically-built keys (spec display names)
// are out of scope, same as above.
constexpr std::array<std::string_view, 3> kBenchKeyPatterns = {
    "EmitBenchJson(\"", "telemetry.emplace_back(\"",
    "telemetry->emplace_back(\""};

// Lowercase snake_case: [a-z][a-z0-9_]*.
bool IsValidBenchKey(std::string_view name) {
  if (name.empty() || !std::islower(static_cast<unsigned char>(name.front()))) {
    return false;
  }
  for (char c : name) {
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// Span/metric name vocabulary: the leading segment must name a module of
// the layers.toml DAG (or `bench` for the table runners) so grepping a
// metric dump by layer always works. Growing a layer's vocabulary
// (e.g. `core.bank.*` for the SoA feature banks or `features.ann.*` for
// the ANN index) needs no lint change; inventing a new first segment does.
// `test` is reserved for test-local fixture names.
constexpr std::array<std::string_view, 12> kObsNameLayers = {
    "bench", "core", "data",      "features", "geometry", "img",
    "nn",    "obs",  "knowledge", "serve",    "test",     "util"};

// Lowercase dotted name: >= 2 non-empty dot-separated segments of
// [a-z0-9_-] characters, the first from the layer vocabulary. Mirrors
// obs::IsValidMetricName plus the vocabulary restriction.
bool IsValidObsName(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool has_dot = false;
  char prev = '\0';
  for (char c : name) {
    if (c == '.') {
      if (prev == '.') return false;
      has_dot = true;
    } else if (!std::islower(static_cast<unsigned char>(c)) &&
               !std::isdigit(static_cast<unsigned char>(c)) && c != '_' &&
               c != '-') {
      return false;
    }
    prev = c;
  }
  if (!has_dot) return false;
  const std::string_view first = name.substr(0, name.find('.'));
  for (std::string_view layer : kObsNameLayers) {
    if (first == layer) return true;
  }
  return false;
}

void CheckSpanMetricNames(const SourceFile& file, std::vector<Violation>* out) {
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    // Names live inside string literals, which the code view blanks, so
    // scan the raw line — but require the call prefix to survive in the
    // code view at the same column, which rejects matches inside
    // comments and nested string literals.
    const std::string& raw = file.raw[i];
    const std::string& code = i < file.code.size() ? file.code[i] : raw;
    const int lineno = static_cast<int>(i) + 1;
    auto check_patterns = [&](auto patterns, auto valid,
                              const std::string& requirement) {
      for (std::string_view pattern : patterns) {
        for (std::size_t pos = raw.find(pattern); pos != std::string::npos;
             pos = raw.find(pattern, pos + 1)) {
          if (pattern[0] != '.' && pos > 0 && IsIdentChar(raw[pos - 1])) {
            continue;  // Substring of a longer identifier.
          }
          const std::size_t call_len = pattern.size() - 1;  // Sans quote.
          if (pos + call_len > code.size() ||
              code.compare(pos, call_len, pattern.substr(0, call_len)) != 0) {
            continue;  // Inside a comment or a string literal.
          }
          const std::size_t name_begin = pos + pattern.size();
          const std::size_t name_end = raw.find('"', name_begin);
          if (name_end == std::string::npos) continue;
          const std::string name =
              raw.substr(name_begin, name_end - name_begin);
          if (valid(name)) continue;
          if (file.Suppressed(lineno, "span-metric-name")) continue;
          out->push_back({file.path, lineno, "span-metric-name",
                          "span/metric name `" + name + "` " + requirement});
        }
      }
    };
    check_patterns(kObsNamePatterns, IsValidObsName,
                   "must be lowercase dotted `layer.stage.detail` "
                   "([a-z0-9_-] segments, at least one dot, first segment "
                   "a known layer)");
    check_patterns(kBenchKeyPatterns, IsValidBenchKey,
                   "is a bench telemetry JSON key and must be lowercase "
                   "snake_case ([a-z][a-z0-9_]*)");
  }
}

void CheckIncludeGuard(const SourceFile& file, std::vector<Violation>* out) {
  if (!file.IsHeader()) return;
  if (file.Suppressed(1, "include-guard")) return;
  std::string ifndef_sym;
  std::string define_sym;
  bool has_endif = false;
  int directives_seen = 0;
  for (const std::string& line : file.code) {
    std::size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] != '#') continue;
    ++i;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    std::size_t j = i;
    while (j < line.size() && IsIdentChar(line[j])) ++j;
    const std::string directive = line.substr(i, j - i);
    auto symbol_after = [&]() {
      std::size_t s = j;
      while (s < line.size() && std::isspace(static_cast<unsigned char>(line[s]))) ++s;
      std::size_t e = s;
      while (e < line.size() && IsIdentChar(line[e])) ++e;
      return line.substr(s, e - s);
    };
    ++directives_seen;
    if (directive == "ifndef" && ifndef_sym.empty() && directives_seen == 1) {
      ifndef_sym = symbol_after();
    } else if (directive == "define" && define_sym.empty() &&
               directives_seen == 2) {
      define_sym = symbol_after();
    } else if (directive == "endif") {
      has_endif = true;
    }
  }
  if (ifndef_sym.empty() || ifndef_sym != define_sym || !has_endif) {
    out->push_back({file.path, 1, "include-guard",
                    "header must open with an #ifndef/#define include "
                    "guard and close with #endif"});
  }
}

void CheckMissingNodiscard(const SourceFile& file, std::vector<Violation>* out) {
  if (!file.IsHeader()) return;
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    const int lineno = static_cast<int>(i) + 1;
    std::size_t name_col = 0;
    std::string name = MatchFallibleDecl(line, &name_col);
    const char* what = "Status/Result-returning declaration";
    if (name.empty()) {
      name = MatchFactoryDecl(line, &name_col);
      what = "factory/loader declaration";
    }
    if (name.empty()) continue;
    // Using declarations/aliases are not function declarations.
    if (line.find("using ") != std::string::npos) continue;
    const std::string prefix = line.substr(0, name_col);
    const std::string prev = i > 0 ? file.code[i - 1] : std::string();
    const bool annotated =
        prefix.find("[[nodiscard]]") != std::string::npos ||
        prev.find("[[nodiscard]]") != std::string::npos;
    if (annotated) continue;
    if (file.Suppressed(lineno, "missing-nodiscard")) continue;
    out->push_back({file.path, lineno, "missing-nodiscard",
                    what + std::string(" `") + name +
                        "` must carry [[nodiscard]]"});
  }
}

// ---------------------------------------------------------------- driver --

void CheckFile(const SourceFile& file, std::vector<Violation>* out) {
  CheckBannedConstructs(file, out);
  CheckIncludeGuard(file, out);
  CheckMissingNodiscard(file, out);
  CheckSpanMetricNames(file, out);
}

bool IsSourcePath(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::vector<std::string> CollectTreeFiles(const fs::path& root) {
  static const char* kRoots[] = {"src", "bench", "examples", "tests", "tools"};
  std::vector<std::string> files;
  for (const char* sub : kRoots) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !IsSourcePath(entry.path())) continue;
      const std::string p = entry.path().generic_string();
      if (PathContains(p, "testdata")) continue;  // Lint fixtures violate on purpose.
      if (PathContains(p, "build")) continue;
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int LintPaths(const std::vector<std::string>& paths) {
  std::vector<SourceFile> files;
  for (const std::string& p : paths) {
    SourceFile file;
    if (!LoadFile(p, &file)) {
      std::fprintf(stderr, "snor_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    files.push_back(std::move(file));
  }
  std::vector<Violation> violations;
  for (const SourceFile& file : files) {
    CheckFile(file, &violations);
  }
  std::sort(violations.begin(), violations.end());
  for (const Violation& v : violations) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  std::printf("snor_lint: %zu file(s), %zu violation(s)\n", files.size(),
              violations.size());
  return violations.empty() ? 0 : 1;
}

// Self-test: every `// EXPECT-LINT: rule[,rule]` annotation must match a
// produced violation on that line, and no unannotated violation may
// appear.
int SelfTest(const fs::path& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourcePath(entry.path())) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "snor_lint --self-test: no fixtures under %s\n",
                 dir.generic_string().c_str());
    return 2;
  }

  std::vector<SourceFile> files;
  for (const std::string& p : paths) {
    SourceFile file;
    if (!LoadFile(p, &file)) {
      std::fprintf(stderr, "snor_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    files.push_back(std::move(file));
  }
  int failures = 0;
  std::size_t matched = 0;
  for (const SourceFile& file : files) {
    std::vector<Violation> got;
    CheckFile(file, &got);

    // Expected rules per line, from raw text (annotations live in
    // comments, which the code view strips).
    std::map<int, std::set<std::string>> expected;
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
      const std::size_t pos = file.raw[i].find("EXPECT-LINT:");
      if (pos == std::string::npos) continue;
      std::string list = file.raw[i].substr(pos + 12);
      std::stringstream ss(list);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                   rule.end());
        if (!rule.empty()) expected[static_cast<int>(i) + 1].insert(rule);
      }
    }

    std::map<int, std::set<std::string>> actual;
    for (const Violation& v : got) actual[v.line].insert(v.rule);

    for (const auto& [line, rules] : expected) {
      for (const std::string& rule : rules) {
        if (actual.count(line) > 0 && actual[line].count(rule) > 0) {
          ++matched;
        } else {
          std::fprintf(stderr,
                       "SELF-TEST FAIL %s:%d: expected [%s], not reported\n",
                       file.real_path.c_str(), line, rule.c_str());
          ++failures;
        }
      }
    }
    for (const auto& [line, rules] : actual) {
      for (const std::string& rule : rules) {
        if (expected.count(line) == 0 || expected[line].count(rule) == 0) {
          std::fprintf(stderr,
                       "SELF-TEST FAIL %s:%d: unexpected [%s] reported\n",
                       file.real_path.c_str(), line, rule.c_str());
          ++failures;
        }
      }
    }
  }
  std::printf("snor_lint --self-test: %zu fixture(s), %zu expectation(s) "
              "matched, %d failure(s)\n",
              files.size(), matched, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace snor_lint

int main(int argc, char** argv) {
  std::string root;
  std::string self_test_dir;
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: snor_lint [--root DIR] [files...]\n"
          "       snor_lint --self-test FIXTURE_DIR\n"
          "Lints src/, bench/, examples/, tests/ and tools/ under --root\n"
          "(default: current directory) unless explicit files are given.\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "snor_lint: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  if (!self_test_dir.empty()) {
    return snor_lint::SelfTest(self_test_dir);
  }
  if (!explicit_paths.empty()) {
    return snor_lint::LintPaths(explicit_paths);
  }
  const std::vector<std::string> files =
      snor_lint::CollectTreeFiles(root.empty() ? "." : root);
  if (files.empty()) {
    std::fprintf(stderr, "snor_lint: no source files found under %s\n",
                 root.empty() ? "." : root.c_str());
    return 2;
  }
  return snor_lint::LintPaths(files);
}
