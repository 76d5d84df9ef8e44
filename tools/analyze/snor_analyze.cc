// snor_analyze: dependency-DAG and dataflow analyzer for the snor tree.
//
// Where snor_lint (tools/lint) is a single-line token scanner, this tool
// runs a real C++ tokenizer (lexer.h) over every translation unit under
// src/, bench/, examples/, tests/ and tools/ and performs the analysis
// families the line scanner cannot express.
//
// Layering (tools/analyze/layers.toml declares the module DAG):
//   layer-violation   A file in src/<module>/ includes a header from a
//                     module that is not among the module's declared
//                     dependencies (e.g. `core` including `serve`, or
//                     `serve` including the isolated `nn` stack).
//   include-cycle     The project include graph contains a cycle.
//
// Intra-procedural dataflow:
//   use-after-move    A local is read after being passed to std::move
//                     and before being reassigned or re-initialised.
//   unchecked-status  The payload of a `Result<T>` local (.value(),
//                     MoveValue(), *r, r->) or the error details of a
//                     `Status` local (.code(), .message(), .ToString())
//                     are consumed before any `.ok()` / `.status()`
//                     check.
//   lock-temporary    A statement-position `std::lock_guard` /
//                     `std::unique_lock` / `std::scoped_lock` temporary:
//                     the lock is destroyed at the end of the full
//                     expression, guarding nothing.
//
// Concurrency annotations:
//   guarded-by        A member or local annotated `// GUARDED_BY(x)` is
//                     written inside a `ParallelFor` lambda body in the
//                     same file without honouring its guard.
//
// Lock order, blocking under a lock, condvar predicates and reply-once
// are not analyzed here: they hold by construction (obs/lock_rank.h,
// serve::ReplyOnce, snor_lint's unranked-sync rule).
//
// Each run is one cold pass: read and tokenize every file, collect the
// program-wide set of Status/Result-returning names, run the per-file
// checks and the include-cycle check. The fallible set and the include
// graph span files, so the tool always analyzes a whole tree (`--root`)
// or fixture set.
//
// Suppression: `// NOLINT(rule)` on the line, or `// NOLINTNEXTLINE(rule)`
// above it.
//
// Output: one `file:line: [rule] message` line per finding, then a
// count; the exit status is 1 when there is any finding.
//
// Self-test: `snor_analyze --self-test <dir>` mirrors snor_lint's
// harness: fixtures carry `// EXPECT-ANALYZE: rule` annotations and the
// run fails on any missed or unexpected finding. A fixture's
// `// ANALYZE-AS: virtual/path` directive assigns the virtual path used
// by the path-scoped analyses (layering, cycles).

#include <algorithm>
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

#include "lexer.h"

namespace snor_analyze {

namespace fs = std::filesystem;

// -------------------------------------------------------- layer config --

/// Declared module DAG, parsed from a small TOML subset:
///   [layers]
///   core = ["data", "features", ...]
struct LayerConfig {
  // Module -> allowed direct dependency modules (self always allowed).
  std::map<std::string, std::set<std::string>> allowed;

  bool Known(const std::string& module) const {
    return allowed.count(module) > 0;
  }
};

bool ParseLayersToml(const fs::path& path, LayerConfig* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read layer config " + path.generic_string();
    return false;
  }
  std::string line;
  std::string section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    std::size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.front() == '[') {
      const std::size_t close = line.find(']');
      if (close == std::string::npos) {
        *error = path.generic_string() + ":" + std::to_string(lineno) +
                 ": unterminated section header";
        return false;
      }
      section = line.substr(1, close - 1);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      *error = path.generic_string() + ":" + std::to_string(lineno) +
               ": expected `key = [..]`";
      return false;
    }
    std::string key = line.substr(0, eq);
    key.erase(std::remove_if(key.begin(), key.end(), ::isspace), key.end());
    if (section != "layers") continue;  // Future sections are ignored.
    std::set<std::string> deps;
    std::string value = line.substr(eq + 1);
    std::string current;
    bool in_string = false;
    for (char c : value) {
      if (c == '"') {
        if (in_string && !current.empty()) deps.insert(current);
        current.clear();
        in_string = !in_string;
      } else if (in_string) {
        current.push_back(c);
      }
    }
    out->allowed[key] = std::move(deps);
  }
  if (out->allowed.empty()) {
    *error = path.generic_string() + ": no [layers] entries found";
    return false;
  }
  return true;
}

// Module of a virtual path: "src/<module>/..." -> module, else empty
// (bench/, examples/, tests/, tools/ are unconstrained consumers).
std::string ModuleOf(const std::string& path) {
  const std::size_t src = path.rfind("src/", 0) == 0
                              ? 0
                              : path.find("/src/");
  std::size_t begin;
  if (path.rfind("src/", 0) == 0) {
    begin = 4;
  } else if (src != std::string::npos) {
    begin = src + 5;
  } else {
    return std::string();
  }
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return std::string();
  return path.substr(begin, slash - begin);
}

// Module of an include path: "util/status.h" -> "util" when `util` is a
// declared module.
std::string IncludeModule(const std::string& include_path,
                          const LayerConfig& config) {
  const std::size_t slash = include_path.find('/');
  if (slash == std::string::npos) return std::string();
  const std::string mod = include_path.substr(0, slash);
  return config.Known(mod) ? mod : std::string();
}

void CheckLayering(const SourceFile& tu, const LayerConfig& config,
                   std::vector<Finding>* out) {
  const std::string module = ModuleOf(tu.path);
  if (module.empty() || !config.Known(module)) return;
  const std::set<std::string>& allowed = config.allowed.at(module);
  for (const IncludeDirective& inc : tu.includes) {
    const std::string target = IncludeModule(inc.path, config);
    if (target.empty() || target == module) continue;
    if (allowed.count(target) > 0) continue;
    if (tu.Suppressed(inc.line, "layer-violation")) continue;
    out->push_back(
        {tu.path, inc.line, "layer-violation",
         "module `" + module + "` must not include `" + inc.path +
             "`: `" + target + "` is not among its declared dependencies " +
             "(tools/analyze/layers.toml)"});
  }
}

// ---------------------------------------------------------- cycle check --

// Builds the project include graph over the analyzed TUs and reports
// every elementary cycle found by DFS (each once, at its back-edge).
void CheckIncludeCycles(const std::vector<SourceFile>& tus,
                        std::vector<Finding>* out) {
  // Keys are root-relative ("src/util/status.h"), so absolute analyzed
  // paths and the project's src/-rooted include style line up.
  auto rel_key = [](const std::string& p) -> std::string {
    static const char* const kRoots[] = {"src/", "bench/", "examples/",
                                         "tests/", "tools/"};
    for (const char* marker : kRoots) {
      if (p.rfind(marker, 0) == 0) return p;
      const std::size_t pos = p.find(std::string("/") + marker);
      if (pos != std::string::npos) return p.substr(pos + 1);
    }
    return p;
  };
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < tus.size(); ++i) {
    by_path[rel_key(tus[i].path)] = i;
  }
  auto resolve = [&](const SourceFile& from, const std::string& inc) -> long {
    // Project convention: includes are rooted at src/ (or at the
    // consumer directory for bench/tests helpers).
    const std::string rel = rel_key(from.path);
    const std::string dir =
        rel.find('/') != std::string::npos
            ? rel.substr(0, rel.rfind('/') + 1)
            : std::string();
    for (const std::string& candidate :
         {std::string("src/") + inc, dir + inc, inc}) {
      auto it = by_path.find(candidate);
      if (it != by_path.end()) return static_cast<long>(it->second);
    }
    return -1;
  };

  struct Edge {
    std::size_t to;
    int line;
  };
  std::vector<std::vector<Edge>> graph(tus.size());
  for (std::size_t i = 0; i < tus.size(); ++i) {
    for (const IncludeDirective& inc : tus[i].includes) {
      const long target = resolve(tus[i], inc.path);
      if (target >= 0 && static_cast<std::size_t>(target) != i) {
        graph[i].push_back({static_cast<std::size_t>(target), inc.line});
      }
    }
  }

  // Iterative colored DFS; a back-edge to a gray node closes a cycle.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(tus.size(), Color::kWhite);
  std::vector<std::size_t> stack_path;
  std::set<std::set<std::size_t>> reported;

  struct Frame {
    std::size_t node;
    std::size_t edge = 0;
  };
  for (std::size_t root = 0; root < tus.size(); ++root) {
    if (color[root] != Color::kWhite) continue;
    std::vector<Frame> stack{{root, 0}};
    color[root] = Color::kGray;
    stack_path.push_back(root);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.edge >= graph[frame.node].size()) {
        color[frame.node] = Color::kBlack;
        stack_path.pop_back();
        stack.pop_back();
        continue;
      }
      const Edge edge = graph[frame.node][frame.edge++];
      if (color[edge.to] == Color::kWhite) {
        color[edge.to] = Color::kGray;
        stack_path.push_back(edge.to);
        stack.push_back({edge.to, 0});
      } else if (color[edge.to] == Color::kGray) {
        // Cycle: from edge.to ... frame.node -> edge.to.
        std::set<std::size_t> members;
        std::string rendered;
        bool in_cycle = false;
        for (std::size_t node : stack_path) {
          if (node == edge.to) in_cycle = true;
          if (!in_cycle) continue;
          members.insert(node);
          rendered += tus[node].path + " -> ";
        }
        rendered += tus[edge.to].path;
        if (reported.insert(members).second &&
            !tus[frame.node].Suppressed(edge.line, "include-cycle")) {
          out->push_back({tus[frame.node].path, edge.line,
                          "include-cycle",
                          "include cycle: " + rendered});
        }
      }
    }
  }
}

// ------------------------------------------------------------ dataflow --

// Skips a balanced template argument list starting at `i` (which must
// be '<'); returns the index just past the closing '>'. Returns `i`
// unchanged when the list does not close (comparison, not template).
std::size_t SkipTemplateArgs(const std::vector<Token>& code, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < code.size() && j < i + 256; ++j) {
    if (code[j].text == "<") ++depth;
    else if (code[j].text == ">") --depth;
    else if (code[j].text == ">>") depth -= 2;
    else if (code[j].text == ";" || code[j].text == "{") return i;
    if (depth <= 0) return j + 1;
  }
  return i;
}

// Names of Status/Result-returning functions: every PascalCase
// `Status Name(` / `Result<...> Name(` declaration in the program, plus
// seeds for members the declaration scan cannot see.
std::set<std::string> BuildFallibleRegistry(
    const std::vector<SourceFile>& sources) {
  std::set<std::string> registry = {"RetryWithBackoff", "status"};
  std::vector<Token> code;
  for (const SourceFile& source : sources) {
    code.clear();
    for (const Token& tok : source.tokens) {
      if (tok.kind != Tok::kComment) code.push_back(tok);
    }
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
      if (code[i].kind != Tok::kIdent) continue;
      std::size_t name_at = i + 1;
      if (code[i].text == "Result" && code[i + 1].text == "<") {
        name_at = SkipTemplateArgs(code, i + 1);
        if (name_at == i + 1) continue;
      } else if (code[i].text != "Status") {
        continue;
      }
      if (name_at + 1 >= code.size() || code[name_at].kind != Tok::kIdent ||
          code[name_at + 1].text != "(") {
        continue;
      }
      const std::string& name = code[name_at].text;
      if (std::isupper(static_cast<unsigned char>(name[0])) != 0) {
        registry.insert(name);
      }
    }
  }
  return registry;
}

enum class VarKind { kStatus, kResult };

struct VarState {
  VarKind kind = VarKind::kStatus;
  bool checked = false;
  int declared_depth = 0;
};

struct MoveState {
  int moved_depth = 0;  // Brace depth where the move happened.
  int move_line = 0;
};

/// Runs use-after-move, unchecked-status, lock-temporary and guarded-by
/// over one file's token stream.
class DataflowAnalyzer {
 public:
  DataflowAnalyzer(const SourceFile& file,
                   const std::set<std::string>& fallible,
                   std::vector<Finding>* out)
      : file_(file), fallible_(fallible), out_(out) {
    // Strip comments up front; every index below is into code_.
    for (const Token& tok : file.tokens) {
      if (tok.kind != Tok::kComment) code_.push_back(tok);
    }
  }

  void Run() {
    CollectGuardedDecls();
    CollectParallelForBodies();
    Scan();
  }

 private:
  const Token& At(std::size_t i) const {
    static const Token kEnd{Tok::kPunct, "", 0};
    return i < code_.size() ? code_[i] : kEnd;
  }
  bool Is(std::size_t i, std::string_view text) const {
    return i < code_.size() && code_[i].text == text;
  }
  bool IsIdent(std::size_t i, std::string_view text) const {
    return i < code_.size() && code_[i].kind == Tok::kIdent &&
           code_[i].text == text;
  }

  void Report(int line, const char* rule, std::string message) {
    if (file_.Suppressed(line, rule)) return;
    out_->push_back({file_.path, line, rule, std::move(message)});
  }

  std::size_t SkipTemplateArgs(std::size_t i) const {
    return snor_analyze::SkipTemplateArgs(code_, i);
  }

  // Skips a balanced (...) starting at `i` (must be '('); returns index
  // just past ')'.
  std::size_t SkipParens(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < code_.size(); ++j) {
      if (code_[j].text == "(") ++depth;
      if (code_[j].text == ")" && --depth == 0) return j + 1;
    }
    return code_.size();
  }

  std::size_t SkipBrackets(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < code_.size(); ++j) {
      if (code_[j].text == "[") ++depth;
      if (code_[j].text == "]" && --depth == 0) return j + 1;
    }
    return code_.size();
  }

  // ---- guarded-by ----

  struct GuardedDecl {
    std::string guard;  // Mutex name, "per_worker_slot", "caller", "atomic".
    int line = 0;
  };

  // Associates `// GUARDED_BY(x)` comments with the declaration on the
  // same line: the first identifier followed by `;`, `=`, `{`, `(` or
  // `[` among that line's code tokens.
  void CollectGuardedDecls() {
    for (const Token& tok : file_.tokens) {
      if (tok.kind != Tok::kComment) continue;
      const std::size_t pos = tok.text.find(kGuardedByMarker);
      if (pos == std::string::npos) continue;
      const std::size_t open = pos + kGuardedByMarker.size() - 1;
      const std::size_t close = tok.text.find(')', open);
      if (close == std::string::npos) continue;
      std::string guard = tok.text.substr(open + 1, close - open - 1);
      guard.erase(std::remove_if(guard.begin(), guard.end(), ::isspace),
                  guard.end());
      if (guard.empty()) continue;
      std::string name;
      for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
        if (code_[i].line != tok.line) continue;
        if (code_[i].kind != Tok::kIdent) continue;
        const std::string& next = code_[i + 1].text;
        if (next == ";" || next == "=" || next == "{" || next == "(" ||
            next == "[") {
          name = code_[i].text;
          break;
        }
      }
      if (!name.empty()) guarded_[name] = {guard, tok.line};
    }
  }

  // Records [body_begin, body_end) token ranges of every lambda passed
  // to ParallelFor in this file.
  void CollectParallelForBodies() {
    for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
      if (code_[i].kind != Tok::kIdent || code_[i].text != "ParallelFor") {
        continue;
      }
      if (!Is(i + 1, "(")) continue;
      const std::size_t call_end = SkipParens(i + 1);
      // First top-level '{' inside the call opens the lambda body.
      for (std::size_t j = i + 2; j < call_end; ++j) {
        if (code_[j].text != "{") continue;
        int depth = 0;
        std::size_t k = j;
        for (; k < code_.size(); ++k) {
          if (code_[k].text == "{") ++depth;
          if (code_[k].text == "}" && --depth == 0) break;
        }
        parallel_bodies_.push_back({j, k});
        break;
      }
    }
  }

  bool InParallelBody(std::size_t i, std::size_t* body_begin,
                      std::size_t* body_end) const {
    for (const auto& [begin, end] : parallel_bodies_) {
      if (i > begin && i < end) {
        *body_begin = begin;
        *body_end = end;
        return true;
      }
    }
    return false;
  }

  // True when a lock_guard/unique_lock/scoped_lock on `mutex_name` is
  // declared between body_begin and `at`, in a scope still open at `at`.
  bool LockHeld(std::size_t body_begin, std::size_t at,
                const std::string& mutex_name) const {
    int depth = 0;
    // Open-scope stack of lock positions: (depth at decl, covered).
    std::vector<std::pair<int, bool>> scopes{{0, false}};
    for (std::size_t i = body_begin + 1; i < at; ++i) {
      const std::string& t = code_[i].text;
      if (t == "{") {
        ++depth;
        scopes.push_back({depth, scopes.back().second});
      } else if (t == "}") {
        --depth;
        if (scopes.size() > 1) scopes.pop_back();
      } else if (code_[i].kind == Tok::kIdent &&
                 (t == "lock_guard" || t == "unique_lock" ||
                  t == "scoped_lock")) {
        std::size_t j = i + 1;
        if (Is(j, "<")) j = SkipTemplateArgs(j);
        if (At(j).kind == Tok::kIdent) ++j;  // The lock variable name.
        if (!Is(j, "(")) continue;
        const std::size_t close = SkipParens(j);
        for (std::size_t k = j + 1; k + 1 < close; ++k) {
          if (code_[k].kind == Tok::kIdent &&
              code_[k].text == mutex_name) {
            scopes.back().second = true;
            break;
          }
        }
      }
    }
    return scopes.back().second;
  }

  // Mutating member-call suffixes treated as writes for guarded names.
  static bool IsMutatorName(const std::string& name) {
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "pop_back", "insert",   "erase",
        "clear",     "resize",       "reserve",  "assign",   "emplace",
        "Set",       "Add",          "Record",   "store",    "swap"};
    return kMutators.count(name) > 0;
  }

  // Classifies a potential write at index `i` (an identifier token).
  // Returns 0 = not a write, 1 = subscripted (per-slot) write,
  // 2 = whole-object write. Walks the access path (`x[i].field`,
  // `x->member`) to the mutating operator or method.
  int ClassifyWrite(std::size_t i) const {
    const bool address_of =
        i > 0 && code_[i - 1].text == "&" &&
        (i < 2 || (code_[i - 2].kind == Tok::kPunct &&
                   code_[i - 2].text != ")" && code_[i - 2].text != "]"));
    std::size_t j = i + 1;
    bool subscripted = false;
    bool mutator_call = false;
    while (j < code_.size()) {
      if (Is(j, "[")) {
        subscripted = true;
        j = SkipBrackets(j);
        continue;
      }
      if ((Is(j, ".") || Is(j, "->")) && At(j + 1).kind == Tok::kIdent) {
        if (Is(j + 2, "(")) {
          // A method call terminates the access path.
          mutator_call = IsMutatorName(code_[j + 1].text);
          break;
        }
        j += 2;
        continue;
      }
      break;
    }
    const std::string& after = At(j).text;
    const bool assign = after == "=" || after == "+=" || after == "-=" ||
                        after == "*=" || after == "/=" || after == "%=" ||
                        after == "&=" || after == "|=" || after == "^=";
    const bool incdec = after == "++" || after == "--" ||
                        (i > 0 && (code_[i - 1].text == "++" ||
                                   code_[i - 1].text == "--"));
    if (assign || incdec || mutator_call || address_of) {
      return subscripted ? 1 : 2;
    }
    return 0;
  }

  void CheckGuardedWrite(std::size_t i) {
    auto it = guarded_.find(code_[i].text);
    if (it == guarded_.end()) return;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    if (!InParallelBody(i, &body_begin, &body_end)) return;
    const int write = ClassifyWrite(i);
    if (write == 0) return;
    const std::string& guard = it->second.guard;
    const int line = code_[i].line;
    if (guard == "atomic") return;
    if (guard == "caller") {
      Report(line, "guarded-by",
             "`" + code_[i].text + "` is GUARDED_BY(caller): it must " +
                 "never be written inside a ParallelFor lambda " +
                 "(caller-serialized state)");
      return;
    }
    if (guard == "per_worker_slot") {
      if (write != 1) {
        Report(line, "guarded-by",
               "`" + code_[i].text + "` is GUARDED_BY(per_worker_slot): " +
                   "inside a ParallelFor lambda only subscripted " +
                   "per-index writes are race-free; whole-object " +
                   "mutation is a data race");
      }
      return;
    }
    if (!LockHeld(body_begin, i, guard)) {
      Report(line, "guarded-by",
             "write to `" + code_[i].text + "` inside a ParallelFor " +
                 "lambda without holding its guard `" + guard +
                 "` (declare a std::lock_guard on `" + guard +
                 "` in the enclosing scope)");
    }
  }

  // ---- lock-temporary ----

  void CheckLockTemporary(std::size_t i) {
    const std::string& name = code_[i].text;
    if (name != "lock_guard" && name != "unique_lock" &&
        name != "scoped_lock") {
      return;
    }
    // Statement-initial position only: `;`/`{`/`}` (or std:: after one)
    // precedes the type. `return std::unique_lock(...)`, `auto l = ...`
    // and declarations with a variable name are all fine.
    std::size_t before = i;
    if (before >= 2 && code_[before - 1].text == "::" &&
        code_[before - 2].text == "std") {
      before -= 2;
    }
    if (before > 0) {
      const std::string& prev = code_[before - 1].text;
      if (prev != ";" && prev != "{" && prev != "}") return;
    }
    std::size_t j = i + 1;
    if (Is(j, "<")) j = SkipTemplateArgs(j);
    if (!Is(j, "(")) return;  // Named declaration or other use.
    Report(code_[i].line, "lock-temporary",
           "`std::" + name + "` temporary is destroyed at the end of " +
               "the statement and guards nothing; name it " +
               "(`std::" + name + "<...> lock(mu);`)");
  }

  // ---- main scan ----

  struct Scope {
    std::map<std::string, VarState> vars;
    std::map<std::string, MoveState> moved;
  };

  VarState* FindVar(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto v = it->vars.find(name);
      if (v != it->vars.end()) return &v->second;
    }
    return nullptr;
  }

  MoveState* FindMoved(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto v = it->moved.find(name);
      if (v != it->moved.end()) return &v->second;
    }
    return nullptr;
  }

  void ClearMoved(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      it->moved.erase(name);
    }
  }

  // Drops every move recorded at `depth` or deeper across all scopes.
  void EraseMovesAtOrBelow(int depth) {
    for (Scope& scope : scopes_) {
      for (auto it = scope.moved.begin(); it != scope.moved.end();) {
        if (it->second.moved_depth >= depth) {
          it = scope.moved.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // True when the statement containing token `i` is a gtest-style
  // assertion (EXPECT_*/ASSERT_*): asserting on `.code()` or a value
  // IS the check, so consuming there is fine.
  bool InAssertionStatement(std::size_t i) const {
    for (std::size_t k = i, steps = 0; k > 0 && steps < 64; --k, ++steps) {
      const Token& t = code_[k - 1];
      if (t.text == ";" || t.text == "{" || t.text == "}") break;
      if (t.kind == Tok::kIdent && (t.text.rfind("EXPECT_", 0) == 0 ||
                                    t.text.rfind("ASSERT_", 0) == 0)) {
        return true;
      }
    }
    return false;
  }

  // Declares Status/Result locals. Returns tokens consumed (0 = no
  // declaration here).
  std::size_t TryDeclare(std::size_t i) {
    if (paren_depth_ > 0) return 0;  // Parameters and condition inits.
    std::size_t name_at = 0;
    VarKind kind = VarKind::kStatus;
    if (IsIdent(i, "Status")) {
      name_at = i + 1;
    } else if (IsIdent(i, "Result") && Is(i + 1, "<")) {
      const std::size_t past = SkipTemplateArgs(i + 1);
      if (past == i + 1) return 0;
      name_at = past;
      kind = VarKind::kResult;
    } else if (IsIdent(i, "auto")) {
      // `auto r = Fallible(...)`: typed via the fallible registry.
      std::size_t n = i + 1;
      if (Is(n, "&") || Is(n, "*")) ++n;
      if (At(n).kind != Tok::kIdent || !Is(n + 1, "=")) return 0;
      // First called identifier of the initializer.
      std::size_t j = n + 2;
      std::string called;
      for (; j < code_.size() && !Is(j, ";"); ++j) {
        if (code_[j].kind == Tok::kIdent && Is(j + 1, "(")) {
          called = code_[j].text;
          break;
        }
        if (code_[j].kind == Tok::kIdent || code_[j].text == "::" ||
            code_[j].text == "." || code_[j].text == "->") {
          continue;
        }
        break;
      }
      if (called.empty() || fallible_.count(called) == 0) return 0;
      scopes_.back().vars[code_[n].text] = {VarKind::kResult, false,
                                            brace_depth_};
      return 1;  // Leave the initializer to the use scanner.
    } else {
      return 0;
    }
    if (At(name_at).kind != Tok::kIdent) return 0;
    const std::string& next = At(name_at + 1).text;
    if (next != "=" && next != "(" && next != "{" && next != ";") return 0;
    // `Status` as a return type of a declaration (`Status Foo();` at
    // class scope) also matches `(`; require a lowercase-ish local name
    // or an initializer to cut those out.
    if (next == "(" &&
        std::isupper(static_cast<unsigned char>(At(name_at).text[0])) != 0) {
      return 0;
    }
    // A value whose initializer never calls a fallible function is
    // known by construction (`Result<string> r = std::string("x")`,
    // default-OK `Status st;`) and needs no .ok() gate.
    bool fallible_init = false;
    for (std::size_t j = name_at + 1; j < code_.size() && !Is(j, ";");
         ++j) {
      if (code_[j].kind == Tok::kIdent && Is(j + 1, "(") &&
          fallible_.count(code_[j].text) > 0) {
        fallible_init = true;
        break;
      }
    }
    scopes_.back().vars[At(name_at).text] = {kind, !fallible_init,
                                             brace_depth_};
    return name_at - i + 1;
  }

  void Scan() {
    scopes_.push_back({});
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& tok = code_[i];
      if (tok.text == "{") {
        // A constructor-init-list move (`: member_(std::move(param))`)
        // is consumed when the body opens; without this, the moved
        // state would outlive the function and poison later ones.
        if (in_init_list_) {
          EraseMovesAtOrBelow(brace_depth_);
          in_init_list_ = false;
        }
        ++brace_depth_;
        scopes_.push_back({});
        // Lambda bodies live inside call parens; give them a clean
        // paren depth so their locals are tracked like any other.
        paren_stack_.push_back(paren_depth_);
        paren_depth_ = 0;
        continue;
      }
      if (tok.text == "}") {
        --brace_depth_;
        if (scopes_.size() > 1) scopes_.pop_back();
        if (!paren_stack_.empty()) {
          paren_depth_ = paren_stack_.back();
          paren_stack_.pop_back();
        }
        // Moves recorded in deeper-or-equal scopes are now out of
        // lifetime (loop bodies re-enter fresh).
        for (Scope& scope : scopes_) {
          for (auto it = scope.moved.begin(); it != scope.moved.end();) {
            if (it->second.moved_depth > brace_depth_) {
              it = scope.moved.erase(it);
            } else {
              ++it;
            }
          }
        }
        continue;
      }
      if (tok.text == "(") ++paren_depth_;
      if (tok.text == ")") --paren_depth_;
      if (tok.text == ":" && i > 0 && code_[i - 1].text == ")") {
        in_init_list_ = true;  // `Ctor(...) : member_(...)`.
      }
      if (tok.text == ";") in_init_list_ = false;
      if (tok.kind != Tok::kIdent) continue;

      // switch cases are mutually exclusive branches: a move in one
      // case cannot be observed by the next.
      if (tok.text == "case" || tok.text == "default") {
        EraseMovesAtOrBelow(brace_depth_);
        continue;
      }

      CheckLockTemporary(i);
      CheckGuardedWrite(i);

      // `x.text` / `x->text`: a member access never names a tracked
      // local, whatever its spelling.
      if (i > 0 &&
          (code_[i - 1].text == "." || code_[i - 1].text == "->")) {
        continue;
      }

      // std::move(x) marks x moved-from.
      if (tok.text == "move" && i >= 2 && code_[i - 1].text == "::" &&
          code_[i - 2].text == "std" && Is(i + 1, "(") &&
          At(i + 2).kind == Tok::kIdent && Is(i + 3, ")")) {
        const std::string& target = code_[i + 2].text;
        MoveState* prior = FindMoved(target);
        if (prior != nullptr) {
          Report(code_[i + 2].line, "use-after-move",
                 "`" + target + "` is moved again after being moved on " +
                     "line " + std::to_string(prior->move_line));
        } else {
          scopes_.back().moved[target] = {brace_depth_, tok.line};
        }
        i += 3;
        continue;
      }

      const std::size_t declared = TryDeclare(i);
      if (declared > 0) {
        i += declared - 1;
        continue;
      }

      // Use of a moved-from variable?
      MoveState* moved = FindMoved(tok.text);
      if (moved != nullptr) {
        if (Is(i + 1, "=")) {
          ClearMoved(tok.text);  // Reassignment re-initialises.
        } else if ((Is(i + 1, ".") || Is(i + 1, "->")) &&
                   (IsIdent(i + 2, "clear") || IsIdent(i + 2, "reset") ||
                    IsIdent(i + 2, "assign"))) {
          ClearMoved(tok.text);
        } else {
          Report(tok.line, "use-after-move",
                 "`" + tok.text + "` is used after being moved on line " +
                     std::to_string(moved->move_line) +
                     "; reassign it first or restructure the flow");
          ClearMoved(tok.text);  // Report each moved value once.
        }
      }

      // Status/Result check-before-consume tracking.
      VarState* var = FindVar(tok.text);
      if (var != nullptr) {
        // `SNOR_RETURN_NOT_OK(st)` / `IsRetryable(st)` count as checks.
        if (i >= 2 && code_[i - 1].text == "(" &&
            (code_[i - 2].text == "SNOR_RETURN_NOT_OK" ||
             code_[i - 2].text == "IsRetryable")) {
          var->checked = true;
        } else if (Is(i + 1, "=")) {
          var->checked = false;  // New value, unchecked again.
        } else if (Is(i + 1, ".") || Is(i + 1, "->")) {
          const std::string& member = At(i + 2).text;
          if (member == "ok" || member == "status") {
            var->checked = true;
          } else if (!var->checked) {
            const bool result_consume =
                var->kind == VarKind::kResult &&
                (member == "value" || member == "MoveValue");
            const bool status_consume =
                member == "code" || member == "message" ||
                member == "ToString";
            // `(void)x.value()` is a deliberate discard; asserting on
            // the consumed value (EXPECT_EQ(s.code(), ...)) is itself
            // the check.
            const bool discarded = i >= 3 && code_[i - 1].text == ")" &&
                                   code_[i - 2].text == "void" &&
                                   code_[i - 3].text == "(";
            if ((result_consume || status_consume) &&
                (discarded || InAssertionStatement(i))) {
              var->checked = true;
            } else if (result_consume || status_consume) {
              Report(tok.line, "unchecked-status",
                     "`" + tok.text + "." + member + "` consumes the " +
                         (var->kind == VarKind::kResult ? "Result"
                                                        : "Status") +
                         " before any `.ok()` check; test `" + tok.text +
                         ".ok()` (or propagate with SNOR_RETURN_NOT_OK/" +
                         "SNOR_ASSIGN_OR_RETURN) first");
              var->checked = true;  // Report each variable once.
            }
          }
        } else if (var->kind == VarKind::kResult && !var->checked &&
                   !InAssertionStatement(i) && i > 0 &&
                   code_[i - 1].text == "*" &&
                   (i < 2 || (code_[i - 2].kind == Tok::kPunct &&
                              code_[i - 2].text != ")" &&
                              code_[i - 2].text != "]") ||
                    code_[i - 2].text == "return")) {
          Report(tok.line, "unchecked-status",
                 "`*" + tok.text + "` dereferences the Result before " +
                     "any `.ok()` check");
          var->checked = true;
        }
      }
    }
  }

  const SourceFile& file_;
  const std::set<std::string>& fallible_;
  std::vector<Finding>* out_;
  std::vector<Token> code_;  // Comment-free token stream.

  std::map<std::string, GuardedDecl> guarded_;
  std::vector<std::pair<std::size_t, std::size_t>> parallel_bodies_;
  std::vector<Scope> scopes_;
  int brace_depth_ = 0;
  int paren_depth_ = 0;
  bool in_init_list_ = false;
  std::vector<int> paren_stack_;
};

// ---------------------------------------------------------------- driver --

bool IsSourcePath(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool PathContains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

std::vector<std::string> CollectTreeFiles(const fs::path& root) {
  static const char* kRoots[] = {"src", "bench", "examples", "tests",
                                 "tools"};
  std::vector<std::string> files;
  for (const char* sub : kRoots) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !IsSourcePath(entry.path())) continue;
      const std::string p = entry.path().generic_string();
      // Skips are matched against the root-relative path only, so a
      // checkout that itself lives under a directory named "build"
      // (e.g. a ctest scratch tree) is still analyzable.
      std::error_code ec;
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      const std::string& match = ec ? p : rel;
      if (PathContains(match, "testdata")) continue;  // Fixtures violate on purpose.
      if (PathContains(match, "build")) continue;
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Reads and tokenizes every path; false on the first unreadable one.
bool LoadSources(const std::vector<std::string>& paths,
                 std::vector<SourceFile>* out) {
  out->resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!LoadFile(paths[i], &(*out)[i])) {
      std::fprintf(stderr, "snor_analyze: cannot read %s\n",
                   paths[i].c_str());
      return false;
    }
  }
  return true;
}

// The whole analysis over a set of tokenized files: the program-wide
// fallible registry, then layering and the dataflow checks per file, then
// the include-cycle check. Returns the findings sorted and de-duplicated.
std::vector<Finding> Analyze(const std::vector<SourceFile>& sources,
                             const LayerConfig& config) {
  std::vector<Finding> findings;
  const std::set<std::string> fallible = BuildFallibleRegistry(sources);
  for (const SourceFile& source : sources) {
    CheckLayering(source, config, &findings);
    DataflowAnalyzer(source, fallible, &findings).Run();
  }
  CheckIncludeCycles(sources, &findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                             }),
                 findings.end());
  return findings;
}

int RunTree(const fs::path& root) {
  LayerConfig config;
  std::string error;
  if (!ParseLayersToml(root / "tools" / "analyze" / "layers.toml", &config,
                       &error)) {
    std::fprintf(stderr, "snor_analyze: %s\n", error.c_str());
    return 2;
  }
  const std::vector<std::string> paths = CollectTreeFiles(root);
  if (paths.empty()) {
    std::fprintf(stderr, "snor_analyze: no source files under %s\n",
                 root.generic_string().c_str());
    return 2;
  }
  std::vector<SourceFile> sources;
  if (!LoadSources(paths, &sources)) return 2;
  const std::vector<Finding> findings = Analyze(sources, config);
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::printf("snor_analyze: %zu file(s), %zu finding(s)\n", paths.size(),
              findings.size());
  return findings.empty() ? 0 : 1;
}

// Self-test: every `// EXPECT-ANALYZE: rule[,rule]` must match a finding
// on that line, and no unannotated finding may appear.
int SelfTest(const fs::path& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourcePath(entry.path())) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "snor_analyze --self-test: no fixtures under %s\n",
                 dir.generic_string().c_str());
    return 2;
  }
  LayerConfig config;
  std::string error;
  fs::path config_path = dir / "layers.toml";
  if (!fs::exists(config_path)) {
    config_path = dir.parent_path() / "layers.toml";
  }
  if (!ParseLayersToml(config_path, &config, &error)) {
    std::fprintf(stderr, "snor_analyze: %s\n", error.c_str());
    return 2;
  }

  std::vector<SourceFile> sources;
  if (!LoadSources(paths, &sources)) return 2;
  const std::vector<Finding> findings = Analyze(sources, config);

  // Expectations, per real file and line, from comment tokens.
  int failures = 0;
  std::size_t matched = 0;
  std::map<std::string, std::map<int, std::set<std::string>>> expected;
  std::map<std::string, std::string> virtual_to_real;
  for (const SourceFile& file : sources) {
    virtual_to_real[file.path] = file.real_path;
    for (const Token& tok : file.tokens) {
      if (tok.kind != Tok::kComment) continue;
      const std::size_t pos = tok.text.find(kExpectMarker);
      if (pos == std::string::npos) continue;
      std::stringstream ss(tok.text.substr(pos + kExpectMarker.size()));
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                   rule.end());
        if (!rule.empty()) expected[file.path][tok.line].insert(rule);
      }
    }
  }

  std::map<std::string, std::map<int, std::set<std::string>>> actual;
  for (const Finding& f : findings) {
    actual[f.file][f.line].insert(f.rule);
  }

  auto real_name = [&](const std::string& virt) {
    auto it = virtual_to_real.find(virt);
    return it != virtual_to_real.end() ? it->second : virt;
  };

  for (const auto& [file, lines] : expected) {
    for (const auto& [line, rules] : lines) {
      for (const std::string& rule : rules) {
        if (actual.count(file) > 0 && actual[file].count(line) > 0 &&
            actual[file][line].count(rule) > 0) {
          ++matched;
        } else {
          std::fprintf(stderr,
                       "SELF-TEST FAIL %s:%d: expected [%s], not reported\n",
                       real_name(file).c_str(), line, rule.c_str());
          ++failures;
        }
      }
    }
  }
  for (const auto& [file, lines] : actual) {
    for (const auto& [line, rules] : lines) {
      for (const std::string& rule : rules) {
        if (expected.count(file) == 0 || expected[file].count(line) == 0 ||
            expected[file][line].count(rule) == 0) {
          std::fprintf(stderr,
                       "SELF-TEST FAIL %s:%d: unexpected [%s] reported\n",
                       real_name(file).c_str(), line, rule.c_str());
          ++failures;
        }
      }
    }
  }
  std::printf(
      "snor_analyze --self-test: %zu fixture(s), %zu expectation(s) "
      "matched, %d failure(s)\n",
      paths.size(), matched, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace snor_analyze

int main(int argc, char** argv) {
  std::string root = ".";
  std::string self_test_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: snor_analyze [--root DIR]\n"
          "       snor_analyze --self-test FIXTURE_DIR\n"
          "Dependency-DAG and dataflow analysis over src/, bench/,\n"
          "examples/, tests/ and tools/\n"
          "(module DAG: DIR/tools/analyze/layers.toml).\n");
      return 0;
    } else {
      std::fprintf(stderr, "snor_analyze: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  if (!self_test_dir.empty()) {
    return snor_analyze::SelfTest(self_test_dir);
  }
  return snor_analyze::RunTree(root);
}
