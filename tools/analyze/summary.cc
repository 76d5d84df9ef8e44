#include "summary.h"

#include <algorithm>
#include <cctype>

namespace snor_analyze {

namespace {

// ------------------------------------------------------- token helpers --

const Token kEndToken{Tok::kPunct, "", 0};

class TokenView {
 public:
  explicit TokenView(const std::vector<Token>& code) : code_(code) {}

  const Token& At(std::size_t i) const {
    return i < code_.size() ? code_[i] : kEndToken;
  }
  bool Is(std::size_t i, std::string_view text) const {
    return i < code_.size() && code_[i].text == text;
  }
  bool IsIdentTok(std::size_t i) const {
    return i < code_.size() && code_[i].kind == Tok::kIdent;
  }
  std::size_t size() const { return code_.size(); }

  std::size_t SkipParens(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < code_.size(); ++j) {
      if (code_[j].text == "(") ++depth;
      if (code_[j].text == ")" && --depth == 0) return j + 1;
    }
    return code_.size();
  }

  std::size_t SkipBraces(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < code_.size(); ++j) {
      if (code_[j].text == "{") ++depth;
      if (code_[j].text == "}" && --depth == 0) return j + 1;
    }
    return code_.size();
  }

  // Index of the matching '}' for the '{' at i (or end).
  std::size_t MatchBrace(std::size_t i) const {
    const std::size_t past = SkipBraces(i);
    return past == 0 ? code_.size() : past - 1;
  }

  std::size_t SkipTemplateArgs(std::size_t i) const {
    int depth = 0;
    for (std::size_t j = i; j < code_.size() && j < i + 256; ++j) {
      if (code_[j].text == "<") ++depth;
      else if (code_[j].text == ">") --depth;
      else if (code_[j].text == ">>") depth -= 2;
      else if (code_[j].text == ";" || code_[j].text == "{") return i;
      if (depth <= 0) return j + 1;
    }
    return i;
  }

  // Splits the (...) starting at `open` into top-level argument ranges.
  std::vector<std::pair<std::size_t, std::size_t>> SplitArgs(
      std::size_t open) const {
    std::vector<std::pair<std::size_t, std::size_t>> args;
    const std::size_t past = SkipParens(open);
    if (past <= open + 2) return args;  // () — no arguments.
    int paren = 0;
    int brace = 0;
    int bracket = 0;
    std::size_t begin = open + 1;
    for (std::size_t j = open; j + 1 < past; ++j) {
      const std::string& t = code_[j].text;
      if (t == "(") ++paren;
      else if (t == ")") --paren;
      else if (t == "{") ++brace;
      else if (t == "}") --brace;
      else if (t == "[") ++bracket;
      else if (t == "]") --bracket;
      else if (t == "," && paren == 1 && brace == 0 && bracket == 0) {
        args.emplace_back(begin, j);
        begin = j + 1;
      }
    }
    args.emplace_back(begin, past - 1);
    return args;
  }

 private:
  const std::vector<Token>& code_;
};

bool IsCallKeyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",    "for",          "while",    "do",
      "switch",   "case",    "return",       "break",    "continue",
      "sizeof",   "alignof", "decltype",     "typeid",   "new",
      "delete",   "catch",   "throw",        "noexcept", "static_assert",
      "assert",   "defined", "alignas",      "int",      "double",
      "float",    "bool",    "char",         "void",     "auto",
      "unsigned", "signed",  "long",         "short",    "operator",
      "co_await", "co_return"};
  return kKeywords.count(t) > 0;
}

bool IsGuardType(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "shared_lock";
}

bool IsMutexType(const std::string& t) {
  return t == "mutex" || t == "shared_mutex" || t == "recursive_mutex" ||
         t == "timed_mutex";
}

bool IsCondvarType(const std::string& t) {
  return t == "condition_variable" || t == "condition_variable_any";
}

// Direct blocking primitives called as free functions.
const char* FreeBlockingName(const std::string& t) {
  static const std::map<std::string, const char*> kNames = {
      {"sleep_for", "std::this_thread::sleep_for"},
      {"sleep_until", "std::this_thread::sleep_until"},
      {"fopen", "fopen"},     {"fclose", "fclose"},
      {"fread", "fread"},     {"fwrite", "fwrite"},
      {"fflush", "fflush"},   {"fgets", "fgets"},
      {"fputs", "fputs"},     {"fscanf", "fscanf"},
      {"fprintf", "fprintf"}, {"getline", "std::getline"},
      {"system", "system"}};
  auto it = kNames.find(t);
  return it != kNames.end() ? it->second : nullptr;
}

// Direct blocking primitives called as `receiver.method(...)`.
const char* MethodBlockingName(const std::string& t) {
  static const std::map<std::string, const char*> kNames = {
      {"join", "thread join"},
      {"read", "stream read"},
      {"write", "stream write"},
      {"flush", "stream flush"}};
  auto it = kNames.find(t);
  return it != kNames.end() ? it->second : nullptr;
}

bool IsFileStreamType(const std::string& t) {
  return t == "ifstream" || t == "ofstream" || t == "fstream";
}

// ------------------------------------------------------ promise walker --

// Recursive-descent walk of one function body: builds per-loop event
// streams with branch structure, and records which parameters the
// function fulfils or forwards (for the fulfils-closure in pass 2).
class PromiseWalker {
 public:
  PromiseWalker(const TokenView& view, FunctionSummary* fn)
      : view_(view), fn_(fn) {
    for (std::size_t k = 0; k < fn->params.size(); ++k) {
      if (!fn->params[k].empty()) param_index_[fn->params[k]] = k;
    }
  }

  void WalkBlock(std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    while (i < end) {
      const Token& t = view_.At(i);
      if (t.text == ";") {
        ++i;
        continue;
      }
      if (t.text == "{") {
        const std::size_t close = view_.MatchBrace(i);
        WalkBlock(i + 1, close);
        i = close + 1;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "if") {
        i = WalkIf(i, end);
        continue;
      }
      if (t.kind == Tok::kIdent && (t.text == "for" || t.text == "while")) {
        i = WalkLoop(i, end);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "do") {
        i = WalkDo(i, end);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "switch") {
        i = WalkSwitch(i, end);
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "try") {
        i = WalkTry(i, end);
        continue;
      }
      if (t.kind == Tok::kIdent &&
          (t.text == "return" || t.text == "throw")) {
        const std::size_t stop = StmtEnd(i, end);
        ScanPlain(i + 1, stop);
        EmitAll({PEv::kBreakOrReturn, "", "", -1, t.line});
        i = stop + 1;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "continue") {
        EmitInner({PEv::kContinue, "", "", -1, t.line});
        i = StmtEnd(i, end) + 1;
        continue;
      }
      if (t.kind == Tok::kIdent && t.text == "break") {
        EmitInner({PEv::kBreakOrReturn, "", "", -1, t.line});
        i = StmtEnd(i, end) + 1;
        continue;
      }
      if (t.kind == Tok::kIdent &&
          (t.text == "case" || t.text == "default")) {
        // Jump past the `case X:` label.
        while (i < end && !view_.Is(i, ":")) ++i;
        ++i;
        continue;
      }
      const std::size_t stop = StmtEnd(i, end);
      ScanPlain(i, stop);
      i = stop + 1;
    }
  }

 private:
  // One-past index of the statement starting at i: `{...}` or up to the
  // next top-level `;` (lambda/initializer braces are skipped whole).
  std::size_t StmtEnd(std::size_t i, std::size_t end) const {
    if (view_.Is(i, "{")) return view_.MatchBrace(i);
    for (std::size_t j = i; j < end; ++j) {
      const std::string& t = view_.At(j).text;
      if (t == "(") {
        j = view_.SkipParens(j) - 1;
      } else if (t == "{") {
        j = view_.MatchBrace(j);
      } else if (t == ";") {
        return j;
      }
    }
    return end;
  }

  // Walks one sub-statement (brace block or single statement).
  std::size_t WalkSub(std::size_t i, std::size_t end) {
    const std::size_t stop = StmtEnd(i, end);
    if (view_.Is(i, "{")) {
      WalkBlock(i + 1, stop);
      return stop + 1;
    }
    WalkBlock(i, stop + 1);
    return stop + 1;
  }

  std::size_t WalkIf(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    if (view_.Is(j, "constexpr")) ++j;
    if (!view_.Is(j, "(")) return i + 1;
    const std::size_t cond_end = view_.SkipParens(j);
    ScanPlain(j + 1, cond_end - 1);
    EmitAll({PEv::kBranchOpen, "", "", -1, view_.At(i).line});
    std::size_t next = WalkSub(cond_end, end);
    if (next < end && view_.Is(next, "else")) {
      EmitAll({PEv::kBranchElse, "", "", -1, view_.At(next).line});
      next = WalkSub(next + 1, end);
    }
    EmitAll({PEv::kBranchClose, "", "", -1, view_.At(next).line});
    return next;
  }

  std::size_t WalkLoop(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    if (!view_.Is(j, "(")) return i + 1;
    const std::size_t cond_end = view_.SkipParens(j);
    ScanPlain(j + 1, cond_end - 1);
    return WalkLoopBody(view_.At(i).line, cond_end, end);
  }

  std::size_t WalkDo(std::size_t i, std::size_t end) {
    std::size_t next = WalkLoopBody(view_.At(i).line, i + 1, end);
    if (next < end && view_.Is(next, "while")) {
      const std::size_t cond_end = view_.SkipParens(next + 1);
      ScanPlain(next + 2, cond_end - 1);
      return cond_end;
    }
    return next;
  }

  std::size_t WalkLoopBody(int line, std::size_t body, std::size_t end) {
    PromiseLoop loop;
    loop.line = line;
    EmitAll({PEv::kLoopOpen, "", "", -1, line});
    active_.push_back(&loop);
    const std::size_t next = WalkSub(body, end);
    active_.pop_back();
    EmitAll({PEv::kLoopClose, "", "", -1, view_.At(next).line});
    loop.events.push_back(
        {PEv::kEnd, "", "", -1,
         next > 0 ? view_.At(next - 1).line : line});
    const bool has_fulfil = std::any_of(
        loop.events.begin(), loop.events.end(), [](const PEvent& e) {
          return e.kind == PEv::kFulfilDirect || e.kind == PEv::kFulfilCall;
        });
    if (has_fulfil) fn_->promise_loops.push_back(std::move(loop));
    return next;
  }

  // switch and catch bodies are joined like a maybe-taken branch.
  std::size_t WalkSwitch(std::size_t i, std::size_t end) {
    std::size_t j = i + 1;
    if (!view_.Is(j, "(")) return i + 1;
    const std::size_t cond_end = view_.SkipParens(j);
    ScanPlain(j + 1, cond_end - 1);
    EmitAll({PEv::kBranchOpen, "", "", -1, view_.At(i).line});
    const std::size_t next = WalkSub(cond_end, end);
    EmitAll({PEv::kBranchElse, "", "", -1, view_.At(next).line});
    EmitAll({PEv::kBranchClose, "", "", -1, view_.At(next).line});
    return next;
  }

  std::size_t WalkTry(std::size_t i, std::size_t end) {
    std::size_t next = WalkSub(i + 1, end);
    while (next < end && view_.Is(next, "catch")) {
      const std::size_t cond_end = view_.SkipParens(next + 1);
      EmitAll({PEv::kBranchOpen, "", "", -1, view_.At(next).line});
      next = WalkSub(cond_end, end);
      EmitAll({PEv::kBranchElse, "", "", -1, view_.At(next).line});
      EmitAll({PEv::kBranchClose, "", "", -1, view_.At(next).line});
    }
    return next;
  }

  // The flow variable of an argument: `x`, `&x`, `*x`, `std::move(x)`.
  std::string BareVar(std::size_t begin, std::size_t end) const {
    std::size_t b = begin;
    if (view_.Is(b, "&") || view_.Is(b, "*")) ++b;
    if (b + 1 == end && view_.IsIdentTok(b)) {
      const std::string& name = view_.At(b).text;
      if (name == "this" || name == "nullptr" || name == "true" ||
          name == "false") {
        return std::string();
      }
      return name;
    }
    // std::move(x) / move(x)
    b = begin;
    if (view_.Is(b, "std") && view_.Is(b + 1, "::")) b += 2;
    if (view_.IsIdentTok(b) && view_.At(b).text == "move" &&
        view_.Is(b + 1, "(") && view_.IsIdentTok(b + 2) &&
        view_.Is(b + 3, ")") && b + 4 == end) {
      return view_.At(b + 2).text;
    }
    return std::string();
  }

  // Scans a plain statement (or condition) for fulfil / forward / pass
  // events, in token order. Nested call arguments are scanned too.
  void ScanPlain(std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (!view_.IsIdentTok(k)) continue;
      const std::string& name = view_.At(k).text;
      if (name == "set_value" && view_.Is(k + 1, "(") && k > 0 &&
          (view_.Is(k - 1, ".") || view_.Is(k - 1, "->"))) {
        const std::string base = ReceiverBase(k);
        if (!base.empty()) {
          Emit({PEv::kFulfilDirect, base, "", -1, view_.At(k).line});
        }
        continue;
      }
      if (!view_.Is(k + 1, "(")) continue;
      if (IsCallKeyword(name) || IsGuardType(name)) continue;
      if (name == "move" || name == "forward" || name == "set_value") {
        continue;
      }
      const auto args = view_.SplitArgs(k + 1);
      const bool is_forward = name == "push_back" ||
                              name == "emplace_back" || name == "push" ||
                              name == "emplace" || name == "push_front";
      for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string var = BareVar(args[a].first, args[a].second);
        if (var.empty()) continue;
        if (is_forward) {
          Emit({PEv::kForward, var, "", -1, view_.At(k).line});
        } else {
          Emit({PEv::kFulfilCall, var, name, static_cast<int>(a),
                view_.At(k).line});
        }
      }
    }
  }

  // Base variable of `base.a->b.set_value` chains (also `base[i]->...`).
  std::string ReceiverBase(std::size_t set_value_at) const {
    std::size_t j = set_value_at;
    while (j >= 2 && (view_.Is(j - 1, ".") || view_.Is(j - 1, "->"))) {
      std::size_t prev = j - 2;
      if (view_.Is(prev, "]")) {
        // Walk back over the subscript to its opening '['.
        int depth = 0;
        while (prev > 0) {
          if (view_.Is(prev, "]")) ++depth;
          if (view_.Is(prev, "[") && --depth == 0) break;
          --prev;
        }
        if (prev == 0) return std::string();
        --prev;
      }
      if (!view_.IsIdentTok(prev)) return std::string();
      j = prev;
    }
    if (j == set_value_at || !view_.IsIdentTok(j)) return std::string();
    return view_.At(j).text;
  }

  void Emit(PEvent ev) {
    // Parameter-level effects are recorded regardless of loop context —
    // they are what makes the cross-TU fulfils-closure converge.
    auto it = param_index_.find(ev.var);
    if (it != param_index_.end()) {
      if (ev.kind == PEv::kFulfilDirect) {
        if (std::find(fn_->fulfils_params.begin(), fn_->fulfils_params.end(),
                      static_cast<int>(it->second)) ==
            fn_->fulfils_params.end()) {
          fn_->fulfils_params.push_back(static_cast<int>(it->second));
        }
      } else if (ev.kind == PEv::kFulfilCall) {
        fn_->passes.push_back(
            {static_cast<int>(it->second), ev.callee, ev.arg_index});
      }
    }
    EmitAll(std::move(ev));
  }

  void EmitAll(PEvent ev) {
    for (PromiseLoop* loop : active_) loop->events.push_back(ev);
  }

  void EmitInner(PEvent ev) {
    if (!active_.empty()) active_.back()->events.push_back(std::move(ev));
  }

  const TokenView& view_;
  FunctionSummary* fn_;
  std::map<std::string, std::size_t> param_index_;
  std::vector<PromiseLoop*> active_;
};

// --------------------------------------------------- lock / call walker --

// Linear walk of one function body tracking the set of held locks, and
// recording acquisitions, calls, blocking primitives and condvar waits.
class LockWalker {
 public:
  LockWalker(const TokenView& view, FunctionSummary* fn)
      : view_(view), fn_(fn) {}

  void Walk(std::size_t body_open, std::size_t body_close) {
    CollectLoopRanges(body_open, body_close);
    int depth = 0;
    for (std::size_t i = body_open + 1; i < body_close; ++i) {
      const Token& t = view_.At(i);
      if (t.text == "{") {
        ++depth;
        continue;
      }
      if (t.text == "}") {
        const int dying = depth;
        held_.erase(std::remove_if(held_.begin(), held_.end(),
                                   [dying](const Held& h) {
                                     return h.scoped && h.depth == dying;
                                   }),
                    held_.end());
        --depth;
        continue;
      }
      if (t.kind != Tok::kIdent) continue;

      if (IsGuardType(t.text)) {
        i = HandleGuardDecl(i, depth) - 1;
        continue;
      }
      // lk.lock() / lk.unlock() / mu.lock() / mu.unlock()
      if ((view_.Is(i + 1, ".") || view_.Is(i + 1, "->")) &&
          view_.IsIdentTok(i + 2) && view_.Is(i + 3, "(")) {
        const std::string& method = view_.At(i + 2).text;
        if (method == "lock" || method == "unlock") {
          HandleLockCall(t.text, method == "lock", t.line, depth);
          i += 3;
          continue;
        }
        if (method == "wait" || method == "wait_for" ||
            method == "wait_until") {
          i = HandleWait(i, i + 2) - 1;
          continue;
        }
      }
      // Blocking primitives.
      if (view_.Is(i + 1, "(")) {
        const bool is_method =
            i > 0 && (view_.Is(i - 1, ".") || view_.Is(i - 1, "->"));
        const char* primitive =
            is_method ? MethodBlockingName(t.text) : FreeBlockingName(t.text);
        if (primitive != nullptr) {
          fn_->blocking.push_back({primitive, t.line, HeldNames(), ""});
          continue;
        }
      }
      // File stream construction opens the file (blocking IO).
      if (IsFileStreamType(t.text)) {
        std::size_t j = i + 1;
        if (view_.IsIdentTok(j)) ++j;  // Named: std::ifstream in(path).
        if (view_.Is(j, "(") || view_.Is(j, "{")) {
          fn_->blocking.push_back(
              {"std::" + t.text + " open", t.line, HeldNames(), ""});
        }
        continue;
      }
      // Generic call, for the cross-TU graph.
      if (view_.Is(i + 1, "(") && !IsCallKeyword(t.text) &&
          t.text != "move" && t.text != "forward") {
        RecordCall(t.text, t.line);
      }
    }
    FlushCalls();
  }

 private:
  struct Held {
    std::string mutex;
    int depth = 0;
    bool scoped = true;     // Dies with its scope (RAII guard).
    std::string lockvar;    // Guard variable, "" for raw mutex locks.
  };

  std::vector<std::string> HeldNames() const {
    std::vector<std::string> names;
    for (const Held& h : held_) {
      if (std::find(names.begin(), names.end(), h.mutex) == names.end()) {
        names.push_back(h.mutex);
      }
    }
    return names;
  }

  // `std::lock_guard<std::mutex> lock(mutex_);` and friends, including
  // defer_lock / adopt_lock tags and scoped_lock's multi-mutex form.
  std::size_t HandleGuardDecl(std::size_t i, int depth) {
    std::size_t j = i + 1;
    if (view_.Is(j, "<")) j = view_.SkipTemplateArgs(j);
    std::string lockvar;
    if (view_.IsIdentTok(j)) {
      lockvar = view_.At(j).text;
      ++j;
    }
    if (!view_.Is(j, "(") && !view_.Is(j, "{")) return i + 1;
    const bool braced = view_.Is(j, "{");
    const std::size_t past =
        braced ? view_.SkipBraces(j) : view_.SkipParens(j);
    // Brace-init args: reuse SplitArgs by treating the single range as
    // one argument list; commas at depth 1 split either way.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    if (braced) {
      std::size_t begin = j + 1;
      int pd = 0, bd = 0;
      for (std::size_t k = j + 1; k + 1 < past; ++k) {
        const std::string& t = view_.At(k).text;
        if (t == "(") ++pd;
        else if (t == ")") --pd;
        else if (t == "{") ++bd;
        else if (t == "}") --bd;
        else if (t == "," && pd == 0 && bd == 0) {
          args.emplace_back(begin, k);
          begin = k + 1;
        }
      }
      if (past >= j + 2) args.emplace_back(begin, past - 1);
    } else {
      args = view_.SplitArgs(j);
    }
    bool deferred = false;
    std::vector<std::string> mutexes;
    for (const auto& [b, e] : args) {
      std::string last_ident;
      for (std::size_t k = b; k < e; ++k) {
        if (view_.IsIdentTok(k)) last_ident = view_.At(k).text;
      }
      if (last_ident == "defer_lock" || last_ident == "try_to_lock") {
        deferred = true;
        continue;
      }
      if (last_ident == "adopt_lock" || last_ident.empty()) continue;
      mutexes.push_back(last_ident);
    }
    if (!lockvar.empty()) lockvars_[lockvar] = mutexes;
    if (!deferred) {
      for (const std::string& m : mutexes) {
        fn_->acquires.push_back({m, view_.At(i).line, HeldNames()});
        // A statement-position temporary dies at the end of the
        // statement; it must not count as held afterwards.
        if (!lockvar.empty()) held_.push_back({m, depth, true, lockvar});
      }
    }
    return past;
  }

  void HandleLockCall(const std::string& receiver, bool is_lock, int line,
                      int depth) {
    auto lv = lockvars_.find(receiver);
    if (lv != lockvars_.end()) {
      if (is_lock) {
        for (const std::string& m : lv->second) {
          fn_->acquires.push_back({m, line, HeldNames()});
          held_.push_back({m, depth, true, receiver});
        }
      } else {
        held_.erase(std::remove_if(held_.begin(), held_.end(),
                                   [&](const Held& h) {
                                     return h.lockvar == receiver;
                                   }),
                    held_.end());
      }
      return;
    }
    // Raw mutex lock: persists until unlock (not scope-bound).
    if (is_lock) {
      fn_->acquires.push_back({receiver, line, HeldNames()});
      held_.push_back({receiver, depth, false, ""});
    } else {
      held_.erase(std::remove_if(held_.begin(), held_.end(),
                                 [&](const Held& h) {
                                   return h.mutex == receiver && !h.scoped;
                                 }),
                  held_.end());
    }
  }

  // Classifies `x.wait(...)` / `x.wait_for(...)` / `x.wait_until(...)`.
  // Condvar waits always pass the lock as the first argument; future-
  // style waits (one fewer argument) are plain blocking sites. The
  // distinction cannot come from declarations: condvars live in
  // headers, which are separate TUs from the waiting .cc.
  std::size_t HandleWait(std::size_t receiver_at, std::size_t method_at) {
    const std::string& method = view_.At(method_at).text;
    const std::size_t open = method_at + 1;
    const auto args = view_.SplitArgs(open);
    const std::size_t min_condvar_args = method == "wait" ? 1 : 2;
    if (args.size() < min_condvar_args) {
      fn_->blocking.push_back(
          {"blocking wait", view_.At(receiver_at).line, HeldNames(), ""});
      return view_.SkipParens(open);
    }
    const bool has_predicate =
        (method == "wait" && args.size() >= 2) ||
        (method != "wait" && args.size() >= 3);
    // The wait atomically releases the lock it is given.
    std::string released;
    if (!args.empty()) {
      std::string last_ident;
      for (std::size_t k = args[0].first; k < args[0].second; ++k) {
        if (view_.IsIdentTok(k)) last_ident = view_.At(k).text;
      }
      auto lv = lockvars_.find(last_ident);
      if (lv != lockvars_.end() && !lv->second.empty()) {
        released = lv->second.front();
      } else {
        released = last_ident;
      }
    }
    const int line = view_.At(receiver_at).line;
    fn_->waits.push_back({view_.At(receiver_at).text, line, has_predicate,
                          InLoop(receiver_at)});
    fn_->blocking.push_back(
        {"condition-variable wait", line, HeldNames(), released});
    return view_.SkipParens(open);
  }

  void RecordCall(const std::string& callee, int line) {
    std::string key = callee + "\x01";
    for (const std::string& h : HeldNames()) {
      key += h;
      key += ',';
    }
    auto [it, inserted] = seen_calls_.emplace(std::move(key), line);
    if (inserted) {
      pending_calls_.push_back({callee, line, HeldNames()});
    }
  }

  void FlushCalls() {
    for (CallSite& c : pending_calls_) {
      fn_->calls.push_back(std::move(c));
    }
    pending_calls_.clear();
  }

  void CollectLoopRanges(std::size_t body_open, std::size_t body_close) {
    for (std::size_t i = body_open; i < body_close; ++i) {
      if (!view_.IsIdentTok(i)) continue;
      const std::string& t = view_.At(i).text;
      std::size_t body = 0;
      if ((t == "for" || t == "while") && view_.Is(i + 1, "(")) {
        body = view_.SkipParens(i + 1);
      } else if (t == "do") {
        body = i + 1;
      } else {
        continue;
      }
      std::size_t end;
      if (view_.Is(body, "{")) {
        end = view_.MatchBrace(body);
      } else {
        end = body;
        while (end < body_close && !view_.Is(end, ";")) {
          if (view_.Is(end, "(")) {
            end = view_.SkipParens(end) - 1;
          } else if (view_.Is(end, "{")) {
            end = view_.MatchBrace(end);
          }
          ++end;
        }
      }
      loop_ranges_.emplace_back(body, end);
    }
  }

  bool InLoop(std::size_t i) const {
    for (const auto& [b, e] : loop_ranges_) {
      if (i > b && i < e) return true;
    }
    return false;
  }

  const TokenView& view_;
  FunctionSummary* fn_;
  std::vector<Held> held_;
  std::map<std::string, std::vector<std::string>> lockvars_;
  std::map<std::string, int> seen_calls_;
  std::vector<CallSite> pending_calls_;
  std::vector<std::pair<std::size_t, std::size_t>> loop_ranges_;
};

// ------------------------------------------------------ summary builder --

class SummaryBuilder {
 public:
  explicit SummaryBuilder(const SourceFile& file) : file_(file) {
    for (const Token& tok : file.tokens) {
      if (tok.kind != Tok::kComment) code_.push_back(tok);
    }
  }

  TuSummary Build() {
    TuSummary out;
    out.path = file_.path;
    out.includes = file_.includes;
    out.nolint = file_.nolint;
    CollectRanks();
    CollectFallible(&out);
    MainWalk(&out);
    return out;
  }

 private:
  // LOCK_RANK(n) comments, keyed by source line.
  void CollectRanks() {
    for (const Token& tok : file_.tokens) {
      if (tok.kind != Tok::kComment) continue;
      const std::size_t pos = tok.text.find(kLockRankMarker);
      if (pos == std::string::npos) continue;
      const std::size_t open = pos + kLockRankMarker.size() - 1;
      const std::size_t close = tok.text.find(')', open);
      if (close == std::string::npos) continue;
      const std::string digits = tok.text.substr(open + 1, close - open - 1);
      int rank = -1;
      try {
        rank = std::stoi(digits);
      } catch (...) {
        continue;
      }
      rank_by_line_[tok.line] = rank;
    }
  }

  // Status/Result-returning declarations of this TU; the driver unions
  // them into the program-wide fallible registry.
  void CollectFallible(TuSummary* out) {
    const TokenView view(code_);
    for (std::size_t i = 0; i + 1 < code_.size(); ++i) {
      if (code_[i].kind != Tok::kIdent) continue;
      std::size_t name_at = 0;
      if (code_[i].text == "Status") {
        name_at = i + 1;
      } else if (code_[i].text == "Result" && view.Is(i + 1, "<")) {
        const std::size_t past = view.SkipTemplateArgs(i + 1);
        if (past == i + 1) continue;
        name_at = past;
      } else {
        continue;
      }
      if (name_at + 1 >= code_.size()) continue;
      if (code_[name_at].kind != Tok::kIdent) continue;
      if (!view.Is(name_at + 1, "(")) continue;
      const std::string& name = code_[name_at].text;
      if (std::isupper(static_cast<unsigned char>(name[0])) != 0) {
        out->fallible.insert(name);
      }
    }
  }

  // One pass over the TU: class/namespace scope tracking, mutex and
  // condvar declarations, and function definitions (each function body
  // is then summarized by LockWalker + PromiseWalker).
  void MainWalk(TuSummary* out) {
    const TokenView view(code_);
    struct Scope {
      enum Kind { kNamespace, kClass, kFunction, kOther } kind = kOther;
      std::string name;
    };
    std::vector<Scope> stack;
    Scope::Kind pending = Scope::kOther;
    std::string pending_name;
    std::size_t pending_fn_brace = static_cast<std::size_t>(-1);

    auto innermost_class = [&]() -> std::string {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind == Scope::kFunction) return std::string();
        if (it->kind == Scope::kClass) return it->name;
      }
      return std::string();
    };
    auto in_function = [&]() {
      return std::any_of(stack.begin(), stack.end(), [](const Scope& s) {
        return s.kind == Scope::kFunction;
      });
    };

    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Token& t = code_[i];
      if (t.text == "{") {
        Scope scope;
        if (i == pending_fn_brace) {
          scope.kind = Scope::kFunction;
          pending_fn_brace = static_cast<std::size_t>(-1);
        } else if (pending == Scope::kClass) {
          scope.kind = Scope::kClass;
          scope.name = pending_name;
        } else if (pending == Scope::kNamespace) {
          scope.kind = Scope::kNamespace;
          scope.name = pending_name;
        }
        pending = Scope::kOther;
        pending_name.clear();
        stack.push_back(std::move(scope));
        continue;
      }
      if (t.text == "}") {
        if (!stack.empty()) stack.pop_back();
        continue;
      }
      if (t.text == ";") {
        pending = Scope::kOther;
        pending_name.clear();
        continue;
      }
      if (t.kind != Tok::kIdent) continue;

      if (t.text == "namespace") {
        pending = Scope::kNamespace;
        pending_name =
            view.IsIdentTok(i + 1) ? view.At(i + 1).text : std::string();
        continue;
      }
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          !(i > 0 && view.Is(i - 1, "enum"))) {
        // Name = last identifier of the (possibly qualified) head,
        // before any base clause / `final` / `{`.
        std::string name;
        for (std::size_t j = i + 1; j < code_.size(); ++j) {
          const Token& n = code_[j];
          if (n.kind == Tok::kIdent) {
            if (n.text == "final") break;
            name = n.text;
            continue;
          }
          if (n.text == "::" || n.text == "[" || n.text == "]") continue;
          if (n.text == "<") {
            const std::size_t past = view.SkipTemplateArgs(j);
            if (past == j) break;
            j = past - 1;
            continue;
          }
          break;
        }
        if (!name.empty()) {
          pending = Scope::kClass;
          pending_name = name;
        }
        continue;
      }

      // Mutex / condition_variable declarations (member or local).
      if (IsMutexType(t.text) && view.IsIdentTok(i + 1) &&
          (view.Is(i + 2, ";") || view.Is(i + 2, "=") ||
           view.Is(i + 2, "{"))) {
        MutexDecl decl;
        decl.name = view.At(i + 1).text;
        decl.cls = innermost_class();
        decl.line = view.At(i + 1).line;
        auto rank = rank_by_line_.find(decl.line);
        if (rank != rank_by_line_.end()) decl.rank = rank->second;
        out->mutexes.push_back(std::move(decl));
        continue;
      }
      if (IsCondvarType(t.text) && view.IsIdentTok(i + 1)) {
        out->condvars.insert(view.At(i + 1).text);
        continue;
      }

      // Function definition (only at non-function scope).
      if (!in_function() && view.Is(i + 1, "(") && !IsCallKeyword(t.text) &&
          !IsGuardType(t.text) && t.text != "operator") {
        const std::size_t params_end = view.SkipParens(i + 1);
        const std::size_t body = FindBodyBrace(view, params_end);
        if (body != static_cast<std::size_t>(-1)) {
          FunctionSummary fn;
          fn.name = t.text;
          fn.line = t.line;
          // `[[noreturn]]` anywhere between the previous statement end
          // and the name marks an abort-path function.
          for (std::size_t j = i; j-- > 0;) {
            const Token& prev = code_[j];
            if (prev.text == ";" || prev.text == "{" || prev.text == "}") {
              break;
            }
            if (prev.kind == Tok::kIdent && prev.text == "noreturn") {
              fn.is_noreturn = true;
              break;
            }
          }
          if (i >= 2 && view.Is(i - 1, "::") && view.IsIdentTok(i - 2)) {
            fn.cls = view.At(i - 2).text;
          } else {
            fn.cls = innermost_class();
          }
          fn.params = ParseParams(view, i + 1, params_end);
          const std::size_t body_close = view.MatchBrace(body);
          LockWalker(view, &fn).Walk(body, body_close);
          PromiseWalker(view, &fn).WalkBlock(body + 1, body_close);
          out->functions.push_back(std::move(fn));
          pending_fn_brace = body;
        }
      }
    }
  }

  // From the token after a function's parameter list, finds the body
  // '{' — accepting cv-qualifiers, noexcept, trailing return types and
  // constructor init-lists — or npos for declarations.
  static std::size_t FindBodyBrace(const TokenView& view,
                                   std::size_t after_parens) {
    const std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t j = after_parens;
    int guard = 0;
    while (j < view.size() && ++guard < 512) {
      const Token& t = view.At(j);
      if (t.text == "{") return j;
      if (t.text == ";" || t.text == "}" || t.text == "=") return npos;
      if (t.text == ":") {
        // Constructor init list: `ident(args)` or `ident{args}` chain.
        ++j;
        while (j < view.size()) {
          if (!view.IsIdentTok(j)) return npos;
          ++j;
          if (view.Is(j, "<")) j = view.SkipTemplateArgs(j);
          if (view.Is(j, "::")) {  // Qualified member? Keep walking.
            ++j;
            continue;
          }
          if (view.Is(j, "(")) {
            j = view.SkipParens(j);
          } else if (view.Is(j, "{")) {
            j = view.SkipBraces(j);
          } else {
            return npos;
          }
          if (view.Is(j, ",")) {
            ++j;
            continue;
          }
          break;
        }
        if (view.Is(j, "{")) return j;
        return npos;
      }
      if (t.text == "->") {
        ++j;
        while (j < view.size() && !view.Is(j, "{") && !view.Is(j, ";") &&
               !view.Is(j, "}")) {
          ++j;
        }
        continue;
      }
      if (t.text == "const" || t.text == "noexcept" ||
          t.text == "override" || t.text == "final" || t.text == "try" ||
          t.text == "&" || t.text == "&&" || t.text == "mutable") {
        ++j;
        continue;
      }
      if (t.text == "(") {  // noexcept(...)
        j = view.SkipParens(j);
        continue;
      }
      return npos;
    }
    return npos;
  }

  static std::vector<std::string> ParseParams(const TokenView& view,
                                              std::size_t open,
                                              std::size_t past) {
    std::vector<std::string> params;
    if (past <= open + 2) return params;
    // Reuse SplitArgs for top-level comma splitting.
    for (const auto& [b, e] : view.SplitArgs(open)) {
      std::string name;
      for (std::size_t k = b; k < e; ++k) {
        if (view.Is(k, "=")) break;  // Default argument.
        if (view.IsIdentTok(k)) name = view.At(k).text;
      }
      if (IsCallKeyword(name) || name == "const") name.clear();
      params.push_back(name);
    }
    // `(void)` / `()` artifacts.
    if (params.size() == 1 && params[0].empty()) {
      const bool empty_list = past == open + 2;
      if (empty_list) params.clear();
    }
    return params;
  }

  const SourceFile& file_;
  std::vector<Token> code_;
  std::map<int, int> rank_by_line_;
};

}  // namespace

TuSummary BuildTuSummary(const SourceFile& file) {
  return SummaryBuilder(file).Build();
}

}  // namespace snor_analyze
