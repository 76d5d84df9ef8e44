#ifndef SNOR_TOOLS_ANALYZE_SUMMARY_H_
#define SNOR_TOOLS_ANALYZE_SUMMARY_H_

// Pass 1 of the whole-program analyzer: one TuSummary per translation
// unit, holding everything pass 2 (callgraph.h, concurrency_checks.h)
// needs to reason across files — functions defined, calls made (with
// the set of locks held at the call site), lock acquisitions and their
// nesting, blocking primitives, condition-variable waits, and
// promise-fulfilment flow events. Summaries live only for one run:
// the driver builds them from freshly tokenized files every time.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace snor_analyze {

/// A mutex (or other lockable) declaration. `rank` comes from a
/// `LOCK_RANK(n)` comment on the declaration line; -1 = unranked.
/// Lower ranks must be acquired first (outer locks).
struct MutexDecl {
  std::string name;  // Field or variable name, e.g. "mutex_".
  std::string cls;   // Enclosing class, "" for free/local mutexes.
  int rank = -1;
  int line = 0;

  std::string QualifiedName() const {
    return cls.empty() ? name : cls + "::" + name;
  }
};

/// A lock acquisition: `held` is the (local-name) set of locks already
/// held when this one is taken — the raw material of the lock-order
/// graph.
struct AcquireSite {
  std::string mutex;  // Local spelling, resolved against decls in pass 2.
  int line = 0;
  std::vector<std::string> held;
};

/// A call made by a function, with the locks held at the call site.
struct CallSite {
  std::string callee;  // Unqualified name; linked by name in pass 2.
  int line = 0;
  std::vector<std::string> held;
};

/// A direct blocking primitive: sleep, file/stream IO, thread join,
/// condvar wait. For waits, `released` names the mutex the wait
/// atomically releases (exempt from blocking-under-lock for itself).
struct BlockingSite {
  std::string what;  // Human-readable primitive, e.g. "std::getline".
  int line = 0;
  std::vector<std::string> held;
  std::string released;
};

/// A condition_variable wait site.
struct WaitSite {
  std::string cv;
  int line = 0;
  bool has_predicate = false;  // wait(lock, pred) overload.
  bool in_loop = false;        // Bare wait re-checked by an enclosing loop.
};

/// Promise-flow events, recorded per loop in source order with branch
/// structure, and abstractly interpreted in pass 2 (exactly-once check).
enum class PEv {
  kBranchOpen,    // if (...) {
  kBranchElse,    // } else {
  kBranchClose,   // }  (end of if/else)
  kLoopOpen,      // nested loop body begins (join semantics)
  kLoopClose,
  kFulfilDirect,  // var.reply.set_value(...) / var->...set_value(...)
  kFulfilCall,    // Callee(var) — fulfils iff callee fulfils that param
  kForward,       // container.push_back(var) — ownership moves on
  kContinue,      // terminal edge of this loop iteration
  kBreakOrReturn, // leaves the loop entirely; not a per-item terminal
  kEnd            // end of loop body (implicit terminal)
};

struct PEvent {
  PEv kind = PEv::kEnd;
  std::string var;     // Flow variable, empty for structural events.
  std::string callee;  // For kFulfilCall.
  int arg_index = -1;  // For kFulfilCall.
  int line = 0;
};

/// One loop whose body routes promise-carrying values.
struct PromiseLoop {
  int line = 0;
  std::vector<PEvent> events;
};

/// Everything pass 2 needs to know about one function definition.
struct FunctionSummary {
  std::string name;
  std::string cls;  // Enclosing (or `Cls::` qualified) class, "" = free.
  int line = 0;
  // `[[noreturn]]` at the definition: the function never returns, so it
  // can never return to a caller still holding a lock — pass 2 excludes
  // it from may-block propagation (abort paths are not blocking).
  bool is_noreturn = false;
  std::vector<std::string> params;  // Parameter names, in order.
  std::vector<AcquireSite> acquires;
  std::vector<CallSite> calls;
  std::vector<BlockingSite> blocking;
  std::vector<WaitSite> waits;
  std::vector<PromiseLoop> promise_loops;
  // Parameter indices this function directly fulfils (set_value).
  std::vector<int> fulfils_params;
  // Parameters forwarded to other calls: fulfils-closure in pass 2.
  struct ParamPass {
    int param = -1;
    std::string callee;
    int arg_index = -1;
  };
  std::vector<ParamPass> passes;
};

/// Per-translation-unit summary.
struct TuSummary {
  std::string path;  // Virtual path (ANALYZE-AS aware).
  std::vector<IncludeDirective> includes;
  std::map<int, std::set<std::string>> nolint;
  std::set<std::string> fallible;  // Status/Result-returning decl names.
  std::vector<MutexDecl> mutexes;
  std::set<std::string> condvars;  // condition_variable member/local names.
  std::vector<FunctionSummary> functions;

  bool Suppressed(int line, const std::string& rule) const {
    auto it = nolint.find(line);
    if (it == nolint.end()) return false;
    return it->second.empty() || it->second.count(rule) > 0;
  }
};

/// Extracts a summary from a tokenized file (pass 1).
[[nodiscard]] TuSummary BuildTuSummary(const SourceFile& file);

}  // namespace snor_analyze

#endif  // SNOR_TOOLS_ANALYZE_SUMMARY_H_
