#ifndef SNOR_TOOLS_ANALYZE_CALLGRAPH_H_
#define SNOR_TOOLS_ANALYZE_CALLGRAPH_H_

// Pass 2, step 1: links per-TU summaries (summary.h) into a whole-
// program view. Call edges are resolved by unqualified callee name.
// A uniquely-named callee keeps full may-semantics (anything it might
// do is attributed to the caller). When several definitions share a
// name the link is ambiguous, and only behaviour ALL candidates agree
// on propagates: a call may-blocks only if every same-named definition
// may block, and contributes only the intersection of the candidates'
// transitive lock acquisitions. Without this rule a single collision
// (e.g. an atomic `Counter::Reset` sharing its name with a locking
// `TraceRecorder::Reset`) would attribute unrelated locking to every
// caller and bury the real findings.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "summary.h"

namespace snor_analyze {

/// A function definition in the linked program: (TU index, fn index).
struct FunctionRef {
  std::size_t tu = 0;
  std::size_t fn = 0;

  bool operator<(const FunctionRef& o) const {
    return tu != o.tu ? tu < o.tu : fn < o.fn;
  }
  bool operator==(const FunctionRef& o) const {
    return tu == o.tu && fn == o.fn;
  }
};

/// A program-wide mutex identity. Unresolved local spellings (e.g. a
/// mutex received by reference) keep their spelling with `resolved` =
/// false; they participate in blocking-under-lock but not lock ranking.
struct MutexId {
  std::string qualified;  // "Cls::name" or bare name.
  int rank = -1;
  bool resolved = false;

  bool operator<(const MutexId& o) const { return qualified < o.qualified; }
  bool operator==(const MutexId& o) const {
    return qualified == o.qualified;
  }
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<TuSummary>& tus);

  const std::vector<TuSummary>& tus() const { return tus_; }
  const FunctionSummary& Fn(const FunctionRef& ref) const {
    return tus_[ref.tu].functions[ref.fn];
  }

  /// All definitions whose unqualified name is `name`.
  const std::vector<FunctionRef>* DefsByName(const std::string& name) const;

  /// Resolves a mutex spelling at a use site inside `site` to a global
  /// identity: exact (class, name) match against the site's class
  /// first, then a unique bare-name match anywhere in the program,
  /// otherwise an unresolved identity carrying the spelling.
  MutexId ResolveMutex(const FunctionRef& site,
                       const std::string& spelling) const;

  /// True if the function may block (directly or through any callee).
  bool MayBlock(const FunctionRef& ref) const;

  /// Human-readable chain "f → g → <primitive>" explaining why `ref`
  /// may block ("" when it cannot).
  std::string BlockingChain(const FunctionRef& ref) const;

  /// True if calling `callee_name` fulfils (set_value) the promise
  /// carried by argument `arg_index`, directly or transitively.
  bool Fulfils(const std::string& callee_name, int arg_index) const;

  /// Mutex identities `ref` may acquire, including through callees
  /// (only resolved identities participate — ranking needs a decl).
  const std::set<MutexId>& TransitiveAcquires(const FunctionRef& ref) const;

  /// Ambiguity-aware view of one call edge from `caller`: true iff
  /// every same-named definition (excluding `caller` itself) may
  /// block; `*blocking_def` then names one of them for chain
  /// rendering. False (no edge) when no definition is known.
  bool CalleeMayBlock(const std::string& callee, const FunctionRef& caller,
                      FunctionRef* blocking_def) const;

  /// Mutexes every same-named definition of `callee` (excluding
  /// `caller`) transitively acquires — the intersection across the
  /// candidates; empty when no definition is known.
  std::set<MutexId> CalleeAcquires(const std::string& callee,
                                   const FunctionRef& caller) const;

 private:
  void BuildMutexIndex();
  void ComputeMayBlock();
  void ComputeFulfils();
  void ComputeTransitiveAcquires();

  const std::vector<TuSummary>& tus_;
  std::vector<FunctionRef> all_;
  std::map<std::string, std::vector<FunctionRef>> by_name_;
  // (class, field) -> rank; bare name -> {qualified candidates}.
  std::map<std::pair<std::string, std::string>, int> mutex_by_cls_;
  std::map<std::string, std::set<MutexId>> mutex_by_name_;
  std::map<FunctionRef, std::string> blocks_;  // Direct/inherited cause.
  std::map<FunctionRef, FunctionRef> block_via_;
  std::set<std::pair<std::string, int>> fulfils_;
  std::map<FunctionRef, std::set<MutexId>> trans_acquires_;
};

}  // namespace snor_analyze

#endif  // SNOR_TOOLS_ANALYZE_CALLGRAPH_H_
