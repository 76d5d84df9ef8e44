#ifndef SNOR_TOOLS_ANALYZE_SUMMARY_H_
#define SNOR_TOOLS_ANALYZE_SUMMARY_H_

// Pass 1 of the whole-program analyzer: one TuSummary per translation
// unit, holding everything pass 2 (callgraph.h, concurrency_checks.h)
// needs to reason across files — functions defined, calls made (with
// the set of locks held at the call site), lock acquisitions and their
// nesting, blocking primitives, condition-variable waits, and
// promise-fulfilment flow events.
//
// Summaries serialize to a line-oriented text format and are cached on
// disk keyed by file content hash (tools/analyze cache dir), so a warm
// incremental run never re-tokenizes an unchanged TU. The cache header
// carries the summary-format version plus a user salt; either changing
// invalidates every entry (analyzer upgrades must never reuse stale
// summaries).

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace snor_analyze {

// Bumped whenever the summary format or extraction semantics change;
// cached summaries from older versions are rejected wholesale.
// v3: the borrowed-view facts of v2 are gone.
inline constexpr int kSummaryFormatVersion = 3;

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

/// A finding from the intra-procedural analyses, cached alongside the
/// summary so a warm run can replay them without re-tokenizing. Only
/// valid while the whole-tree fingerprint (fallible registry + layer
/// config) matches.
struct CachedFinding {
  int line = 0;
  std::string rule;
  std::string message;
};

/// Per-translation-unit summary: the unit of caching.
struct TuSummary {
  std::string path;       // Virtual path (ANALYZE-AS aware).
  std::string real_path;  // Path on disk.
  std::uint64_t content_hash = 0;
  std::vector<IncludeDirective> includes;
  std::map<int, std::set<std::string>> nolint;
  std::set<std::string> fallible;  // Status/Result-returning decl names.
  std::vector<MutexDecl> mutexes;
  std::set<std::string> condvars;  // condition_variable member/local names.
  std::vector<FunctionSummary> functions;
  std::vector<CachedFinding> intra_findings;
  // Fingerprint of cross-file inputs the intra findings depended on.
  std::uint64_t intra_fingerprint = 0;

  bool Suppressed(int line, const std::string& rule) const {
    auto it = nolint.find(line);
    if (it == nolint.end()) return false;
    return it->second.empty() || it->second.count(rule) > 0;
  }
};

/// Extracts a summary from a tokenized file (pass 1). `content_hash`
/// and `intra_findings` are filled in by the driver.
[[nodiscard]] TuSummary BuildTuSummary(const SourceFile& file);

/// Serializes to the line-oriented cache format (also used by tests to
/// diff summaries).
std::string SerializeSummary(const TuSummary& summary);

/// Parses a serialized summary; false on any malformed input (the
/// caller treats that as a cache miss, never an error).
bool ParseSummary(const std::string& text, TuSummary* out);

/// Cache file name for a TU path (path-shaped bytes flattened + hash).
std::string CacheEntryName(const std::string& tu_path);

/// Loads a cached summary; true only when the entry exists, parses, and
/// matches `expected_hash` + the current format version + `salt`.
/// Read failures (including injected io-read/truncated-file faults)
/// are cache misses.
[[nodiscard]] bool LoadCachedSummary(const std::filesystem::path& cache_dir,
                                     std::uint64_t salt,
                                     const std::string& tu_path,
                                     std::uint64_t expected_hash,
                                     TuSummary* out);

/// Writes a summary to the cache (best-effort; failures are ignored —
/// the next run just re-summarizes).
void StoreCachedSummary(const std::filesystem::path& cache_dir,
                        std::uint64_t salt, const TuSummary& summary);

/// Bounds the on-disk cache: evicts least-recently-used `.sum` entries
/// (by mtime — LoadCachedSummary bumps it on every hit, ties broken by
/// name) until the directory's total entry size is at or below
/// `max_bytes`. Eviction can only make a later run colder (evicted TUs
/// re-summarize), never change its findings. 0 = unbounded, no-op.
void EnforceCacheBudget(const std::filesystem::path& cache_dir,
                        std::uint64_t max_bytes);

}  // namespace snor_analyze

#endif  // SNOR_TOOLS_ANALYZE_SUMMARY_H_
