#include "concurrency_checks.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace snor_analyze {

namespace {

const char kRuleLockOrder[] = "lock-order-cycle";
const char kRuleBlocking[] = "blocking-under-lock";
const char kRuleCondvar[] = "condvar-predicate";
const char kRulePromise[] = "promise-exactly-once";

void Report(const CallGraph& graph, const FunctionRef& site, int line,
            const char* rule, std::string message,
            std::vector<Finding>* out) {
  const TuSummary& tu = graph.tus()[site.tu];
  if (tu.Suppressed(line, rule)) return;
  out->push_back({tu.path, line, rule, std::move(message)});
}

// ------------------------------------------------------- lock ordering --

struct EdgeInfo {
  MutexId from;
  MutexId to;
  FunctionRef site;
  int line = 0;
  std::string via;  // "" for a direct nested acquire.
};

class LockOrderCheck {
 public:
  explicit LockOrderCheck(const CallGraph& graph) : graph_(graph) {}

  void Run(std::vector<Finding>* out) {
    CollectEdges();
    ReportRankInversions(out);
    ReportCycles(out);
  }

 private:
  void AddEdge(const MutexId& from, const MutexId& to,
               const FunctionRef& site, int line, std::string via) {
    if (from.qualified == to.qualified) return;
    const auto key = std::make_pair(from.qualified, to.qualified);
    if (edges_.count(key) > 0) return;  // First site wins.
    edges_[key] = {from, to, site, line, std::move(via)};
  }

  void CollectEdges() {
    const std::vector<TuSummary>& tus = graph_.tus();
    for (std::size_t t = 0; t < tus.size(); ++t) {
      for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
        const FunctionRef ref{t, f};
        const FunctionSummary& fn = graph_.Fn(ref);
        // Direct nested acquisitions inside one function.
        for (const AcquireSite& a : fn.acquires) {
          const MutexId inner = graph_.ResolveMutex(ref, a.mutex);
          if (!inner.resolved) continue;
          for (const std::string& h : a.held) {
            const MutexId outer = graph_.ResolveMutex(ref, h);
            if (!outer.resolved) continue;
            AddEdge(outer, inner, ref, a.line, "");
          }
        }
        // Acquisitions reached through calls made with locks held
        // (ambiguity-aware: the intersection across same-named defs).
        for (const CallSite& call : fn.calls) {
          if (call.held.empty()) continue;
          for (const MutexId& inner :
               graph_.CalleeAcquires(call.callee, ref)) {
            for (const std::string& h : call.held) {
              const MutexId outer = graph_.ResolveMutex(ref, h);
              if (!outer.resolved) continue;
              AddEdge(outer, inner, ref, call.line,
                      "via call to '" + call.callee + "'");
            }
          }
        }
      }
    }
  }

  void ReportRankInversions(std::vector<Finding>* out) {
    for (const auto& [key, edge] : edges_) {
      if (edge.from.rank < 0 || edge.to.rank < 0) continue;
      if (edge.to.rank > edge.from.rank) continue;
      std::string message =
          "acquires '" + edge.to.qualified + "' (rank " +
          std::to_string(edge.to.rank) + ") while holding '" +
          edge.from.qualified + "' (rank " +
          std::to_string(edge.from.rank) + ")";
      if (!edge.via.empty()) message += " " + edge.via;
      message += "; ranks must be strictly increasing inner-to-outer";
      Report(graph_, edge.site, edge.line, kRuleLockOrder,
             std::move(message), out);
    }
  }

  // Colored DFS over the acquisition-order graph; a gray-node hit is a
  // cycle. One report per distinct cycle (canonical rotation).
  void ReportCycles(std::vector<Finding>* out) {
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [key, edge] : edges_) {
      adj[key.first].push_back(key.second);
    }
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
    std::vector<std::string> stack;
    std::set<std::string> reported;
    for (const auto& [node, unused] : adj) {
      if (color[node] == 0) Dfs(node, adj, &color, &stack, &reported, out);
    }
  }

  void Dfs(const std::string& node,
           const std::map<std::string, std::vector<std::string>>& adj,
           std::map<std::string, int>* color,
           std::vector<std::string>* stack, std::set<std::string>* reported,
           std::vector<Finding>* out) {
    (*color)[node] = 1;
    stack->push_back(node);
    auto it = adj.find(node);
    if (it != adj.end()) {
      for (const std::string& next : it->second) {
        const int c = (*color)[next];
        if (c == 1) {
          ReportCycle(*stack, next, reported, out);
        } else if (c == 0) {
          Dfs(next, adj, color, stack, reported, out);
        }
      }
    }
    stack->pop_back();
    (*color)[node] = 2;
  }

  void ReportCycle(const std::vector<std::string>& stack,
                   const std::string& back_to,
                   std::set<std::string>* reported,
                   std::vector<Finding>* out) {
    const auto begin = std::find(stack.begin(), stack.end(), back_to);
    if (begin == stack.end()) return;
    std::vector<std::string> cycle(begin, stack.end());
    // Canonical rotation: start at the lexicographically smallest node.
    const auto min_it = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min_it, cycle.end());
    std::string canon;
    for (const std::string& n : cycle) canon += n + ";";
    if (!reported->insert(canon).second) return;
    std::string message = "lock acquisition cycle: ";
    for (const std::string& n : cycle) message += "'" + n + "' -> ";
    message += "'" + cycle.front() + "' (deadlock potential)";
    // Anchor the report at the closing edge of the cycle.
    const auto edge =
        edges_.find(std::make_pair(cycle.back(), cycle.front()));
    if (edge == edges_.end()) return;
    Report(graph_, edge->second.site, edge->second.line, kRuleLockOrder,
           std::move(message), out);
  }

  const CallGraph& graph_;
  std::map<std::pair<std::string, std::string>, EdgeInfo> edges_;
};

// ------------------------------------------------- promise interpreter --

enum class PS { kNone, kFulfilled, kForwarded, kMaybe };

PS Join(PS a, PS b) { return a == b ? a : PS::kMaybe; }

// Abstract interpretation of one loop's event stream for one variable.
// States: kNone (promise not yet fulfilled), kFulfilled, kForwarded
// (ownership handed to a container/consumer that will fulfil), kMaybe
// (unknown — an unmodelled call touched the variable). Only definite
// violations report: a terminal edge reached in kNone (dropped
// promise), or a qualifying fulfil in kFulfilled/kForwarded (double
// set_value, which throws std::future_error at runtime).
class PromiseInterp {
 public:
  PromiseInterp(const CallGraph& graph, const std::vector<PEvent>& events,
                std::string var)
      : graph_(graph), events_(events), var_(std::move(var)) {}

  struct Violation {
    int line = 0;
    std::string message;
    bool operator<(const Violation& o) const {
      return line != o.line ? line < o.line : message < o.message;
    }
  };

  std::set<Violation> Run() {
    RunSeq(0, PS::kNone, false, false, false);
    return std::move(violations_);
  }

 private:
  struct R {
    PS s = PS::kNone;
    bool term = false;
  };

  std::pair<R, std::size_t> RunSeq(std::size_t i, PS s, bool stop_branch,
                                   bool stop_loop, bool dead) {
    bool term = false;
    while (i < events_.size()) {
      const PEvent& e = events_[i];
      if (e.kind == PEv::kBranchElse || e.kind == PEv::kBranchClose) {
        if (stop_branch) return {{s, term}, i};
        ++i;
        continue;
      }
      if (e.kind == PEv::kLoopClose) {
        if (stop_loop) return {{s, term}, i};
        ++i;
        continue;
      }
      if (e.kind == PEv::kBranchOpen) {
        auto [then_r, j] = RunSeq(i + 1, s, true, false, dead || term);
        R else_r{s, false};
        if (j < events_.size() && events_[j].kind == PEv::kBranchElse) {
          auto [er, k] = RunSeq(j + 1, s, true, false, dead || term);
          else_r = er;
          j = k;
        }
        i = j < events_.size() ? j + 1 : j;
        if (dead || term) continue;
        if (then_r.term && else_r.term) {
          term = true;
        } else if (then_r.term) {
          s = else_r.s;
        } else if (else_r.term) {
          s = then_r.s;
        } else {
          s = Join(then_r.s, else_r.s);
        }
        continue;
      }
      if (e.kind == PEv::kLoopOpen) {
        // A nested loop may run zero times: join entry with body exit.
        auto [body_r, j] = RunSeq(i + 1, s, false, true, dead || term);
        i = j < events_.size() ? j + 1 : j;
        if (dead || term) continue;
        if (body_r.term) {
          term = true;
        } else {
          s = Join(s, body_r.s);
        }
        continue;
      }
      if (!dead && !term) {
        switch (e.kind) {
          case PEv::kFulfilDirect:
          case PEv::kFulfilCall: {
            if (e.var != var_) break;
            const bool qualifying =
                e.kind == PEv::kFulfilDirect ||
                graph_.Fulfils(e.callee, e.arg_index);
            if (!qualifying) {
              s = PS::kMaybe;
              break;
            }
            if (s == PS::kFulfilled || s == PS::kForwarded) {
              violations_.insert(
                  {e.line, "promise of '" + var_ +
                               "' already fulfilled or forwarded on this "
                               "path; a second set_value throws"});
            }
            s = PS::kFulfilled;
            break;
          }
          case PEv::kForward:
            if (e.var == var_) s = PS::kForwarded;
            break;
          case PEv::kContinue:
            if (s == PS::kNone) {
              violations_.insert(
                  {e.line, "iteration path ends ('continue') without "
                           "fulfilling or forwarding the promise of '" +
                               var_ + "'"});
            }
            term = true;
            break;
          case PEv::kBreakOrReturn:
            term = true;  // Leaves the loop; not a per-item terminal.
            break;
          case PEv::kEnd:
            if (s == PS::kNone) {
              violations_.insert(
                  {e.line, "iteration path reaches the end of the loop "
                           "body without fulfilling or forwarding the "
                           "promise of '" +
                               var_ + "'"});
            }
            term = true;
            break;
          default:
            break;
        }
      }
      ++i;
    }
    return {{s, term}, i};
  }

  const CallGraph& graph_;
  const std::vector<PEvent>& events_;
  const std::string var_;
  std::set<Violation> violations_;
};

}  // namespace

void CheckLockOrder(const CallGraph& graph, std::vector<Finding>* out) {
  LockOrderCheck(graph).Run(out);
}

void CheckBlockingUnderLock(const CallGraph& graph,
                            std::vector<Finding>* out) {
  const std::vector<TuSummary>& tus = graph.tus();
  std::set<std::pair<std::string, int>> seen;  // (file, line) dedupe.
  for (std::size_t t = 0; t < tus.size(); ++t) {
    for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
      const FunctionRef ref{t, f};
      const FunctionSummary& fn = graph.Fn(ref);
      for (const BlockingSite& b : fn.blocking) {
        for (const std::string& h : b.held) {
          if (h == b.released) continue;  // Atomically released by wait.
          if (!seen.insert({tus[t].path, b.line}).second) break;
          const MutexId id = graph.ResolveMutex(ref, h);
          Report(graph, ref, b.line, kRuleBlocking,
                 b.what + " while holding '" + id.qualified + "' (in '" +
                     fn.name + "')",
                 out);
          break;  // One finding per site.
        }
      }
      for (const CallSite& call : fn.calls) {
        if (call.held.empty()) continue;
        FunctionRef callee;
        if (!graph.CalleeMayBlock(call.callee, ref, &callee)) continue;
        if (!seen.insert({tus[t].path, call.line}).second) continue;
        const MutexId id = graph.ResolveMutex(ref, call.held.front());
        Report(graph, ref, call.line, kRuleBlocking,
               "call to '" + call.callee + "' may block (" +
                   graph.BlockingChain(callee) + ") while holding '" +
                   id.qualified + "' (in '" + fn.name + "')",
               out);
      }
    }
  }
}

void CheckCondvarPredicate(const CallGraph& graph,
                           std::vector<Finding>* out) {
  const std::vector<TuSummary>& tus = graph.tus();
  for (std::size_t t = 0; t < tus.size(); ++t) {
    for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
      const FunctionRef ref{t, f};
      for (const WaitSite& w : graph.Fn(ref).waits) {
        if (w.has_predicate || w.in_loop) continue;
        Report(graph, ref, w.line, kRuleCondvar,
               "'" + w.cv +
                   "' wait has no predicate and no enclosing re-check "
                   "loop; spurious wakeups will be treated as signals",
               out);
      }
    }
  }
}

void CheckPromiseExactlyOnce(const CallGraph& graph,
                             std::vector<Finding>* out) {
  const std::vector<TuSummary>& tus = graph.tus();
  for (std::size_t t = 0; t < tus.size(); ++t) {
    for (std::size_t f = 0; f < tus[t].functions.size(); ++f) {
      const FunctionRef ref{t, f};
      const FunctionSummary& fn = graph.Fn(ref);
      for (const PromiseLoop& loop : fn.promise_loops) {
        // Only variables with at least one qualifying fulfil are
        // promise-carrying; everything else is ordinary data flow.
        std::set<std::string> vars;
        for (const PEvent& e : loop.events) {
          if (e.kind == PEv::kFulfilDirect) {
            vars.insert(e.var);
          } else if (e.kind == PEv::kFulfilCall &&
                     graph.Fulfils(e.callee, e.arg_index)) {
            vars.insert(e.var);
          }
        }
        for (const std::string& var : vars) {
          for (const PromiseInterp::Violation& v :
               PromiseInterp(graph, loop.events, var).Run()) {
            Report(graph, ref, v.line, kRulePromise,
                   v.message + " (loop at line " +
                       std::to_string(loop.line) + " in '" + fn.name +
                       "')",
                   out);
          }
        }
      }
    }
  }
}

void RunConcurrencyChecks(const CallGraph& graph,
                          std::vector<Finding>* out) {
  CheckLockOrder(graph, out);
  CheckBlockingUnderLock(graph, out);
  CheckCondvarPredicate(graph, out);
  CheckPromiseExactlyOnce(graph, out);
}

}  // namespace snor_analyze
