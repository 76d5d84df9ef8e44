#include "callgraph.h"

#include <algorithm>
#include <iterator>

namespace snor_analyze {

CallGraph::CallGraph(const std::vector<TuSummary>& tus) : tus_(tus) {
  for (std::size_t t = 0; t < tus_.size(); ++t) {
    for (std::size_t f = 0; f < tus_[t].functions.size(); ++f) {
      const FunctionRef ref{t, f};
      all_.push_back(ref);
      by_name_[tus_[t].functions[f].name].push_back(ref);
    }
  }
  BuildMutexIndex();
  ComputeMayBlock();
  ComputeFulfils();
  ComputeTransitiveAcquires();
}

const std::vector<FunctionRef>* CallGraph::DefsByName(
    const std::string& name) const {
  auto it = by_name_.find(name);
  return it != by_name_.end() ? &it->second : nullptr;
}

void CallGraph::BuildMutexIndex() {
  for (const TuSummary& tu : tus_) {
    for (const MutexDecl& m : tu.mutexes) {
      const auto key = std::make_pair(m.cls, m.name);
      auto it = mutex_by_cls_.find(key);
      if (it == mutex_by_cls_.end()) {
        mutex_by_cls_[key] = m.rank;
      } else if (it->second < 0) {
        // Header + source both see the decl; keep the ranked one.
        it->second = m.rank;
      }
      MutexId id;
      id.qualified = m.QualifiedName();
      id.rank = m.rank;
      id.resolved = true;
      auto& candidates = mutex_by_name_[m.name];
      auto existing = candidates.find(id);
      if (existing != candidates.end()) {
        if (existing->rank < 0 && id.rank >= 0) {
          candidates.erase(existing);
          candidates.insert(id);
        }
      } else {
        candidates.insert(id);
      }
    }
  }
}

MutexId CallGraph::ResolveMutex(const FunctionRef& site,
                                const std::string& spelling) const {
  const FunctionSummary& fn = Fn(site);
  auto cls_hit = mutex_by_cls_.find(std::make_pair(fn.cls, spelling));
  if (cls_hit != mutex_by_cls_.end()) {
    MutexId id;
    id.qualified = fn.cls.empty() ? spelling : fn.cls + "::" + spelling;
    id.rank = cls_hit->second;
    id.resolved = true;
    return id;
  }
  auto name_hit = mutex_by_name_.find(spelling);
  if (name_hit != mutex_by_name_.end() && name_hit->second.size() == 1) {
    return *name_hit->second.begin();
  }
  MutexId id;
  id.qualified = spelling;
  return id;  // Unresolved: keeps the spelling, no rank.
}

void CallGraph::ComputeMayBlock() {
  // Seed with direct blocking sites. `[[noreturn]]` functions are
  // exempt throughout: they never return to a caller still holding a
  // lock, so their abort-path IO is not a blocking concern.
  for (const FunctionRef& ref : all_) {
    const FunctionSummary& fn = Fn(ref);
    if (fn.is_noreturn) continue;
    if (!fn.blocking.empty()) {
      blocks_[ref] = fn.blocking.front().what;
    }
  }
  // Propagate through call edges to a fixpoint. Ambiguous links
  // (several same-named definitions) only propagate when every
  // candidate blocks — see the header comment. Monotone: blocks_ only
  // grows, so "all candidates block" flips false->true at most once.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionRef& ref : all_) {
      if (blocks_.count(ref) > 0 || Fn(ref).is_noreturn) continue;
      for (const CallSite& call : Fn(ref).calls) {
        FunctionRef via;
        if (!CalleeMayBlock(call.callee, ref, &via)) continue;
        blocks_[ref] = "call to " + call.callee;
        block_via_[ref] = via;
        changed = true;
        break;
      }
    }
  }
}

bool CallGraph::CalleeMayBlock(const std::string& callee,
                               const FunctionRef& caller,
                               FunctionRef* blocking_def) const {
  const std::vector<FunctionRef>* defs = DefsByName(callee);
  if (defs == nullptr) return false;
  bool any = false;
  for (const FunctionRef& def : *defs) {
    if (def == caller) continue;
    if (blocks_.count(def) == 0) return false;
    if (!any) *blocking_def = def;
    any = true;
  }
  return any;
}

std::set<MutexId> CallGraph::CalleeAcquires(
    const std::string& callee, const FunctionRef& caller) const {
  const std::vector<FunctionRef>* defs = DefsByName(callee);
  if (defs == nullptr) return {};
  std::set<MutexId> common;
  bool any = false;
  for (const FunctionRef& def : *defs) {
    if (def == caller) continue;
    const std::set<MutexId>& theirs = trans_acquires_.at(def);
    if (!any) {
      common = theirs;
      any = true;
      continue;
    }
    std::set<MutexId> kept;
    std::set_intersection(theirs.begin(), theirs.end(), common.begin(),
                          common.end(),
                          std::inserter(kept, kept.begin()));
    common = std::move(kept);
    if (common.empty()) break;
  }
  return common;
}

bool CallGraph::MayBlock(const FunctionRef& ref) const {
  return blocks_.count(ref) > 0;
}

std::string CallGraph::BlockingChain(const FunctionRef& ref) const {
  if (blocks_.count(ref) == 0) return std::string();
  std::string chain = Fn(ref).name;
  std::set<FunctionRef> visited;
  FunctionRef cur = ref;
  while (visited.insert(cur).second) {
    auto via = block_via_.find(cur);
    if (via == block_via_.end()) {
      chain += " -> " + blocks_.at(cur);
      break;
    }
    cur = via->second;
    chain += " -> " + Fn(cur).name;
  }
  return chain;
}

void CallGraph::ComputeFulfils() {
  for (const FunctionRef& ref : all_) {
    const FunctionSummary& fn = Fn(ref);
    for (int p : fn.fulfils_params) {
      fulfils_.insert({fn.name, p});
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionRef& ref : all_) {
      const FunctionSummary& fn = Fn(ref);
      for (const FunctionSummary::ParamPass& pass : fn.passes) {
        if (fulfils_.count({pass.callee, pass.arg_index}) == 0) continue;
        if (fulfils_.insert({fn.name, pass.param}).second) changed = true;
      }
    }
  }
}

bool CallGraph::Fulfils(const std::string& callee_name,
                        int arg_index) const {
  return fulfils_.count({callee_name, arg_index}) > 0;
}

void CallGraph::ComputeTransitiveAcquires() {
  for (const FunctionRef& ref : all_) {
    std::set<MutexId>& acquired = trans_acquires_[ref];
    for (const AcquireSite& a : Fn(ref).acquires) {
      const MutexId id = ResolveMutex(ref, a.mutex);
      if (id.resolved) acquired.insert(id);
    }
  }
  // Ambiguous links contribute only the intersection of the
  // candidates' acquire sets (see header comment). Monotone: each
  // candidate's set only grows, so the intersection only grows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionRef& ref : all_) {
      for (const CallSite& call : Fn(ref).calls) {
        const std::set<MutexId> theirs = CalleeAcquires(call.callee, ref);
        std::set<MutexId>& mine = trans_acquires_[ref];
        for (const MutexId& id : theirs) {
          if (mine.insert(id).second) changed = true;
        }
      }
    }
  }
}

const std::set<MutexId>& CallGraph::TransitiveAcquires(
    const FunctionRef& ref) const {
  return trans_acquires_.at(ref);
}

}  // namespace snor_analyze
