#include "src/deps/tracker.h"

#include <cassert>

namespace mks {

void CallTracker::Enter(ModuleId callee) {
  if (stack_.size() > base_ && !(stack_.back() == callee)) {
    observed_.AddEdge(stack_.back(), callee, DepKind::kComponent);
  }
  stack_.push_back(callee);
}

void CallTracker::Exit() {
  assert(stack_.size() > base_);  // never pops a suspended caller's frame
  stack_.pop_back();
}

std::vector<std::string> CallTracker::UndeclaredEdges(const DependencyGraph& declared) const {
  std::vector<std::string> undeclared;
  for (const DepEdge& e : observed_.edges()) {
    const std::string& from = observed_.name(e.from);
    const std::string& to = observed_.name(e.to);
    if (!declared.HasModule(from) || !declared.HasModule(to)) {
      undeclared.push_back(from + " -> " + to + " (module not declared)");
      continue;
    }
    if (!declared.HasEdge(declared.FindModule(from), declared.FindModule(to))) {
      undeclared.push_back(from + " -> " + to);
    }
  }
  return undeclared;
}

}  // namespace mks
