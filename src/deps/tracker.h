// Runtime inter-module call tracking.
//
// The paper stresses that "inside an operating system careful analysis is
// required to identify all intermodule dependencies" — loops hide in
// exception paths and resource controls added last.  CallTracker makes that
// analysis executable: every object-manager operation opens a Scope naming
// its module; nested scopes record observed caller->callee edges.  Tests then
// assert that the observed call structure of the new kernel is a subset of
// its declared lattice, and that the baseline supervisor's observed structure
// really contains the loops of Figure 3.
#ifndef MKS_DEPS_TRACKER_H_
#define MKS_DEPS_TRACKER_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/deps/graph.h"

namespace mks {

class CallTracker {
 public:
  // Registers (or finds) a module in the observed graph.
  ModuleId Register(std::string_view name) { return observed_.AddModule(name); }

  // RAII call scope.  Constructing a Scope while another module's scope is
  // active records an observed edge from the active module to this one.
  class Scope {
   public:
    Scope(CallTracker* tracker, ModuleId callee) : tracker_(tracker) {
      if (tracker_ != nullptr) {
        tracker_->Enter(callee);
      }
    }
    ~Scope() {
      if (tracker_ != nullptr) {
        tracker_->Exit();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CallTracker* tracker_;
  };

  // Models the paper's two mechanisms for crossing the lattice without
  // creating a dependency: a hardware exception entering the system afresh,
  // and the software signal that "transfers control and arguments to a higher
  // level module without leaving behind any procedure activation records".
  // While a SignalScope is alive the caller stack is suspended, so calls made
  // inside it are observed as fresh top-level entries, not as edges from the
  // signalling module.  Suspension is a depth mark: the caller's frames stay
  // in the one stack below the mark, so entering a fault allocates nothing.
  class SignalScope {
   public:
    explicit SignalScope(CallTracker* tracker) : tracker_(tracker) {
      if (tracker_ != nullptr) {
        saved_base_ = tracker_->base_;
        tracker_->base_ = tracker_->stack_.size();
      }
    }
    ~SignalScope() {
      if (tracker_ != nullptr) {
        // Every call scope opened under the mark has closed.
        assert(tracker_->stack_.size() == tracker_->base_);
        tracker_->base_ = saved_base_;
      }
    }
    SignalScope(const SignalScope&) = delete;
    SignalScope& operator=(const SignalScope&) = delete;

   private:
    CallTracker* tracker_;
    size_t saved_base_ = 0;
  };

  const DependencyGraph& observed() const { return observed_; }

  // Observed edges absent from `declared` (matched by module name; the
  // dependency kind of a call edge is a design annotation, so any declared
  // kind legitimizes the call).  An empty result means the implementation
  // conforms to its declared dependency structure.
  std::vector<std::string> UndeclaredEdges(const DependencyGraph& declared) const;

 private:
  void Enter(ModuleId callee);
  void Exit();

  DependencyGraph observed_;
  std::vector<ModuleId> stack_;
  // Frames below this depth belong to suspended callers (SignalScope).
  size_t base_ = 0;
};

}  // namespace mks

#endif  // MKS_DEPS_TRACKER_H_
