// The virtual processor manager: level 1 of the two-level process
// implementation.
//
// A fixed number of virtual processors is created at initialization, with
// their state records permanently resident in a core segment — so this layer
// never uses the virtual memory and can serve as the interpreter for every
// module above it, including the virtual-memory modules themselves.  Some
// virtual processors are permanently bound to kernel tasks (the page-I/O
// daemon and the page writer); the rest form the pool multiplexed among user
// processes by level 2.
//
// Every wait goes through eventcounts.  A kernel task's vp awaits the task's
// work eventcount, which the task's producers advance; a level-2 process
// parked on an eventcount is registered as one of its waiters, and the
// advance that reaches its target posts the process's wakeup on Reed's
// real-memory queue.  So an advance wakes exactly its waiters, wherever the
// producer ran, and nothing polls.
//
// Fixing the number of processors buys the simplifications Brinch Hansen
// argued for [Brinch Hansen, 1975]; the price — reserving the fastest memory
// for every processor state — is kept small precisely because the pool is a
// small, fixed subset rather than one slot per user process.
#ifndef MKS_KERNEL_VPROC_H_
#define MKS_KERNEL_VPROC_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/core_segment.h"
#include "src/sync/message_queue.h"

namespace mks {

enum class VpState : uint8_t {
  kIdle = 0,     // in the user pool, unbound
  kReady = 1,    // bound kernel task whose work eventcount advanced
  kRunning = 2,  // dispatched
  kWaiting = 3,  // suspended on an eventcount
};

// A kernel task bound to a virtual processor.  Its vp waits on the task's
// work eventcount; a scheduler pass runs the task once, at the point its
// class names, only when that count has advanced since the task last ran.
// The task returns nothing: what it leaves to do, it posts by advancing a
// count.
using KernelTask = std::function<void()>;

// When a scheduler pass runs a ready kernel task.
enum class KernelTaskClass : uint8_t {
  // In the level-1 window on the bootload CPU, before dispatch: device
  // completions and wakeups must land before processes are chosen.
  kLevel1,
  // After dispatch, on the first CPU to go idle (the least-behind one):
  // background work that fills the slack before the furthest clock.
  kIdleTime,
};

class VirtualProcessorManager {
 public:
  VirtualProcessorManager(KernelContext* ctx, CoreSegmentManager* core_segs);

  // Creates the fixed pool.  The state records are backed by a dedicated
  // core segment allocated here (an address-space/map dependency on the core
  // segment manager only).
  Status Init(uint16_t vp_count);

  uint16_t vp_count() const { return static_cast<uint16_t>(vps_.size()); }

  // Permanently binds `task` to a vp that awaits the next advance of `work`.
  // kResourceExhausted when every vp is bound — the fixed pool is a real
  // limit, not a soft one.
  Result<VpId> BindKernelTask(std::string name, EventcountId work, KernelTask task,
                              KernelTaskClass task_class = KernelTaskClass::kLevel1);
  // Whether a kernel task of class `task_class` is ready.  Charges nothing,
  // so the scheduler asks before it opens a window.
  bool HasReadyTask(KernelTaskClass task_class) const;

  // Unbound vps available for multiplexing user processes (level 2).
  std::vector<VpId> UserPool() const;
  Result<VpId> AcquireIdleUserVp();
  // CPU-affine acquisition (sharded dispatch): prefers an idle vp whose
  // state record was last loaded on `prefer_cpu`, falling back to the
  // rotating cursor.  With a connect cost configured, loading a vp state
  // last touched by another CPU charges one interconnect transfer.
  Result<VpId> AcquireIdleUserVp(uint16_t prefer_cpu);
  void ReleaseUserVp(VpId vp);

  // Virtual cycles to migrate a vp state record between CPUs (0 = free, the
  // legacy model).  Wired from KernelConfig::connect_cost at construction of
  // the kernel; charges only materialize with a multi-CPU pool.
  void set_connect_cost(Cycles cost) { connect_cost_ = cost; }

  // Wires the upward path: the real-memory queue (a core segment, so posting
  // writes only resident words) that carries a parked process's wakeup to
  // the level-2 scheduler.
  void SetUpwardQueue(RealMemoryQueue* queue) { upward_queue_ = queue; }

  // Eventcount interface.  Await returns true when the target is already
  // satisfied; otherwise the vp is marked waiting and false is returned.
  bool Await(VpId vp, EventcountId ec, uint64_t target);
  // Advances the eventcount: readies every woken vp and posts every woken
  // process's wakeup on the real-memory queue.  A wakeup that does not fit
  // is deferred, in order, until a drain makes room.
  void Advance(EventcountId ec);
  // Posts deferred wakeups into the room a drain made, oldest first; true if
  // it posted any.  The level-2 scheduler calls it once the queue is empty.
  bool PostDeferredWakeups();

  // Runs each ready kernel-task vp once on the current CPU — only those of
  // class `only` when one is given; true if it ran any.
  bool RunKernelTasks(std::optional<KernelTaskClass> only = std::nullopt);

  // Runs one bound kernel task by name (benches and tests pump a single
  // daemon without a full scheduler pass); true if it ran, false when the
  // task is waiting or no such task is bound.
  bool RunKernelTask(std::string_view name);

  VpState state(VpId vp) const;
  const std::string& task_name(VpId vp) const;
  bool IsKernelVp(VpId vp) const;

  // Busy-time accounting: the level-2 scheduler attributes each quantum's
  // cycles to the vp that executed it.  MaxBusy() estimates the parallel
  // makespan a multiprocessor configuration would see (the simulator itself
  // charges a single global clock).
  void AccrueBusy(VpId vp, Cycles cycles);
  Cycles MaxBusy() const;

 private:
  struct Vp {
    VpState state = VpState::kIdle;
    bool kernel_bound = false;
    KernelTaskClass task_class = KernelTaskClass::kLevel1;
    EventcountId work{};  // a bound task's work eventcount
    std::string name;
    KernelTask task;
    Cycles busy = 0;
    uint16_t last_cpu = 0;  // CPU that last loaded this vp's state record
  };

  void StoreState(VpId vp);  // writes the state record through the core segment
  // The dispatch charge every vp pays, user or kernel: the switch, plus one
  // interconnect transfer when its state record last ran on another CPU.
  void ChargeDispatch(Vp& v);
  // Shared tail of both acquisition paths: marks vp `i` running and charges
  // its dispatch.
  Result<VpId> TakeUserVp(uint16_t i);
  // Dispatches bound vp `i` on the current CPU, runs its task once, and
  // re-awaits its work eventcount.
  void RunKernelVp(uint16_t i);
  // Posts a process's wakeup, or defers it when the queue is full.
  void PostWakeup(const UpwardMessage& wakeup);

  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  Cycles connect_cost_ = 0;
  MetricId id_dispatches_;
  MetricId id_vp_migrations_;
  TraceEventId ev_ec_advance_;
  TraceEventId ev_vp_dispatch_;
  TraceEventId ev_kernel_task_;
  CoreSegId state_seg_{};
  std::vector<Vp> vps_;
  uint16_t acquire_cursor_ = 0;  // rotate dispatch across the pool
  RealMemoryQueue* upward_queue_ = nullptr;
  // Wakeups the full queue could not take, oldest first.
  std::vector<UpwardMessage> deferred_wakeups_;
  std::vector<EcWaiter> woken_;  // Advance's scratch, reused
};

}  // namespace mks

#endif  // MKS_KERNEL_VPROC_H_
