// The user process manager: level 2 of the two-level process implementation.
//
// An arbitrary number of user processes is multiplexed over the fixed pool of
// virtual processors.  Process state records live in ordinary segments — in
// virtual memory, which is exactly why level 1 cannot signal them directly:
// the state of the receiving process is not guaranteed to be in real memory.
// Reed's cure is wired through here: a parked process is registered as a
// waiter on the eventcount it awaits; the advance that reaches its target,
// wherever the producer ran, has the virtual processor manager (level 1)
// post the process's wakeup on the real-memory queue, and this scheduler
// drains the queue, re-readies the process, and re-dispatches it.  That is
// the one wake path: async page arrivals, locked-descriptor parkers and
// user Awaits all take it.
//
// Simulated user programs are op-lists (read/write/compute).  An op that
// faults re-enters through the gate layer's dispatcher; a kBlocked result
// parks the process and frees its virtual processor for another process.
#ifndef MKS_KERNEL_UPROC_H_
#define MKS_KERNEL_UPROC_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/kernel/gates.h"
#include "src/sync/message_queue.h"

namespace mks {

struct UserOp {
  enum class Kind : uint8_t { kRead, kWrite, kCompute, kAdvance, kAwait };
  Kind kind = Kind::kCompute;
  Segno segno{};
  uint32_t offset = 0;
  Word value = 0;
  Cycles compute = 0;
  EventcountId ec{};

  static UserOp Read(Segno segno, uint32_t offset) {
    return UserOp{Kind::kRead, segno, offset, 0, 0, {}};
  }
  static UserOp Write(Segno segno, uint32_t offset, Word value) {
    return UserOp{Kind::kWrite, segno, offset, value, 0, {}};
  }
  static UserOp Compute(Cycles cycles) {
    return UserOp{Kind::kCompute, Segno{}, 0, 0, cycles, {}};
  }
  static UserOp Advance(EventcountId ec) {
    return UserOp{Kind::kAdvance, Segno{}, 0, 0, 0, ec};
  }
  // Await the eventcount reaching `value`.
  static UserOp Await(EventcountId ec, uint64_t target) {
    return UserOp{Kind::kAwait, Segno{}, 0, target, 0, ec};
  }
};

enum class ProcState : uint8_t { kReady, kRunning, kBlocked, kDone, kAborted };

struct ProcessStats {
  Cycles cpu_cycles = 0;
  uint64_t ops_executed = 0;
  uint64_t blocks = 0;
  uint64_t dispatches = 0;
  Status last_error;
};

// Dispatch-path configuration (mirrors the KernelConfig knobs; all defaults
// reproduce the legacy single-ready-list scheduler byte-for-byte).
struct DispatchConfig {
  bool sharded_runqueues = false;
  bool steal = false;
  Cycles connect_cost = 0;
  // Handoff-traffic policy for every scheduler lock (the global ready-list
  // lock and, in sharded mode, each run-queue shard's lock): kTestAndSet
  // charges only the gap; kMcs adds one connect_cost line transfer per
  // contended grant.
  LockPolicy lock_policy = LockPolicy::kTestAndSet;
};

class UserProcessManager {
 public:
  UserProcessManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                     VirtualProcessorManager* vpm, PageFrameManager* pfm, SegmentManager* segs,
                     KnownSegmentManager* ksm, KernelGates* gates);

  // Latches the dispatch knobs; with sharded_runqueues set, builds the
  // per-CPU run queues.  Called once at kernel construction, before any
  // process exists.
  void ConfigureDispatch(const DispatchConfig& config);

  // Builds the real-memory message queue in a core segment and hands it to
  // the virtual processor manager, which posts wakeups on it.
  Status Init();

  Result<ProcessId> CreateProcess(const Subject& subject);
  Status DestroyProcess(ProcessId pid);

  // Slab pooling of process slots (the login-storm fast path).  With the
  // knob on, DestroyProcess parks the slot — pid, KST allocation, and state
  // segment — on a free list instead of tearing it down, and CreateProcess
  // pops a parked slot instead of rebuilding from scratch.  Off (default)
  // is byte-identical to the build/tear-down-every-time path.
  void set_slab_processes(bool on) { slab_ = on; }
  size_t slab_free() const { return free_slots_.size(); }
  // Full teardown of every parked slot (KST, state segment, VTOC entry);
  // called at kernel shutdown so the on-disk image leaks nothing.
  Status DrainSlabs();

  Status SetProgram(ProcessId pid, std::vector<UserOp> program);
  ProcContext* Context(ProcessId pid);
  // Every live process, in ascending pid order.
  std::vector<ProcessId> LivePids() const;
  ProcState state(ProcessId pid) const;
  const ProcessStats& stats(ProcessId pid) const;

  // Ops each dispatched process may run before being preempted.
  void set_quantum(uint32_t quantum) { quantum_ = quantum; }

  // The modelled global ready-list lock (contended only in legacy dispatch
  // mode with interconnect costs on), for tests of the lock policies.
  const SimSpinLock& list_lock() const { return list_lock_; }

  // Runs the two-level scheduler until every process is done/aborted or
  // `max_passes` scheduler passes elapse.  Returns kOk on quiescence and a
  // bare kResourceExhausted when the pass budget runs out.
  Status RunUntilQuiescent(uint64_t max_passes);
  bool AllDone() const;

  size_t process_count() const { return procs_.size(); }

 private:
  static constexpr uint16_t kNoCpu = UINT16_MAX;

  struct Process {
    ProcessId pid{};
    ProcContext ctx;
    ProcState state = ProcState::kReady;
    std::vector<UserOp> program;
    size_t pc = 0;
    VpId vp{};
    bool bound = false;
    Segno state_segno{};
    ProcessStats stats;
    uint16_t last_cpu = kNoCpu; // CPU of the most recent dispatch
    bool queued = false;        // present in the sharded run queues
  };

  // kNoWork: the CPU obtained nothing to run (sharded dispatch only).
  enum class DispatchOutcome : uint8_t { kRan, kNoVp, kNoWork };

  // A parked process slot awaiting reuse: the pid keeps its KST and its
  // state segment's storage; everything else was reset at park time.
  struct FreeSlot {
    ProcessId pid{};
    Segno state_segno{};
  };

  // One scheduler pass: the level-1 window (read landing, the ready level-1
  // tasks, the wakeup drain), dispatch and execution, then idle-time work.
  // True if it ran a quantum or a kernel task, or woke a process.
  bool SchedulerPass();
  // The two dispatch bodies SchedulerPass selects between: the legacy scan
  // of the global ready list, and the sharded per-CPU queues.
  bool DispatchGlobal();
  bool DispatchSharded();
  // One sharded dispatch attempt on `cpu`: pop (or steal) an item and run
  // its quantum, all in one window on `cpu`.
  DispatchOutcome DispatchFromQueue(uint16_t cpu);
  // The least-behind CPU whose own queue holds work (ties: lowest index);
  // kNoCpu when every queue is empty.
  uint16_t LeastBehindWithWork() const;
  // Idle-time work, after dispatch: the ready idle-time kernel tasks once on
  // the least-behind CPU, then — with the paging pipeline on — idle rounds
  // while that CPU trails the furthest clock and a page is cleanable.  True
  // if a kernel task ran; idle rounds are background work and never count.
  bool RunIdleTimeWork();
  // One quantum on `cpu`, in the caller's window, which opened at
  // `dispatch_start` (the quantum's trace span starts there): vp acquisition
  // (CPU-affine when `affine_vp`), process switch, state swap-in and the op
  // loop.  kNoVp = vp pool exhausted, nothing charged.
  DispatchOutcome RunQuantumOn(Process& proc, uint16_t cpu, Cycles dispatch_start,
                               bool affine_vp);
  // The op loop, then done, parked, or back to ready as the quantum expires.
  void RunOps(Process& proc);
  // Readies `proc` for dispatch from the open window's CPU, at its
  // LocalNow(): sharded mode enqueues it; legacy mode with interconnect
  // costs on touches the (modelled) global ready-list line.
  void EnqueueReady(Process& proc);
  // The global ready list as a shared cache line: lock it from the window's
  // CPU, paying spin and a transfer when another CPU touched it last.
  void TouchReadyList();
  // Cross-CPU scheduling charges only exist with a configured connect cost
  // and more than one CPU to cross between.
  bool sched_costs_on() const {
    return dcfg_.connect_cost > 0 && ctx_->smp.count() > 1;
  }
  // The stall watchdog's flight-recorder dump: profiler domain trees, tracer
  // ring tails, scheduler-lock owners, run-queue depths, and process states,
  // to stderr; then abort().
  [[noreturn]] void DumpStallAndAbort(uint64_t pass);
  // Parks `proc` on its pending wait, which must lie ahead, registering it
  // as the count's waiter.
  void Park(Process& proc);
  // Withdraws a parked process's registration (destroy, new program), so no
  // later advance posts a wakeup for it.
  void WithdrawWait(Process& proc);
  void Finish(Process& proc, ProcState state, Status why);
  Status ExecOneOp(Process& proc);
  // Saves/restores the process state record through the paging machinery —
  // the honest "states live in virtual memory" dependency.
  Status SwapStateIn(Process& proc);
  void SwapStateOut(Process& proc);
  // Full teardown of a slot's kernel state: KST destroy, state-segment
  // deactivation, VTOC release.  Shared by DestroyProcess (slab off) and
  // DrainSlabs.
  Status ReleaseSlot(ProcessId pid, Segno state_segno);

  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  VirtualProcessorManager* vpm_;
  PageFrameManager* pfm_;
  SegmentManager* segs_;
  KnownSegmentManager* ksm_;
  KernelGates* gates_;
  MetricId id_idle_cycles_;
  MetricId id_list_transfers_;
  MetricId id_list_transfer_cycles_;
  MetricId id_list_lock_spin_cycles_;
  MetricId id_proc_migrations_;
  MetricId id_slab_reuses_;
  TraceEventId ev_quantum_;
  TraceEventId ev_level1_;
  TraceEventId ev_park_;
  TraceEventId ev_wake_;
  HistId hist_quantum_;
  std::unique_ptr<RealMemoryQueue> queue_;
  std::unordered_map<ProcessId, Process> procs_;
  DispatchConfig dcfg_;
  std::unique_ptr<RunQueueSet> rq_;
  SimSpinLock list_lock_;        // the modelled global ready-list lock
  uint16_t list_owner_ = LockTenure::kNoOwner;  // CPU that last touched the list's line
  bool slab_ = false;
  std::vector<FreeSlot> free_slots_;
  uint32_t next_pid_ = 1;
  uint32_t quantum_ = 16;
  uint64_t state_uid_counter_ = 0;
  // Monotonic scheduler-progress stamp for the stall watchdog: quanta run,
  // device completions, and wakeups.  Dispatching a kernel task does NOT
  // advance it — a task's progress must show up as one of those effects, so
  // a task that keeps re-posting its own work while doing none reads as a
  // stall.
  uint64_t sched_progress_ = 0;
};

}  // namespace mks

#endif  // MKS_KERNEL_UPROC_H_
