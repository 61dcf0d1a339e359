// The assembled kernel: configuration, staged initialization, and the
// declared dependency lattice of the new design (the paper's Figure 4).
//
// Kernel owns every object manager and wires them bottom-up.  Initialization
// is staged the way the certifiable-initialization redesign proposed: each
// stage uses only managers initialized by earlier stages, so the boot order
// IS a topological order of the lattice.
#ifndef MKS_KERNEL_KERNEL_H_
#define MKS_KERNEL_KERNEL_H_

#include <memory>

#include "src/kernel/uproc.h"

namespace mks {

struct KernelConfig {
  // Machine shape.
  uint32_t memory_frames = 512;
  // Simulated processors, interleaved deterministically at quantum
  // granularity.  1 reproduces the uniprocessor behaviour exactly.
  uint16_t cpu_count = 1;
  uint16_t vp_count = 8;
  uint32_t ast_slots = 64;
  // Disk shape.
  uint16_t pack_count = 2;
  uint32_t records_per_pack = 4096;
  uint32_t vtoc_slots_per_pack = 512;
  // Policy.
  double structured_factor = CostModel::kDefaultStructuredFactor;
  bool async_paging = false;
  bool close_zero_page_channel = false;
  // Anticipatory paging pipeline (default off — demand paging with inline
  // evictions, exactly the pre-pipeline behaviour).
  PagingPipeline paging_pipeline;
  // Virtual-time tracer (default off — with it off every instrumented path
  // is byte-identical to an untraced build; same pattern as the pipeline).
  bool trace = false;
  // Per-CPU cycle-accounting profiler + stall watchdog (default off — same
  // byte-identical-when-off discipline as the tracer).  profile.stall_rounds
  // arms the watchdog independently of profile.enabled: arming it never
  // changes a run's output, it only turns a frozen-clock livelock into a
  // flight-recorder dump and abort.
  ProfConfig profile;
  // Dispatch sharding (all default off — the legacy single ready list with
  // free cross-CPU traffic, byte-identical to the pre-sharding scheduler).
  // sharded_runqueues: per-CPU run queues, each behind its own SimSpinLock.
  // steal: deterministic work stealing between sharded queues (inert unless
  // sharded_runqueues is also set).
  bool sharded_runqueues = false;
  bool steal = false;
  // connect_cost: virtual cycles per cross-CPU interconnect transfer.  Makes
  // shared-line traffic real work: associative-memory invalidations charge
  // it per remote CPU signalled, and the scheduler charges it whenever
  // ready-list state, a vp state record, or a process's working set
  // migrates between CPUs.  0 keeps all of that free (the legacy model).
  Cycles connect_cost = 0;
  // Handoff-traffic policy for the scheduler locks (global ready-list lock
  // and each sharded run-queue lock): how much interconnect traffic one
  // contended lock handoff generates, priced in connect_cost line transfers.
  // kTestAndSet (default) charges only the gap to the holder's release;
  // kMcs adds exactly one transfer per contended grant (per-waiter queue
  // nodes).
  LockPolicy lock_policy = LockPolicy::kTestAndSet;
  // Read-mostly synchronization for the naming surface: the directory
  // hierarchy and the known segment tables each sit behind one SimSharedLock
  // whose read-side protocol this selects.  kOff (default) leaves the naming
  // paths un-modeled — byte-identical to every prior PR.  kPassiveRw gives
  // each CPU a passive read token (contended reads free of line transfers;
  // writers revoke at connect_cost per remote reader CPU).  kEpoch gives
  // readers a zero-cost epoch pin (writers publish one broadcast and wait
  // out the grace period).
  ReadPolicy read_policy = ReadPolicy::kOff;
  // kEpoch only: cycles a writer spends on quiescence detection after its
  // publish, on top of draining the read sections in flight.
  Cycles epoch_grace_cost = 0;
  // Slab pooling of process slots: DestroyProcess parks the slot (pid, KST
  // allocation, state segment) on a free list and CreateProcess reuses it,
  // skipping the rebuild-from-scratch chain.  Off (default) is
  // byte-identical to tearing every process down; Shutdown drains parked
  // slots either way, so the on-disk image leaks nothing.
  bool slab_processes = false;
  // Default: world-usable root, so examples/tests can build a hierarchy.
  // A hardened installation narrows this (see examples/secure_file_service).
  Acl root_acl = [] {
    Acl acl;
    acl.Add(AclEntry{"*", "*", AccessModes::RW()});
    return acl;
  }();
  uint64_t secret = 0x6d756c74696373ULL;  // per-boot secret for mythical ids
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);
  ~Kernel();

  // Staged bring-up: core segments -> virtual processors -> disk -> paging ->
  // quota -> segments/address spaces -> directories -> user processes.
  // kResourceExhausted when binding the paging daemons leaves no vp for
  // user processes.
  Status Boot();
  bool booted() const { return booted_; }

  // The declared dependency structure of the new design, with every edge
  // annotated by its kind.  Tests check it is loop-free and that the runtime
  // call structure stays inside it.
  static DependencyGraph DeclaredLattice();

  // The integrity auditor: a machine-checkable slice of the paper's
  // "two or more small, expert teams of programmers can be assigned to be
  // auditors" prong.  Sweeps the kernel's cross-module data structures for
  // inconsistencies, and reports every observed call edge outside
  // DeclaredLattice(); an empty report is the expected (audited) state at
  // quiescence.
  std::vector<std::string> AuditIntegrity();

  // Orderly shutdown: severs every address space, deactivates every segment
  // (flushing resident pages home), and writes every cached quota cell back
  // to its pack, so the on-disk image is self-consistent.
  Status Shutdown();

  const KernelConfig& config() const { return config_; }
  KernelContext& ctx() { return *ctx_; }
  Metrics& metrics() { return ctx_->metrics; }
  Clock& clock() { return ctx_->clock; }
  CallTracker& tracker() { return ctx_->tracker; }

  CoreSegmentManager& core_segments() { return *core_segs_; }
  VirtualProcessorManager& vprocs() { return *vpm_; }
  PageFrameManager& page_frames() { return *pfm_; }
  QuotaCellManager& quota_cells() { return *quota_; }
  SegmentManager& segments() { return *segs_; }
  AddressSpaceManager& address_spaces() { return *spaces_; }
  KnownSegmentManager& known_segments() { return *ksm_; }
  DirectoryManager& directories() { return *dirs_; }
  UserProcessManager& processes() { return *uproc_; }
  KernelGates& gates() { return *gates_; }

 private:
  KernelConfig config_;
  std::unique_ptr<KernelContext> ctx_;
  std::unique_ptr<CoreSegmentManager> core_segs_;
  std::unique_ptr<VirtualProcessorManager> vpm_;
  std::unique_ptr<QuotaCellManager> quota_;
  std::unique_ptr<PageFrameManager> pfm_;
  std::unique_ptr<SegmentManager> segs_;
  std::unique_ptr<AddressSpaceManager> spaces_;
  std::unique_ptr<KnownSegmentManager> ksm_;
  std::unique_ptr<DirectoryManager> dirs_;
  std::unique_ptr<KernelGates> gates_;
  std::unique_ptr<UserProcessManager> uproc_;
  bool booted_ = false;
};

}  // namespace mks

#endif  // MKS_KERNEL_KERNEL_H_
