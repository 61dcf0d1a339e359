// The baseline: a compact model of the 1973 Multics supervisor, with the
// paper's dependency loops deliberately intact.
//
// This is the "before" system of every comparison in the paper:
//
//  * page control, on a growth fault, walks UP segment control's active
//    segment table along the shape of the directory hierarchy to find the
//    nearest superior quota directory (the quota loop);
//  * segment control never deactivates a directory with active inferiors
//    (the hierarchy-shape constraint on the AST);
//  * a full pack is handled by page control invoking segment control, which
//    reads address-space control's data to find — and directly update — the
//    directory entry (the full-pack loop);
//  * the missing-page race is closed by a global lock plus interpretive
//    retranslation of the faulting address against segment control's and
//    address-space control's tables (no descriptor lock bit in the hardware);
//  * process states live in pageable segments and there is ONE level of
//    process multiplexing, so dispatching a process can itself page-fault
//    (the interpreter loop), handled by bounded recursion;
//  * tree-name expansion, the dynamic linker, and reference-name management
//    all run inside the supervisor ("buried ... inside the supervisor"),
//    with the two-response rule: "file found" or "no access".
//
// Code paths are charged at CodeStyle::kOptimized: the historical supervisor
// was heavily assembly-coded, which is the baseline of the PL/I-recoding
// performance comparison.
#ifndef MKS_BASELINE_SUPERVISOR_H_
#define MKS_BASELINE_SUPERVISOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/aim/monitor.h"
#include "src/common/rng.h"
#include "src/deps/tracker.h"
#include "src/disk/pack.h"
#include "src/hw/machine.h"
#include "src/sim/clock.h"
#include "src/sim/cpu_sched.h"
#include "src/sim/metrics.h"
#include "src/sim/prof.h"
#include "src/sim/trace.h"
#include "src/sync/spinlock.h"

namespace mks {

struct BaselineConfig {
  uint32_t memory_frames = 512;
  uint32_t records_per_pack = 4096;  // on each of the two packs
  uint32_t ast_slots = 64;
  // Probability that the address translation tables changed between a
  // missing-page fault and capture of the global lock, forcing the
  // interpretive retranslation to detect a conflict and retry.
  double retranslate_conflict_rate = 0.02;
  // Simulated processors.  With more than one, process quanta interleave
  // deterministically across the pool and every missing-page fault contends
  // for the one global lock — each extra processor also raises the chance
  // that the translation tables changed under a fault in flight (the
  // retranslation conflict rate scales with cpu_count - 1).
  uint16_t cpu_count = 1;
  // Virtual-time tracer (default off; same byte-identical contract as the
  // kernel's KernelConfig::trace knob).
  bool trace = false;
};

// Baseline module names (the six boxes of Figure 2).
namespace baseline_modules {
inline constexpr const char* kDiskControl = "disk_volume_control";
inline constexpr const char* kDirectoryControl = "file_system_directory_control";
inline constexpr const char* kAddressSpaceControl = "address_space_control";
inline constexpr const char* kSegmentControl = "segment_control";
inline constexpr const char* kPageControl = "page_control";
inline constexpr const char* kProcessControl = "process_control";
}  // namespace baseline_modules

class MonolithicSupervisor {
 public:
  explicit MonolithicSupervisor(const BaselineConfig& config);
  ~MonolithicSupervisor();

  Status Boot();

  // --- the in-kernel file system interface (tree names resolved inside) ---
  // Creates every missing directory along the path, then the segment.
  Result<SegmentUid> CreatePath(const std::string& path);
  Status CreateDirectoryPath(const std::string& path);
  // The historical two-response interface: the identifier, or "no access".
  Result<SegmentUid> FileFound(const std::string& path);
  Status SetQuota(const std::string& dir_path, uint64_t limit);
  Result<uint64_t> QuotaUsed(const std::string& dir_path);

  // --- memory references (all fault handling inline, under the global lock) ---
  Result<Word> Read(SegmentUid uid, uint32_t offset);
  Status Write(SegmentUid uid, uint32_t offset, Word value);

  // --- one-level process control ---
  struct BaselineOp {
    enum class Kind : uint8_t { kRead, kWrite, kCompute } kind = Kind::kCompute;
    SegmentUid uid{};
    uint32_t offset = 0;
    Word value = 0;
    Cycles compute = 0;
  };
  Result<ProcessId> CreateProcess();
  Status SetProgram(ProcessId pid, std::vector<BaselineOp> program);
  // Runs every process to completion, round-robin, one quantum at a time.
  Status RunUntilQuiescent(uint64_t max_passes);

  // --- in-kernel services extracted by the redesign projects ---
  // The dynamic linker: resolves `symbol` against the per-process linkage
  // table, snapping the link on first use (all inside the kernel).
  Result<SegmentUid> LinkSnap(ProcessId pid, const std::string& symbol,
                              const std::string& target_path);
  // The reference name manager: in-kernel name -> segment bindings.
  Status NameBind(ProcessId pid, const std::string& name, SegmentUid uid);
  Result<SegmentUid> NameLookup(ProcessId pid, const std::string& name);

  // --- the figures ---
  // Figure 2: the superficial, almost linear structure (one obvious loop).
  static DependencyGraph SuperficialStructure();
  // Figure 3: the actual structure once maps, programs, address spaces, and
  // the exception paths are taken into account.
  static DependencyGraph ActualStructure();

  Clock& clock() { return clock_; }
  Metrics& metrics() { return metrics_; }
  Tracer& trace() { return trace_; }
  CallTracker& tracker() { return tracker_; }
  CostModel& cost() { return cost_; }
  uint64_t global_lock_acquisitions() const { return global_lock_.acquisitions(); }
  uint64_t global_lock_contended() const { return global_lock_.contended(); }
  Cycles global_lock_spin_cycles() const { return global_lock_.total_spin(); }

  // Simulated-parallel completion time across the pool (equals clock() time
  // elapsed since construction when cpu_count is 1).
  Cycles Makespan();
  // Synchronization barrier: every CPU's local clock jumps to the furthest-
  // ahead one.  Call before a measured region so single-CPU setup work does
  // not skew the interleaving.
  void AlignCpus();

 private:
  struct BAstEntry {
    bool in_use = false;
    SegmentUid uid{};
    PackId pack{};
    VtocIndex vtoc{};
    PageTable page_table;
    bool is_directory = false;
    // Quota lives INSIDE the AST for directories, and page control follows
    // these parent links upward at every growth fault.
    uint32_t parent_ast = UINT32_MAX;
    bool quota_directory = false;
    uint64_t quota_limit = 0;
    uint64_t quota_count = 0;
    uint32_t active_inferiors = 0;
    uint32_t connections = 0;
    uint64_t lru_stamp = 0;
  };

  struct BNode {  // a directory-tree node held in directory control's data
    bool is_directory = false;
    SegmentUid uid{};
    PackId pack{};
    VtocIndex vtoc{};
    bool quota_directory = false;
    uint64_t quota_limit = 0;
    std::map<std::string, std::unique_ptr<BNode>> children;
    BNode* parent = nullptr;
    std::string name;
  };

  struct BProcess {
    ProcessId pid{};
    SegmentUid state_segment{};
    std::vector<BaselineOp> program;
    size_t pc = 0;
    bool done = false;
    std::map<std::string, SegmentUid> linkage;  // snapped links
    std::map<std::string, SegmentUid> names;    // reference names
  };

  // -- directory control --
  Result<BNode*> ResolveNode(const std::string& path);
  BNode* FindNodeByUid(SegmentUid uid);

  // -- segment control --
  Result<uint32_t> Activate(BNode* node);
  Status Deactivate(uint32_t ast);
  Result<uint32_t> EnsureActive(BNode* node);

  // -- page control --
  void AcquireGlobalLock();
  void ReleaseGlobalLock();
  Status HandleMissingPage(uint32_t ast, uint32_t page);
  Status GrowPage(uint32_t ast, uint32_t page);
  // The quota walk: follow AST parent links to the nearest quota directory.
  Result<uint32_t> FindQuotaAst(uint32_t ast);
  Status HandleFullPack(uint32_t ast, uint32_t page);
  Result<FrameIndex> AcquireFrame();
  Status CleanAndRelease(FrameIndex frame);

  // -- process control --
  Status TouchStateSegment(BProcess& proc, int depth);

  // -- the simulated CPU pool --
  // The running CPU's local virtual time: its accrued quanta plus the global
  // clock's progress since it last resumed.  Continuous and monotone per CPU,
  // so with one CPU it equals the global clock and the lock never contends.
  Cycles LocalNow() const {
    return interleave_.local_now(current_cpu_) + (clock_.now() - cpu_epoch_);
  }
  // Accrues the outgoing CPU's elapsed work and resumes on `cpu`.
  void SwitchCpu(uint16_t cpu);

  Status ReferenceInternal(SegmentUid uid, uint32_t offset, AccessMode mode, Word* out, Word in,
                           int depth);

  BaselineConfig config_;
  Clock clock_;
  CostModel cost_{&clock_};
  Metrics metrics_;
  CallTracker tracker_;
  Tracer trace_{&clock_, &metrics_};
  Rng rng_;
  CpuInterleave interleave_;
  SimSpinLock global_lock_;  // test-and-set: the historical free-for-all
  uint16_t current_cpu_ = 0;
  Cycles cpu_epoch_ = 0;  // global-clock value when current_cpu_ last resumed
  double effective_conflict_rate_ = 0;
  std::unique_ptr<PrimaryMemory> memory_;
  VolumeControl volumes_{&cost_, &metrics_, &trace_};
  ModuleId m_disk_, m_dir_, m_as_, m_seg_, m_page_, m_proc_;

  BNode root_;
  std::unordered_map<SegmentUid, BNode*> nodes_by_uid_;
  std::vector<BAstEntry> ast_;
  std::unordered_map<SegmentUid, uint32_t> ast_by_uid_;
  uint64_t lru_counter_ = 0;

  struct FrameInfo {
    bool in_use = false;
    uint32_t ast = UINT32_MAX;
    uint32_t page = 0;
  };
  std::vector<FrameInfo> frames_;
  std::vector<FrameIndex> free_list_;
  uint32_t clock_hand_ = 0;

  MetricId id_deactivation_blocked_by_hierarchy_;
  MetricId id_zero_reclaims_;
  MetricId id_writebacks_;
  MetricId id_quota_walk_hops_;
  MetricId id_full_pack_moves_;
  MetricId id_page_faults_;
  MetricId id_retranslations_;
  MetricId id_retranslation_conflicts_;
  MetricId id_zero_page_reallocations_;
  MetricId id_state_loads_;
  MetricId id_links_snapped_;
  TraceEventId ev_lock_spin_ = 0;
  TraceEventId ev_fault_service_ = 0;
  HistId hist_lock_spin_ = kNoHist;
  HistId hist_fault_service_ = kNoHist;

  std::optional<LockTenure> global_tenure_;  // engaged while the lock is held
  uint64_t uid_counter_ = 1;
  std::unordered_map<ProcessId, BProcess> procs_;
  uint32_t next_pid_ = 1;
};

}  // namespace mks

#endif  // MKS_BASELINE_SUPERVISOR_H_
