// Per-CPU hierarchical cycle-accounting profiler with a stall watchdog.
//
// The simulator answers the paper's central question — *where does the
// kernel spend its mechanism?* — exactly, not statistically: every cycle is
// a deterministic Charge on the shared Clock, so attribution can be a
// bookkeeping overlay with zero sampling error.  The profiler keeps one
// domain tree per simulated CPU; a RAII `Prof::Scope(domain)` pushes a
// domain and the virtual-clock delta since the previous push/pop is charged
// to whatever domain was innermost when the cycles were spent.
//
// The hard invariant (asserted in tests/prof_test.cc): per CPU,
//
//     attributed cycles  ==  that CPU's local clock advance
//
// Local clocks move in exactly three ways — CpuInterleave::Accrue (a
// dispatch window's global-clock delta is charged to one CPU),
// AdvanceAll (pool-wide idle to the next event), and AlignAll (per-CPU
// catch-up gaps to the makespan).  The profiler hooks all three:
//
//  * A `Prof::Window` brackets each accrual window: KernelContext::Window
//    opens one with every window and closes it after the window's Accrue.
//    While a window is open, scope pushes/pops attribute every global-clock
//    delta to the innermost domain; with no window open, scopes are inert,
//    so construction-time work — charged to the clock but never accrued to
//    any CPU — never pollutes the per-CPU trees.
//  * AdvanceAll and AlignAll deltas are charged to the `idle` domain on
//    both sides of the ledger.
//
// With `ProfConfig::enabled == false` every entry point early-returns on one
// branch and no state is touched — the tracer's byte-identical-when-off
// discipline.
//
// The stall watchdog is independent of attribution (it works with the
// profiler disabled, so benches arm it without perturbing output): the
// scheduler reports a monotonic progress stamp (quanta run + device
// completions + wakeups) once per dispatch round, and when the stamp freezes
// for `stall_rounds` consecutive rounds the caller is told to dump its
// flight recorder and abort.  The stamp — not the raw clock — is the frozen
// quantity in every reachable hang: a kernel task that re-posts its own work
// on every run while doing none is dispatched on every pass, and each
// dispatch charges a vp switch, so it livelocks with the clock creeping and
// only the progress stamp pinned.  The watchdog turns that silent burn of the pass budget into
// an actionable dump at the first `stall_rounds` barren rounds.
#ifndef MKS_SIM_PROF_H_
#define MKS_SIM_PROF_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sync/shared_lock.h"
#include "src/sync/spinlock.h"

namespace mks {

// Attribution domains.  KST sections ride the directory domains: the known
// segment table is the per-process face of the naming surface, and P16-style
// analysis wants "naming, read side" as one number.
enum class ProfDomain : uint8_t {
  kDispatch = 0,    // scheduler passes, vp switches, queue surgery
  kUprocQuantum,    // user-process op execution inside a quantum
  kFaultService,    // segment/page/quota fault handling
  kPagingIo,        // disk reads/writes, daemon steps, pool replenish
  kDirectoryRead,   // classified read sections (dir.* and ksm.*)
  kDirectoryWrite,  // classified write sections (dir.* and ksm.*)
  kGate,            // ring-crossing entries and user-ring references
  kLockSpin,        // waiting for a holder to release (the gap)
  kLockHandoff,     // coherence traffic of a contended grant
  kSteal,           // cross-CPU work-stealing scans and migrations
  kSessionSetup,    // answering-service login/logout transactions
  kIdle,            // local clock advanced with no work on this CPU
};

inline constexpr size_t kProfDomainCount = 12;

inline const char* ProfDomainName(ProfDomain d) {
  static constexpr const char* kNames[kProfDomainCount] = {
      "dispatch",    "uproc-quantum",   "fault-service", "paging-io",
      "directory-read", "directory-write", "gate",       "lock-spin",
      "lock-handoff", "steal",          "session-setup", "idle",
  };
  return kNames[static_cast<size_t>(d)];
}

struct ProfConfig {
  bool enabled = false;
  // Consecutive dispatch rounds tolerated with a frozen progress stamp
  // before the stall watchdog fires.  0 disables the watchdog.  Independent
  // of `enabled`: arming only the watchdog never changes a run's output.
  uint64_t stall_rounds = 0;
};

class Prof {
 public:
  explicit Prof(const Clock* clock) : clock_(clock) {}
  Prof(const Prof&) = delete;
  Prof& operator=(const Prof&) = delete;

  // Call once, before the kernel starts charging; sizes one lane per CPU.
  void Enable(uint16_t cpu_count, const ProfConfig& config) {
    enabled_ = config.enabled;
    stall_rounds_ = config.stall_rounds;
    lanes_.clear();
    if (enabled_) {
      lanes_.resize(cpu_count == 0 ? 1 : cpu_count);
      for (Lane& lane : lanes_) {
        lane.nodes.push_back(Node{});  // synthetic per-CPU root, index 0
      }
    }
  }

  bool enabled() const { return enabled_; }
  uint16_t cpu_count() const { return static_cast<uint16_t>(lanes_.size()); }

  // ---- accrual windows -----------------------------------------------

  // Brackets one accrual window on `cpu`.  KernelContext::Window holds one,
  // opened with the window and destroyed after the window's
  // CpuInterleave::Accrue.  Everything charged to the global clock in
  // between is attributed — to `root` by default, to the innermost Scope
  // when instrumented code pushed one.
  class Window {
   public:
    Window(Prof* prof, uint16_t cpu, ProfDomain root) : prof_(prof) {
      if (prof_ == nullptr || !prof_->enabled_) {
        prof_ = nullptr;
        return;
      }
      prof_->OpenWindow(cpu, root);
    }
    ~Window() {
      if (prof_ != nullptr) {
        prof_->CloseWindow();
      }
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;

   private:
    Prof* prof_;
  };

  // RAII domain push.  Inert (one branch) when profiling is off, when no
  // window is open, or when `prof` is null (sim-layer components that may
  // run without a kernel pass nullptr).
  class Scope {
   public:
    Scope(Prof* prof, ProfDomain domain) : prof_(prof) {
      if (prof_ == nullptr || !prof_->InWindow()) {
        prof_ = nullptr;
        return;
      }
      prof_->PushScope(domain);
    }
    ~Scope() {
      if (prof_ != nullptr) {
        prof_->PopScope();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Prof* prof_;
  };

  bool InWindow() const { return enabled_ && !stack_.empty(); }

  // ---- CpuInterleave hooks -------------------------------------------

  // A dispatch window's delta was accrued to `cpu`'s local clock.
  void NoteAccrue(uint16_t cpu, Cycles delta) {
    if (!enabled_ || cpu >= lanes_.size()) {
      return;
    }
    lanes_[cpu].accrued += delta;
  }

  // Pool-wide idle: every local clock advanced by `delta`.
  void NoteAdvanceAll(Cycles delta) {
    if (!enabled_) {
      return;
    }
    for (uint16_t cpu = 0; cpu < lanes_.size(); ++cpu) {
      ChargeIdle(cpu, delta);
    }
  }

  // AlignAll catch-up: `cpu` jumped forward by `delta` to the makespan.
  void NoteAlign(uint16_t cpu, Cycles delta) {
    if (!enabled_ || cpu >= lanes_.size()) {
      return;
    }
    ChargeIdle(cpu, delta);
  }

  // ---- stall watchdog ------------------------------------------------

  // The scheduler calls this once per dispatch round with its monotonic
  // progress stamp (quanta run + completions + wakeups).  Returns true when
  // the stamp has been frozen for `stall_rounds` consecutive rounds — the
  // caller should dump its flight recorder and abort.  Works with the
  // profiler disabled.
  bool NoteDispatchRound(uint64_t stamp) {
    if (stall_rounds_ == 0) {
      return false;
    }
    if (stamp != last_round_stamp_) {
      last_round_stamp_ = stamp;
      stalled_rounds_ = 0;
      return false;
    }
    return ++stalled_rounds_ >= stall_rounds_;
  }

  uint64_t stall_rounds() const { return stall_rounds_; }
  uint64_t stalled_rounds() const { return stalled_rounds_; }

  // ---- readback ------------------------------------------------------

  // The two sides of the per-CPU ledger; equal whenever no window is open.
  Cycles attributed(uint16_t cpu) const {
    return cpu < lanes_.size() ? lanes_[cpu].attributed : 0;
  }
  Cycles accrued(uint16_t cpu) const {
    return cpu < lanes_.size() ? lanes_[cpu].accrued : 0;
  }

  // Self-cycles summed per domain across all CPUs.
  std::array<Cycles, kProfDomainCount> DomainTotals() const;

  // Collapsed-stack flamegraph text: one line per tree node with nonzero
  // self time, "cpu0;dispatch;lock-spin 1234\n" (flamegraph.pl format).
  std::string CollapsedStacks() const;

  // Human-readable per-CPU domain trees (the stall dump's first section).
  void DumpTree(FILE* out) const;

 private:
  static constexpr uint32_t kNoNode = 0xffffffffu;

  struct Node {
    ProfDomain domain = ProfDomain::kIdle;  // unused on the synthetic root
    uint32_t parent = kNoNode;
    uint32_t first_child = kNoNode;
    uint32_t next_sibling = kNoNode;
    Cycles self = 0;
  };

  struct Lane {
    std::vector<Node> nodes;  // nodes[0] is the synthetic root
    Cycles attributed = 0;
    Cycles accrued = 0;
    uint32_t idle = kNoNode;  // cached root-level idle node
  };

  // Attributes the global-clock delta since the last attribution event to
  // the innermost open domain.  Only called with a window open.
  void Attribute() {
    const Cycles now = clock_->now();
    if (now > mark_) {
      Lane& lane = lanes_[lane_cpu_];
      lane.nodes[stack_.back()].self += now - mark_;
      lane.attributed += now - mark_;
    }
    mark_ = now;
  }

  uint32_t FindOrAddChild(Lane& lane, uint32_t parent, ProfDomain domain) {
    for (uint32_t n = lane.nodes[parent].first_child; n != kNoNode;
         n = lane.nodes[n].next_sibling) {
      if (lane.nodes[n].domain == domain) {
        return n;
      }
    }
    const uint32_t idx = static_cast<uint32_t>(lane.nodes.size());
    lane.nodes.push_back(Node{domain, parent, kNoNode, kNoNode, 0});
    // Append at the tail so sibling order is first-seen — deterministic.
    uint32_t* link = &lane.nodes[parent].first_child;
    while (*link != kNoNode) {
      link = &lane.nodes[*link].next_sibling;
    }
    *link = idx;
    return idx;
  }

  void OpenWindow(uint16_t cpu, ProfDomain root) {
    if (cpu >= lanes_.size()) {
      cpu = 0;
    }
    // Windows never nest: each accrual window closes before the next opens
    // (the host interleaving is serialized).
    stack_.clear();
    lane_cpu_ = cpu;
    stack_.push_back(FindOrAddChild(lanes_[cpu], 0, root));
    mark_ = clock_->now();
  }

  void CloseWindow() {
    Attribute();
    stack_.clear();
  }

  void PushScope(ProfDomain domain) {
    Attribute();
    const uint32_t top = stack_.back();
    Lane& lane = lanes_[lane_cpu_];
    // Same-domain self-nesting collapses onto the current node, so
    // recursive sections (e.g. nested SharedSections) don't grow chains.
    stack_.push_back(lane.nodes[top].domain == domain && top != 0
                         ? top
                         : FindOrAddChild(lane, top, domain));
  }

  void PopScope() {
    Attribute();
    stack_.pop_back();
  }

  void ChargeIdle(uint16_t cpu, Cycles delta) {
    Lane& lane = lanes_[cpu];
    if (lane.idle == kNoNode) {
      lane.idle = FindOrAddChild(lane, 0, ProfDomain::kIdle);
    }
    lane.nodes[lane.idle].self += delta;
    lane.attributed += delta;
    lane.accrued += delta;
  }

  const Clock* clock_;
  bool enabled_ = false;
  std::vector<Lane> lanes_;

  // Current window (at most one open at a time; host is single-threaded).
  uint16_t lane_cpu_ = 0;
  Cycles mark_ = 0;
  std::vector<uint32_t> stack_;  // node indices into lanes_[lane_cpu_]

  // Watchdog.
  uint64_t stall_rounds_ = 0;
  uint64_t stalled_rounds_ = 0;
  uint64_t last_round_stamp_ = ~uint64_t{0};
};

// Charges one lock wait of `total` cycles as optimized code.  The gap to the
// holder's release goes to lock-spin and the grant's coherence traffic
// (`traffic`, clamped to `total`) to lock-handoff, gap first, so the two
// charges advance the clock by exactly `total`.  Every kernel lock site
// charges its waits and line transfers here; this is the one place that rule
// lives.  With a null `prof` it is one plain optimized charge.
inline void ChargeLockWait(Prof* prof, CostModel* cost, Cycles total, Cycles traffic) {
  traffic = std::min(traffic, total);
  if (total > traffic) {
    Prof::Scope wait(prof, ProfDomain::kLockSpin);
    cost->Charge(CodeStyle::kOptimized, total - traffic);
  }
  if (traffic > 0) {
    Prof::Scope grant(prof, ProfDomain::kLockHandoff);
    cost->Charge(CodeStyle::kOptimized, traffic);
  }
}

// One tenure of a modelled lock, from acquire to release.  It acquires at
// local time `lnow` and charges the wait through ChargeLockWait; it releases
// at `lnow` plus the global clock's progress since (the wait, any line
// transfer, the work under the lock) plus an optional uncharged hold.  Every
// lock site holds its lock through one, keeping its own counters: the
// spin-lock sites, and SharedSection for the shared naming locks.
class LockTenure {
 public:
  static constexpr uint16_t kNoOwner = UINT16_MAX;

  LockTenure(SimSpinLock* lock, Cycles lnow, Prof* prof, CostModel* cost)
      : lock_(lock), prof_(prof), cost_(cost), lnow_(lnow), start_(cost->now()),
        spin_(lock->Acquire(lnow)) {
    ChargeLockWait(prof, cost, spin_, lock->last_acquire_handoff());
  }
  // A section of a shared lock on `cpu`: a write section when `write` is
  // given, which receives the grant, else a read section.  A reader moves no
  // line, so its whole wait is the gap; a writer's revocation, publish and
  // grace traffic is its handoff.
  LockTenure(SimSharedLock* lock, uint16_t cpu, Cycles lnow, Prof* prof, CostModel* cost,
             SimSharedLock::WriteGrant* write = nullptr)
      : shared_(lock), cpu_(cpu), write_(write != nullptr), prof_(prof), cost_(cost),
        lnow_(lnow), start_(cost->now()) {
    if (write != nullptr) {
      *write = lock->AcquireWrite(lnow, cpu);
      spin_ = write->total;
      ChargeLockWait(prof, cost, spin_,
                     write->revocation_cycles + write->publish_cycles + write->grace_cycles);
    } else {
      spin_ = lock->AcquireRead(lnow, cpu);
      ChargeLockWait(prof, cost, spin_, 0);
    }
  }
  LockTenure(LockTenure&& other) noexcept
      : lock_(std::exchange(other.lock_, nullptr)),
        shared_(std::exchange(other.shared_, nullptr)), cpu_(other.cpu_),
        write_(other.write_), prof_(other.prof_), cost_(other.cost_), lnow_(other.lnow_),
        start_(other.start_), spin_(other.spin_) {}
  ~LockTenure() { Release(); }

  Cycles spin() const { return spin_; }  // the charged wait: gap plus handoff
  Cycles held() const { return cost_->now() - start_; }  // charged since the acquire

  // A site's cache line, last touched by `*owner` (kNoOwner: never): a touch
  // from another known CPU moves it, one `transfer` of handoff traffic.
  // Returns whether it moved; `cpu` owns the line after.
  bool TouchLine(uint16_t* owner, uint16_t cpu, Cycles transfer) {
    const bool moved = transfer > 0 && *owner != cpu && *owner != kNoOwner;
    if (moved) {
      ChargeLockWait(prof_, cost_, transfer, transfer);
    }
    *owner = cpu;
    return moved;
  }

  void Release(Cycles hold = 0) {
    const Cycles end = lnow_ + held() + hold;
    if (lock_ != nullptr) {
      lock_->Release(end);
    } else if (shared_ != nullptr && write_) {
      shared_->ReleaseWrite(end);
    } else if (shared_ != nullptr) {
      shared_->ReleaseRead(end, cpu_);
    }
    lock_ = nullptr;
    shared_ = nullptr;
  }

 private:
  // The lock held, one of the two; both null once released.
  SimSpinLock* lock_ = nullptr;
  SimSharedLock* shared_ = nullptr;
  uint16_t cpu_ = 0;    // a shared section's CPU
  bool write_ = false;  // a shared section's kind
  Prof* prof_;
  CostModel* cost_;
  Cycles lnow_;
  Cycles start_;
  Cycles spin_ = 0;
};

}  // namespace mks

#endif  // MKS_SIM_PROF_H_
