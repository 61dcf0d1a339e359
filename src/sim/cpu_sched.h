// Deterministic quantum interleaving across a simulated CPU pool.
//
// Host execution is single-threaded: exactly one CPU runs at a time, and all
// charged work lands on the one global Clock (which therefore remains the
// *serialized* total, unchanged from the uniprocessor model).  Concurrency is
// an accounting overlay: each CPU carries a local virtual clock, the
// scheduler gives the next quantum to the CPU whose local clock is furthest
// behind (lowest index on ties), and the global-clock delta of that quantum
// is accrued to the chosen CPU.  The result is a fixed-quantum round
// interleaving that is a function of the workload alone — no host threads, no
// races, bit-identical across runs — while simulated time is genuinely
// concurrent: the furthest-ahead local clock (`Makespan`) is the parallel
// completion time, and two CPUs whose quanta overlap in virtual time really
// do contend for locks and descriptors.
//
// Per-CPU counters are interned at construction (smp.cpuK.busy_cycles,
// smp.cpuK.quanta); Accrue on the stepped path is handle-based only.
//
// Selection is O(1): a tournament (winner) tree over the local clocks keeps
// the least-behind CPU at the root, repaired along one leaf-to-root path on
// each Accrue.  The tree compares a left child before its right sibling, so
// equal clocks resolve to the lowest index — exactly the tie-break of the
// original linear scan.  AdvanceAll shifts a shared base offset instead of
// every local clock (a uniform delta cannot reorder the pool), and Makespan
// is a cached running maximum (local clocks never move backward).
#ifndef MKS_SIM_CPU_SCHED_H_
#define MKS_SIM_CPU_SCHED_H_

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/metrics.h"
#include "src/sim/prof.h"
#include "src/sim/trace.h"
#include "src/sync/spinlock.h"

namespace mks {

class CpuInterleave {
 public:
  CpuInterleave(uint16_t cpu_count, Metrics* metrics) : metrics_(metrics) {
    if (cpu_count == 0) {
      cpu_count = 1;
    }
    cpus_.reserve(cpu_count);
    for (uint16_t k = 0; k < cpu_count; ++k) {
      const std::string prefix = "smp.cpu" + std::to_string(k);
      cpus_.push_back(PerCpu{0, metrics->Intern(prefix + ".busy_cycles"),
                             metrics->Intern(prefix + ".quanta")});
    }
    leaf_base_ = std::bit_ceil(static_cast<size_t>(cpu_count));
    tree_.assign(2 * leaf_base_, kNoLeaf);
    RebuildTree();
  }

  uint16_t count() const { return static_cast<uint16_t>(cpus_.size()); }

  // Attaches the cycle-accounting profiler.  Local clocks move only through
  // Accrue/AdvanceAll/AlignAll, so hooking these three keeps the profiler's
  // accrued side exactly equal to each CPU's local clock advance.
  void set_prof(Prof* prof) { prof_ = prof; }

  // The CPU whose local clock is furthest behind runs the next quantum
  // (ties: lowest index).  O(1): the tournament root.
  uint16_t NextCpu() const { return tree_[1]; }

  // Charges one quantum's worth of busy cycles to `cpu`'s local clock.
  void Accrue(uint16_t cpu, Cycles delta) {
    PerCpu& c = cpus_[cpu];
    c.local += delta;
    if (c.local > max_local_) {
      max_local_ = c.local;
    }
    RepairFromLeaf(cpu);
    metrics_->Inc(c.id_busy_cycles, delta);
    metrics_->Inc(c.id_quanta);
    if (prof_ != nullptr) {
      prof_->NoteAccrue(cpu, delta);
    }
  }

  // Idles the whole pool forward together (every process blocked on a device
  // completion: wall time passes on all CPUs, busy time on none).  A uniform
  // shift preserves the pool order, so only the shared base moves.
  void AdvanceAll(Cycles delta) {
    base_ += delta;
    if (prof_ != nullptr) {
      prof_->NoteAdvanceAll(delta);
    }
  }

  // Aligns every local clock to the furthest-ahead one: a synchronization
  // barrier (e.g. the start of a measured region — earlier CPUs idle until
  // the last one arrives).  Busy-cycle metrics are not affected.
  void AlignAll() {
    for (uint16_t k = 0; k < count(); ++k) {
      PerCpu& c = cpus_[k];
      if (prof_ != nullptr && max_local_ > c.local) {
        prof_->NoteAlign(k, max_local_ - c.local);
      }
      c.local = max_local_;
    }
    RebuildTree();
  }

  Cycles local_now(uint16_t cpu) const { return cpus_[cpu].local + base_; }

  // Simulated-parallel completion time: the furthest-ahead local clock.
  Cycles Makespan() const { return max_local_ + base_; }

 private:
  static constexpr uint16_t kNoLeaf = UINT16_MAX;

  struct PerCpu {
    Cycles local = 0;  // excludes base_; comparisons never need the offset
    MetricId id_busy_cycles = 0;
    MetricId id_quanta = 0;
  };

  // Winner of two leaves: the smaller local clock, the left (lower) index on
  // ties.  `a` is always the left child, so `<=` encodes the tie-break.
  uint16_t Winner(uint16_t a, uint16_t b) const {
    if (b == kNoLeaf) {
      return a;
    }
    if (a == kNoLeaf) {
      return b;
    }
    return cpus_[a].local <= cpus_[b].local ? a : b;
  }

  void RepairFromLeaf(uint16_t cpu) {
    for (size_t i = (leaf_base_ + cpu) >> 1; i >= 1; i >>= 1) {
      tree_[i] = Winner(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  void RebuildTree() {
    for (size_t k = 0; k < leaf_base_; ++k) {
      tree_[leaf_base_ + k] = k < cpus_.size() ? static_cast<uint16_t>(k) : kNoLeaf;
    }
    for (size_t i = leaf_base_ - 1; i >= 1; --i) {
      tree_[i] = Winner(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  std::vector<PerCpu> cpus_;
  Metrics* metrics_;
  Prof* prof_ = nullptr;
  Cycles base_ = 0;       // shared idle offset added to every local clock
  Cycles max_local_ = 0;  // running maximum of the stored locals
  size_t leaf_base_ = 1;  // leaves live at tree_[leaf_base_ + k]
  std::vector<uint16_t> tree_;
};

// Sharded per-CPU run queues with deterministic work stealing.
//
// Each CPU owns one FIFO of dispatchable item ids, guarded by its own
// SimSpinLock, plus a "cache line" owner: the CPU that last touched the
// queue's shared state.  Every queue operation from a CPU other than the
// line owner pays `connect_cost` cycles — the connect-signal / cache-line
// transfer of a real interconnect — so cross-CPU scheduling traffic is
// charged work, while a CPU working its own queue runs transfer-free.  With
// `connect_cost` 0 the queues carry no charges at all (lock spin excepted,
// and that is structurally zero when queue touches never overlap in virtual
// time), so the sharded layout can be ablated against the charged model.
//
// Any queued item may run on any CPU.  Enqueue places an item on the
// shortest queue, and the hint CPU wins a tie (locality: a quantum-expired
// process re-queues where it just ran); with no hint, the lowest index wins.
//
// Stealing is deterministic: when a CPU's own queue is empty it scans
// victims in fixed ascending order (cpu+1, cpu+2, ... mod count) and takes
// the front item of the first non-empty queue.  A steal pays the victim
// queue's lock plus one connect transfer, and is recorded as a `runq.steal`
// trace span (proc = stolen id, arg = victim CPU).
class RunQueueSet {
 public:
  static constexpr uint16_t kNoCpu = UINT16_MAX;

  RunQueueSet(uint16_t cpu_count, bool steal, Cycles connect_cost, CostModel* cost,
              Metrics* metrics, Tracer* trace,
              const LockPolicyConfig& lock_policy = LockPolicyConfig{},
              Prof* prof = nullptr)
      : steal_(steal),
        prof_(prof),
        connect_cost_(connect_cost),
        cost_(cost),
        metrics_(metrics),
        trace_(trace),
        ev_steal_(trace->InternEvent("runq.steal")),
        ev_lock_spin_(trace->InternEvent("runq.lock_spin")),
        id_steals_(metrics->Intern("runq.steals")),
        id_transfers_(metrics->Intern("runq.transfers")),
        id_lock_spin_cycles_(metrics->Intern("runq.lock_spin_cycles")) {
    if (cpu_count == 0) {
      cpu_count = 1;
    }
    shards_.reserve(cpu_count);
    for (uint16_t k = 0; k < cpu_count; ++k) {
      Shard s;
      s.hist_depth = metrics->InternHistogram("runq.cpu" + std::to_string(k) + ".depth");
      s.lock.Configure(lock_policy);
      shards_.push_back(std::move(s));
    }
  }

  struct Popped {
    bool ok = false;
    bool stolen = false;
    uint32_t id = 0;
    uint16_t victim = kNoCpu;
  };

  uint16_t count() const { return static_cast<uint16_t>(shards_.size()); }
  size_t depth(uint16_t cpu) const { return shards_[cpu].items.size(); }
  uint16_t line_owner(uint16_t cpu) const { return shards_[cpu].line_owner; }
  const SimSpinLock& shard_lock(uint16_t cpu) const { return shards_[cpu].lock; }

  bool AnyQueued() const {
    for (const Shard& s : shards_) {
      if (!s.items.empty()) {
        return true;
      }
    }
    return false;
  }

  // Places `id` on the shortest queue (ties: `hint_cpu` if tied, else lowest
  // index).  `from_cpu` is the enqueuing CPU — a push onto a queue last
  // touched by another CPU pays one connect transfer.
  void Enqueue(uint32_t id, uint16_t from_cpu, uint16_t hint_cpu, Cycles lnow) {
    uint16_t home = 0;
    for (uint16_t k = 1; k < count(); ++k) {
      if (shards_[k].items.size() < shards_[home].items.size()) {
        home = k;
      }
    }
    if (hint_cpu < count() && shards_[hint_cpu].items.size() == shards_[home].items.size()) {
      home = hint_cpu;
    }
    Shard& s = shards_[home];
    LockTenure tenure = Lock(s, from_cpu, lnow);
    s.items.push_back(id);
    metrics_->Observe(s.hist_depth, s.items.size());
  }

  // Takes the front of `cpu`'s own queue; when empty and stealing is on,
  // takes the front of the first non-empty victim in fixed ascending order.
  Popped Dequeue(uint16_t cpu, Cycles lnow) {
    Popped out;
    Shard& own = shards_[cpu];
    if (!own.items.empty()) {
      LockTenure tenure = Lock(own, cpu, lnow);
      out.ok = true;
      out.id = own.items.front();
      out.victim = cpu;
      own.items.pop_front();
      return out;
    }
    if (!steal_) {
      return out;
    }
    Prof::Scope steal_scope(prof_, ProfDomain::kSteal);
    for (uint16_t d = 1; d < count(); ++d) {
      const uint16_t v = static_cast<uint16_t>((cpu + d) % count());
      Shard& victim = shards_[v];
      if (victim.items.empty()) {
        continue;
      }
      const Cycles steal_begin = trace_->Begin();
      LockTenure tenure = Lock(victim, cpu, lnow);
      out.ok = true;
      out.stolen = true;
      out.id = victim.items.front();
      out.victim = v;
      victim.items.pop_front();
      // The stolen item's state migrates to the thief: one more transfer on
      // top of the queue-line bounce the lock already charged.
      if (connect_cost_ > 0) {
        cost_->Charge(CodeStyle::kOptimized, connect_cost_);
      }
      metrics_->Inc(id_steals_);
      tenure.Release();
      trace_->CloseSpan(steal_begin, ev_steal_, out.id, v);
      return out;
    }
    return out;
  }

  // Returns an item to the front of `cpu`'s own queue (dispatch could not
  // complete — vp pool exhausted).  Pure bookkeeping: the undo path charges
  // nothing, mirroring how the legacy scheduler's exhaustion break is free.
  void PushFront(uint32_t id, uint16_t cpu) { shards_[cpu].items.push_front(id); }

  // Drops a queued item (process destruction).  Teardown path: uncharged.
  bool Remove(uint32_t id) {
    for (Shard& s : shards_) {
      for (auto it = s.items.begin(); it != s.items.end(); ++it) {
        if (*it == id) {
          s.items.erase(it);
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct Shard {
    std::deque<uint32_t> items;
    SimSpinLock lock;
    uint16_t line_owner = LockTenure::kNoOwner;
    HistId hist_depth = 0;
  };

  // Opens a tenure on a shard's lock from `from_cpu` at local time `lnow`,
  // with the queue's line touched from `from_cpu`, and counts its spin and
  // line transfer.  The shard is released when the tenure ends.
  LockTenure Lock(Shard& s, uint16_t from_cpu, Cycles lnow) {
    const Cycles spin_begin = trace_->Begin();
    LockTenure tenure(&s.lock, lnow, prof_, cost_);
    if (tenure.spin() > 0) {
      metrics_->Inc(id_lock_spin_cycles_, tenure.spin());
      trace_->CloseSpan(spin_begin, ev_lock_spin_, from_cpu);
    }
    if (tenure.TouchLine(&s.line_owner, from_cpu, connect_cost_)) {
      metrics_->Inc(id_transfers_);
    }
    return tenure;
  }

  bool steal_;
  Prof* prof_;
  Cycles connect_cost_;
  CostModel* cost_;
  Metrics* metrics_;
  Tracer* trace_;
  TraceEventId ev_steal_;
  TraceEventId ev_lock_spin_;
  MetricId id_steals_;
  MetricId id_transfers_;
  MetricId id_lock_spin_cycles_;
  std::vector<Shard> shards_;
};

}  // namespace mks

#endif  // MKS_SIM_CPU_SCHED_H_
