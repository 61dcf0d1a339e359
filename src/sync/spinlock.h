// A spin lock in simulated time, with pluggable waiter-handoff policies.
//
// The baseline supervisor has no descriptor lock bit, so colliding
// processors busy-wait at one global lock.  Under deterministic interleaving
// the CPUs never race on the host; contention is computed from their local
// virtual clocks instead: the lock remembers the virtual time its last holder
// released it (`free_at_`), and an acquirer whose local clock is still behind
// that point burns the difference as spin.  The caller charges those cycles
// to the cost model, so spinning is real simulated work — this is the
// mechanism by which the global lock serializes the pool and the baseline's
// speedup collapses as CPUs are added.
//
// With one CPU, local time is globally monotone, so an acquire can never
// observe `free_at_` in its future and the spin is structurally zero — the
// uniprocessor cost sequence is untouched.
//
// On top of that waiting-time model sits a *handoff traffic* model, selected
// by LockPolicy (the Mellor-Crummey & Scott progression).  Who runs next is
// unchanged — the serialized simulation already grants the lock in a total
// (FIFO) order — what differs between policies is the interconnect traffic a
// contended handoff generates, charged as extra cycles on top of the gap:
//
//   kTestAndSet — the traffic-blind model every prior PR measured against:
//     the gap is charged, line bouncing is not.  Default; byte-identical to
//     the pre-policy lock.
//   kTicket — all waiters spin on one `now_serving` word, so every release
//     invalidates the line in EVERY waiter's cache.  A waiter that sat
//     through k handoffs re-fetched the line k times: its acquire pays
//     k line transfers.  Summed over waiters this is the classic
//     O(waiters)-per-handoff broadcast.
//   kAnderson — an array lock: each waiter spins on its own slot, and the
//     releasing holder writes exactly one successor slot, so a contended
//     acquire pays exactly one line transfer regardless of queue depth.
//     The array is statically sized; more distinct CPUs than slots is a
//     hard error (the real lock would silently wrap and corrupt), so the
//     lock aborts loudly instead.
//   kMcs — a queue lock: each waiter spins on its own queue node and the
//     holder writes its successor's node.  Same O(1) handoff charge as
//     Anderson, but the queue is built from per-CPU nodes, so there is no
//     array bound.
//
// Grant (handoff) order is the arrival order of quanta in every policy —
// already a total order here — so switching policy never changes who runs
// next, only what the handoff costs.  That keeps the sweep apples-to-apples:
// one knob, identical schedules, different interconnect bills.
#ifndef MKS_SYNC_SPINLOCK_H_
#define MKS_SYNC_SPINLOCK_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>

#include "src/sim/clock.h"

namespace mks {

enum class LockPolicy : uint8_t { kTestAndSet, kTicket, kAnderson, kMcs };

inline const char* LockPolicyName(LockPolicy policy) {
  switch (policy) {
    case LockPolicy::kTestAndSet:
      return "tas";
    case LockPolicy::kTicket:
      return "ticket";
    case LockPolicy::kAnderson:
      return "anderson";
    case LockPolicy::kMcs:
      return "mcs";
  }
  return "?";
}

struct LockPolicyConfig {
  LockPolicy policy = LockPolicy::kTestAndSet;
  // Cycles for one cache-line transfer across the interconnect (the same
  // quantity KernelConfig::connect_cost prices elsewhere).  0 makes every
  // policy cost-free — useful for schedule-equivalence checks.
  Cycles line_transfer_cost = 0;
  // kAnderson only: slots in the spin array.  Must be >= the number of
  // distinct CPUs that will ever touch the lock; the kernel, the baseline
  // and the answering service size it to their CPU pool.
  uint16_t anderson_slots = 0;
};

class SimSpinLock {
 public:
  // Selects the handoff-traffic policy.  Call before first use.  kAnderson
  // requires anderson_slots > 0.
  void Configure(const LockPolicyConfig& config) {
    policy_ = config.policy;
    line_transfer_cost_ = config.line_transfer_cost;
    anderson_slots_ = config.anderson_slots;
    if (policy_ == LockPolicy::kAnderson && anderson_slots_ == 0) {
      std::fprintf(stderr, "SimSpinLock: Anderson policy needs anderson_slots > 0\n");
      std::abort();
    }
  }

  // Acquires at local virtual time `local_now` from CPU `cpu`; returns the
  // spin cycles the acquiring CPU burns before the lock comes free plus the
  // policy's handoff-traffic charge (0 when uncontended: the line is already
  // resident and no handoff happened).
  Cycles Acquire(Cycles local_now, uint16_t cpu = 0) {
    ++acquisitions_;
    last_acquire_handoff_ = 0;
    if (policy_ == LockPolicy::kAnderson) {
      NoteAndersonCpu(cpu);
    }
    Cycles spin = 0;
    if (free_at_ > local_now) {
      spin = free_at_ - local_now;
      ++contended_;
      if (policy_ != LockPolicy::kTestAndSet) {
        // Handoffs this waiter sat through: recorded releases inside its
        // wait window (local_now, free_at_] — at least one, the grant to us.
        const uint64_t observed = GrantsSince(local_now);
        if (observed + 1 > max_queue_depth_) {
          max_queue_depth_ = observed + 1;
        }
        Cycles transfer = 0;
        if (policy_ == LockPolicy::kTicket) {
          // Every observed release invalidated our copy of now_serving; we
          // re-fetched the line each time.
          transfer = static_cast<Cycles>(observed) * line_transfer_cost_;
          handoffs_ += observed;
        } else {
          // Anderson/MCS: the releasing holder wrote our private slot/node —
          // exactly one line moved, however deep the queue was.
          transfer = line_transfer_cost_;
          ++handoffs_;
        }
        spin += transfer;
        handoff_cycles_ += transfer;
        last_acquire_handoff_ = transfer;
      }
      total_spin_ += spin;
      if (spin > max_spin_) {
        max_spin_ = spin;
      }
    }
    held_ = true;
    return spin;
  }

  // Releases at local virtual time `local_now` (as seen by the holder, after
  // all work done under the lock).
  void Release(Cycles local_now) {
    held_ = false;
    if (local_now > free_at_) {
      free_at_ = local_now;
    }
    if (policy_ != LockPolicy::kTestAndSet) {
      // The grant log the policies read: release points, monotone because
      // free_at_ never moves backward.  Bounded; a waiter whose window
      // reaches past the oldest kept entry undercounts (saturates), which
      // only ever under-charges the ticket broadcast.
      grants_.push_back(free_at_);
      if (grants_.size() > kGrantHistory) {
        grants_.pop_front();
      }
    }
  }

  bool held() const { return held_; }
  LockPolicy policy() const { return policy_; }
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended() const { return contended_; }
  Cycles total_spin() const { return total_spin_; }
  Cycles max_spin() const { return max_spin_; }
  uint64_t handoffs() const { return handoffs_; }
  Cycles handoff_cycles() const { return handoff_cycles_; }
  // Handoff-traffic portion of the most recent Acquire's return value, so
  // callers can attribute waiting (the gap) and coherence traffic (the
  // handoff) to different profiler domains without changing the total.
  Cycles last_acquire_handoff() const { return last_acquire_handoff_; }
  // Deepest observed wait queue (holder + waiters serviced inside one wait
  // window).  Can exceed the CPU count: a far-behind waiter's window spans
  // re-acquisitions by CPUs that cycled through more than once.
  uint64_t max_queue_depth() const { return max_queue_depth_; }

 private:
  static constexpr size_t kGrantHistory = 4096;

  uint64_t GrantsSince(Cycles since) const {
    return static_cast<uint64_t>(
        grants_.end() - std::upper_bound(grants_.begin(), grants_.end(), since));
  }

  // Anderson's static array admits one slot per CPU; a new CPU beyond the
  // array is the over-subscription bug class the real lock hits by silently
  // wrapping its index.  Fail loudly instead.
  void NoteAndersonCpu(uint16_t cpu) {
    const uint64_t bit = 1ull << (cpu & 63);
    if ((anderson_cpus_ & bit) == 0) {
      anderson_cpus_ |= bit;
      if (++anderson_cpu_count_ > anderson_slots_) {
        std::fprintf(stderr,
                     "SimSpinLock: Anderson array over-subscribed: CPU %u is the "
                     "%u-th distinct CPU on a %u-slot array\n",
                     static_cast<unsigned>(cpu),
                     static_cast<unsigned>(anderson_cpu_count_),
                     static_cast<unsigned>(anderson_slots_));
        std::abort();
      }
    }
  }

  Cycles free_at_ = 0;
  bool held_ = false;
  LockPolicy policy_ = LockPolicy::kTestAndSet;
  Cycles line_transfer_cost_ = 0;
  uint16_t anderson_slots_ = 0;
  uint16_t anderson_cpu_count_ = 0;
  uint64_t anderson_cpus_ = 0;
  uint64_t acquisitions_ = 0;
  uint64_t contended_ = 0;
  Cycles total_spin_ = 0;
  Cycles max_spin_ = 0;
  uint64_t handoffs_ = 0;
  Cycles handoff_cycles_ = 0;
  Cycles last_acquire_handoff_ = 0;
  uint64_t max_queue_depth_ = 0;
  std::deque<Cycles> grants_;
};

}  // namespace mks

#endif  // MKS_SYNC_SPINLOCK_H_
