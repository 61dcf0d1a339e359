// A spin lock in simulated time, with two waiter-handoff policies.
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
// by LockPolicy.  Who runs next is unchanged — the serialized simulation
// already grants the lock in a total (FIFO) order — what differs is the
// interconnect traffic a contended handoff generates, charged as extra
// cycles on top of the gap:
//
//   kTestAndSet — the traffic-blind model: the gap is charged, line bouncing
//     is not.  Default; the baseline's global lock and every paper bench run
//     it.
//   kMcs — a queue lock [Mellor-Crummey & Scott]: each waiter spins on its
//     own queue node and the releasing holder writes its successor's node,
//     so a contended acquire pays exactly one line transfer however deep the
//     queue.
//
// Grant order is the arrival order of quanta under both policies, so
// switching policy never changes who runs next, only what the handoff costs.
#ifndef MKS_SYNC_SPINLOCK_H_
#define MKS_SYNC_SPINLOCK_H_

#include <algorithm>
#include <cstdint>

#include "src/sim/clock.h"

namespace mks {

enum class LockPolicy : uint8_t { kTestAndSet, kMcs };

struct LockPolicyConfig {
  LockPolicy policy = LockPolicy::kTestAndSet;
  // Cycles for one cache-line transfer across the interconnect (the same
  // quantity KernelConfig::connect_cost prices elsewhere).  0 makes MCS
  // handoffs free — useful for schedule-equivalence checks.
  Cycles line_transfer_cost = 0;
};

class SimSpinLock {
 public:
  // Selects the handoff-traffic policy.  Call before first use.
  void Configure(const LockPolicyConfig& config) {
    policy_ = config.policy;
    line_transfer_cost_ = config.line_transfer_cost;
  }

  // Acquires at local virtual time `local_now`; returns the spin cycles the
  // acquiring CPU burns before the lock comes free plus the policy's
  // handoff-traffic charge (0 when uncontended: the line is already resident
  // and no handoff happened).
  Cycles Acquire(Cycles local_now) {
    ++acquisitions_;
    last_acquire_handoff_ = 0;
    Cycles spin = 0;
    if (free_at_ > local_now) {
      spin = free_at_ - local_now;
      ++contended_;
      if (policy_ == LockPolicy::kMcs) {
        // The releasing holder wrote our queue node: exactly one line moved.
        spin += line_transfer_cost_;
        ++handoffs_;
        handoff_cycles_ += line_transfer_cost_;
        last_acquire_handoff_ = line_transfer_cost_;
      }
      total_spin_ += spin;
      max_spin_ = std::max(max_spin_, spin);
    }
    held_ = true;
    return spin;
  }

  // Releases at local virtual time `local_now` (as seen by the holder, after
  // all work done under the lock).
  void Release(Cycles local_now) {
    held_ = false;
    free_at_ = std::max(free_at_, local_now);
  }

  bool held() const { return held_; }
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended() const { return contended_; }
  Cycles total_spin() const { return total_spin_; }
  Cycles max_spin() const { return max_spin_; }
  uint64_t handoffs() const { return handoffs_; }
  Cycles handoff_cycles() const { return handoff_cycles_; }
  // Handoff-traffic portion of the most recent Acquire's return value, the
  // `traffic` argument of ChargeLockWait (src/sim/prof.h).
  Cycles last_acquire_handoff() const { return last_acquire_handoff_; }

 private:
  Cycles free_at_ = 0;
  bool held_ = false;
  LockPolicy policy_ = LockPolicy::kTestAndSet;
  Cycles line_transfer_cost_ = 0;
  uint64_t acquisitions_ = 0;
  uint64_t contended_ = 0;
  Cycles total_spin_ = 0;
  Cycles max_spin_ = 0;
  uint64_t handoffs_ = 0;
  Cycles handoff_cycles_ = 0;
  Cycles last_acquire_handoff_ = 0;
};

}  // namespace mks

#endif  // MKS_SYNC_SPINLOCK_H_
