// A reader-writer lock in simulated time, with pluggable read-side policies.
//
// The naming surface (directory hierarchy, known segment tables) is
// read-mostly: the paper's traffic analysis has lookups dominating
// supervisor entries by orders of magnitude over mutations.  SimSharedLock
// models what that asymmetry is worth.  Like SimSpinLock, it never blocks a
// host thread — the simulation is serialized, so "contention" is computed
// from the acquirers' local virtual clocks and returned as spin cycles for
// the caller to charge to the cost model.
//
// ReadPolicy selects the read-side protocol:
//
//   kOff — the lock is un-modeled: every Acquire returns 0 and no counter
//     moves.  Default; byte-identical to the pre-lock naming paths, the same
//     default-off discipline every knob in this repo follows.
//   kPassiveRw — a passive reader-writer lock in the prwlock style
//     [Liu et al., USENIX ATC 2014]: each CPU holds a private read token, so
//     a contended read acquisition costs NO line transfers (it waits only
//     for an in-flight writer's critical section to end).  A writer must
//     revoke every outstanding token: it drains the token holders' read
//     sections and pays line_transfer_cost per *remote* reader CPU revoked
//     — the consensus messages of the real lock, priced on our interconnect.
//   kEpoch — epoch-based (RCU-style) lookups [Clements et al., ASPLOS 2012]:
//     a reader pins the current epoch for free — zero spin, zero traffic,
//     even while a writer is in flight (it reads the prior version).  A
//     writer serializes with other writers, publishes the new version as one
//     broadcast (line_transfer_cost to every other CPU — the same pricing as
//     a ProcessorPool connect broadcast), then waits out the grace period:
//     every read section that began before the publish must end (drain to
//     max read_until), plus epoch_grace_cost for the quiescence machinery.
//
// Grant order never changes across policies — the serialized simulation
// already orders every section — so a policy sweep runs the identical
// schedule and differs only in what waiting and traffic cost, the same
// apples-to-apples contract SimSpinLock's handoff policies keep.
//
// Reentrancy: one manager's public entry points nest (DeleteEntry calls
// RemoveQuota; HandleQuotaException calls RelocateUid), so the lock carries
// a section-depth counter and the RAII wrapper (src/kernel/shared_section.h)
// makes nested sections inert instead of self-deadlocking on the model.
#ifndef MKS_SYNC_SHARED_LOCK_H_
#define MKS_SYNC_SHARED_LOCK_H_

#include <cstdint>
#include <vector>

#include "src/sim/clock.h"

namespace mks {

enum class ReadPolicy : uint8_t { kOff, kPassiveRw, kEpoch };

inline const char* ReadPolicyName(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kOff:
      return "off";
    case ReadPolicy::kPassiveRw:
      return "passive_rw";
    case ReadPolicy::kEpoch:
      return "epoch";
  }
  return "?";
}

struct SharedLockConfig {
  ReadPolicy policy = ReadPolicy::kOff;
  // Cycles for one cache-line transfer across the interconnect (the same
  // quantity KernelConfig::connect_cost prices elsewhere).  0 makes token
  // revocation and epoch publication free.
  Cycles line_transfer_cost = 0;
  // kEpoch only: cycles a writer spends on quiescence detection after the
  // publish, on top of draining the read sections already in flight.
  Cycles epoch_grace_cost = 0;
  // CPUs that may touch the lock; sizes the per-CPU read state and the
  // epoch publish broadcast (cpu_count - 1 remote lines).
  uint16_t cpu_count = 1;
};

class SimSharedLock {
 public:
  // What one write acquisition cost, itemized so the caller can attribute
  // revocation traffic and grace waits to metrics and trace events.
  struct WriteGrant {
    Cycles total = 0;          // spin + traffic + grace: charge this
    uint16_t revoked_cpus = 0;  // kPassiveRw: remote read tokens revoked
    Cycles revocation_cycles = 0;
    Cycles publish_cycles = 0;  // kEpoch: the new-version broadcast
    Cycles grace_cycles = 0;    // kEpoch: drain + epoch_grace_cost
  };

  // Call before first use.  kOff keeps the lock fully inert.
  void Configure(const SharedLockConfig& config) {
    policy_ = config.policy;
    line_transfer_cost_ = config.line_transfer_cost;
    epoch_grace_cost_ = config.epoch_grace_cost;
    cpu_count_ = config.cpu_count == 0 ? 1 : config.cpu_count;
    read_until_.assign(cpu_count_, 0);
  }

  bool modeled() const { return policy_ != ReadPolicy::kOff; }

  // Begins a read section at local virtual time `local_now` on `cpu`;
  // returns the spin cycles the reader burns before its section may start.
  Cycles AcquireRead(Cycles local_now, uint16_t cpu) {
    if (policy_ == ReadPolicy::kOff) {
      return 0;
    }
    ++read_grants_;
    Cycles spin = 0;
    switch (policy_) {
      case ReadPolicy::kOff:
        break;
      case ReadPolicy::kPassiveRw:
        // The token is CPU-private: no line moves.  Only an in-flight
        // writer's critical section holds the reader up.
        if (write_free_at_ > local_now) {
          spin = write_free_at_ - local_now;
        }
        tokens_ |= Bit(cpu);
        break;
      case ReadPolicy::kEpoch:
        // Pinning the epoch is free even against an in-flight writer: the
        // reader dereferences the prior version.
        break;
    }
    if (spin > 0) {
      ++contended_reads_;
      read_spin_cycles_ += spin;
    }
    return spin;
  }

  // Ends a read section at local virtual time `local_end` on `cpu` (as seen
  // by the reader after all work done inside the section).
  void ReleaseRead(Cycles local_end, uint16_t cpu) {
    switch (policy_) {
      case ReadPolicy::kOff:
        return;
      case ReadPolicy::kPassiveRw:
      case ReadPolicy::kEpoch:
        // What writers must drain: the latest read section this CPU ended.
        if (local_end > read_until_[cpu]) {
          read_until_[cpu] = local_end;
        }
        return;
    }
  }

  // Begins a write section at local virtual time `local_now` on `cpu`.
  WriteGrant AcquireWrite(Cycles local_now, uint16_t cpu) {
    WriteGrant grant;
    if (policy_ == ReadPolicy::kOff) {
      return grant;
    }
    ++write_grants_;
    Cycles start = local_now;
    switch (policy_) {
      case ReadPolicy::kOff:
        break;
      case ReadPolicy::kPassiveRw: {
        // Serialize behind the previous writer, drain every token holder's
        // read sections, then pay one line transfer per remote token
        // revoked.  The writer's own token dies locally for free.
        if (write_free_at_ > start) {
          start = write_free_at_;
        }
        for (uint16_t c = 0; c < cpu_count_; ++c) {
          if ((tokens_ & Bit(c)) == 0) {
            continue;
          }
          if (read_until_[c] > start) {
            start = read_until_[c];
          }
          if (c != cpu) {
            ++grant.revoked_cpus;
          }
        }
        tokens_ = 0;
        grant.revocation_cycles =
            static_cast<Cycles>(grant.revoked_cpus) * line_transfer_cost_;
        revoked_cpus_ += grant.revoked_cpus;
        revocation_cycles_ += grant.revocation_cycles;
        break;
      }
      case ReadPolicy::kEpoch: {
        // Serialize behind the previous writer, broadcast the new version
        // (one line to every other CPU), then wait out the grace period:
        // readers that pinned the old epoch must finish.
        if (write_free_at_ > start) {
          start = write_free_at_;
        }
        grant.publish_cycles =
            static_cast<Cycles>(cpu_count_ - 1) * line_transfer_cost_;
        publish_cycles_ += grant.publish_cycles;
        Cycles drained = start;
        for (uint16_t c = 0; c < cpu_count_; ++c) {
          if (read_until_[c] > drained) {
            drained = read_until_[c];
          }
        }
        grant.grace_cycles = (drained - start) + epoch_grace_cost_;
        if (grant.grace_cycles > 0) {
          ++grace_waits_;
          grace_cycles_ += grant.grace_cycles;
        }
        break;
      }
    }
    grant.total = (start - local_now) + grant.revocation_cycles +
                  grant.publish_cycles + grant.grace_cycles;
    write_spin_cycles_ += grant.total;
    return grant;
  }

  // Ends a write section at local virtual time `local_end` (as seen by the
  // writer after all work done inside the section).
  void ReleaseWrite(Cycles local_end) {
    switch (policy_) {
      case ReadPolicy::kOff:
        return;
      case ReadPolicy::kPassiveRw:
      case ReadPolicy::kEpoch:
        if (local_end > write_free_at_) {
          write_free_at_ = local_end;
        }
        return;
    }
  }

  // Section-depth bookkeeping for the reentrant public entry points; see the
  // header comment.  EnterSection returns the depth before entry, so 0 means
  // "outermost — really acquire".
  uint32_t EnterSection() { return section_depth_++; }
  void ExitSection() { --section_depth_; }

  uint64_t read_grants() const { return read_grants_; }
  uint64_t contended_reads() const { return contended_reads_; }
  Cycles read_spin_cycles() const { return read_spin_cycles_; }
  uint64_t write_grants() const { return write_grants_; }
  Cycles write_spin_cycles() const { return write_spin_cycles_; }
  uint64_t revoked_cpus() const { return revoked_cpus_; }
  Cycles revocation_cycles() const { return revocation_cycles_; }
  Cycles publish_cycles() const { return publish_cycles_; }
  uint64_t grace_waits() const { return grace_waits_; }
  Cycles grace_cycles() const { return grace_cycles_; }

 private:
  static uint64_t Bit(uint16_t cpu) { return 1ull << (cpu & 63); }

  ReadPolicy policy_ = ReadPolicy::kOff;
  Cycles line_transfer_cost_ = 0;
  Cycles epoch_grace_cost_ = 0;
  uint16_t cpu_count_ = 1;
  uint32_t section_depth_ = 0;

  Cycles write_free_at_ = 0;        // kPassiveRw/kEpoch: writer serialization
  uint64_t tokens_ = 0;             // kPassiveRw: CPUs holding a read token
  std::vector<Cycles> read_until_;  // per-CPU last read-section end

  uint64_t read_grants_ = 0;
  uint64_t contended_reads_ = 0;
  Cycles read_spin_cycles_ = 0;
  uint64_t write_grants_ = 0;
  Cycles write_spin_cycles_ = 0;
  uint64_t revoked_cpus_ = 0;
  Cycles revocation_cycles_ = 0;
  Cycles publish_cycles_ = 0;
  uint64_t grace_waits_ = 0;
  Cycles grace_cycles_ = 0;
};

}  // namespace mks

#endif  // MKS_SYNC_SHARED_LOCK_H_
