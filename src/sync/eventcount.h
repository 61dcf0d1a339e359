// Eventcounts and sequencers [Reed and Kanodia, 1977].
//
// The kernel design's synchronization primitive: an eventcount is a
// monotonically increasing counter; await(ec, t) suspends the caller until
// read(ec) >= t; advance(ec) signals the next event.  Crucially, the
// discoverer of an event need not know the identity of the processes
// awaiting it, which is what lets a low-level virtual processor signal
// upward without acquiring a dependency on the user-process implementation.
// Sequencers provide the total ordering (ticket) half of the pair.
#ifndef MKS_SYNC_EVENTCOUNT_H_
#define MKS_SYNC_EVENTCOUNT_H_

#include <cstdint>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/sim/metrics.h"

namespace mks {

// A party suspended on an eventcount: a level-1 virtual processor, or a
// level-2 process whose wakeup the virtual processor manager posts upward
// through the real-memory queue.
struct EcWaiter {
  enum class Kind : uint8_t { kVp, kProcess };
  Kind kind = Kind::kVp;
  uint32_t id = 0;

  static EcWaiter Vp(VpId vp) { return EcWaiter{Kind::kVp, vp.value}; }
  static EcWaiter Process(ProcessId pid) { return EcWaiter{Kind::kProcess, pid.value}; }
  friend bool operator==(EcWaiter a, EcWaiter b) = default;
};

class EventcountTable {
 public:
  explicit EventcountTable(Metrics* metrics)
      : metrics_(metrics), id_wakeups_(metrics->Intern("sync.wakeups")) {}

  EventcountId Create();

  uint64_t Read(EventcountId ec) const;

  // Increments the count and removes every waiter whose awaited target is
  // now satisfied, writing them into `*woken` (cleared first; the caller
  // owns the scratch, so an advance allocates nothing once it has grown).
  void Advance(EventcountId ec, std::vector<EcWaiter>* woken);

  // If the count already satisfies `target`, returns true (caller proceeds).
  // Otherwise registers the caller and returns false (caller suspends).
  bool AwaitOrEnqueue(EventcountId ec, uint64_t target, EcWaiter waiter);

  // Removes a registered waiter, as when a parked process is destroyed or
  // given a new program, so no later advance wakes it.
  void CancelWait(EventcountId ec, EcWaiter waiter);

  size_t WaiterCount(EventcountId ec) const;
  size_t count() const { return cells_.size(); }

 private:
  struct Waiter {
    EcWaiter who;
    uint64_t target;
  };
  struct Cell {
    uint64_t value = 0;
    std::vector<Waiter> waiters;
  };

  std::vector<Cell> cells_;
  Metrics* metrics_;
  MetricId id_wakeups_;
};

// A sequencer: issues strictly increasing tickets, pairing with eventcounts
// to build mutual exclusion and ordered services.
class Sequencer {
 public:
  uint64_t Ticket() { return next_++; }
  uint64_t next() const { return next_; }

 private:
  uint64_t next_ = 0;
};

}  // namespace mks

#endif  // MKS_SYNC_EVENTCOUNT_H_
