// Reed's real-memory message queue [Reed, 1976].
//
// The key complicating factor of two-level process implementations: events
// discovered by low-level virtual processors must be signalled to user-level
// processes whose states are NOT guaranteed to be in real memory.  The fix is
// a fixed-size message queue placed in permanently-resident storage between
// the two processor multiplexers.  The level-1 side pushes (never blocking,
// never touching pageable storage); the level-2 scheduler drains.
//
// The queue is backed by a caller-supplied span of words — in the kernel this
// span comes from a core segment, so the residency claim is honest: every
// enqueue/dequeue is a read/write of permanently-resident words.
//
// Layout: word 0 = head (dequeue cursor), word 1 = tail (enqueue cursor),
// then capacity slots of kSlotWords words each.
#ifndef MKS_SYNC_MESSAGE_QUEUE_H_
#define MKS_SYNC_MESSAGE_QUEUE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/common/ids.h"
#include "src/common/status.h"

namespace mks {

struct UpwardMessage {
  ProcessId dest{};    // the user process the event concerns
  uint64_t code = 0;   // event class (page-arrived, quota-settled, ...)
  uint64_t payload = 0;
};

class RealMemoryQueue {
 public:
  static constexpr size_t kHeaderWords = 2;
  static constexpr size_t kSlotWords = 3;

  // storage.size() must be at least kHeaderWords + kSlotWords.
  explicit RealMemoryQueue(std::span<uint64_t> storage);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  bool empty() const { return size() == 0; }

  // kResourceExhausted when the queue is full: the fixed size is the design's
  // deliberate bound; callers at level 1 must treat overflow as a reportable
  // (counted) condition, never by blocking.
  Status Push(const UpwardMessage& msg);

  std::optional<UpwardMessage> Pop();

  uint64_t dropped() const { return dropped_; }

 private:
  uint64_t& head() { return storage_[0]; }
  uint64_t& tail() { return storage_[1]; }
  uint64_t head_value() const { return storage_[0]; }
  uint64_t tail_value() const { return storage_[1]; }

  std::span<uint64_t> storage_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

}  // namespace mks

#endif  // MKS_SYNC_MESSAGE_QUEUE_H_
