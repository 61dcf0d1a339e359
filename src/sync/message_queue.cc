#include "src/sync/message_queue.h"

#include <cassert>

namespace mks {

RealMemoryQueue::RealMemoryQueue(std::span<uint64_t> storage) : storage_(storage) {
  assert(storage.size() >= kHeaderWords + kSlotWords);
  capacity_ = (storage.size() - kHeaderWords) / kSlotWords;
  head() = 0;
  tail() = 0;
}

size_t RealMemoryQueue::size() const {
  return static_cast<size_t>(tail_value() - head_value());
}

Status RealMemoryQueue::Push(const UpwardMessage& msg) {
  if (size() >= capacity_) {
    return Status(Code::kResourceExhausted, "real-memory queue full");
  }
  const size_t slot = kHeaderWords + (tail_value() % capacity_) * kSlotWords;
  storage_[slot] = msg.dest.value;
  storage_[slot + 1] = msg.code;
  storage_[slot + 2] = msg.payload;
  ++tail();
  return Status::Ok();
}

std::optional<UpwardMessage> RealMemoryQueue::Pop() {
  if (empty()) {
    return std::nullopt;
  }
  const size_t slot = kHeaderWords + (head_value() % capacity_) * kSlotWords;
  UpwardMessage msg;
  msg.dest = ProcessId(static_cast<uint32_t>(storage_[slot]));
  msg.code = storage_[slot + 1];
  msg.payload = storage_[slot + 2];
  ++head();
  return msg;
}

}  // namespace mks
