#include "src/kernel/core_segment.h"

namespace mks {

CoreSegmentManager::CoreSegmentManager(KernelContext* ctx)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kCoreSegment)) {}

Result<CoreSegId> CoreSegmentManager::Allocate(std::string name, uint32_t pages) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (sealed_) {
    return Status(Code::kFailedPrecondition, "core segments are fixed after initialization");
  }
  // Keep at least half of primary memory for the paging pool.
  const uint32_t budget = ctx_->memory.frame_count() / 2;
  if (next_frame_ + pages > budget) {
    return Status(Code::kResourceExhausted, "core segment budget exhausted: " + name);
  }
  CoreSegId id(static_cast<uint16_t>(segments_.size()));
  // Wired: the frames stay resident in their home storage for good, so the
  // segment's words are one span that word reads and writes also see.
  const std::span<Word> words = ctx_->memory.HomeSpan(FrameIndex(next_frame_), pages);
  segments_.push_back(CoreSeg{std::move(name), next_frame_, pages, words});
  next_frame_ += pages;
  return id;
}

Result<Word> CoreSegmentManager::ReadWord(CoreSegId seg, uint32_t offset) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (seg.value >= segments_.size()) {
    return Status(Code::kInvalidArgument, "bad core segment id");
  }
  const CoreSeg& cs = segments_[seg.value];
  if (offset >= cs.pages * kPageWords) {
    return Status(Code::kOutOfBounds, "core segment " + cs.name);
  }
  return ctx_->memory.ReadWord(static_cast<uint64_t>(cs.first_frame) * kPageWords + offset);
}

Status CoreSegmentManager::WriteWord(CoreSegId seg, uint32_t offset, Word value) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (seg.value >= segments_.size()) {
    return Status(Code::kInvalidArgument, "bad core segment id");
  }
  const CoreSeg& cs = segments_[seg.value];
  if (offset >= cs.pages * kPageWords) {
    return Status(Code::kOutOfBounds, "core segment " + cs.name);
  }
  ctx_->memory.WriteWord(static_cast<uint64_t>(cs.first_frame) * kPageWords + offset, value);
  return Status::Ok();
}

std::span<Word> CoreSegmentManager::RawSpan(CoreSegId seg) { return segments_[seg.value].words; }

uint32_t CoreSegmentManager::SizeWords(CoreSegId seg) const {
  return segments_[seg.value].pages * kPageWords;
}

const std::string& CoreSegmentManager::Name(CoreSegId seg) const {
  return segments_[seg.value].name;
}

}  // namespace mks
