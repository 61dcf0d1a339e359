#include "src/kernel/quota_cell.h"

namespace mks {

namespace {
constexpr uint32_t kSlotWords = 4;  // limit, count, pack, vtoc
}  // namespace

QuotaCellManager::QuotaCellManager(KernelContext* ctx, CoreSegmentManager* core_segs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kQuotaCell)),
      core_segs_(core_segs) {}

Status QuotaCellManager::Init(uint32_t slots) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  const uint32_t words = slots * kSlotWords;
  const uint32_t pages = (words + kPageWords - 1) / kPageWords;
  auto seg = core_segs_->Allocate("quota_cell_table", pages == 0 ? 1 : pages);
  if (!seg.ok()) {
    return seg.status();
  }
  table_seg_ = *seg;
  slots_.assign(slots, Slot{});
  return Status::Ok();
}

void QuotaCellManager::StoreThrough(QuotaCellId cell) {
  const Slot& slot = slots_[cell.value];
  const uint32_t base = cell.value * kSlotWords;
  (void)core_segs_->WriteWord(table_seg_, base, slot.info.limit);
  (void)core_segs_->WriteWord(table_seg_, base + 1, slot.info.count);
  (void)core_segs_->WriteWord(table_seg_, base + 2, slot.info.home_pack.value);
  (void)core_segs_->WriteWord(table_seg_, base + 3, slot.info.home_vtoc.value);
}

Result<QuotaCellId> QuotaCellManager::CreateCell(PackId pack, VtocIndex vtoc, uint64_t limit) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  VtocEntry* entry = ctx_->volumes.pack(pack)->GetVtoc(vtoc);
  if (entry == nullptr) {
    return Status(Code::kInvalidArgument, "no such VTOC entry");
  }
  if (entry->quota.present) {
    return Status(Code::kAlreadyExists, "quota cell already present");
  }
  entry->quota.present = true;
  entry->quota.limit = limit;
  entry->quota.count = 0;
  return LoadCell(pack, vtoc);
}

Result<QuotaCellId> QuotaCellManager::LoadCell(PackId pack, VtocIndex vtoc) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (slot.in_use && slot.info.home_pack == pack && slot.info.home_vtoc == vtoc) {
      return QuotaCellId(i);
    }
  }
  const VtocEntry* entry = ctx_->volumes.pack(pack)->GetVtoc(vtoc);
  if (entry == nullptr || !entry->quota.present) {
    return Status(Code::kInvalidArgument, "no quota cell stored in VTOC entry");
  }
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].in_use) {
      slots_[i].in_use = true;
      slots_[i].info = QuotaCellInfo{entry->quota.limit, entry->quota.count, pack, vtoc};
      StoreThrough(QuotaCellId(i));
      return QuotaCellId(i);
    }
  }
  return Status(Code::kResourceExhausted, "quota cell table full");
}

Status QuotaCellManager::FlushCell(QuotaCellId cell) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  const QuotaCellInfo& info = slots_[cell.value].info;
  VtocEntry* entry = ctx_->volumes.pack(info.home_pack)->GetVtoc(info.home_vtoc);
  if (entry == nullptr) {
    return Status(Code::kInternal, "quota cell home vanished");
  }
  entry->quota.limit = info.limit;
  entry->quota.count = info.count;
  return Status::Ok();
}

Status QuotaCellManager::DestroyCell(QuotaCellId cell) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  Slot& slot = slots_[cell.value];
  if (slot.info.count != 0) {
    return Status(Code::kNonEmpty, "quota cell still has charged storage");
  }
  VtocEntry* entry = ctx_->volumes.pack(slot.info.home_pack)->GetVtoc(slot.info.home_vtoc);
  if (entry != nullptr) {
    entry->quota = QuotaCellStore{};
  }
  slot = Slot{};
  StoreThrough(cell);
  return Status::Ok();
}

Status QuotaCellManager::Charge(QuotaCellId cell, uint64_t pages) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall);
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  Slot& slot = slots_[cell.value];
  if (slot.info.count + pages > slot.info.limit) {
    return Status(Code::kQuotaOverflow, "quota cell limit reached");
  }
  slot.info.count += pages;
  StoreThrough(cell);
  return Status::Ok();
}

Status QuotaCellManager::Refund(QuotaCellId cell, uint64_t pages) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  Slot& slot = slots_[cell.value];
  slot.info.count = slot.info.count >= pages ? slot.info.count - pages : 0;
  StoreThrough(cell);
  return Status::Ok();
}

Status QuotaCellManager::SetLimit(QuotaCellId cell, uint64_t limit) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  slots_[cell.value].info.limit = limit;
  StoreThrough(cell);
  return Status::Ok();
}

Result<QuotaCellInfo> QuotaCellManager::Info(QuotaCellId cell) const {
  if (cell.value >= slots_.size() || !slots_[cell.value].in_use) {
    return Status(Code::kInvalidArgument, "bad quota cell id");
  }
  return slots_[cell.value].info;
}

uint32_t QuotaCellManager::cached_count() const {
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    if (s.in_use) {
      ++n;
    }
  }
  return n;
}

}  // namespace mks
