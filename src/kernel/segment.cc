#include "src/kernel/segment.h"

namespace mks {

SegmentManager::SegmentManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                               QuotaCellManager* quota, PageFrameManager* pfm)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kSegment)),
      core_segs_(core_segs),
      quota_(quota),
      pfm_(pfm),
      id_ast_replacements_(ctx->metrics.Intern("seg.ast_replacements")),
      id_activations_(ctx->metrics.Intern("seg.activations")),
      ev_activate_(ctx->trace.InternEvent("seg.activate")),
      ev_deactivate_(ctx->trace.InternEvent("seg.deactivate")) {}

Status SegmentManager::Init(uint32_t ast_slots) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  // Budget the AST region: one page-table's worth of words per slot plus
  // entry overhead, held in permanently resident core.
  const uint64_t words = static_cast<uint64_t>(ast_slots) * (kMaxSegmentPages + 16);
  const uint32_t pages = static_cast<uint32_t>((words + kPageWords - 1) / kPageWords);
  auto seg = core_segs_->Allocate("ast_area", pages == 0 ? 1 : pages);
  if (!seg.ok()) {
    return seg.status();
  }
  ast_area_ = *seg;
  ast_.assign(ast_slots, AstEntry{});
  for (uint32_t i = 0; i < ast_slots; ++i) {
    ast_[i].page_table.arrival = ctx_->eventcounts.Create();
  }
  return Status::Ok();
}

Result<uint32_t> SegmentManager::AllocateSlot() {
  // Prefer a free slot; otherwise deactivate the least recently used
  // unconnected entry.  Deactivation is NOT constrained by the directory
  // hierarchy: any unconnected segment, directory or not, is a candidate.
  for (uint32_t i = 0; i < ast_.size(); ++i) {
    if (!ast_[i].in_use) {
      return i;
    }
  }
  uint32_t victim = kNoAst;
  for (uint32_t i = 0; i < ast_.size(); ++i) {
    if (ast_[i].connections() == 0 &&
        (victim == kNoAst || ast_[i].lru_stamp < ast_[victim].lru_stamp)) {
      victim = i;
    }
  }
  if (victim == kNoAst) {
    return Status(Code::kResourceExhausted, "active segment table full of connected segments");
  }
  ctx_->metrics.Inc(id_ast_replacements_);
  MKS_RETURN_IF_ERROR(Deactivate(victim));
  return victim;
}

Result<uint32_t> SegmentManager::Activate(SegmentUid uid, PackId pack, VtocIndex vtoc,
                                          QuotaCellId cell) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 4);
  if (by_uid_.count(uid) != 0) {
    return Status(Code::kAlreadyExists, "segment already active");
  }
  VtocEntry* entry = ctx_->volumes.pack(pack)->GetVtoc(vtoc);
  if (entry == nullptr || !(entry->uid == uid)) {
    return Status(Code::kInvalidArgument, "VTOC entry does not match segment uid");
  }
  MKS_ASSIGN_OR_RETURN(uint32_t slot, AllocateSlot());
  AstEntry& ast = ast_[slot];
  ast.in_use = true;
  ast.uid = uid;
  ast.lru_stamp = ++lru_counter_;
  ast.page_table.pack = pack;
  ast.page_table.vtoc = vtoc;
  ast.page_table.quota_cell = cell;
  ast.page_table.ptws.assign(entry->max_length_pages, Ptw{});
  for (uint32_t p = 0; p < entry->max_length_pages; ++p) {
    const FileMapEntry& fm = entry->map_entry(p);
    Ptw& ptw = ast.page_table.ptws[p];
    if (fm.allocated || fm.zero) {
      ptw.unallocated = false;
      ptw.in_core = false;
    } else {
      ptw.unallocated = true;  // never-before-used: the quota-exception bit
    }
  }
  // Account the page table words against the resident AST area.
  (void)core_segs_->WriteWord(ast_area_, slot, uid.value);
  by_uid_[uid] = slot;
  ctx_->metrics.Inc(id_activations_);
  ctx_->trace.Instant(ev_activate_, slot, static_cast<uint32_t>(uid.value));
  return slot;
}

Result<uint32_t> SegmentManager::EnsureActive(SegmentUid uid, PackId pack, VtocIndex vtoc,
                                              QuotaCellId cell) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = by_uid_.find(uid);
  if (it != by_uid_.end()) {
    ast_[it->second].lru_stamp = ++lru_counter_;
    return it->second;
  }
  return Activate(uid, pack, vtoc, cell);
}

Status SegmentManager::Deactivate(uint32_t slot) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (slot >= ast_.size() || !ast_[slot].in_use) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  AstEntry& ast = ast_[slot];
  if (ast.connections() != 0) {
    return Status(Code::kFailedPrecondition, "segment still connected to address spaces");
  }
  // The slot's page-table storage is about to describe a different segment.
  // No associative memory holds a translation through it: every disconnect
  // before this one dropped the segment's entries on every CPU, by a segno
  // clear or by unloading the dying space (AuditAssociative checks it).
  for (uint32_t p = 0; p < ast.page_table.ptws.size(); ++p) {
    if (ast.page_table.ptws[p].in_core) {
      MKS_RETURN_IF_ERROR(pfm_->EvictPage(&ast.page_table, p));
    }
  }
  // A read still in flight must not land in the segment the slot holds next.
  pfm_->OrphanTransfers(&ast.page_table);
  (void)core_segs_->WriteWord(ast_area_, slot, 0);
  by_uid_.erase(ast.uid);
  const EventcountId arrival = ast.page_table.arrival;
  ast = AstEntry{};
  ast.page_table.arrival = arrival;  // eventcounts are per-slot and reusable
  ctx_->trace.Instant(ev_deactivate_, slot, 0);
  return Status::Ok();
}

void SegmentManager::AuditIntegrity(std::vector<std::string>* findings) const {
  for (uint32_t slot = 0; slot < ast_.size(); ++slot) {
    const AstEntry& ast = ast_[slot];
    if (!ast.in_use) {
      continue;
    }
    for (uint32_t p = 0; p < ast.page_table.ptws.size(); ++p) {
      if (ast.page_table.ptws[p].locked && !pfm_->TransferInFlight(&ast.page_table, p)) {
        findings->push_back("AST " + std::to_string(slot) + " page " + std::to_string(p) +
                            ": descriptor locked with no transfer in flight");
      }
    }
  }
}

AstEntry* SegmentManager::Get(uint32_t ast) {
  if (ast >= ast_.size() || !ast_[ast].in_use) {
    return nullptr;
  }
  return &ast_[ast];
}

uint32_t SegmentManager::FindIndex(SegmentUid uid) const {
  auto it = by_uid_.find(uid);
  return it == by_uid_.end() ? kNoAst : it->second;
}

Status SegmentManager::GrowSegment(uint32_t slot, uint32_t page) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  AstEntry* ast = Get(slot);
  if (ast == nullptr) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  PageTable& pt = ast->page_table;
  if (page >= pt.ptws.size()) {
    return Status(Code::kOutOfBounds, "growth beyond maximum length");
  }
  // The quota cell name is static — no upward search of the hierarchy.
  if (pt.quota_cell != kNoQuotaCell) {
    MKS_RETURN_IF_ERROR(quota_->Charge(pt.quota_cell, 1));
  }
  Status added = pfm_->AddPage(&pt, page);
  if (!added.ok() && pt.quota_cell != kNoQuotaCell) {
    (void)quota_->Refund(pt.quota_cell, 1);
  }
  return added;
}

Status SegmentManager::ServiceMissingPage(uint32_t slot, uint32_t page, uint32_t word,
                                          ProcessId initiator, WaitSpec* wait) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  AstEntry* ast = Get(slot);
  if (ast == nullptr) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  ast->lru_stamp = ++lru_counter_;
  return pfm_->ServiceMissingPage(&ast->page_table, page, word, initiator, wait);
}

Status SegmentManager::Relocate(uint32_t slot) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  AstEntry* ast = Get(slot);
  if (ast == nullptr) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  if (ast->connections() != 0) {
    return Status(Code::kFailedPrecondition, "disconnect all address spaces before relocation");
  }
  PageTable& pt = ast->page_table;
  // Flush every resident page home first so the records are authoritative.
  for (uint32_t p = 0; p < pt.ptws.size(); ++p) {
    if (pt.ptws[p].in_core) {
      MKS_RETURN_IF_ERROR(pfm_->EvictPage(&pt, p));
    }
  }
  DiskPack* old_pack = ctx_->volumes.pack(pt.pack);
  VtocEntry* old_entry = old_pack->GetVtoc(pt.vtoc);
  if (old_entry == nullptr) {
    return Status(Code::kInternal, "segment lost its VTOC entry");
  }
  const uint32_t needed = old_entry->RecordsUsed() + 1;  // headroom for the pending growth
  MKS_ASSIGN_OR_RETURN(PackId new_pack_id, ctx_->volumes.ChoosePackExcluding(pt.pack, needed));
  DiskPack* new_pack = ctx_->volumes.pack(new_pack_id);
  MKS_ASSIGN_OR_RETURN(VtocIndex new_vtoc,
                       new_pack->AllocateVtoc(ast->uid, old_entry->is_directory));
  VtocEntry* new_entry = new_pack->GetVtoc(new_vtoc);
  new_entry->max_length_pages = old_entry->max_length_pages;
  new_entry->quota = old_entry->quota;

  for (uint32_t p = 0; p < old_entry->file_map.size(); ++p) {
    const FileMapEntry& old_fm = old_entry->file_map[p];
    FileMapEntry& new_fm = new_entry->mutable_map_entry(p);
    new_fm.zero = old_fm.zero;
    if (old_fm.allocated) {
      auto rec = new_pack->AllocateRecord();
      if (!rec.ok()) {
        return rec.status();  // target filled up mid-move; caller retries
      }
      new_pack->StoreRecord(*rec, old_pack->Share(old_fm.record));
      // One read + one write of real transfer time per record moved.
      ctx_->cost.Charge(CodeStyle::kOptimized,
                        Costs::kDiskReadLatency + Costs::kDiskWriteLatency);
      new_fm.allocated = true;
      new_fm.record = *rec;
    }
  }
  old_pack->FreeVtoc(pt.vtoc);
  pt.pack = new_pack_id;
  pt.vtoc = new_vtoc;
  return Status::Ok();
}

uint32_t SegmentManager::active_count() const {
  uint32_t n = 0;
  for (const AstEntry& a : ast_) {
    if (a.in_use) {
      ++n;
    }
  }
  return n;
}

}  // namespace mks
