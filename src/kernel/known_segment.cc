#include "src/kernel/known_segment.h"

namespace mks {

KnownSegmentManager::KnownSegmentManager(KernelContext* ctx, SegmentManager* segs,
                                         AddressSpaceManager* spaces)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kKnownSegment)),
      segs_(segs),
      spaces_(spaces),
      id_segment_faults_(ctx->metrics.Intern("ksm.segment_faults")),
      id_quota_exceptions_(ctx->metrics.Intern("ksm.quota_exceptions")),
      id_full_pack_moves_(ctx->metrics.Intern("ksm.full_pack_moves")),
      id_kst_resets_(ctx->metrics.Intern("ksm.kst_resets")) {
  // The KST rides the directory domains: it is the per-process face of the
  // naming surface, and the profiler wants "naming, read side" as one number.
  rmi_.Init(ctx, "ksm", ProfDomain::kDirectoryRead, ProfDomain::kDirectoryWrite);
}

Status KnownSegmentManager::CreateKst(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  if (ksts_.count(pid) != 0) {
    return Status(Code::kAlreadyExists, "KST exists");
  }
  MKS_RETURN_IF_ERROR(spaces_->CreateSpace(pid));
  Kst kst;
  kst.entries.assign(spaces_->Space(pid)->sdws.size(), KstEntry{});
  ksts_.emplace(pid, std::move(kst));
  return Status::Ok();
}

Status KnownSegmentManager::DestroyKst(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  auto it = ksts_.find(pid);
  if (it == ksts_.end()) {
    return Status(Code::kNotFound, "no KST");
  }
  MKS_RETURN_IF_ERROR(spaces_->DestroySpace(pid));
  ksts_.erase(it);
  return Status::Ok();
}

Status KnownSegmentManager::ResetKst(ProcessId pid, Segno keep) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  // Check-then-clear: scan under a read section first, and only pay the
  // write side when a binding actually needs clearing.  A process that
  // initiated nothing beyond its state record — the common slab-reuse case —
  // resets without excluding the naming surface's readers.
  bool dirty = false;
  {
    SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
    auto it = ksts_.find(pid);
    if (it == ksts_.end()) {
      return Status(Code::kNotFound, "no KST");
    }
    for (uint16_t i = 0; i < it->second.entries.size(); ++i) {
      const uint16_t segno = static_cast<uint16_t>(kSystemSegnoLimit + i);
      if (it->second.entries[i].valid && segno != keep.value) {
        dirty = true;
        break;
      }
    }
  }
  ctx_->metrics.Inc(id_kst_resets_);
  if (!dirty) {
    return Status::Ok();
  }
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  auto it = ksts_.find(pid);
  DescriptorSegment* ds = spaces_->Space(pid);
  Kst& kst = it->second;
  for (uint16_t i = 0; i < kst.entries.size(); ++i) {
    const Segno segno(static_cast<uint16_t>(kSystemSegnoLimit + i));
    if (!kst.entries[i].valid || segno.value == keep.value) {
      continue;
    }
    if (ds != nullptr && ds->sdws[i].present) {
      MKS_RETURN_IF_ERROR(spaces_->Disconnect(pid, segno));
    }
    kst.entries[i] = KstEntry{};
  }
  return Status::Ok();
}

Result<Segno> KnownSegmentManager::Initiate(ProcessId pid, const SegmentHome& home,
                                            AccessModes modes, uint8_t ring_bracket) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  auto it = ksts_.find(pid);
  if (it == ksts_.end()) {
    return Status(Code::kNotFound, "no KST for process");
  }
  Kst& kst = it->second;
  // Re-initiating the same segment returns the existing binding.
  for (uint16_t i = 0; i < kst.entries.size(); ++i) {
    if (kst.entries[i].valid && kst.entries[i].home.uid == home.uid) {
      return Segno(static_cast<uint16_t>(kSystemSegnoLimit + i));
    }
  }
  for (uint16_t i = 0; i < kst.entries.size(); ++i) {
    if (!kst.entries[i].valid) {
      kst.entries[i] = KstEntry{true, home, modes, ring_bracket};
      return Segno(static_cast<uint16_t>(kSystemSegnoLimit + i));
    }
  }
  return Status(Code::kResourceExhausted, "known segment table full");
}

Status KnownSegmentManager::Terminate(ProcessId pid, Segno segno) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  KstEntry* entry = Find(pid, segno);
  if (entry == nullptr || !entry->valid) {
    return Status(Code::kInvalidSegno, "segment not known");
  }
  DescriptorSegment* ds = spaces_->Space(pid);
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  if (ds != nullptr && ds->sdws[index].present) {
    MKS_RETURN_IF_ERROR(spaces_->Disconnect(pid, segno));
  }
  *entry = KstEntry{};
  return Status::Ok();
}

const KstEntry* KnownSegmentManager::Lookup(ProcessId pid, Segno segno) const {
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  auto it = ksts_.find(pid);
  if (it == ksts_.end() || segno.value < kSystemSegnoLimit) {
    return nullptr;
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  if (index >= it->second.entries.size() || !it->second.entries[index].valid) {
    return nullptr;
  }
  return &it->second.entries[index];
}

Result<Segno> KnownSegmentManager::SegnoOf(ProcessId pid, SegmentUid uid) const {
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  auto it = ksts_.find(pid);
  if (it == ksts_.end()) {
    return Status(Code::kNotFound, "no KST");
  }
  for (uint16_t i = 0; i < it->second.entries.size(); ++i) {
    if (it->second.entries[i].valid && it->second.entries[i].home.uid == uid) {
      return Segno(static_cast<uint16_t>(kSystemSegnoLimit + i));
    }
  }
  return Status(Code::kNotFound, "segment not known to process");
}

KstEntry* KnownSegmentManager::Find(ProcessId pid, Segno segno) {
  auto it = ksts_.find(pid);
  if (it == ksts_.end() || segno.value < kSystemSegnoLimit) {
    return nullptr;
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  if (index >= it->second.entries.size()) {
    return nullptr;
  }
  return &it->second.entries[index];
}

Status KnownSegmentManager::HandleSegmentFault(ProcessId pid, Segno segno) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kFaultEntry);
  KstEntry* entry = Find(pid, segno);
  if (entry == nullptr || !entry->valid) {
    return Status(Code::kInvalidSegno, "segment fault on unknown segment");
  }
  const SegmentHome& home = entry->home;
  MKS_ASSIGN_OR_RETURN(uint32_t ast,
                       segs_->EnsureActive(home.uid, home.pack, home.vtoc, home.quota_cell));
  MKS_RETURN_IF_ERROR(spaces_->Connect(pid, segno, ast, entry->modes, entry->ring_bracket));
  ctx_->metrics.Inc(id_segment_faults_);
  return Status::Ok();
}

Status KnownSegmentManager::HandleMissingPage(ProcessId pid, const Fault& fault,
                                              WaitSpec* wait) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  KstEntry* entry = Find(pid, fault.segno);
  if (entry == nullptr || !entry->valid) {
    return Status(Code::kInvalidSegno, "page fault on unknown segment");
  }
  const uint32_t ast = segs_->FindIndex(entry->home.uid);
  if (ast == kNoAst) {
    // The segment was deactivated between the SDW check and now; the caller
    // will re-fault as a missing segment.
    return HandleSegmentFault(pid, fault.segno);
  }
  return segs_->ServiceMissingPage(ast, fault.page, fault.word, pid, wait);
}

void KnownSegmentManager::RelocateUid(SegmentUid uid, PackId pack, VtocIndex vtoc) {
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  for (auto& [pid, kst] : ksts_) {
    for (KstEntry& entry : kst.entries) {
      if (entry.valid && entry.home.uid == uid) {
        entry.home.pack = pack;
        entry.home.vtoc = vtoc;
      }
    }
  }
}

Status KnownSegmentManager::HandleQuotaException(ProcessId pid, Segno segno, uint32_t page,
                                                 MoveSignal* signal) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kFaultEntry);
  ctx_->metrics.Inc(id_quota_exceptions_);
  KstEntry* entry = Find(pid, segno);
  if (entry == nullptr || !entry->valid) {
    return Status(Code::kInvalidSegno, "quota exception on unknown segment");
  }
  SegmentHome& home = entry->home;
  MKS_ASSIGN_OR_RETURN(uint32_t ast,
                       segs_->EnsureActive(home.uid, home.pack, home.vtoc, home.quota_cell));
  Status grown = segs_->GrowSegment(ast, page);
  if (grown.ok()) {
    return Status::Ok();
  }
  if (grown.code() != Code::kPackFull) {
    return grown;  // e.g. quota_overflow, reported to the user
  }

  // Full pack: sever every address space, direct the move, retry the growth
  // on the new pack, and hand the new home upward for the directory update.
  ctx_->metrics.Inc(id_full_pack_moves_);
  spaces_->DisconnectEverywhere(home.uid);
  MKS_RETURN_IF_ERROR(segs_->Relocate(ast));
  const PageTable& moved = segs_->Get(ast)->page_table;
  RelocateUid(home.uid, moved.pack, moved.vtoc);
  MKS_RETURN_IF_ERROR(segs_->GrowSegment(ast, page));
  if (signal != nullptr) {
    signal->valid = true;
    signal->uid = home.uid;
    signal->new_pack = moved.pack;
    signal->new_vtoc = moved.vtoc;
  }
  return Status::Ok();
}

}  // namespace mks
