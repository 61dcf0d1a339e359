#include "src/kernel/address_space.h"

#include <algorithm>

namespace mks {

AddressSpaceManager::AddressSpaceManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                                         SegmentManager* segs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kAddressSpace)),
      core_segs_(core_segs),
      segs_(segs),
      id_disconnect_everywhere_(ctx->metrics.Intern("asm.disconnect_everywhere")) {}

Status AddressSpaceManager::Init() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  // One resident descriptor per core segment: the system address space.
  system_ds_.sdws.assign(kSystemSegnoLimit, Sdw{});
  for (uint16_t i = 0; i < core_segs_->count() && i < kSystemSegnoLimit; ++i) {
    const CoreSegId seg(i);
    const uint32_t pages = core_segs_->SizeWords(seg) / kPageWords;
    auto pt = std::make_unique<PageTable>();
    pt->ptws.assign(pages, Ptw{});
    // Core segments are carved contiguously from frame 0 upward; reconstruct
    // the frame numbers from the span.
    auto span = core_segs_->RawSpan(seg);
    const uint32_t first_frame =
        static_cast<uint32_t>((span.data() - ctx_->memory.FrameView(FrameIndex(0)).data()) /
                              kPageWords);
    for (uint32_t p = 0; p < pages; ++p) {
      Ptw& ptw = pt->ptws[p];
      ptw.in_core = true;
      ptw.unallocated = false;
      ptw.frame = first_frame + p;
    }
    Sdw& sdw = system_ds_.sdws[i];
    sdw.present = true;
    sdw.page_table = pt.get();
    sdw.bound_pages = pages;
    sdw.read = true;
    sdw.write = true;
    sdw.execute = true;
    sdw.ring_bracket = 0;  // kernel-only
    system_page_tables_.push_back(std::move(pt));
  }
  ctx_->cpus.SetSystemDs(&system_ds_);
  return Status::Ok();
}

Status AddressSpaceManager::CreateSpace(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (spaces_.count(pid) != 0) {
    return Status(Code::kAlreadyExists, "address space exists");
  }
  spaces_[pid].sdws.assign(kUserSdwCount, Sdw{});
  return Status::Ok();
}

Status AddressSpaceManager::DestroySpace(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  DescriptorSegment& ds = it->second;
  for (uint16_t i = 0; i < kUserSdwCount; ++i) {
    if (ds.sdws[i].present) {
      ds.Disconnect(i);
    }
  }
  // Any processor still pointing at the dying descriptor segment unbinds.
  ctx_->cpus.DropUserDs(&ds);
  spaces_.erase(it);
  return Status::Ok();
}

DescriptorSegment* AddressSpaceManager::Space(ProcessId pid) {
  auto it = spaces_.find(pid);
  return it == spaces_.end() ? nullptr : &it->second;
}

Status AddressSpaceManager::Connect(ProcessId pid, Segno segno, uint32_t ast,
                                    AccessModes modes, uint8_t ring_bracket) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  if (segno.value < kSystemSegnoLimit ||
      segno.value >= kSystemSegnoLimit + kUserSdwCount) {
    return Status(Code::kInvalidSegno, "segno outside the user range");
  }
  AstEntry* entry = segs_->Get(ast);
  if (entry == nullptr) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  DescriptorSegment& ds = it->second;
  if (ds.sdws[index].present) {
    return Status(Code::kAlreadyExists, "segno already connected");
  }
  ds.Connect(index, Sdw{.present = true,
                        .page_table = &entry->page_table,
                        .bound_pages = static_cast<uint32_t>(entry->page_table.ptws.size()),
                        .read = modes.read,
                        .write = modes.write,
                        .execute = modes.execute,
                        .ring_bracket = ring_bracket});
  return Status::Ok();
}

Status AddressSpaceManager::Disconnect(ProcessId pid, Segno segno) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  DescriptorSegment& ds = it->second;
  if (index >= kUserSdwCount || !ds.sdws[index].present) {
    return Status(Code::kInvalidSegno, "segno not connected");
  }
  ds.Disconnect(index);
  // The segno may be reconnected to a different segment; no translation
  // cached under it may survive the disconnect.
  ctx_->cpus.ClearAssociative(segno);
  return Status::Ok();
}

uint32_t AddressSpaceManager::DisconnectEverywhere(SegmentUid uid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  // Every SDW bound to `uid` names its one AST entry's page table, whose
  // `connected` list holds one entry per SDW: an inactive or unconnected
  // segment needs no scan, and the scan stops at the last one.  Each sever
  // shrinks the list, so the bound is read first.
  const AstEntry* entry = segs_->Get(segs_->FindIndex(uid));
  const PageTable* pt = entry == nullptr ? nullptr : &entry->page_table;
  const size_t bound = pt == nullptr ? 0 : pt->connected.size();
  uint32_t severed = 0;
  for (auto it = spaces_.begin(); it != spaces_.end() && severed < bound; ++it) {
    DescriptorSegment& ds = it->second;
    for (uint16_t i = 0; i < kUserSdwCount && severed < bound; ++i) {
      if (ds.sdws[i].page_table == pt) {  // a cleared SDW names no table
        ds.Disconnect(i);
        ctx_->cpus.ClearAssociative(Segno(static_cast<uint16_t>(kSystemSegnoLimit + i)));
        ++severed;
      }
    }
  }
  ctx_->metrics.Inc(id_disconnect_everywhere_, severed);
  return severed;
}

void AddressSpaceManager::AuditIntegrity(std::vector<std::string>* findings) const {
  // The spaces whose SDWs name each live AST entry's page table, one entry
  // per SDW.
  std::unordered_map<const PageTable*, std::vector<const DescriptorSegment*>> namers;
  for (uint32_t slot = 0; slot < segs_->ast_slots(); ++slot) {
    if (const AstEntry* entry = segs_->Get(slot)) {
      namers[&entry->page_table];
    }
  }
  for (const auto& [pid, ds] : spaces_) {
    for (uint16_t i = 0; i < kUserSdwCount; ++i) {
      if (!ds.sdws[i].present) {
        continue;
      }
      auto named = namers.find(ds.sdws[i].page_table);
      if (named == namers.end()) {
        findings->push_back("process " + std::to_string(pid.value) + " segno index " +
                            std::to_string(i) + ": SDW names no live AST entry's page table");
        continue;
      }
      named->second.push_back(&ds);
    }
  }
  for (uint32_t slot = 0; slot < segs_->ast_slots(); ++slot) {
    const AstEntry* entry = segs_->Get(slot);
    if (entry == nullptr) {
      continue;
    }
    // Targeted invalidation signals the CPUs of exactly these spaces.
    std::vector<const DescriptorSegment*>& named = namers[&entry->page_table];
    std::vector<const DescriptorSegment*> listed = entry->page_table.connected;
    std::sort(named.begin(), named.end());
    std::sort(listed.begin(), listed.end());
    if (listed != named) {
      findings->push_back("AST " + std::to_string(slot) + ": page table lists " +
                          std::to_string(listed.size()) + " connected spaces, out of step with " +
                          std::to_string(named.size()) + " SDWs naming it");
    }
  }
  // Each space's loaded-on mask must name exactly the CPUs whose user DSBR
  // holds it, and no DSBR may hold a segment of no live space.
  std::unordered_map<const DescriptorSegment*, uint64_t> dsbr_masks;
  for (uint16_t k = 0; k < ctx_->cpus.count(); ++k) {
    if (const DescriptorSegment* ds = ctx_->cpus.cpu(k).user_ds()) {
      dsbr_masks[ds] |= uint64_t{1} << k;
    }
  }
  for (const auto& [pid, ds] : spaces_) {
    auto loaded = dsbr_masks.find(&ds);
    const uint64_t expected = loaded == dsbr_masks.end() ? 0 : loaded->second;
    if (loaded != dsbr_masks.end()) {
      dsbr_masks.erase(loaded);
    }
    if (ds.loaded_on != expected) {
      findings->push_back("process " + std::to_string(pid.value) + ": loaded-on mask " +
                          std::to_string(ds.loaded_on) + " but the DSBRs give " +
                          std::to_string(expected));
    }
  }
  for (const auto& [ds, mask] : dsbr_masks) {
    findings->push_back("CPU mask " + std::to_string(mask) +
                        ": user DSBR holds the descriptor segment of no live space");
  }
}

void AddressSpaceManager::BindToProcessor(Processor* processor, ProcessId pid) {
  processor->set_user_ds(Space(pid));
}

}  // namespace mks
