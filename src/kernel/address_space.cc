#include "src/kernel/address_space.h"

#include <algorithm>
#include <cassert>

namespace mks {

namespace {

// Drops one of `ds`'s entries from the spaces connecting `pt` (one SDW of
// `ds` naming `pt` is going away).
void NoteSpaceDisconnected(PageTable* pt, const DescriptorSegment* ds) {
  auto it = std::find(pt->connected.begin(), pt->connected.end(), ds);
  assert(it != pt->connected.end());
  *it = pt->connected.back();
  pt->connected.pop_back();
}

}  // namespace

AddressSpaceManager::AddressSpaceManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                                         SegmentManager* segs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kAddressSpace)),
      core_segs_(core_segs),
      segs_(segs),
      id_spaces_created_(ctx->metrics.Intern("asm.spaces_created")),
      id_connects_(ctx->metrics.Intern("asm.connects")),
      id_disconnect_everywhere_(ctx->metrics.Intern("asm.disconnect_everywhere")) {}

Status AddressSpaceManager::Init(uint16_t user_sdw_count) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  user_sdw_count_ = user_sdw_count;
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
  SpaceRec space;
  space.ds.sdws.assign(user_sdw_count_, Sdw{});
  space.ast_of.assign(user_sdw_count_, kNoAst);
  spaces_.emplace(pid, std::move(space));
  ctx_->metrics.Inc(id_spaces_created_);
  return Status::Ok();
}

Status AddressSpaceManager::DestroySpace(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  SpaceRec& space = it->second;
  for (uint16_t i = 0; i < user_sdw_count_; ++i) {
    if (space.ast_of[i] != kNoAst) {
      NoteSpaceDisconnected(space.ds.sdws[i].page_table, &space.ds);
      segs_->NoteDisconnect(space.ast_of[i]);
    }
  }
  // Any processor still pointing at the dying descriptor segment unbinds.
  ctx_->cpus.DropUserDs(&space.ds);
  spaces_.erase(it);
  return Status::Ok();
}

DescriptorSegment* AddressSpaceManager::Space(ProcessId pid) {
  auto it = spaces_.find(pid);
  return it == spaces_.end() ? nullptr : &it->second.ds;
}

Status AddressSpaceManager::Connect(ProcessId pid, Segno segno, uint32_t ast,
                                    AccessModes modes, uint8_t ring_bracket) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  if (segno.value < kSystemSegnoLimit ||
      segno.value >= kSystemSegnoLimit + user_sdw_count_) {
    return Status(Code::kInvalidSegno, "segno outside the user range");
  }
  AstEntry* entry = segs_->Get(ast);
  if (entry == nullptr) {
    return Status(Code::kInvalidArgument, "bad AST index");
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  SpaceRec& space = it->second;
  if (space.ds.sdws[index].present) {
    return Status(Code::kAlreadyExists, "segno already connected");
  }
  Sdw& sdw = space.ds.sdws[index];
  sdw.present = true;
  sdw.page_table = &entry->page_table;
  sdw.bound_pages = entry->max_pages;
  sdw.read = modes.read;
  sdw.write = modes.write;
  sdw.execute = modes.execute;
  sdw.ring_bracket = ring_bracket;
  space.ast_of[index] = ast;
  entry->page_table.connected.push_back(&space.ds);
  segs_->NoteConnect(ast);
  ctx_->metrics.Inc(id_connects_);
  return Status::Ok();
}

Status AddressSpaceManager::Disconnect(ProcessId pid, Segno segno) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = spaces_.find(pid);
  if (it == spaces_.end()) {
    return Status(Code::kNotFound, "no address space");
  }
  const uint16_t index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  SpaceRec& space = it->second;
  if (index >= user_sdw_count_ || !space.ds.sdws[index].present) {
    return Status(Code::kInvalidSegno, "segno not connected");
  }
  NoteSpaceDisconnected(space.ds.sdws[index].page_table, &space.ds);
  segs_->NoteDisconnect(space.ast_of[index]);
  space.ds.sdws[index] = Sdw{};
  space.ast_of[index] = kNoAst;
  // The segno may be reconnected to a different segment; no translation
  // cached under it may survive the disconnect.
  ctx_->cpus.ClearAssociative(segno);
  return Status::Ok();
}

uint32_t AddressSpaceManager::DisconnectEverywhere(SegmentUid uid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  // Every SDW bound to `uid` is recorded against its one AST slot, and the
  // slot's connection count says how many there are: an inactive or
  // unconnected segment needs no scan, and the scan stops at the last one.
  const uint32_t ast = segs_->FindIndex(uid);
  const AstEntry* entry = segs_->Get(ast);  // nullptr for kNoAst
  const uint32_t bound = entry == nullptr ? 0 : entry->connections;
  uint32_t severed = 0;
  for (auto it = spaces_.begin(); it != spaces_.end() && severed < bound; ++it) {
    SpaceRec& space = it->second;
    for (uint16_t i = 0; i < user_sdw_count_ && severed < bound; ++i) {
      if (space.ast_of[i] == ast) {
        NoteSpaceDisconnected(space.ds.sdws[i].page_table, &space.ds);
        segs_->NoteDisconnect(ast);
        space.ds.sdws[i] = Sdw{};
        space.ast_of[i] = kNoAst;
        ctx_->cpus.ClearAssociative(Segno(static_cast<uint16_t>(kSystemSegnoLimit + i)));
        ++severed;
      }
    }
  }
  ctx_->metrics.Inc(id_disconnect_everywhere_, severed);
  return severed;
}

void AddressSpaceManager::AuditIntegrity(std::vector<std::string>* findings) const {
  // The spaces whose SDWs name each AST slot, one entry per SDW.
  std::unordered_map<uint32_t, std::vector<const DescriptorSegment*>> namers;
  for (const auto& [pid, space] : spaces_) {
    for (uint16_t i = 0; i < user_sdw_count_; ++i) {
      const uint32_t ast = space.ast_of[i];
      const Sdw& sdw = space.ds.sdws[i];
      if (ast == kNoAst) {
        if (sdw.present) {
          findings->push_back("process " + std::to_string(pid.value) + " segno index " +
                              std::to_string(i) + ": SDW present with no AST record");
        }
        continue;
      }
      namers[ast].push_back(&space.ds);
      AstEntry* entry = segs_->Get(ast);
      if (entry == nullptr) {
        findings->push_back("process " + std::to_string(pid.value) +
                            ": SDW names a dead AST slot " + std::to_string(ast));
        continue;
      }
      if (sdw.page_table != &entry->page_table) {
        findings->push_back("process " + std::to_string(pid.value) +
                            ": SDW page-table pointer out of step with AST " +
                            std::to_string(ast));
      }
    }
  }
  for (uint32_t slot = 0; slot < segs_->ast_slots(); ++slot) {
    AstEntry* entry = segs_->Get(slot);
    if (entry == nullptr) {
      continue;
    }
    std::vector<const DescriptorSegment*>& named = namers[slot];
    if (named.size() != entry->connections) {
      findings->push_back("AST " + std::to_string(slot) + ": connections " +
                          std::to_string(entry->connections) + " but " +
                          std::to_string(named.size()) + " SDWs observed");
    }
    // Targeted invalidation signals the CPUs of exactly these spaces.
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
  for (const auto& [pid, space] : spaces_) {
    auto loaded = dsbr_masks.find(&space.ds);
    const uint64_t expected = loaded == dsbr_masks.end() ? 0 : loaded->second;
    if (loaded != dsbr_masks.end()) {
      dsbr_masks.erase(loaded);
    }
    if (space.ds.loaded_on != expected) {
      findings->push_back("process " + std::to_string(pid.value) + ": loaded-on mask " +
                          std::to_string(space.ds.loaded_on) + " but the DSBRs give " +
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
