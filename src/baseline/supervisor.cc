#include "src/baseline/supervisor.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace mks {

using namespace baseline_modules;

namespace {
// Cost of the software walk of the translation tables performed under the
// global lock ("page control interpretively retranslates the virtual
// address").
constexpr Cycles kRetranslationCost = 12;
constexpr Cycles kGlobalLockCost = 8;
constexpr int kMaxFaultDepth = 8;
}  // namespace

MonolithicSupervisor::MonolithicSupervisor(const BaselineConfig& config)
    : config_(config),
      rng_(config.seed),
      interleave_(config.cpu_count, &metrics_),
      // Each extra processor is another writer that can alter the translation
      // tables between a fault and capture of the global lock.
      effective_conflict_rate_(std::min(
          1.0, config.retranslate_conflict_rate *
                   (config.cpu_count > 1 ? config.cpu_count - 1 : 1))),
      id_deactivation_blocked_by_hierarchy_(
          metrics_.Intern("baseline.deactivation_blocked_by_hierarchy")),
      id_zero_reclaims_(metrics_.Intern("baseline.zero_reclaims")),
      id_writebacks_(metrics_.Intern("baseline.writebacks")),
      id_quota_walk_hops_(metrics_.Intern("baseline.quota_walk_hops")),
      id_full_pack_moves_(metrics_.Intern("baseline.full_pack_moves")),
      id_page_faults_(metrics_.Intern("baseline.page_faults")),
      id_retranslations_(metrics_.Intern("baseline.retranslations")),
      id_retranslation_conflicts_(metrics_.Intern("baseline.retranslation_conflicts")),
      id_zero_page_reallocations_(metrics_.Intern("baseline.zero_page_reallocations")),
      id_state_loads_(metrics_.Intern("baseline.state_loads")),
      id_links_snapped_(metrics_.Intern("baseline.links_snapped")) {
  trace_.Enable(config.cpu_count, config.trace);
  ev_lock_spin_ = trace_.InternEvent("lock.spin");
  ev_fault_service_ = trace_.InternEvent("fault.page_service");
  hist_lock_spin_ = metrics_.InternHistogram("lock.spin_cycles");
  hist_fault_service_ = metrics_.InternHistogram("fault.service_cycles");
  m_disk_ = tracker_.Register(kDiskControl);
  m_dir_ = tracker_.Register(kDirectoryControl);
  m_as_ = tracker_.Register(kAddressSpaceControl);
  m_seg_ = tracker_.Register(kSegmentControl);
  m_page_ = tracker_.Register(kPageControl);
  m_proc_ = tracker_.Register(kProcessControl);
}

MonolithicSupervisor::~MonolithicSupervisor() = default;

Status MonolithicSupervisor::Boot() {
  memory_ = std::make_unique<PrimaryMemory>(config_.memory_frames, &cost_, &metrics_);
  for (uint16_t p = 0; p < config_.pack_count; ++p) {
    volumes_.AddPack(config_.records_per_pack, config_.vtoc_slots_per_pack);
  }
  ast_.assign(config_.ast_slots, BAstEntry{});
  frames_.assign(config_.memory_frames, FrameInfo{});
  free_list_.clear();
  for (uint32_t f = config_.memory_frames; f > 0; --f) {
    free_list_.push_back(FrameIndex(f - 1));
  }
  // The root directory: the permanent quota directory.
  MKS_ASSIGN_OR_RETURN(PackId pack, volumes_.ChoosePack());
  root_.is_directory = true;
  root_.uid = SegmentUid(uid_counter_++);
  root_.quota_directory = true;
  root_.quota_limit = config_.root_quota;
  root_.parent = nullptr;
  MKS_ASSIGN_OR_RETURN(VtocIndex vtoc, volumes_.pack(pack)->AllocateVtoc(root_.uid, true));
  root_.pack = pack;
  root_.vtoc = vtoc;
  nodes_by_uid_[root_.uid] = &root_;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Directory control: whole tree names are expanded inside the supervisor.
// ---------------------------------------------------------------------------

Result<MonolithicSupervisor::BNode*> MonolithicSupervisor::ResolveNode(const std::string& path) {
  CallTracker::Scope scope(&tracker_, m_dir_);
  BNode* node = &root_;
  std::istringstream stream(path);
  std::string component;
  while (std::getline(stream, component, '>')) {
    if (component.empty()) {
      continue;
    }
    cost_.Charge(CodeStyle::kOptimized, Costs::kProcedureCall * 3);  // per-component search
    auto it = node->children.find(component);
    if (it == node->children.end()) {
      return Status(Code::kNoEntry, component);
    }
    node = it->second.get();
  }
  return node;
}

MonolithicSupervisor::BNode* MonolithicSupervisor::FindNodeByUid(SegmentUid uid) {
  auto it = nodes_by_uid_.find(uid);
  return it == nodes_by_uid_.end() ? nullptr : it->second;
}

MonolithicSupervisor::BNode* MonolithicSupervisor::FindNodeByUidIn(BNode* node, SegmentUid uid) {
  if (node->uid == uid) {
    return node;
  }
  for (auto& [name, child] : node->children) {
    if (BNode* found = FindNodeByUidIn(child.get(), uid)) {
      return found;
    }
  }
  return nullptr;
}

Result<SegmentUid> MonolithicSupervisor::CreatePath(const std::string& path) {
  CallTracker::Scope scope(&tracker_, m_dir_);
  const size_t cut = path.find_last_of('>');
  const std::string dir_path = cut == std::string::npos ? "" : path.substr(0, cut);
  const std::string leaf = cut == std::string::npos ? path : path.substr(cut + 1);
  if (leaf.empty()) {
    return Status(Code::kInvalidArgument, "empty leaf name");
  }
  MKS_RETURN_IF_ERROR(CreateDirectoryPath(dir_path));
  auto parent = ResolveNode(dir_path);
  if (!parent.ok()) {
    return parent.status();
  }
  BNode* dir = *parent;
  if (dir->children.count(leaf) != 0) {
    return Status(Code::kNameDuplication, leaf);
  }
  MKS_ASSIGN_OR_RETURN(PackId pack, volumes_.ChoosePack());
  auto node = std::make_unique<BNode>();
  node->is_directory = false;
  node->uid = SegmentUid(uid_counter_++);
  node->parent = dir;
  node->name = leaf;
  MKS_ASSIGN_OR_RETURN(VtocIndex vtoc, volumes_.pack(pack)->AllocateVtoc(node->uid, false));
  node->pack = pack;
  node->vtoc = vtoc;
  const SegmentUid uid = node->uid;
  nodes_by_uid_[uid] = node.get();
  dir->children.emplace(leaf, std::move(node));
  return uid;
}

Status MonolithicSupervisor::CreateDirectoryPath(const std::string& path) {
  CallTracker::Scope scope(&tracker_, m_dir_);
  BNode* node = &root_;
  std::istringstream stream(path);
  std::string component;
  while (std::getline(stream, component, '>')) {
    if (component.empty()) {
      continue;
    }
    auto it = node->children.find(component);
    if (it != node->children.end()) {
      if (!it->second->is_directory) {
        return Status(Code::kNotADirectory, component);
      }
      node = it->second.get();
      continue;
    }
    MKS_ASSIGN_OR_RETURN(PackId pack, volumes_.ChoosePack());
    auto child = std::make_unique<BNode>();
    child->is_directory = true;
    child->uid = SegmentUid(uid_counter_++);
    child->parent = node;
    child->name = component;
    MKS_ASSIGN_OR_RETURN(VtocIndex vtoc, volumes_.pack(pack)->AllocateVtoc(child->uid, true));
    child->pack = pack;
    child->vtoc = vtoc;
    nodes_by_uid_[child->uid] = child.get();
    BNode* raw = child.get();
    node->children.emplace(component, std::move(child));
    node = raw;
  }
  return Status::Ok();
}

Result<SegmentUid> MonolithicSupervisor::FileFound(const std::string& path) {
  auto node = ResolveNode(path);
  if (!node.ok()) {
    // The historical two-response rule: never confirm or deny intermediate
    // names; everything that fails is "no access".
    return Status(Code::kNoAccess, "no access");
  }
  return (*node)->uid;
}

Status MonolithicSupervisor::SetQuota(const std::string& dir_path, uint64_t limit) {
  CallTracker::Scope scope(&tracker_, m_dir_);
  MKS_ASSIGN_OR_RETURN(BNode * node, ResolveNode(dir_path));
  if (!node->is_directory) {
    return Status(Code::kNotADirectory, dir_path);
  }
  // The 1973 semantics: ANY directory may be designated dynamically, children
  // or not — which is exactly what forces the AST walk below.
  node->quota_directory = true;
  node->quota_limit = limit;
  const uint32_t ast = ast_by_uid_.count(node->uid) ? ast_by_uid_[node->uid] : UINT32_MAX;
  if (ast != UINT32_MAX) {
    ast_[ast].quota_directory = true;
    ast_[ast].quota_limit = limit;
  }
  return Status::Ok();
}

Result<uint64_t> MonolithicSupervisor::QuotaUsed(const std::string& dir_path) {
  MKS_ASSIGN_OR_RETURN(BNode * node, ResolveNode(dir_path));
  auto ast = EnsureActive(node);
  if (!ast.ok()) {
    return ast.status();
  }
  return ast_[*ast].quota_count;
}

// ---------------------------------------------------------------------------
// Segment control: the AST, constrained by the shape of the hierarchy.
// ---------------------------------------------------------------------------

Result<uint32_t> MonolithicSupervisor::EnsureActive(BNode* node) {
  auto it = ast_by_uid_.find(node->uid);
  if (it != ast_by_uid_.end()) {
    ast_[it->second].lru_stamp = ++lru_counter_;
    return it->second;
  }
  return Activate(node);
}

Result<uint32_t> MonolithicSupervisor::Activate(BNode* node) {
  CallTracker::Scope scope(&tracker_, m_seg_);
  cost_.Charge(CodeStyle::kOptimized, Costs::kProcedureCall * 4);
  // The parent directory must be active first, so the quota walk can follow
  // AST links — segment control's table is forced to mirror the hierarchy.
  uint32_t parent_ast = UINT32_MAX;
  if (node->parent != nullptr) {
    MKS_ASSIGN_OR_RETURN(parent_ast, EnsureActive(node->parent));
  }
  // Find a free slot, or evict the LRU entry that the hierarchy constraint
  // permits us to deactivate.
  uint32_t slot = UINT32_MAX;
  for (uint32_t i = 0; i < ast_.size(); ++i) {
    if (!ast_[i].in_use) {
      slot = i;
      break;
    }
  }
  if (slot == UINT32_MAX) {
    uint32_t victim = UINT32_MAX;
    for (uint32_t i = 0; i < ast_.size(); ++i) {
      const BAstEntry& e = ast_[i];
      if (e.connections != 0) {
        continue;
      }
      if (e.is_directory && e.active_inferiors != 0) {
        metrics_.Inc(id_deactivation_blocked_by_hierarchy_);
        continue;  // the constraint in action
      }
      if (victim == UINT32_MAX || e.lru_stamp < ast_[victim].lru_stamp) {
        victim = i;
      }
    }
    if (victim == UINT32_MAX) {
      return Status(Code::kResourceExhausted, "AST wedged by the hierarchy constraint");
    }
    MKS_RETURN_IF_ERROR(Deactivate(victim));
    slot = victim;
  }
  VtocEntry* entry = volumes_.pack(node->pack)->GetVtoc(node->vtoc);
  if (entry == nullptr) {
    return Status(Code::kInternal, "node without VTOC entry");
  }
  BAstEntry& ast = ast_[slot];
  ast.in_use = true;
  ast.uid = node->uid;
  ast.pack = node->pack;
  ast.vtoc = node->vtoc;
  ast.is_directory = node->is_directory;
  ast.parent_ast = parent_ast;
  ast.quota_directory = node->quota_directory;
  ast.quota_limit = node->quota_limit;
  ast.lru_stamp = ++lru_counter_;
  ast.page_table.ptws.assign(entry->max_length_pages, Ptw{});
  for (uint32_t p = 0; p < entry->max_length_pages; ++p) {
    const FileMapEntry& fm = entry->map_entry(p);
    Ptw& ptw = ast.page_table.ptws[p];
    ptw.unallocated = !(fm.allocated || fm.zero);
  }
  // Rebuild the cached quota count from the subtree's record usage is too
  // expensive; the count is persisted in the VTOC quota store.
  ast.quota_count = entry->quota.count;
  if (parent_ast != UINT32_MAX) {
    ++ast_[parent_ast].active_inferiors;
  }
  ast_by_uid_[node->uid] = slot;
  return slot;
}

Status MonolithicSupervisor::Deactivate(uint32_t slot) {
  CallTracker::Scope scope(&tracker_, m_seg_);
  BAstEntry& ast = ast_[slot];
  if (!ast.in_use) {
    return Status(Code::kInvalidArgument, "bad AST slot");
  }
  if (ast.is_directory && ast.active_inferiors != 0) {
    return Status(Code::kFailedPrecondition, "directory has active inferiors");
  }
  for (uint32_t p = 0; p < ast.page_table.ptws.size(); ++p) {
    if (ast.page_table.ptws[p].in_core) {
      MKS_RETURN_IF_ERROR(CleanAndRelease(FrameIndex(ast.page_table.ptws[p].frame)));
    }
  }
  VtocEntry* entry = volumes_.pack(ast.pack)->GetVtoc(ast.vtoc);
  if (entry != nullptr) {
    entry->quota.count = ast.quota_count;
  }
  if (ast.parent_ast != UINT32_MAX && ast_[ast.parent_ast].in_use) {
    --ast_[ast.parent_ast].active_inferiors;
  }
  ast_by_uid_.erase(ast.uid);
  ast = BAstEntry{};
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Page control: global lock, interpretive retranslation, the quota walk, and
// the full-pack path reaching all the way back into directory control.
// ---------------------------------------------------------------------------

void MonolithicSupervisor::AcquireGlobalLock() {
  // If the lock was last freed at a virtual time this CPU has not reached
  // yet, the CPU busy-waits the difference away — real cycles, charged.
  // Structurally zero with one CPU (local time is globally monotone).
  // The baseline has no profiler: the wait is one plain optimized charge.
  const Cycles spin_begin = trace_.Begin();
  global_tenure_.emplace(&global_lock_, LocalNow(), /*prof=*/nullptr, &cost_);
  if (global_tenure_->spin() > 0) {
    trace_.CloseSpan(spin_begin, ev_lock_spin_, current_cpu_, 0, hist_lock_spin_);
  }
  cost_.Charge(CodeStyle::kOptimized, kGlobalLockCost);
}

void MonolithicSupervisor::ReleaseGlobalLock() { global_tenure_.reset(); }

void MonolithicSupervisor::SwitchCpu(uint16_t cpu) {
  const Cycles elapsed = clock_.now() - cpu_epoch_;
  if (elapsed > 0) {
    interleave_.Accrue(current_cpu_, elapsed);
  }
  cpu_epoch_ = clock_.now();
  current_cpu_ = cpu;
  trace_.SetCpu(cpu);
}

Cycles MonolithicSupervisor::Makespan() {
  SwitchCpu(current_cpu_);  // fold in the tail of the running quantum
  return interleave_.Makespan();
}

void MonolithicSupervisor::AlignCpus() {
  SwitchCpu(current_cpu_);
  interleave_.AlignAll();
}

Result<FrameIndex> MonolithicSupervisor::AcquireFrame() {
  if (!free_list_.empty()) {
    FrameIndex f = free_list_.back();
    free_list_.pop_back();
    frames_[f.value].in_use = true;
    return f;
  }
  const uint32_t n = static_cast<uint32_t>(frames_.size());
  for (uint32_t step = 0; step < 2 * n; ++step) {
    const uint32_t slot = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    FrameInfo& fi = frames_[slot];
    if (!fi.in_use || fi.ast == UINT32_MAX) {
      continue;
    }
    Ptw& ptw = ast_[fi.ast].page_table.ptws[fi.page];
    if (ptw.used) {
      ptw.used = false;
      continue;
    }
    MKS_RETURN_IF_ERROR(CleanAndRelease(FrameIndex(slot)));
    FrameIndex f = free_list_.back();
    free_list_.pop_back();
    frames_[f.value].in_use = true;
    return f;
  }
  return Status(Code::kResourceExhausted, "no evictable frame");
}

Status MonolithicSupervisor::CleanAndRelease(FrameIndex frame) {
  FrameInfo& fi = frames_[frame.value];
  BAstEntry& ast = ast_[fi.ast];
  Ptw& ptw = ast.page_table.ptws[fi.page];
  VtocEntry* entry = volumes_.pack(ast.pack)->GetVtoc(ast.vtoc);
  if (entry == nullptr) {
    return Status(Code::kInternal, "resident page without VTOC entry");
  }
  FileMapEntry& fm = entry->mutable_map_entry(fi.page);
  if (ptw.modified) {
    const bool zero = memory_->FrameIsZero(frame);
    if (zero) {
      if (fm.allocated) {
        volumes_.pack(ast.pack)->FreeRecord(fm.record);
        fm.allocated = false;
      }
      fm.zero = true;
      // The quota walk AGAIN, to refund the page — page control reaching
      // upward through segment control's data one more time.
      auto quota_ast = FindQuotaAst(fi.ast);
      if (quota_ast.ok() && ast_[*quota_ast].quota_count > 0) {
        --ast_[*quota_ast].quota_count;
      }
      metrics_.Inc(id_zero_reclaims_);
    } else {
      assert(fm.allocated);
      fm.zero = false;
      volumes_.pack(ast.pack)->WriteRecord(
          fm.record, memory_->Snapshot(frame, volumes_.Home(ast.pack, fm.record)));
      metrics_.Inc(id_writebacks_);
    }
  }
  memory_->ZeroFrame(frame);  // drops the frame's reference to the image
  ptw.in_core = false;
  ptw.used = false;
  ptw.modified = false;
  fi = FrameInfo{};
  free_list_.push_back(frame);
  return Status::Ok();
}

Result<uint32_t> MonolithicSupervisor::FindQuotaAst(uint32_t ast) {
  // Page control following segment control's AST links upward along the
  // directory hierarchy — the dependency the new design eliminates.
  CallTracker::Scope scope(&tracker_, m_seg_);
  uint32_t current = ast;
  for (int hops = 0; hops < 64; ++hops) {
    cost_.Charge(CodeStyle::kOptimized, Costs::kProcedureCall);
    metrics_.Inc(id_quota_walk_hops_);
    if (ast_[current].quota_directory) {
      return current;
    }
    if (ast_[current].parent_ast == UINT32_MAX) {
      return current;  // the root is always a quota directory
    }
    current = ast_[current].parent_ast;
  }
  return Status(Code::kInternal, "quota walk did not terminate");
}

Status MonolithicSupervisor::GrowPage(uint32_t ast_index, uint32_t page) {
  CallTracker::Scope scope(&tracker_, m_page_);
  MKS_ASSIGN_OR_RETURN(uint32_t quota_ast, FindQuotaAst(ast_index));
  BAstEntry& quota_entry = ast_[quota_ast];
  if (quota_entry.quota_count + 1 > quota_entry.quota_limit) {
    return Status(Code::kQuotaOverflow, "quota");
  }
  BAstEntry& ast = ast_[ast_index];
  auto record = volumes_.pack(ast.pack)->AllocateRecord();
  if (record.code() == Code::kPackFull) {
    MKS_RETURN_IF_ERROR(HandleFullPack(ast_index, page));
    record = volumes_.pack(ast_[ast_index].pack)->AllocateRecord();
  }
  if (!record.ok()) {
    return record.status();
  }
  ++quota_entry.quota_count;
  VtocEntry* entry = volumes_.pack(ast.pack)->GetVtoc(ast.vtoc);
  FileMapEntry& fm = entry->mutable_map_entry(page);
  fm.allocated = true;
  fm.zero = false;
  fm.record = *record;
  MKS_ASSIGN_OR_RETURN(FrameIndex frame, AcquireFrame());
  frames_[frame.value] = FrameInfo{true, ast_index, page};
  memory_->ZeroFrame(frame);
  Ptw& ptw = ast.page_table.ptws[page];
  ptw.frame = frame.value;
  ptw.in_core = true;
  ptw.unallocated = false;
  ptw.used = true;
  return Status::Ok();
}

Status MonolithicSupervisor::HandleFullPack(uint32_t ast_index, uint32_t page) {
  // Page control invokes segment control, which reads address space
  // control's data base to find the directory entry — and then updates the
  // entry directly.  Three modules deep in each other's pockets.
  CallTracker::Scope seg_scope(&tracker_, m_seg_);
  metrics_.Inc(id_full_pack_moves_);
  (void)page;
  BAstEntry& ast = ast_[ast_index];
  // Flush resident pages home.
  for (uint32_t p = 0; p < ast.page_table.ptws.size(); ++p) {
    if (ast.page_table.ptws[p].in_core) {
      MKS_RETURN_IF_ERROR(CleanAndRelease(FrameIndex(ast.page_table.ptws[p].frame)));
    }
  }
  DiskPack* old_pack = volumes_.pack(ast.pack);
  VtocEntry* old_entry = old_pack->GetVtoc(ast.vtoc);
  const uint32_t needed = old_entry->RecordsUsed() + 1;
  MKS_ASSIGN_OR_RETURN(PackId new_pack_id, volumes_.ChoosePackExcluding(ast.pack, needed));
  DiskPack* new_pack = volumes_.pack(new_pack_id);
  MKS_ASSIGN_OR_RETURN(VtocIndex new_vtoc,
                       new_pack->AllocateVtoc(ast.uid, old_entry->is_directory));
  VtocEntry* new_entry = new_pack->GetVtoc(new_vtoc);
  new_entry->max_length_pages = old_entry->max_length_pages;
  new_entry->quota = old_entry->quota;
  for (uint32_t p = 0; p < old_entry->file_map.size(); ++p) {
    const FileMapEntry& old_fm = old_entry->file_map[p];
    FileMapEntry& new_fm = new_entry->mutable_map_entry(p);
    new_fm.zero = old_fm.zero;
    if (old_fm.allocated) {
      MKS_ASSIGN_OR_RETURN(RecordIndex rec, new_pack->AllocateRecord());
      new_pack->StoreRecord(rec, old_pack->Share(old_fm.record));
      cost_.Charge(CodeStyle::kOptimized, Costs::kDiskReadLatency + Costs::kDiskWriteLatency);
      new_fm.allocated = true;
      new_fm.record = rec;
    }
  }
  old_pack->FreeVtoc(ast.vtoc);
  ast.pack = new_pack_id;
  ast.vtoc = new_vtoc;
  {
    // Address space control consulted for the entry location, then the
    // directory entry rewritten in place, from DOWN here.
    CallTracker::Scope as_scope(&tracker_, m_as_);
    CallTracker::Scope dir_scope(&tracker_, m_dir_);
    BNode* node = FindNodeByUid(ast.uid);
    if (node == nullptr) {
      return Status(Code::kInternal, "moved segment has no tree node");
    }
    node->pack = new_pack_id;
    node->vtoc = new_vtoc;
  }
  return Status::Ok();
}

Status MonolithicSupervisor::HandleMissingPage(uint32_t ast_index, uint32_t page) {
  CallTracker::Scope scope(&tracker_, m_page_);
  Tracer::Span fault_span(&trace_, ev_fault_service_, ast_index, page,
                          hist_fault_service_);
  cost_.Charge(CodeStyle::kOptimized, Costs::kFaultEntry);
  metrics_.Inc(id_page_faults_);
  AcquireGlobalLock();
  // Interpretive retranslation: without a descriptor lock bit, page control
  // must re-walk segment control's and address space control's translation
  // tables to see whether the descriptor changed before the lock was won.
  {
    CallTracker::Scope seg_scope(&tracker_, m_seg_);
    CallTracker::Scope as_scope(&tracker_, m_as_);
    cost_.Charge(CodeStyle::kOptimized, kRetranslationCost);
    metrics_.Inc(id_retranslations_);
    if (rng_.NextBool(effective_conflict_rate_)) {
      // Another processor altered the tables; the descriptor is no longer
      // the one that faulted.  Drop the lock and let the reference retry.
      metrics_.Inc(id_retranslation_conflicts_);
      ReleaseGlobalLock();
      return Status::Ok();
    }
  }
  BAstEntry& ast = ast_[ast_index];
  Ptw& ptw = ast.page_table.ptws[page];
  if (ptw.in_core) {
    ReleaseGlobalLock();
    return Status::Ok();
  }
  Status result = Status::Ok();
  if (ptw.unallocated) {
    result = GrowPage(ast_index, page);
  } else {
    VtocEntry* entry = volumes_.pack(ast.pack)->GetVtoc(ast.vtoc);
    FileMapEntry& fm = entry->mutable_map_entry(page);
    auto frame = AcquireFrame();
    if (!frame.ok()) {
      result = frame.status();
    } else {
      frames_[frame->value] = FrameInfo{true, ast_index, page};
      if (fm.zero && !fm.allocated) {
        // Reading a zero page: allocate and charge, the confinement leak.
        memory_->ZeroFrame(*frame);
        auto quota_ast = FindQuotaAst(ast_index);
        if (quota_ast.ok()) {
          ++ast_[*quota_ast].quota_count;
        }
        auto rec = volumes_.pack(ast.pack)->AllocateRecord();
        if (rec.ok()) {
          fm.allocated = true;
          fm.record = *rec;
          fm.zero = false;
          ptw.modified = true;
        }
        metrics_.Inc(id_zero_page_reallocations_);
      } else {
        volumes_.ReadRecord(ast.pack, fm.record, memory_.get(), *frame);
      }
      ptw.frame = frame->value;
      ptw.in_core = true;
    }
  }
  ReleaseGlobalLock();
  // In the one-level design the faulting process gives the processor away —
  // page control calling process control.
  {
    CallTracker::Scope proc_scope(&tracker_, m_proc_);
    cost_.Charge(CodeStyle::kOptimized, Costs::kProcedureCall);
  }
  return result;
}

Status MonolithicSupervisor::ReferenceInternal(SegmentUid uid, uint32_t offset, AccessMode mode,
                                               Word* out, Word in, int depth) {
  if (depth > kMaxFaultDepth) {
    return Status(Code::kInternal, "fault recursion too deep");
  }
  BNode* node = FindNodeByUid(uid);
  if (node == nullptr) {
    return Status(Code::kNoAccess, "no access");
  }
  MKS_ASSIGN_OR_RETURN(uint32_t ast_index, EnsureActive(node));
  const uint32_t page = offset / kPageWords;
  if (page >= ast_[ast_index].page_table.ptws.size()) {
    return Status(Code::kOutOfBounds, "beyond maximum length");
  }
  for (int attempt = 0; attempt < kMaxFaultDepth; ++attempt) {
    cost_.Charge(CodeStyle::kOptimized, Costs::kAddressTranslation);
    // Re-look-up each attempt: the retranslation conflict path may have
    // changed nothing, or eviction may race us.
    Ptw& ptw = ast_[ast_index].page_table.ptws[page];
    if (ptw.in_core && !ptw.unallocated) {
      const uint64_t abs = static_cast<uint64_t>(ptw.frame) * kPageWords + offset % kPageWords;
      ptw.used = true;
      if (mode == AccessMode::kRead) {
        *out = memory_->ReadWord(abs);
      } else {
        memory_->WriteWord(abs, in);
        ptw.modified = true;
      }
      return Status::Ok();
    }
    MKS_RETURN_IF_ERROR(HandleMissingPage(ast_index, page));
  }
  return Status(Code::kInternal, "reference did not settle");
}

Result<Word> MonolithicSupervisor::Read(SegmentUid uid, uint32_t offset) {
  Word value = 0;
  MKS_RETURN_IF_ERROR(ReferenceInternal(uid, offset, AccessMode::kRead, &value, 0, 0));
  return value;
}

Status MonolithicSupervisor::Write(SegmentUid uid, uint32_t offset, Word value) {
  return ReferenceInternal(uid, offset, AccessMode::kWrite, nullptr, value, 0);
}

// ---------------------------------------------------------------------------
// Process control: one level, states in pageable segments.
// ---------------------------------------------------------------------------

Result<ProcessId> MonolithicSupervisor::CreateProcess() {
  CallTracker::Scope scope(&tracker_, m_proc_);
  const ProcessId pid(next_pid_++);
  // The state segment lives in the hierarchy like any other segment.
  MKS_ASSIGN_OR_RETURN(SegmentUid state,
                       CreatePath(">system>processes>p" + std::to_string(pid.value)));
  BProcess proc;
  proc.pid = pid;
  proc.state_segment = state;
  procs_.emplace(pid, std::move(proc));
  return pid;
}

Status MonolithicSupervisor::SetProgram(ProcessId pid, std::vector<BaselineOp> program) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no process");
  }
  it->second.program = std::move(program);
  it->second.pc = 0;
  it->second.done = false;
  return Status::Ok();
}

Status MonolithicSupervisor::TouchStateSegment(BProcess& proc, int depth) {
  // Process control depends on segment control to store process states; the
  // load itself may fault, which re-enters page control — the loop the
  // two-level design breaks.
  CallTracker::Scope scope(&tracker_, m_proc_);
  Word dummy = 0;
  Status st =
      ReferenceInternal(proc.state_segment, 0, AccessMode::kWrite, &dummy, proc.pc, depth);
  if (st.ok()) {
    metrics_.Inc(id_state_loads_);
  }
  return st;
}

Status MonolithicSupervisor::RunUntilQuiescent(uint64_t max_passes) {
  constexpr uint32_t kQuantum = 16;
  for (uint64_t pass = 0; pass < max_passes; ++pass) {
    bool all_done = true;
    bool progressed = false;
    for (auto& [pid, proc] : procs_) {
      if (proc.done) {
        continue;
      }
      all_done = false;
      // This quantum runs on the CPU whose local clock is furthest behind —
      // the same deterministic interleaving the kernel scheduler uses.
      SwitchCpu(interleave_.NextCpu());
      {
        CallTracker::Scope scope(&tracker_, m_proc_);
        cost_.Charge(CodeStyle::kOptimized, Costs::kProcessSwitch);
      }
      MKS_RETURN_IF_ERROR(TouchStateSegment(proc, 1));
      for (uint32_t n = 0; n < kQuantum && proc.pc < proc.program.size(); ++n) {
        const BaselineOp& op = proc.program[proc.pc];
        Status st = Status::Ok();
        switch (op.kind) {
          case BaselineOp::Kind::kRead: {
            Word v = 0;
            st = ReferenceInternal(op.uid, op.offset, AccessMode::kRead, &v, 0, 0);
            break;
          }
          case BaselineOp::Kind::kWrite:
            st = ReferenceInternal(op.uid, op.offset, AccessMode::kWrite, nullptr, op.value, 0);
            break;
          case BaselineOp::Kind::kCompute:
            cost_.Charge(CodeStyle::kOptimized, op.compute);
            break;
        }
        if (!st.ok()) {
          proc.done = true;
          break;
        }
        ++proc.pc;
        progressed = true;
      }
      if (proc.pc >= proc.program.size()) {
        proc.done = true;
      }
    }
    if (all_done) {
      return Status::Ok();
    }
    if (!progressed) {
      return Status(Code::kFailedPrecondition, "no progress");
    }
  }
  return Status(Code::kResourceExhausted, "pass budget exhausted");
}

// ---------------------------------------------------------------------------
// In-kernel services later extracted by the redesign projects.
// ---------------------------------------------------------------------------

Result<SegmentUid> MonolithicSupervisor::LinkSnap(ProcessId pid, const std::string& symbol,
                                                  const std::string& target_path) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no process");
  }
  auto linked = it->second.linkage.find(symbol);
  if (linked != it->second.linkage.end()) {
    cost_.Charge(CodeStyle::kOptimized, Costs::kProcedureCall);  // snapped: fast path
    return linked->second;
  }
  // First reference: the whole search happens inside the supervisor.
  cost_.Charge(CodeStyle::kOptimized, Costs::kFaultEntry);  // linkage fault
  MKS_ASSIGN_OR_RETURN(SegmentUid uid, FileFound(target_path));
  it->second.linkage[symbol] = uid;
  metrics_.Inc(id_links_snapped_);
  return uid;
}

Status MonolithicSupervisor::NameBind(ProcessId pid, const std::string& name, SegmentUid uid) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no process");
  }
  cost_.Charge(CodeStyle::kOptimized, Costs::kGateCall + Costs::kProcedureCall * 2);
  it->second.names[name] = uid;
  return Status::Ok();
}

Result<SegmentUid> MonolithicSupervisor::NameLookup(ProcessId pid, const std::string& name) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no process");
  }
  // In-kernel lookup: a gate crossing plus a search of a kernel-resident
  // table grown large with every process's names.
  cost_.Charge(CodeStyle::kOptimized, Costs::kGateCall + Costs::kProcedureCall * 3);
  auto name_it = it->second.names.find(name);
  if (name_it == it->second.names.end()) {
    return Status(Code::kNotFound, name);
  }
  return name_it->second;
}

// ---------------------------------------------------------------------------
// The figures.
// ---------------------------------------------------------------------------

DependencyGraph MonolithicSupervisor::SuperficialStructure() {
  DependencyGraph g;
  g.AddModule(kDiskControl);
  g.AddModule(kDirectoryControl);
  g.AddModule(kAddressSpaceControl);
  g.AddModule(kSegmentControl);
  g.AddModule(kPageControl);
  g.AddModule(kProcessControl);
  // The almost-linear view.
  g.AddEdge(kDirectoryControl, kSegmentControl, DepKind::kComponent);
  g.AddEdge(kDirectoryControl, kDiskControl, DepKind::kMap);
  g.AddEdge(kAddressSpaceControl, kSegmentControl, DepKind::kComponent);
  g.AddEdge(kSegmentControl, kPageControl, DepKind::kComponent);
  g.AddEdge(kSegmentControl, kDiskControl, DepKind::kMap);
  g.AddEdge(kPageControl, kDiskControl, DepKind::kComponent);
  // The one obvious loop: page control gives the processor away on a fault;
  // process control stores inactive states in segments.
  g.AddEdge(kPageControl, kProcessControl, DepKind::kInterpreter);
  g.AddEdge(kProcessControl, kSegmentControl, DepKind::kComponent);
  return g;
}

DependencyGraph MonolithicSupervisor::ActualStructure() {
  DependencyGraph g = SuperficialStructure();
  // Maps, programs, and address spaces stored above their users.
  g.AddEdge(kPageControl, kSegmentControl, DepKind::kProgram);  // page control code in segments
  g.AddEdge(kPageControl, kAddressSpaceControl, DepKind::kAddressSpace);
  g.AddEdge(kSegmentControl, kAddressSpaceControl, DepKind::kMap);
  // The subtle exception-path loops the paper dissects:
  // (a) interpretive retranslation reads the translation tables.
  g.AddEdge(kPageControl, kSegmentControl, DepKind::kMap);
  g.AddEdge(kPageControl, kAddressSpaceControl, DepKind::kMap);
  // (b) the quota walk follows AST links shaped by the hierarchy.
  g.AddEdge(kPageControl, kSegmentControl, DepKind::kComponent);
  g.AddEdge(kSegmentControl, kDirectoryControl, DepKind::kMap);
  // (c) the full-pack path updates the directory entry from below.
  g.AddEdge(kSegmentControl, kDirectoryControl, DepKind::kComponent);
  return g;
}

}  // namespace mks
