#include "src/kernel/directory.h"

#include "src/common/hash.h"

namespace mks {

DirectoryManager::DirectoryManager(KernelContext* ctx, QuotaCellManager* quota,
                                   SegmentManager* segs, AddressSpaceManager* spaces)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kDirectory)),
      quota_(quota),
      segs_(segs),
      spaces_(spaces),
      id_searches_(ctx->metrics.Intern("dir.searches")),
      id_moves_completed_(ctx->metrics.Intern("dir.moves_completed")) {
  rmi_.Init(ctx, "dir", ProfDomain::kDirectoryRead, ProfDomain::kDirectoryWrite);
}

SegmentUid DirectoryManager::NewUid() {
  // Unique identifiers are unguessable values drawn from a keyed hash so
  // that real and mythical identifiers share a distribution.
  SegmentUid uid(Fnv1a64Mix(ctx_->secret ^ 0x9e3779b97f4a7c15ULL, uid_counter_++));
  while (uid.value == 0 || dirs_.count(uid) != 0 || parent_of_.count(uid) != 0) {
    uid = SegmentUid(Fnv1a64Mix(ctx_->secret ^ 0x9e3779b97f4a7c15ULL, uid_counter_++));
  }
  return uid;
}

EntryId DirectoryManager::MythicalId(EntryId dir, std::string_view name) const {
  uint64_t h = Fnv1a64Mix(ctx_->secret, dir.value);
  h = Fnv1a64(name, h);
  return EntryId(h == 0 ? 1 : h);
}

DirectoryManager::DirectoryRec* DirectoryManager::FindDir(EntryId id) {
  auto it = dirs_.find(SegmentUid(id.value));
  return it == dirs_.end() ? nullptr : &it->second;
}

bool DirectoryManager::CanObserveDir(const Subject& subject, const DirectoryRec& dir) const {
  if (!dir.acl.ModesFor(subject.principal).read) {
    return false;
  }
  return subject.label.Dominates(dir.label);
}

Status DirectoryManager::CheckModifyDir(const Subject& subject, DirectoryRec& dir,
                                        const std::string& op) {
  return ctx_->monitor.CheckAccess(subject, dir.acl, dir.label, FlowDirection::kModify,
                                   /*need_read=*/false, /*need_write=*/true,
                                   /*need_execute=*/false, op, ">" + dir.name);
}

Status DirectoryManager::InitRoot(Label label, Acl acl, uint64_t quota_limit) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  if (root_.value != 0) {
    return Status(Code::kAlreadyExists, "root exists");
  }
  MKS_ASSIGN_OR_RETURN(PackId pack, ctx_->volumes.ChoosePack());
  const SegmentUid uid = NewUid();
  MKS_ASSIGN_OR_RETURN(VtocIndex vtoc,
                       ctx_->volumes.pack(pack)->AllocateVtoc(uid, /*is_directory=*/true));
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, quota_->CreateCell(pack, vtoc, quota_limit));

  DirectoryRec root;
  root.uid = uid;
  root.parent = uid;
  root.name = "";
  root.pack = pack;
  root.vtoc = vtoc;
  root.acl = std::move(acl);
  root.label = label;
  root.quota_designated = true;
  root.governing_dir = uid;
  root_ = uid;
  dirs_.emplace(uid, std::move(root));

  // The root's first backing page, charged to its own cell.
  MKS_ASSIGN_OR_RETURN(uint32_t ast, segs_->EnsureActive(uid, pack, vtoc, cell));
  MKS_RETURN_IF_ERROR(segs_->GrowSegment(ast, 0));
  return Status::Ok();
}

Result<EntryId> DirectoryManager::Search(const Subject& subject, EntryId dir_id,
                                         std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  ctx_->metrics.Inc(id_searches_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    // Nonexistent or mythical directory: always "find" the name.
    return MythicalId(dir_id, name);
  }
  const bool observable = CanObserveDir(subject, *dir);
  auto it = dir->entries.find(std::string(name));
  if (observable) {
    ctx_->monitor.Audit(subject, "search", dir->name + ">" + std::string(name), Code::kOk);
    if (it == dir->entries.end()) {
      return Status(Code::kNoEntry, std::string(name));
    }
    return EntryId(it->second.uid.value);
  }
  // Inaccessible directory: if the name exists, return the REAL identifier so
  // a path through it can still reach an accessible object; otherwise return
  // a mythical identifier.  The requester cannot tell which happened.
  ctx_->monitor.Audit(subject, "search(opaque)", std::string(name), Code::kOk);
  if (it != dir->entries.end()) {
    return EntryId(it->second.uid.value);
  }
  return MythicalId(dir_id, name);
}

Result<QuotaCellId> DirectoryManager::GoverningCell(const DirectoryRec& dir) {
  auto it = dirs_.find(dir.governing_dir);
  if (it == dirs_.end()) {
    return Status(Code::kInternal, "governing quota directory vanished");
  }
  return quota_->LoadCell(it->second.pack, it->second.vtoc);
}

Status DirectoryManager::AccountDirectoryGrowth(DirectoryRec& dir) {
  const uint32_t needed =
      1 + static_cast<uint32_t>(dir.entries.size()) / static_cast<uint32_t>(kEntriesPerPage);
  if (needed <= dir.pages) {
    return Status::Ok();
  }
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, GoverningCell(dir));
  MKS_ASSIGN_OR_RETURN(uint32_t ast, segs_->EnsureActive(dir.uid, dir.pack, dir.vtoc, cell));
  for (uint32_t p = dir.pages; p < needed; ++p) {
    MKS_RETURN_IF_ERROR(segs_->GrowSegment(ast, p));
  }
  dir.pages = needed;
  return Status::Ok();
}

Status DirectoryManager::CreateEntryCommon(const Subject& subject, EntryId dir_id,
                                           std::string name, Acl acl, Label label,
                                           bool is_directory, DirEntryRec** out,
                                           DirectoryRec** parent_out) {
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "create in unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "create \"" + name + "\""));
  if (!label.Dominates(dir->label)) {
    return Status(Code::kInvalidArgument, "entry label must dominate directory label");
  }
  if (!label.Dominates(subject.label)) {
    return Status(Code::kNoAccess, "*-property: new object must dominate creator");
  }
  if (dir->entries.count(name) != 0) {
    return Status(Code::kNameDuplication, name);
  }
  MKS_ASSIGN_OR_RETURN(PackId pack, ctx_->volumes.ChoosePack());
  const SegmentUid uid = NewUid();
  MKS_ASSIGN_OR_RETURN(VtocIndex vtoc, ctx_->volumes.pack(pack)->AllocateVtoc(uid, is_directory));

  DirEntryRec entry;
  entry.name = name;
  entry.uid = uid;
  entry.is_directory = is_directory;
  entry.pack = pack;
  entry.vtoc = vtoc;
  entry.acl = std::move(acl);
  entry.label = label;
  auto [it, inserted] = dir->entries.emplace(std::move(name), std::move(entry));
  parent_of_[uid] = dir->uid;
  Status grown = AccountDirectoryGrowth(*dir);
  if (!grown.ok()) {
    ctx_->volumes.pack(pack)->FreeVtoc(vtoc);
    parent_of_.erase(uid);
    dir->entries.erase(it);
    return grown;
  }
  *out = &it->second;
  *parent_out = dir;
  return Status::Ok();
}

Result<EntryId> DirectoryManager::CreateSegmentEntry(const Subject& subject, EntryId dir,
                                                     std::string name, Acl acl, Label label) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirEntryRec* entry = nullptr;
  DirectoryRec* parent = nullptr;
  MKS_RETURN_IF_ERROR(CreateEntryCommon(subject, dir, std::move(name), std::move(acl), label,
                                        /*is_directory=*/false, &entry, &parent));
  return EntryId(entry->uid.value);
}

Result<EntryId> DirectoryManager::CreateDirectoryEntry(const Subject& subject, EntryId dir,
                                                       std::string name, Acl acl, Label label) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirEntryRec* entry = nullptr;
  DirectoryRec* parent = nullptr;
  MKS_RETURN_IF_ERROR(CreateEntryCommon(subject, dir, std::move(name), std::move(acl), label,
                                        /*is_directory=*/true, &entry, &parent));
  DirectoryRec rec;
  rec.uid = entry->uid;
  rec.parent = parent->uid;
  rec.name = entry->name;
  rec.pack = entry->pack;
  rec.vtoc = entry->vtoc;
  rec.acl = entry->acl;
  rec.label = entry->label;
  rec.quota_designated = false;
  rec.governing_dir = parent->quota_designated ? parent->uid : parent->governing_dir;
  const SegmentUid uid = rec.uid;
  dirs_.emplace(uid, std::move(rec));

  // The new directory's first backing page.
  DirectoryRec& stored = dirs_.at(uid);
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, GoverningCell(stored));
  MKS_ASSIGN_OR_RETURN(uint32_t ast,
                       segs_->EnsureActive(stored.uid, stored.pack, stored.vtoc, cell));
  MKS_RETURN_IF_ERROR(segs_->GrowSegment(ast, 0));
  return EntryId(uid.value);
}

Status DirectoryManager::DeleteEntry(const Subject& subject, EntryId dir_id,
                                     std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "delete in unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "delete \"" + std::string(name) + "\""));
  auto it = dir->entries.find(std::string(name));
  if (it == dir->entries.end()) {
    return Status(Code::kNoEntry, std::string(name));
  }
  DirEntryRec& entry = it->second;
  if (entry.is_directory) {
    auto child_it = dirs_.find(entry.uid);
    if (child_it == dirs_.end()) {
      return Status(Code::kInternal, "directory entry without directory record");
    }
    if (!child_it->second.entries.empty()) {
      return Status(Code::kNonEmpty, std::string(name));
    }
    if (child_it->second.quota_designated) {
      MKS_RETURN_IF_ERROR(RemoveQuota(subject, EntryId(entry.uid.value)));
    }
    dirs_.erase(child_it);
  }
  // Sever every use, deactivate, refund the storage, release the VTOC entry.
  spaces_->DisconnectEverywhere(entry.uid);
  const uint32_t ast = segs_->FindIndex(entry.uid);
  if (ast != kNoAst) {
    MKS_RETURN_IF_ERROR(segs_->Deactivate(ast));
  }
  VtocEntry* vtoc_entry = ctx_->volumes.pack(entry.pack)->GetVtoc(entry.vtoc);
  if (vtoc_entry != nullptr) {
    const uint32_t records = vtoc_entry->RecordsUsed();
    if (records > 0) {
      MKS_ASSIGN_OR_RETURN(QuotaCellId cell, GoverningCell(*dir));
      (void)quota_->Refund(cell, records);
    }
    ctx_->volumes.pack(entry.pack)->FreeVtoc(entry.vtoc);
  }
  parent_of_.erase(entry.uid);
  dir->entries.erase(it);
  return Status::Ok();
}

Status DirectoryManager::RenameEntry(const Subject& subject, EntryId dir_id,
                                     std::string_view old_name, std::string new_name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "rename in unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "rename \"" + std::string(old_name) + "\""));
  if (new_name.empty()) {
    return Status(Code::kInvalidArgument, "empty name");
  }
  auto it = dir->entries.find(std::string(old_name));
  if (it == dir->entries.end()) {
    return Status(Code::kNoEntry, std::string(old_name));
  }
  if (dir->entries.count(new_name) != 0) {
    return Status(Code::kNameDuplication, new_name);
  }
  DirEntryRec entry = std::move(it->second);
  dir->entries.erase(it);
  entry.name = new_name;
  if (entry.is_directory) {
    auto child = dirs_.find(entry.uid);
    if (child != dirs_.end()) {
      child->second.name = new_name;
    }
  }
  dir->entries.emplace(std::move(new_name), std::move(entry));
  return Status::Ok();
}

Status DirectoryManager::SetAcl(const Subject& subject, EntryId dir_id, std::string_view name,
                                Acl acl) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "setacl in unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "setacl \"" + std::string(name) + "\""));
  auto it = dir->entries.find(std::string(name));
  if (it == dir->entries.end()) {
    return Status(Code::kNoEntry, std::string(name));
  }
  it->second.acl = std::move(acl);
  if (it->second.is_directory) {
    auto child = dirs_.find(it->second.uid);
    if (child != dirs_.end()) {
      child->second.acl = it->second.acl;
    }
  }
  return Status::Ok();
}

Status DirectoryManager::ListNames(const Subject& subject, EntryId dir_id,
                                   std::vector<std::string>* out) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr || !CanObserveDir(subject, *dir)) {
    ctx_->monitor.Audit(subject, "list", "?", Code::kNoAccess);
    return Status(Code::kNoAccess, "list");
  }
  ctx_->monitor.Audit(subject, "list", ">" + dir->name, Code::kOk);
  out->clear();
  for (const auto& [name, entry] : dir->entries) {
    out->push_back(name);
  }
  return Status::Ok();
}

Status DirectoryManager::SetQuota(const Subject& subject, EntryId dir_id, uint64_t limit) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "setquota on unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "setquota"));
  if (dir->quota_designated) {
    MKS_ASSIGN_OR_RETURN(QuotaCellId cell, quota_->LoadCell(dir->pack, dir->vtoc));
    return quota_->SetLimit(cell, limit);
  }
  // The semantics change: designation only while childless, making the
  // segment-to-quota-cell binding static.
  if (!dir->entries.empty()) {
    return Status(Code::kNonEmpty, "quota designation requires a childless directory");
  }
  // Move the directory's own backing pages from the old governing cell to
  // the new cell.
  MKS_ASSIGN_OR_RETURN(QuotaCellId old_cell, GoverningCell(*dir));
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, quota_->CreateCell(dir->pack, dir->vtoc, limit));
  MKS_RETURN_IF_ERROR(quota_->Charge(cell, dir->pages));
  (void)quota_->Refund(old_cell, dir->pages);
  dir->quota_designated = true;
  dir->governing_dir = dir->uid;
  // If the directory's backing segment is active, its AST entry still names
  // the OLD governing cell; growth through the stale binding would charge
  // the wrong books.  Designation is childless-only, so the directory's own
  // backing is the only active binding to re-home.
  const uint32_t ast = segs_->FindIndex(dir->uid);
  if (ast != kNoAst) {
    segs_->Get(ast)->quota_cell = cell;
  }
  return Status::Ok();
}

Status DirectoryManager::RemoveQuota(const Subject& subject, EntryId dir_id) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr) {
    return Status(Code::kNoAccess, "removequota on unresolvable directory");
  }
  MKS_RETURN_IF_ERROR(CheckModifyDir(subject, *dir, "removequota"));
  if (!dir->quota_designated) {
    return Status(Code::kFailedPrecondition, "not a quota directory");
  }
  if (dir->uid == root_) {
    return Status(Code::kInvalidArgument, "the root quota cell is permanent");
  }
  if (!dir->entries.empty()) {
    return Status(Code::kNonEmpty, "quota removal requires a childless directory");
  }
  // Hand the backing-page charge back to the parent's governing cell.
  auto parent = dirs_.find(dir->parent);
  if (parent == dirs_.end()) {
    return Status(Code::kInternal, "orphan directory");
  }
  MKS_ASSIGN_OR_RETURN(QuotaCellId parent_cell, GoverningCell(parent->second));
  MKS_RETURN_IF_ERROR(quota_->Charge(parent_cell, dir->pages));
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, quota_->LoadCell(dir->pack, dir->vtoc));
  (void)quota_->Refund(cell, dir->pages);
  MKS_RETURN_IF_ERROR(quota_->DestroyCell(cell));
  dir->quota_designated = false;
  dir->governing_dir =
      parent->second.quota_designated ? parent->second.uid : parent->second.governing_dir;
  // Re-home the active binding onto the inherited governing cell.
  const uint32_t ast = segs_->FindIndex(dir->uid);
  if (ast != kNoAst) {
    segs_->Get(ast)->quota_cell = parent_cell;
  }
  return Status::Ok();
}

Result<QuotaStatus> DirectoryManager::GetQuota(const Subject& subject, EntryId dir_id) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  DirectoryRec* dir = FindDir(dir_id);
  if (dir == nullptr || !CanObserveDir(subject, *dir)) {
    return Status(Code::kNoAccess, "getquota");
  }
  QuotaStatus status;
  status.designated = dir->quota_designated;
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell, GoverningCell(*dir));
  MKS_ASSIGN_OR_RETURN(QuotaCellInfo info, quota_->Info(cell));
  status.limit = info.limit;
  status.count = info.count;
  return status;
}

Result<EntryInfo> DirectoryManager::ResolveForInitiate(const Subject& subject, EntryId target) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  const SegmentUid uid(target.value);
  auto parent_it = parent_of_.find(uid);
  if (parent_it == parent_of_.end()) {
    // Mythical, stale, or the root itself: "no access", indistinguishable
    // from a real object the subject cannot touch.
    ctx_->monitor.Audit(subject, "initiate", "?", Code::kNoAccess);
    return Status(Code::kNoAccess, "initiate");
  }
  auto dir_it = dirs_.find(parent_it->second);
  if (dir_it == dirs_.end()) {
    return Status(Code::kInternal, "entry with no containing directory");
  }
  const DirEntryRec* entry = nullptr;
  for (const auto& [name, rec] : dir_it->second.entries) {
    if (rec.uid == uid) {
      entry = &rec;
      break;
    }
  }
  if (entry == nullptr) {
    return Status(Code::kInternal, "parent index out of step with directory");
  }
  // Effective modes: the ACL masked by the mandatory properties.  Access is
  // determined entirely by the object's own ACL and label.
  AccessModes modes = entry->acl.ModesFor(subject.principal);
  if (!subject.label.Dominates(entry->label)) {
    modes.read = false;
    modes.execute = false;
  }
  if (!entry->label.Dominates(subject.label)) {
    modes.write = false;
  }
  if (!modes.any()) {
    ctx_->monitor.Audit(subject, "initiate", entry->name, Code::kNoAccess);
    return Status(Code::kNoAccess, "initiate " + entry->name);
  }
  ctx_->monitor.Audit(subject, "initiate", entry->name, Code::kOk);

  // The static quota binding handed downward at initiation.
  const DirectoryRec& dir = dir_it->second;
  const SegmentUid governing = dir.quota_designated ? dir.uid : dir.governing_dir;
  auto gov_it = dirs_.find(governing);
  if (gov_it == dirs_.end()) {
    return Status(Code::kInternal, "governing quota directory vanished");
  }
  MKS_ASSIGN_OR_RETURN(QuotaCellId cell,
                       quota_->LoadCell(gov_it->second.pack, gov_it->second.vtoc));

  EntryInfo info;
  info.home = SegmentHome{entry->uid, entry->pack, entry->vtoc, cell, entry->is_directory};
  info.modes = modes;
  info.label = entry->label;
  return info;
}

void DirectoryManager::AuditQuotaIntegrity(std::vector<std::string>* findings) {
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kRead, rmi_);
  // Recompute, from the packs' tables of contents, the records actually used
  // by every object each quota cell governs, and compare with the cached
  // counts.  Storage charged but not used (or used but not charged) is
  // exactly the kind of books-out-of-balance defect an auditor hunts.
  std::unordered_map<SegmentUid, uint64_t> expected;  // quota dir uid -> records
  auto governing_of = [&](const DirectoryRec& dir) {
    return dir.quota_designated ? dir.uid : dir.governing_dir;
  };
  for (const auto& [uid, dir] : dirs_) {
    // The directory's own backing storage.
    const VtocEntry* self_entry = ctx_->volumes.pack(dir.pack)->GetVtoc(dir.vtoc);
    if (self_entry != nullptr) {
      expected[governing_of(dir)] += self_entry->RecordsUsed();
    } else {
      findings->push_back("directory " + dir.name + " lost its VTOC entry");
    }
    // Its non-directory entries (child directories account for themselves).
    for (const auto& [name, rec] : dir.entries) {
      if (rec.is_directory) {
        continue;
      }
      const VtocEntry* entry = ctx_->volumes.pack(rec.pack)->GetVtoc(rec.vtoc);
      if (entry == nullptr) {
        findings->push_back("entry " + name + " lost its VTOC entry");
        continue;
      }
      expected[governing_of(dir)] += entry->RecordsUsed();
    }
  }
  for (const auto& [quota_dir_uid, records] : expected) {
    auto it = dirs_.find(quota_dir_uid);
    if (it == dirs_.end()) {
      findings->push_back("governing quota directory vanished");
      continue;
    }
    auto cell = quota_->LoadCell(it->second.pack, it->second.vtoc);
    if (!cell.ok()) {
      findings->push_back("quota cell for >" + it->second.name + " unloadable: " +
                          cell.status().ToString());
      continue;
    }
    auto info = quota_->Info(*cell);
    if (info.ok() && info->count != records) {
      findings->push_back("quota cell for >" + it->second.name + ": count " +
                          std::to_string(info->count) + " but records used " +
                          std::to_string(records));
    }
  }
}

Status DirectoryManager::CompleteSegmentMove(SegmentUid uid, PackId new_pack,
                                             VtocIndex new_vtoc) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  SharedSection section(&rml_, ctx_, SharedSection::Kind::kWrite, rmi_);
  auto parent_it = parent_of_.find(uid);
  if (parent_it == parent_of_.end()) {
    return Status(Code::kNotFound, "moved segment has no directory entry");
  }
  auto dir_it = dirs_.find(parent_it->second);
  if (dir_it == dirs_.end()) {
    return Status(Code::kInternal, "entry with no containing directory");
  }
  for (auto& [name, rec] : dir_it->second.entries) {
    if (rec.uid == uid) {
      rec.pack = new_pack;
      rec.vtoc = new_vtoc;
      ctx_->metrics.Inc(id_moves_completed_);
      return Status::Ok();
    }
  }
  return Status(Code::kInternal, "parent index out of step with directory");
}

}  // namespace mks
