// The directory manager: the naming hierarchy, ACLs, quota designation, and
// the protection/naming interaction the paper analyzes.
//
// Key behaviours reproduced from the paper:
//
//  * Access to an object is determined entirely by that object's ACL; the
//    kernel provides only a SINGLE-directory search primitive, and tree-name
//    expansion lives outside the kernel (src/fs/path_walker).  To keep an
//    inaccessible intermediate directory from leaking name information, the
//    primitive uses Bratt's scheme [Bratt, 1975]: a search of an inaccessible
//    (or nonexistent, or mythical) directory ALWAYS returns a matching
//    identifier.  If the path ultimately reaches an accessible object every
//    returned identifier was real; otherwise the requester cannot decide
//    whether the identifiers were real or mythical.
//
//  * Quota directories are explicit: designation and un-designation are
//    permitted only while the directory has no children (the slight
//    semantics change), which makes each segment's governing quota cell a
//    static name handed to the layers below at initiation.
//
//  * The full-pack upward signal terminates here: CompleteSegmentMove
//    rewrites the directory entry with the segment's new home.  It is invoked
//    by the gate layer's trampoline with no kernel activation records
//    pending below this manager.
//
// Directory representations are stored in segments (each directory owns a
// backing VTOC entry and grows real pages as entries accumulate) — the
// paper's example of a component dependency of directory control on segment
// control.
#ifndef MKS_KERNEL_DIRECTORY_H_
#define MKS_KERNEL_DIRECTORY_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/known_segment.h"

namespace mks {

struct DirEntryRec {
  std::string name;
  SegmentUid uid{};
  bool is_directory = false;
  PackId pack{};
  VtocIndex vtoc{};
  Acl acl;
  Label label;
};

struct QuotaStatus {
  bool designated = false;
  uint64_t limit = 0;
  uint64_t count = 0;
};

// What the gate layer needs to initiate a segment for a process.
struct EntryInfo {
  SegmentHome home;
  AccessModes modes;  // effective modes: ACL masked by the AIM properties
  Label label;
};

// Read/write classification of the directory surface (the read-mostly
// refactor):
//
//   reads  — Search, ListNames, GetQuota, ResolveForInitiate,
//            AuditQuotaIntegrity: walks and status observations.
//   writes — InitRoot, CreateSegmentEntry, CreateDirectoryEntry, DeleteEntry,
//            RenameEntry, SetAcl, SetQuota, RemoveQuota, CompleteSegmentMove:
//            they mutate entries, ACLs, or the quota designation.
//
// Each public entry point runs inside a SharedSection over the hierarchy's
// SimSharedLock; with ReadPolicy::kOff (the default) the sections are inert
// and the manager is byte-identical to its pre-lock behaviour.
// IsRealDirectory stays an unlocked snapshot read (a single map probe).
class DirectoryManager {
 public:
  static constexpr int kEntriesPerPage = 16;

  DirectoryManager(KernelContext* ctx, QuotaCellManager* quota, SegmentManager* segs,
                   AddressSpaceManager* spaces);

  // Selects the read-mostly policy for the hierarchy lock (called by Kernel).
  void ConfigureReadMostly(const SharedLockConfig& config) { rml_.Configure(config); }
  const SimSharedLock& naming_lock() const { return rml_; }

  // Creates the root directory (">") with the given quota limit; the root is
  // always a quota directory.
  Status InitRoot(Label label, Acl acl, uint64_t quota_limit);
  EntryId RootId() const { return EntryId(root_.value); }

  // --- the kernel search primitive (Bratt semantics) ---
  // Returns kNoEntry ONLY when the caller has status permission on a real
  // directory; every other combination yields an identifier.
  Result<EntryId> Search(const Subject& subject, EntryId dir, std::string_view name);

  // --- entry creation / deletion ---
  Result<EntryId> CreateSegmentEntry(const Subject& subject, EntryId dir, std::string name,
                                     Acl acl, Label label);
  Result<EntryId> CreateDirectoryEntry(const Subject& subject, EntryId dir, std::string name,
                                       Acl acl, Label label);
  Status DeleteEntry(const Subject& subject, EntryId dir, std::string_view name);
  // Renames an entry within its directory (a modify of the directory only;
  // the object, its ACL, and its unique identifier are untouched).
  Status RenameEntry(const Subject& subject, EntryId dir, std::string_view old_name,
                     std::string new_name);

  // --- attribute operations ---
  Status SetAcl(const Subject& subject, EntryId dir, std::string_view name, Acl acl);
  Status ListNames(const Subject& subject, EntryId dir, std::vector<std::string>* out);

  // --- quota (the childless rule) ---
  Status SetQuota(const Subject& subject, EntryId dir, uint64_t limit);
  Status RemoveQuota(const Subject& subject, EntryId dir);
  Result<QuotaStatus> GetQuota(const Subject& subject, EntryId dir);

  // --- support for initiation ---
  // Resolves an identifier (as returned by Search) to the data needed to
  // initiate it.  kNoAccess for mythical identifiers and for objects whose
  // ACL/label grant the subject nothing — indistinguishably.
  Result<EntryInfo> ResolveForInitiate(const Subject& subject, EntryId target);

  // --- the upward signal terminal ---
  Status CompleteSegmentMove(SegmentUid uid, PackId new_pack, VtocIndex new_vtoc);

  bool IsRealDirectory(EntryId id) const { return dirs_.count(SegmentUid(id.value)) != 0; }

  // Integrity audit of the resource-control books: for every quota cell,
  // the cached count must equal the disk records actually used by the
  // objects the cell governs (entries' segments plus governed directories'
  // own backing storage).
  void AuditQuotaIntegrity(std::vector<std::string>* findings);

 private:
  struct DirectoryRec {
    SegmentUid uid{};
    SegmentUid parent{};  // root: itself
    std::string name;
    PackId pack{};
    VtocIndex vtoc{};
    Acl acl;
    Label label;
    bool quota_designated = false;
    SegmentUid governing_dir{};  // nearest superior quota directory (static)
    std::map<std::string, DirEntryRec> entries;
    uint32_t pages = 1;  // backing segment length
  };

  SegmentUid NewUid();
  EntryId MythicalId(EntryId dir, std::string_view name) const;
  DirectoryRec* FindDir(EntryId id);
  // Status (observe) permission on a directory: ACL read + simple security.
  bool CanObserveDir(const Subject& subject, const DirectoryRec& dir) const;
  // Modify permission: ACL write + the *-property.
  Status CheckModifyDir(const Subject& subject, DirectoryRec& dir, const std::string& op);
  // The governing quota cell of `dir`, loaded into the cache.
  Result<QuotaCellId> GoverningCell(const DirectoryRec& dir);
  // Grows the directory's backing segment when the entry count crosses a
  // page boundary; charges the governing cell.
  Status AccountDirectoryGrowth(DirectoryRec& dir);
  Status CreateEntryCommon(const Subject& subject, EntryId dir_id, std::string name, Acl acl,
                           Label label, bool is_directory, DirEntryRec** out,
                           DirectoryRec** parent_out);

  KernelContext* ctx_;
  ModuleId self_;
  QuotaCellManager* quota_;
  SegmentManager* segs_;
  AddressSpaceManager* spaces_;
  // The hierarchy lock and its instruments; mutable so const status reads
  // could join the protocol without shedding their constness.
  mutable SimSharedLock rml_;
  ReadMostlyInstruments rmi_;
  MetricId id_searches_;
  MetricId id_moves_completed_;
  SegmentUid root_{};
  uint64_t uid_counter_ = 1;
  std::unordered_map<SegmentUid, DirectoryRec> dirs_;
  // Object uid -> containing directory uid (for resolve-by-uid and moves).
  std::unordered_map<SegmentUid, SegmentUid> parent_of_;
};

}  // namespace mks

#endif  // MKS_KERNEL_DIRECTORY_H_
