// The quota cell manager: explicit objects for storage resource control.
//
// In the old supervisor, quota limits and counts lived inside the active
// segment table, and finding "the nearest superior quota directory" required
// page control to walk segment control's data upward along the shape of the
// directory hierarchy — one of the subtlest dependency loops the paper
// dissects.  The new design makes quota cells first-class objects: a cell is
// stored in the disk-pack table-of-contents entry of its quota directory and
// cached, while the directory is active, in a table kept in a core segment.
// Because the binding of segment to quota cell is static (quota directories
// may be designated or undesignated only while childless), charging quota
// never requires an upward search.
#ifndef MKS_KERNEL_QUOTA_CELL_H_
#define MKS_KERNEL_QUOTA_CELL_H_

#include <optional>
#include <vector>

#include "src/kernel/core_segment.h"

namespace mks {

struct QuotaCellInfo {
  uint64_t limit = 0;
  uint64_t count = 0;
  PackId home_pack{};
  VtocIndex home_vtoc{};
};

class QuotaCellManager {
 public:
  QuotaCellManager(KernelContext* ctx, CoreSegmentManager* core_segs);

  // Allocates the cache table in a core segment; `slots` bounds the number of
  // simultaneously-cached cells (one per active quota directory).
  Status Init(uint32_t slots);

  // Creates a brand-new cell persisted in the quota directory's VTOC entry.
  Result<QuotaCellId> CreateCell(PackId pack, VtocIndex vtoc, uint64_t limit);

  // Caches the cell stored in the given VTOC entry (directory activation).
  // Idempotent: re-loading an already-cached cell returns the same id.
  Result<QuotaCellId> LoadCell(PackId pack, VtocIndex vtoc);

  // Writes the cell back to its VTOC home (directory deactivation); the cache
  // slot remains valid.
  Status FlushCell(QuotaCellId cell);

  // Flushes, removes from the cache, and erases the persistent cell.  The
  // count must be zero (nothing charged below), mirroring the childless rule.
  Status DestroyCell(QuotaCellId cell);

  // Charge / refund `pages` of storage; kQuotaOverflow when the limit would
  // be exceeded.
  Status Charge(QuotaCellId cell, uint64_t pages);
  Status Refund(QuotaCellId cell, uint64_t pages);

  Status SetLimit(QuotaCellId cell, uint64_t limit);
  Result<QuotaCellInfo> Info(QuotaCellId cell) const;

  uint32_t cached_count() const;

 private:
  struct Slot {
    bool in_use = false;
    QuotaCellInfo info;
  };

  void StoreThrough(QuotaCellId cell);  // mirrors limit/count into the core segment table

  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  CoreSegId table_seg_{};
  std::vector<Slot> slots_;
};

}  // namespace mks

#endif  // MKS_KERNEL_QUOTA_CELL_H_
