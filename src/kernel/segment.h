// The segment manager: active segments as objects.
//
// An active segment is a segment whose page table is built in the (fixed,
// permanently resident) active segment table area, ready for the hardware to
// translate through.  Activation is driven from above by the known segment
// manager, which supplies the segment's home (pack, VTOC index) *and the
// static name of its governing quota cell* — the crucial change that frees
// this manager from knowing the shape of the directory hierarchy.  As a
// result, deactivation is constrained only by connection counts, never by
// which directories have active inferiors (the old supervisor's constraint,
// reproduced in src/baseline for contrast).
//
// Growth charges the quota cell, then asks the page frame manager to add the
// page; a full pack propagates back up this call chain as kPackFull, and the
// relocation of the whole segment to an emptier pack is directed here —
// after the layers above have disconnected every address space.
#ifndef MKS_KERNEL_SEGMENT_H_
#define MKS_KERNEL_SEGMENT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/page_frame.h"

namespace mks {

inline constexpr uint32_t kNoAst = UINT32_MAX;

// An active segment; its names and maximum length (the size) are its table's.
struct AstEntry {
  bool in_use = false;
  SegmentUid uid{};
  PageTable page_table;
  uint64_t lru_stamp = 0;

  // Address-space connections: the SDWs naming the page table, which lists
  // one entry per SDW.
  size_t connections() const { return page_table.connected.size(); }
};

class SegmentManager {
 public:
  SegmentManager(KernelContext* ctx, CoreSegmentManager* core_segs, QuotaCellManager* quota,
                 PageFrameManager* pfm);

  // `ast_slots` fixes the size of the active segment table; the table and
  // the page tables it holds are charged against a core segment allocated
  // here (a map dependency on the core segment manager).
  Status Init(uint32_t ast_slots);

  // Builds the page table from the on-pack file map.  kResourceExhausted when
  // the AST is full of connected segments.
  Result<uint32_t> Activate(SegmentUid uid, PackId pack, VtocIndex vtoc, QuotaCellId cell);

  // Finds an existing activation or performs one (deactivating the
  // least-recently-used unconnected entry if the table is full).
  Result<uint32_t> EnsureActive(SegmentUid uid, PackId pack, VtocIndex vtoc, QuotaCellId cell);

  // Evicts all resident pages, cuts any transfer in flight loose, frees the
  // slot.  kFailedPrecondition while address spaces are still connected.
  Status Deactivate(uint32_t ast);

  AstEntry* Get(uint32_t ast);  // nullptr when the slot is free or kNoAst
  uint32_t FindIndex(SegmentUid uid) const;  // kNoAst when inactive

  // Grows the segment by `page`: checks and charges the (statically named)
  // quota cell, then adds the page.  kQuotaOverflow and kPackFull surface
  // here; on kPackFull the quota charge is refunded.
  Status GrowSegment(uint32_t ast, uint32_t page);

  // Ordinary missing page: delegates to the page frame manager with every
  // name it needs.  `word` is the referenced word within the page.
  Status ServiceMissingPage(uint32_t ast, uint32_t page, uint32_t word, ProcessId initiator,
                            WaitSpec* wait);

  // Moves the segment to the emptiest other pack with room for its records
  // plus one page of growth headroom.  Requires connections() == 0 (the layers
  // above disconnect all address spaces first).  Writes the new home on the
  // page table, where a read in flight lands and the layers above read it.
  Status Relocate(uint32_t ast);

  uint32_t active_count() const;
  uint32_t ast_slots() const { return static_cast<uint32_t>(ast_.size()); }

  // Integrity audit: a locked descriptor of an active segment with no
  // transfer in flight for its page (asked of page control) is a finding.
  // Outside a fault's service nothing else holds the lock, so such a page
  // would park every later reference on an arrival that never comes.
  void AuditIntegrity(std::vector<std::string>* findings) const;

 private:
  Result<uint32_t> AllocateSlot();

  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  QuotaCellManager* quota_;
  PageFrameManager* pfm_;
  CoreSegId ast_area_{};
  std::vector<AstEntry> ast_;
  std::unordered_map<SegmentUid, uint32_t> by_uid_;
  uint64_t lru_counter_ = 0;

  MetricId id_ast_replacements_;
  MetricId id_activations_;
  TraceEventId ev_activate_;
  TraceEventId ev_deactivate_;
};

}  // namespace mks

#endif  // MKS_KERNEL_SEGMENT_H_
