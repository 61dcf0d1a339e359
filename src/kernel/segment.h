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

#include <unordered_map>
#include <vector>

#include "src/kernel/page_frame.h"

namespace mks {

inline constexpr QuotaCellId kNoQuotaCell{UINT32_MAX};
inline constexpr uint32_t kNoAst = UINT32_MAX;

struct AstEntry {
  bool in_use = false;
  SegmentUid uid{};
  PackId pack{};
  VtocIndex vtoc{};
  PageTable page_table;
  uint32_t max_pages = 0;
  QuotaCellId quota_cell = kNoQuotaCell;
  EventcountId page_ec{};      // page-arrival eventcount for this segment
  uint32_t connections = 0;    // address-space connections (SDWs pointing here)
  bool is_directory = false;
  uint64_t lru_stamp = 0;
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

  // Evicts all resident pages, writes the file map home, frees the slot.
  // kFailedPrecondition while address spaces are still connected.
  Status Deactivate(uint32_t ast);

  AstEntry* Find(SegmentUid uid);
  AstEntry* Get(uint32_t ast);
  uint32_t FindIndex(SegmentUid uid) const;  // kNoAst when inactive

  // Grows the segment by `page`: checks and charges the (statically named)
  // quota cell, then adds the page.  kQuotaOverflow and kPackFull surface
  // here; on kPackFull the quota charge is refunded.
  Status GrowSegment(uint32_t ast, uint32_t page);

  // Ordinary missing page: delegates to the page frame manager with every
  // name it needs.  `word` is the referenced word within the page.
  Status ServiceMissingPage(uint32_t ast, uint32_t page, uint32_t word, ProcessId initiator,
                            WaitSpec* wait);

  struct NewHome {
    PackId pack{};
    VtocIndex vtoc{};
  };
  // Moves the segment to the emptiest other pack with room for its records
  // plus one page of growth headroom.  Requires connections == 0 (the layers
  // above disconnect all address spaces first).  Updates the AST entry's home
  // and returns it for the upward signal to the directory manager.
  Result<NewHome> Relocate(uint32_t ast);

  // Connection bookkeeping, called by the address-space layer above.
  void NoteConnect(uint32_t ast);
  void NoteDisconnect(uint32_t ast);

  uint32_t active_count() const;
  uint32_t ast_slots() const { return static_cast<uint32_t>(ast_.size()); }

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
