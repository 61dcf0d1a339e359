// Disk volume control: demountable packs, record allocation, and the volume
// table of contents (VTOC).
//
// A directory entry in Multics names a segment by the identifier of its
// containing pack plus an index into that pack's table of contents; for
// robustness and demountability, all pages of a segment live on the same
// pack.  Growing a segment can therefore raise a full-pack exception, which
// forces relocation of the entire segment to an emptier pack and an update of
// the directory entry — the exception path whose dependency-loop cure the
// paper describes in detail.
//
// File maps record a zero flag per page: page-sized blocks of zeros are
// implemented by flags rather than stored records, the storage-charging
// feature whose confinement consequences the paper analyzes.
#ifndef MKS_DISK_PACK_H_
#define MKS_DISK_PACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/hw/machine.h"
#include "src/sim/clock.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace mks {

struct FileMapEntry {
  bool allocated = false;  // a disk record backs this page
  bool zero = false;       // page is all zeros; no record is consumed
  RecordIndex record{};
};

// Persistent image of a quota cell, stored in the VTOC entry of the
// associated quota directory (the new design's explicit home for quota).
struct QuotaCellStore {
  bool present = false;
  uint64_t limit = 0;
  uint64_t count = 0;
};

struct VtocEntry {
  bool in_use = false;
  SegmentUid uid{};
  bool is_directory = false;
  uint32_t max_length_pages = kMaxSegmentPages;
  // One entry per page up to kMaxSegmentPages, allocated when the segment
  // first uses a page: most segments (leaves never written) stay empty, and
  // an empty map reads as every page never used.
  std::vector<FileMapEntry> file_map;
  QuotaCellStore quota;

  // Page `page`'s map entry (a never-used entry when the map is empty).
  const FileMapEntry& map_entry(uint32_t page) const;
  // Page `page`'s map entry for update, allocating the map on first use.
  FileMapEntry& mutable_map_entry(uint32_t page);

  // Number of pages that consume actual disk records (the storage charge).
  uint32_t RecordsUsed() const;
};

class DiskPack {
 public:
  DiskPack(PackId id, uint32_t record_count, uint32_t vtoc_slots, CostModel* cost,
           Metrics* metrics, Tracer* trace);

  PackId id() const { return id_; }
  uint32_t record_count() const { return record_count_; }
  uint32_t free_records() const { return free_records_; }

  Result<RecordIndex> AllocateRecord();
  void FreeRecord(RecordIndex record);

  // Record I/O; charges transfer latency to the clock.  A record holds its
  // data as a page image shared by reference: WriteRecord stores `image`
  // itself (the writer's frame may keep viewing it), and an empty image
  // reads as zeros.  A read-in binds a frame to the record's image
  // (VolumeControl::ReadRecord); ChargeRead is its latency charge and read
  // metric.
  void WriteRecord(RecordIndex record, PageRef image);
  void ChargeRead(RecordIndex record);

  // ---- Batched request queue (the anticipatory paging pipeline) ----
  //
  // Callers (the page daemons) post read/write requests and later dispatch
  // them in rounds.  A round pops up to `max_batch` requests, sorts them by
  // record index, and charges the arm-sweep cost model: the first record pays
  // the full latency, every further record in the sorted sweep pays only
  // kDiskBatchedTransfer.  A queued write holds its image from queue time,
  // so the source frame may be reused (or written, which then copies)
  // immediately; dispatch hands the image to the record.  Completed read
  // cookies are appended for the caller to bind the destination frame to the
  // record's image (the transfer latency was charged here).
  void QueueRead(RecordIndex record, uint64_t cookie);
  void QueueWrite(RecordIndex record, PageRef image, uint64_t cookie);
  size_t queued_io() const { return io_queue_.size(); }
  // Whether a read with `cookie` is queued (audits).
  bool ReadQueued(uint64_t cookie) const;
  // Returns the number of requests dispatched (0 when the queue is empty).
  size_t DispatchBatch(size_t max_batch, std::vector<uint64_t>* completed_reads);

  // Data movement without a latency charge, for transfers whose simulated
  // time was accounted elsewhere (read completions, pack-to-pack moves).
  // Share aborts on a lent record: its data went to a frame's first write,
  // so reading it means that page's writeback was lost.
  PageRef Share(RecordIndex record) const;
  void StoreRecord(RecordIndex record, PageRef image);
  // PageSource::Detach for one record: if the record holds exactly `image`,
  // it drops its reference and is lent until its next write.
  bool Detach(RecordIndex record, const PageImage* image);
  // Drops the record's data: it reads zeros and is no longer lent.  For a
  // page found all zero at eviction that keeps its record.
  void ClearRecord(RecordIndex record);
  bool lent(RecordIndex record) const { return record_lent_[record.value]; }
  // A host hint for a read-in about to bind the record's image: starts the
  // loads of the image's first cache line, which holds its shared count, and
  // of the line holding `word`.  It charges nothing, counts nothing and
  // leaves the count as it was; an empty or lent record holds no image, so
  // there it does nothing.
  void PrefetchRecord(RecordIndex record, uint32_t word) const;

  // Takes the lowest free VTOC slot.
  Result<VtocIndex> AllocateVtoc(SegmentUid uid, bool is_directory);
  // Frees the VTOC slot and every record its file map holds.
  void FreeVtoc(VtocIndex index);
  VtocEntry* GetVtoc(VtocIndex index);
  const VtocEntry* GetVtoc(VtocIndex index) const;
  uint32_t vtoc_slots() const { return static_cast<uint32_t>(vtoc_.size()); }
  uint32_t vtoc_in_use() const { return vtoc_used_; }

  // Checks the host-side VTOC indexes against a recount: the in-use count,
  // and that no slot below the lowest-free hint is free.
  void AuditIntegrity(std::vector<std::string>* findings) const;

 private:
  struct IoRequest {
    bool write = false;
    RecordIndex record{};
    uint64_t cookie = 0;
    PageRef image;  // a write's data, held from queue time
  };

  PackId id_;
  uint32_t record_count_;
  uint32_t free_records_;
  uint32_t alloc_cursor_ = 0;
  std::vector<bool> record_used_;
  std::vector<PageRef> record_data_;  // empty: the record reads zeros
  std::vector<bool> record_lent_;
  std::vector<VtocEntry> vtoc_;
  // Host-side indexes over vtoc_, so placement never rescans the table:
  // the number of slots in use, and a slot index below which every slot is
  // in use (the search for the lowest free slot starts there).
  uint32_t vtoc_used_ = 0;
  uint32_t vtoc_free_hint_ = 0;
  std::vector<IoRequest> io_queue_;
  CostModel* cost_;
  Metrics* metrics_;
  Tracer* trace_;
  TraceEventId ev_batch_round_ = 0;
  MetricId id_pack_full_;
  MetricId id_reads_;
  MetricId id_writes_;
  MetricId id_batch_dispatches_;
  MetricId id_batched_records_;
};

// The set of mounted packs plus placement policy.
//
// VolumeControl (not DiskPack) is the PageSource frames detach from: packs_
// may reallocate as packs are mounted, so a stable owner decodes the
// (pack, record) cookie at detach time.
class VolumeControl : public PageSource {
 public:
  VolumeControl(CostModel* cost, Metrics* metrics, Tracer* trace)
      : cost_(cost), metrics_(metrics), trace_(trace) {}

  PackId AddPack(uint32_t record_count, uint32_t vtoc_slots);
  DiskPack* pack(PackId id);
  size_t pack_count() const { return packs_.size(); }

  // The record as a frame's PageHome.
  PageHome Home(PackId id, RecordIndex record) {
    return PageHome{this, (static_cast<uint64_t>(id.value) << 32) | record.value};
  }
  // The read-in of a page: charges the transfer and points the frame at the
  // record's image, without a copy.  BindRecord binds without the charge,
  // for a read whose transfer was paid at dispatch.
  void ReadRecord(PackId id, RecordIndex record, PrimaryMemory* memory, FrameIndex frame);
  void BindRecord(PackId id, RecordIndex record, PrimaryMemory* memory, FrameIndex frame);
  bool Detach(uint64_t cookie, const PageImage* image) override {
    return packs_[static_cast<uint16_t>(cookie >> 32)].Detach(
        RecordIndex(static_cast<uint32_t>(cookie)), image);
  }

  // Placement for a new segment: the pack with the most free records that
  // still has a VTOC slot.  kPackFull when no pack has space.
  Result<PackId> ChoosePack() const;
  // Relocation target for a segment being moved off `exclude`: the emptiest
  // other pack with at least `needed_records` free.
  Result<PackId> ChoosePackExcluding(PackId exclude, uint32_t needed_records) const;

  // DiskPack::AuditIntegrity over every mounted pack.
  void AuditIntegrity(std::vector<std::string>* findings) const;

 private:
  std::vector<DiskPack> packs_;
  CostModel* cost_;
  Metrics* metrics_;
  Tracer* trace_;
};

}  // namespace mks

#endif  // MKS_DISK_PACK_H_
