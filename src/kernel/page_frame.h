// The page frame manager ("page control" reborn as an object manager).
//
// Manages the pageable region of primary memory: services missing-page
// exceptions, runs clock replacement, performs the zero-page storage
// optimization, and implements the descriptor-lock wait/notify protocol of
// the new hardware.  Its position in the lattice is low: it depends on the
// core segment manager (its maps), disk volume control (its components),
// the quota cell manager (storage-use accounting by static cell name — never
// an upward search of the directory hierarchy), and the virtual processor
// manager (its interpreter, and the wait primitive).
//
// Unlike the old page control, it never reaches into segment control's or
// directory control's data: growth arrives from above (the segment manager)
// with every needed name already in hand, and a full pack is reported back
// up as a status, not by reaching around the dependency structure.
//
// Two execution modes:
//  * synchronous — disk latency is charged and the fault completes inline
//    (used by tests, examples, and most benches);
//  * asynchronous — reads are posted to the simulated device (a FIFO this
//    manager owns) and completed by the page-I/O daemon (a kernel task on
//    its own virtual processor); the faulting user process parks on the
//    segment's page-arrival eventcount, and the completion's advance posts
//    its wakeup through the real-memory message queue, exercising the full
//    two-level protocol.
//
// The two daemons wait on work eventcounts this manager advances wherever
// their work is produced (see CreateDaemonWork), so neither is polled.
#ifndef MKS_KERNEL_PAGE_FRAME_H_
#define MKS_KERNEL_PAGE_FRAME_H_

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/kernel/quota_cell.h"
#include "src/kernel/vproc.h"

namespace mks {

// Filled when an operation must wait: the eventcount/target pair the caller
// should await before retrying the reference.
struct WaitSpec {
  bool valid = false;
  EventcountId ec{};
  uint64_t target = 0;
};

// The anticipatory paging pipeline: one switch, default off, and off the
// fault path is byte-for-byte the pre-pipeline code.  On, three parts act
// together (P10 measured them as one mechanism: readahead alone posts no
// reads and batching alone changes nothing), sized by PageFrameManager's
// constants:
//
//  * pre-cleaning — the page-writer daemon keeps the free pool between
//    kLowWatermark and kHighWatermark by running the clock and cleaning
//    victims ahead of demand; a fault pays an inline eviction only when the
//    pool is truly dry (counted in pfm.inline_evictions).
//  * batched I/O — daemon writebacks and prefetch reads go through the
//    per-pack request queues and dispatch in record-sorted rounds of up to
//    kIoBatchSize, amortizing the seek: the first record of a round pays the
//    full latency, coalesced neighbors only kDiskBatchedTransfer.  After
//    dispatch, each CPU that is idle before the pool's furthest clock writes
//    rounds of one pack's cleanable pages (idle rounds).  Where no CPU has
//    such slack (one CPU, or a balanced pool), an inline eviction whose
//    victim is dirty launders up to kIoBatchSize - 1 other cleanable pages
//    of the victim's pack in the same round, paid by the faulting CPU before
//    the fault returns.
//  * readahead — a forward-sequential fault pattern per segment posts reads
//    for the next kReadaheadDepth pages through the request queues;
//    prefetched frames come only from the free pool above the low watermark,
//    so anticipation can never force the inline eviction it exists to avoid.
struct PagingPipeline {
  bool enabled = false;

  static PagingPipeline Full() { return PagingPipeline{.enabled = true}; }
};

class PageFrameManager {
 public:
  // The pipeline's sizes (see PagingPipeline).  The pre-cleaner refills the
  // free pool to kHighWatermark once it falls below kLowWatermark, and
  // readahead draws only on the pool above kLowWatermark.
  static constexpr uint32_t kLowWatermark = 8;
  static constexpr uint32_t kHighWatermark = 24;
  static constexpr uint32_t kIoBatchSize = 8;
  static constexpr uint32_t kReadaheadDepth = 8;
  // Fault-path laundering takes kIoBatchSize - 1 companions of the victim.
  static_assert(kIoBatchSize >= 2);
  static_assert(kLowWatermark < kHighWatermark);

  PageFrameManager(KernelContext* ctx, CoreSegmentManager* core_segs, QuotaCellManager* quota,
                   VirtualProcessorManager* vpm);

  // Takes ownership of every frame above the core segments.
  Status Init();

  void set_async(bool async) { async_ = async; }
  // When true, a page found all-zero at eviction keeps its disk record and
  // its quota charge: this closes the zero-page covert channel the paper
  // identifies (a read can no longer cause an accounting write) at the price
  // of charging for zero pages.
  void set_retain_zero_records(bool retain) { retain_zero_records_ = retain; }
  void set_pipeline(const PagingPipeline& pipeline) { pipeline_ = pipeline; }
  const PagingPipeline& pipeline() const { return pipeline_; }

  // Services a missing-page exception for `page` of the segment whose home is
  // (pack, vtoc).  `word` is the referenced word within the page; a
  // synchronous read-in starts the host loads of that word's line and of the
  // image's count before it picks a victim (a host hint: no charge, metric
  // or trace event).  `seg_ec` is the segment's page-arrival eventcount;
  // `initiator` identifies the user process (for the upward message), and is
  // ProcessId{0} for kernel-internal references.
  // Sync mode: completes inline.  Async mode: returns kBlocked and fills
  // *wait; the caller parks until seg_ec reaches wait->target, then retries.
  Status ServiceMissingPage(PageTable* pt, uint32_t page, uint32_t word, PackId pack,
                            VtocIndex vtoc, QuotaCellId cell, EventcountId seg_ec,
                            ProcessId initiator, WaitSpec* wait);

  // Adds a never-before-used page to a segment.  Quota has already been
  // charged by the segment manager; this allocates the disk record eagerly —
  // so a full pack is detected here, at the bottom of the call chain, and
  // reported upward as kPackFull.
  Status AddPage(PageTable* pt, uint32_t page, PackId pack, VtocIndex vtoc, QuotaCellId cell,
                 EventcountId seg_ec);

  // Evicts one page (used at deactivation): writes back if modified, runs
  // zero detection, updates the file map and quota.
  Status EvictPage(PageTable* pt, uint32_t page, PackId pack, VtocIndex vtoc, QuotaCellId cell,
                   EventcountId seg_ec);

  // Creates the work eventcounts of the two daemons, which the kernel binds
  // to virtual processors.  From then on this manager advances them where
  // the work arises:
  //  * io_work — posted reads land (LandReads), or reads are left on a pack
  //    request queue: asynchronous readahead, or a round the daemon's step
  //    could not finish;
  //  * writer_work — a frame becomes a cleaning candidate, a fault takes the
  //    free pool below kLowWatermark (pipeline on), or the writer cleaned a
  //    full batch and may have left more.
  void CreateDaemonWork();
  EventcountId io_work() const { return io_work_; }
  EventcountId writer_work() const { return writer_work_; }

  // The simulated device (async mode): marks every posted read due by `now`
  // as landed, advancing io_work when any did, and returns how many landed.
  // Charges nothing; the scheduler calls it at the start of each level-1
  // window, so the daemon it readies runs inside that window.
  size_t LandReads(Cycles now);
  // The due time of the oldest posted read not yet landed, if any.
  std::optional<Cycles> NextReadDue() const {
    if (landed_ == posted_reads_.size()) {
      return std::nullopt;
    }
    return posted_reads_[landed_].due;
  }

  // The page-I/O daemon body (bound to a kernel virtual processor): completes
  // landed reads, unlocks descriptors and advances segment eventcounts (whose
  // parked processes the advance wakes), then dispatches one round of each
  // pack's request queue.
  void PageIoDaemonStep();

  // The page-writer daemon body: cleans up to `max_writes` modified resident
  // pages so that replacement finds clean victims.  With the pipeline on it
  // first replenishes the free pool to the high watermark by running the
  // clock and releasing victims ahead of demand.  Bound as idle-time work: a
  // scheduler pass runs it after dispatch, on the first CPU to go idle, when
  // writer_work has advanced since its last run.
  void PageWriterStep(size_t max_writes);

  // Idle rounds (pipeline on): the pack the next round should write — the
  // first, in rotation after the last round's pack, holding a cleanable
  // page — or nullopt when no page is cleanable.  Charges nothing, so the
  // scheduler asks before it opens a window.
  std::optional<PackId> NextIdleRoundPack();
  // One idle round: launders up to kIoBatchSize cleanable pages of `pack`
  // in one record-sorted round, counted in pfm.daemon_writes.
  void IdleRound(PackId pack);

  // The candidate walk the page writer and laundering (fault path and idle
  // rounds) share, so the cleanable test exists once.  Fills *out with the
  // first `max_frames` cleanable frames in ascending frame order — in use,
  // modified, unreferenced, unlocked, backed by a record and not all zero —
  // restricted to frames homed on `pack` when one is given.
  void CollectCleanable(size_t max_frames, std::optional<PackId> pack,
                        std::vector<FrameIndex>* out);
  // Whether `frame` carries the candidate walk's bit (a superset of the
  // cleanable frames; see writer_candidates_).
  bool IsWriterCandidate(FrameIndex frame) const {
    const uint32_t slot = frame.value - first_frame_;
    return (writer_candidates_[slot / 64] >> (slot % 64) & 1) != 0;
  }

  // Integrity audit: checks frame-table / page-table cross-consistency,
  // frame accounting, and that every lent disk record is the home of a
  // resident modified page (else its writeback was lost); appends one line
  // per finding.  An empty result is what
  // the paper's code auditors are trying to establish.
  void AuditIntegrity(std::vector<std::string>* findings) const;

  uint32_t free_frames() const { return static_cast<uint32_t>(free_list_.size()); }
  uint32_t total_frames() const { return frame_limit_ - first_frame_; }
  // Posted reads not yet completed, landed or not.
  uint64_t pending_io() const { return posted_reads_.size(); }

 private:
  enum class FrameState : uint8_t { kFree, kInUse, kIoInProgress };

  struct FrameInfo {
    FrameState state = FrameState::kFree;
    PageTable* pt = nullptr;
    uint32_t page = 0;
    PackId pack{};
    VtocIndex vtoc{};
    QuotaCellId cell{};
    EventcountId seg_ec{};
    bool prefetched = false;  // arrived by readahead, not yet known referenced
    // A prefetched page lands with used=false (the scan has not reached it),
    // which would make it the clock's first choice; this grants it one full
    // sweep of protection before it becomes evictable as waste.
    bool prefetch_grace = false;
  };

  // An asynchronous demand read in flight.  `fault_begin` is the posting
  // fault's trace stamp: the daemon closes the fault.page_service span from
  // it, so the histogram sees the full fault -> park -> I/O -> wakeup latency.
  struct PostedRead {
    Cycles due = 0;
    FrameIndex frame{};
    ProcessId initiator{};
    Cycles fault_begin = 0;
  };

  // Obtains a frame, evicting via the clock algorithm if necessary.  With
  // the pipeline on a dirty victim's forced write carries the laundering
  // round.
  Result<FrameIndex> AcquireFrame();
  // One full second-chance pass: returns the victim slot, or UINT32_MAX when
  // nothing is evictable.  Shared by the fault path and the pre-cleaner so
  // replacement order is one policy regardless of who runs it.
  uint32_t ClockSelectVictim();
  // Writes back (if needed) and releases `frame`; runs zero detection.  With
  // `queue_writeback` the write is staged on the pack's request queue (image
  // held now, latency charged at dispatch) instead of paid inline.
  Status CleanAndRelease(FrameIndex frame, bool queue_writeback = false);
  // Writes a frame picked by CollectCleanable back to its record, staged on
  // the pack's request queue when `queue`; the page stays resident, clean.
  void CleanInPlace(FrameIndex frame, bool queue);
  // Laundering, shared by the fault path and idle rounds: stages up to
  // `max_pages` cleanable pages of `pack` on its request queue and drains
  // the queue (with whatever it already held) in record-sorted rounds.
  // Returns the number of pages laundered.
  size_t LaunderPack(PackId pack, size_t max_pages);
  // Pre-cleaning: refills the free list to the high watermark.
  void ReplenishFreePool();
  // Sequential-readahead policy, run after each serviced demand fault.
  void MaybeReadahead(PageTable* pt, uint32_t page, PackId pack, VtocIndex vtoc,
                      QuotaCellId cell, EventcountId seg_ec);
  // Dispatches one round of `pack`'s request queue and completes any posted
  // reads.
  void DispatchPackQueue(PackId pack);
  // Dispatches rounds until `pack`'s request queue is empty.
  void DrainPackQueue(PackId pack);
  void CompletePostedRead(FrameIndex frame);
  // Installs a finished read of `frame`, for the daemon and for dispatch
  // rounds alike: binds the frame to the record's image (its latency is
  // already paid), maps and unlocks the PTW with used/modified clear, marks
  // the frame in use and counts the completion.  Returns false, touching nothing, when
  // the segment was deactivated while the read was in flight.
  bool InstallRead(FrameIndex frame);
  FrameInfo& info(FrameIndex frame) { return frames_[frame.value - first_frame_]; }
  // Records that the frame at `slot` may have become cleanable, and posts the
  // writer work when the mark is new.
  void MarkWriterCandidate(uint32_t slot) {
    uint64_t& word = writer_candidates_[slot / 64];
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if ((word & bit) == 0) {
      word |= bit;
      PostWork(writer_work_);
    }
  }
  // Advances a daemon's work eventcount; nothing when no daemon is bound.
  void PostWork(EventcountId work) {
    if (daemons_) {
      vpm_->Advance(work);
    }
  }

  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  QuotaCellManager* quota_;
  VirtualProcessorManager* vpm_;

  // Hot-path counters, interned once at construction.
  MetricId id_evictions_;
  MetricId id_zero_reclaims_;
  MetricId id_zero_retained_;
  MetricId id_writebacks_;
  MetricId id_faults_serviced_;
  MetricId id_zero_page_reallocations_;
  MetricId id_async_reads_;
  MetricId id_io_completions_;
  MetricId id_pages_added_;
  MetricId id_daemon_writes_;
  MetricId id_inline_evictions_;
  MetricId id_precleaned_frames_;
  MetricId id_prefetch_issued_;
  MetricId id_prefetch_hits_;
  MetricId id_prefetch_waste_;
  MetricId id_laundered_pages_;
  MetricId id_idle_rounds_;

  TraceEventId ev_fault_service_;
  TraceEventId ev_fault_posted_;
  TraceEventId ev_io_complete_;
  HistId hist_fault_service_;

  uint32_t first_frame_ = 0;
  uint32_t frame_limit_ = 0;
  std::vector<FrameInfo> frames_;
  std::vector<FrameIndex> free_list_;
  // One bit per frame slot: a superset of the frames the page writer can
  // clean (in use, modified, unreferenced, unlocked).  A frame is marked
  // where it can become cleanable (the clock's second chance clearing `used`
  // on a modified page, and the zero-page refault); the candidate walk drops
  // the bit when it finds the frame free, clean or referenced.  The hardware sets
  // `used` with `modified`, so no other transition makes a frame cleanable.
  std::vector<uint64_t> writer_candidates_;
  uint32_t clock_hand_ = 0;
  uint16_t idle_round_pack_ = 0;  // where NextIdleRoundPack starts looking
  bool async_ = false;
  bool daemons_ = false;  // CreateDaemonWork ran: the work counts exist
  EventcountId io_work_{};
  EventcountId writer_work_{};
  bool retain_zero_records_ = false;
  PagingPipeline pipeline_;
  // Posted reads, oldest first.  Every read takes kDiskReadLatency and the
  // clock never runs backward, so post order is due order; the first
  // `landed_` entries are due and await the daemon.
  std::deque<PostedRead> posted_reads_;
  size_t landed_ = 0;
  // Scratch reused across calls so the write paths stay allocation-free:
  // the frames a candidate walk picked, and a dispatch round's completed
  // read cookies.
  std::vector<FrameIndex> picks_;
  std::vector<uint64_t> completed_reads_;
};

}  // namespace mks

#endif  // MKS_KERNEL_PAGE_FRAME_H_
