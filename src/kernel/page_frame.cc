#include "src/kernel/page_frame.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mks {

PageFrameManager::PageFrameManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                                   QuotaCellManager* quota, VirtualProcessorManager* vpm)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kPageFrame)),
      core_segs_(core_segs),
      quota_(quota),
      vpm_(vpm),
      id_evictions_(ctx->metrics.Intern("pfm.evictions")),
      id_zero_reclaims_(ctx->metrics.Intern("pfm.zero_reclaims")),
      id_zero_retained_(ctx->metrics.Intern("pfm.zero_retained")),
      id_writebacks_(ctx->metrics.Intern("pfm.writebacks")),
      id_faults_serviced_(ctx->metrics.Intern("pfm.faults_serviced")),
      id_zero_page_reallocations_(ctx->metrics.Intern("pfm.zero_page_reallocations")),
      id_async_reads_(ctx->metrics.Intern("pfm.async_reads")),
      id_io_completions_(ctx->metrics.Intern("pfm.io_completions")),
      id_pages_added_(ctx->metrics.Intern("pfm.pages_added")),
      id_daemon_writes_(ctx->metrics.Intern("pfm.daemon_writes")),
      id_inline_evictions_(ctx->metrics.Intern("pfm.inline_evictions")),
      id_precleaned_frames_(ctx->metrics.Intern("pfm.precleaned_frames")),
      id_prefetch_issued_(ctx->metrics.Intern("pfm.prefetch_issued")),
      id_prefetch_hits_(ctx->metrics.Intern("pfm.prefetch_hits")),
      id_prefetch_waste_(ctx->metrics.Intern("pfm.prefetch_waste")),
      id_laundered_pages_(ctx->metrics.Intern("pfm.laundered_pages")),
      id_idle_rounds_(ctx->metrics.Intern("pfm.idle_rounds")),
      ev_fault_service_(ctx->trace.InternEvent("fault.page_service")),
      ev_fault_posted_(ctx->trace.InternEvent("fault.page_posted")),
      ev_io_complete_(ctx->trace.InternEvent("io.complete")),
      hist_fault_service_(ctx->metrics.InternHistogram("fault.service_cycles")) {}

Status PageFrameManager::Init() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  first_frame_ = core_segs_->FirstPageableFrame();
  frame_limit_ = ctx_->memory.frame_count();
  if (first_frame_ >= frame_limit_) {
    return Status(Code::kResourceExhausted, "no pageable frames left");
  }
  frames_.assign(frame_limit_ - first_frame_, FrameInfo{});
  writer_candidates_.assign((frames_.size() + 63) / 64, 0);
  free_list_.clear();
  for (uint32_t f = frame_limit_; f > first_frame_; --f) {
    free_list_.push_back(FrameIndex(f - 1));
  }
  return Status::Ok();
}

uint32_t PageFrameManager::ClockSelectVictim() {
  // Clock replacement over the pageable region.
  const uint32_t n = static_cast<uint32_t>(frames_.size());
  for (uint32_t step = 0; step < 2 * n; ++step) {
    const uint32_t slot = clock_hand_;
    ++clock_hand_;
    if (clock_hand_ == n) {
      clock_hand_ = 0;
    }
    FrameInfo& fi = frames_[slot];
    if (fi.state != FrameState::kInUse || fi.pt == nullptr) {
      continue;
    }
    Ptw& ptw = fi.pt->ptws[fi.page];
    if (ptw.locked) {
      continue;  // a fault is in service on this page
    }
    if (ptw.used) {
      if (fi.prefetched) {
        // First evidence the anticipated page was actually referenced.
        fi.prefetched = false;
        ctx_->metrics.Inc(id_prefetch_hits_);
      }
      ptw.used = false;  // second chance
      fi.prefetch_grace = false;
      if (ptw.modified) {
        MarkWriterCandidate(slot);
      }
      continue;
    }
    if (fi.prefetch_grace) {
      fi.prefetch_grace = false;  // one sweep of grace for an unread prefetch
      continue;
    }
    return slot;
  }
  return UINT32_MAX;
}

Result<FrameIndex> PageFrameManager::AcquireFrame() {
  // Frame supply is paging I/O: the inline-eviction fallback pays a disk
  // writeback right here on the fault path.
  Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
  if (!free_list_.empty()) {
    FrameIndex frame = free_list_.back();
    free_list_.pop_back();
    info(frame).state = FrameState::kInUse;
    if (pipeline_.enabled && free_list_.size() == kLowWatermark - 1) {
      PostWork(writer_work_);  // this take crossed the low watermark
    }
    return frame;
  }
  const uint32_t slot = ClockSelectVictim();
  if (slot == UINT32_MAX) {
    return Status(Code::kResourceExhausted, "no evictable page frame");
  }
  // The pool is dry: the fault path pays the eviction inline — the fallback
  // the pre-cleaner exists to make rare.
  const FrameIndex victim(first_frame_ + slot);
  ctx_->metrics.Inc(id_evictions_);
  ctx_->metrics.Inc(id_inline_evictions_);
  if (!pipeline_.enabled) {
    MKS_RETURN_IF_ERROR(CleanAndRelease(victim));
  } else {
    // Laundering: a dirty victim's write is forced, so the seek is paid
    // anyway.  Up to kIoBatchSize - 1 other cleanable pages of its pack
    // ride the same record-sorted round (30000 + 3000 per extra page,
    // against 30000 for each one evicted dirty later) and stay resident,
    // clean.  The round drains before the fault returns: no staged write
    // may outlive the call, or a later read of its record would miss it.
    const PackId pack = info(victim).pack;
    DiskPack* dp = ctx_->volumes.pack(pack);
    const size_t queued = dp->queued_io();
    MKS_RETURN_IF_ERROR(CleanAndRelease(victim, /*queue_writeback=*/true));
    if (dp->queued_io() > queued) {
      ctx_->metrics.Inc(id_laundered_pages_, LaunderPack(pack, kIoBatchSize - 1));
    }
  }
  FrameIndex frame = free_list_.back();
  free_list_.pop_back();
  info(frame).state = FrameState::kInUse;
  return frame;
}

Status PageFrameManager::CleanAndRelease(FrameIndex frame, bool queue_writeback) {
  FrameInfo& fi = info(frame);
  assert(fi.state == FrameState::kInUse && fi.pt != nullptr);
  Ptw& ptw = fi.pt->ptws[fi.page];
  VtocEntry* entry = ctx_->volumes.pack(fi.pack)->GetVtoc(fi.vtoc);
  if (entry == nullptr) {
    return Status(Code::kInternal, "VTOC entry vanished under a resident page");
  }
  FileMapEntry& fm = entry->mutable_map_entry(fi.page);
  if (fi.prefetched) {
    // Final verdict on an anticipated page that the clock never re-examined.
    ctx_->metrics.Inc(ptw.used ? id_prefetch_hits_ : id_prefetch_waste_);
    fi.prefetched = false;
  }

  if (ptw.modified) {
    // The page-removal algorithm must scan the page for the zero-page
    // optimization — the (otherwise unnecessary) access to all data the
    // paper calls out.
    const bool zero = ctx_->memory.FrameIsZero(frame);
    if (zero && !retain_zero_records_) {
      if (fm.allocated) {
        ctx_->volumes.pack(fi.pack)->FreeRecord(fm.record);
        fm.allocated = false;
      }
      fm.zero = true;
      if (fi.cell.value != UINT32_MAX) {
        // The accounting write a mere read may ultimately have caused.
        (void)quota_->Refund(fi.cell, 1);
      }
      ctx_->metrics.Inc(id_zero_reclaims_);
    } else if (zero && retain_zero_records_) {
      // Channel-closed mode: keep the record and the charge; remember the
      // zero content so re-touch avoids the disk read.  The record's data
      // (lent to this frame if it had been read in) is never read again.
      if (fm.allocated) {
        ctx_->volumes.pack(fi.pack)->ClearRecord(fm.record);
      }
      fm.zero = true;
      ctx_->metrics.Inc(id_zero_retained_);
    } else {
      assert(fm.allocated);
      fm.zero = false;
      DiskPack* dp = ctx_->volumes.pack(fi.pack);
      PageRef image = ctx_->memory.Snapshot(frame, ctx_->volumes.Home(fi.pack, fm.record));
      if (queue_writeback) {
        // Staged on the pack's request queue: the write holds the image from
        // now on, so the frame is immediately reusable; the (batched) latency
        // is charged when the daemon dispatches the round.
        dp->QueueWrite(fm.record, std::move(image), 0);
      } else {
        dp->WriteRecord(fm.record, std::move(image));
      }
      ctx_->metrics.Inc(id_writebacks_);
    }
  }
  ctx_->memory.ZeroFrame(frame);  // drops the frame's reference to the image
  ptw.in_core = false;
  ptw.used = false;
  ptw.modified = false;
  // The page's descriptor no longer resolves to a frame: any associative
  // memory entry pairing it with the old frame must go before the frame is
  // reused.  Only CPUs with a space connecting the table loaded can hold one.
  ctx_->cpus.InvalidateAssociative(&ptw, *fi.pt, ctx_->current_cpu);
  fi = FrameInfo{};
  free_list_.push_back(frame);
  return Status::Ok();
}

Status PageFrameManager::ServiceMissingPage(PageTable* pt, uint32_t page, uint32_t word,
                                            PackId pack, VtocIndex vtoc, QuotaCellId cell,
                                            EventcountId seg_ec, ProcessId initiator,
                                            WaitSpec* wait) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope fault(&ctx_->prof, ProfDomain::kFaultService);
  const Cycles fault_begin = ctx_->trace.Begin();
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kFaultEntry);
  ctx_->metrics.Inc(id_faults_serviced_);
  Ptw& ptw = pt->ptws[page];
  if (ptw.in_core && !ptw.locked) {
    return Status::Ok();  // another processor already serviced the page
  }
  // Note on locked descriptors: with the lock bit the hardware locks the PTW
  // as part of raising this very fault, so `ptw.locked` here normally means
  // "locked by the fault now being serviced".  A page with a *posted*
  // transfer (async demand read or a readahead) faults as kLockedDescriptor
  // instead — the processor sees the already-locked PTW — and the gate layer
  // parks the toucher on the segment's page-arrival eventcount; such faults
  // never reach this routine.  Synchronous mode leaves no locked windows at
  // all: the anticipatory sweep drains the request queue before returning.
  VtocEntry* entry = ctx_->volumes.pack(pack)->GetVtoc(vtoc);
  if (entry == nullptr) {
    return Status(Code::kInternal, "missing page for a segment with no VTOC entry");
  }
  FileMapEntry& fm = entry->mutable_map_entry(page);
  if (!fm.allocated && !fm.zero) {
    return Status(Code::kInternal, "missing page fault on a never-used page");
  }
  if (!fm.zero && !async_) {
    // This call binds the record's image, and the retried reference then
    // reads `word` from it; neither line has been touched since the page
    // left core.  Start both loads now, so the victim search below overlaps
    // them.
    ctx_->volumes.pack(pack)->PrefetchRecord(fm.record, word);
  }

  MKS_ASSIGN_OR_RETURN(FrameIndex frame, AcquireFrame());
  FrameInfo& fi = info(frame);
  fi.pt = pt;
  fi.page = page;
  fi.pack = pack;
  fi.vtoc = vtoc;
  fi.cell = cell;
  fi.seg_ec = seg_ec;

  if (fm.zero) {
    // Zero page: no disk read.  If its record was reclaimed, reading it
    // implicitly writes — a record must be allocated and the quota count
    // updated, "perhaps on the other side of a protection boundary".
    ctx_->memory.ZeroFrame(frame);
    if (!fm.allocated) {
      if (cell.value != UINT32_MAX) {
        Status charged = quota_->Charge(cell, 1);
        if (!charged.ok()) {
          fi = FrameInfo{};
          fi.state = FrameState::kFree;
          free_list_.push_back(frame);
          return charged;
        }
      }
      auto record = ctx_->volumes.pack(pack)->AllocateRecord();
      if (!record.ok()) {
        if (cell.value != UINT32_MAX) {
          (void)quota_->Refund(cell, 1);
        }
        fi = FrameInfo{};
        fi.state = FrameState::kFree;
        free_list_.push_back(frame);
        return record.status();
      }
      fm.allocated = true;
      fm.record = *record;
      ctx_->metrics.Inc(id_zero_page_reallocations_);
    }
    fm.zero = false;
    ptw.frame = frame.value;
    ptw.in_core = true;
    ptw.locked = false;
    ptw.modified = true;  // core copy now diverges from the reclaimed record
    MarkWriterCandidate(frame.value - first_frame_);
    vpm_->Advance(seg_ec);
    if (pipeline_.enabled) {
      MaybeReadahead(pt, page, pack, vtoc, cell, seg_ec);
    }
    ctx_->trace.CloseSpan(fault_begin, ev_fault_service_, initiator.value, page,
                          hist_fault_service_);
    return Status::Ok();
  }

  if (!async_) {
    {
      Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
      ctx_->volumes.ReadRecord(pack, fm.record, &ctx_->memory, frame);
    }
    ptw.frame = frame.value;
    ptw.in_core = true;
    ptw.locked = false;
    vpm_->Advance(seg_ec);
    if (pipeline_.enabled) {
      MaybeReadahead(pt, page, pack, vtoc, cell, seg_ec);
    }
    ctx_->trace.CloseSpan(fault_begin, ev_fault_service_, initiator.value, page,
                          hist_fault_service_);
    return Status::Ok();
  }

  // Asynchronous read: leave the descriptor locked, post the transfer, and
  // tell the caller what to await.
  ptw.locked = true;
  fi.state = FrameState::kIoInProgress;
  ctx_->trace.Instant(ev_fault_posted_, initiator.value, page);
  const Cycles due = ctx_->clock.now() + Costs::kDiskReadLatency;
  assert(posted_reads_.empty() || posted_reads_.back().due <= due);
  posted_reads_.push_back(PostedRead{due, frame, initiator, fault_begin});
  ctx_->metrics.Inc(id_async_reads_);
  if (pipeline_.enabled) {
    MaybeReadahead(pt, page, pack, vtoc, cell, seg_ec);
  }
  if (wait != nullptr) {
    wait->valid = true;
    wait->ec = seg_ec;
    wait->target = ctx_->eventcounts.Read(seg_ec) + 1;
  }
  return Status(Code::kBlocked, "page read posted");
}

void PageFrameManager::MaybeReadahead(PageTable* pt, uint32_t page, PackId pack,
                                      VtocIndex vtoc, QuotaCellId cell, EventcountId seg_ec) {
  // Forward-sequential detection: the fault either extends the last demand
  // fault by one, or lands on the frontier of the last anticipatory window
  // (the first page NOT prefetched — the scan ran off the end of it).
  const bool sequential =
      (pt->last_fault_page != UINT32_MAX && page == pt->last_fault_page + 1) ||
      (pt->prefetch_until != 0 && page == pt->prefetch_until);
  pt->last_fault_page = page;
  if (!sequential) {
    return;
  }
  DiskPack* dp = ctx_->volumes.pack(pack);
  VtocEntry* entry = dp->GetVtoc(vtoc);
  if (entry == nullptr) {
    return;
  }
  // Start right after the faulting page: pages of a still-live window are
  // in core (or locked in flight) and stop the loop below, so a stale
  // `prefetch_until` from an earlier pass needs no special casing.
  const uint32_t stop = page + 1 + kReadaheadDepth;
  uint32_t posted = 0;
  for (uint32_t q = page + 1; q < stop; ++q) {
    if (q >= pt->ptws.size() || q >= entry->file_map.size()) {
      break;
    }
    // Anticipation draws only on the pool above the low watermark, so it can
    // never push a demand fault into the inline-eviction fallback.
    if (free_list_.size() <= kLowWatermark) {
      break;
    }
    const FileMapEntry& fm = entry->file_map[q];
    if (!fm.allocated || fm.zero) {
      break;  // zero pages carry charge semantics; never prefetch them
    }
    Ptw& qptw = pt->ptws[q];
    if (qptw.in_core || qptw.locked || qptw.unallocated) {
      break;
    }
    const FrameIndex frame = free_list_.back();
    free_list_.pop_back();
    FrameInfo& fi = info(frame);
    fi.state = FrameState::kIoInProgress;
    fi.pt = pt;
    fi.page = q;
    fi.pack = pack;
    fi.vtoc = vtoc;
    fi.cell = cell;
    fi.seg_ec = seg_ec;
    fi.prefetched = true;
    fi.prefetch_grace = true;
    qptw.locked = true;  // colliding references wait on the page's eventcount
    dp->QueueRead(fm.record, frame.value);
    ctx_->metrics.Inc(id_prefetch_issued_);
    pt->prefetch_until = q + 1;
    ++posted;
  }
  if (posted == 0) {
    return;
  }
  if (async_) {
    PostWork(io_work_);  // the daemon dispatches the queued reads
    return;
  }
  // Synchronous mode has no daemon running between faults: the anticipatory
  // sweep completes before the fault returns, leaving no locked window
  // behind.
  Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
  DrainPackQueue(pack);
}

void PageFrameManager::DispatchPackQueue(PackId pack) {
  completed_reads_.clear();
  ctx_->volumes.pack(pack)->DispatchBatch(kIoBatchSize, &completed_reads_);
  for (uint64_t cookie : completed_reads_) {
    CompletePostedRead(FrameIndex(static_cast<uint32_t>(cookie)));
  }
}

void PageFrameManager::DrainPackQueue(PackId pack) {
  while (ctx_->volumes.pack(pack)->queued_io() > 0) {
    DispatchPackQueue(pack);
  }
}

bool PageFrameManager::InstallRead(FrameIndex frame) {
  FrameInfo& fi = info(frame);
  if (fi.state != FrameState::kIoInProgress || fi.pt == nullptr) {
    return false;
  }
  VtocEntry* entry = ctx_->volumes.pack(fi.pack)->GetVtoc(fi.vtoc);
  if (entry != nullptr) {
    ctx_->volumes.BindRecord(fi.pack, entry->map_entry(fi.page).record, &ctx_->memory, frame);
  }
  Ptw& ptw = fi.pt->ptws[fi.page];
  ptw.frame = frame.value;
  ptw.in_core = true;
  ptw.locked = false;
  ptw.used = false;  // unreferenced until a process actually touches it
  ptw.modified = false;
  fi.state = FrameState::kInUse;
  ctx_->metrics.Inc(id_io_completions_);
  return true;
}

void PageFrameManager::CompletePostedRead(FrameIndex frame) {
  if (!InstallRead(frame)) {
    return;  // the segment was deactivated while the read was queued
  }
  const FrameInfo& fi = info(frame);
  vpm_->Advance(fi.seg_ec);
  ctx_->trace.Instant(ev_io_complete_, 0, fi.page);
}

void PageFrameManager::CreateDaemonWork() {
  io_work_ = ctx_->eventcounts.Create("page_io_work");
  writer_work_ = ctx_->eventcounts.Create("page_writer_work");
  daemons_ = true;
}

size_t PageFrameManager::LandReads(Cycles now) {
  const size_t before = landed_;
  while (landed_ < posted_reads_.size() && posted_reads_[landed_].due <= now) {
    ++landed_;
  }
  if (landed_ == before) {
    return 0;
  }
  CallTracker::Scope scope(&ctx_->tracker, self_);
  PostWork(io_work_);
  return landed_ - before;
}

void PageFrameManager::PageIoDaemonStep() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
  // Only landed reads: one that falls due while this step runs waits for
  // the next pass's landing.
  while (landed_ > 0) {
    const PostedRead read = posted_reads_.front();
    posted_reads_.pop_front();
    --landed_;
    if (!InstallRead(read.frame)) {
      continue;  // the segment was deactivated while the read was in flight
    }
    const FrameInfo& fi = info(read.frame);
    ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall);
    // Notify every waiter: vps readied, parked processes' wakeups posted.
    vpm_->Advance(fi.seg_ec);
    // Close the fault.page_service span opened when the read was posted: the
    // histogram gets the full fault -> park -> I/O -> wakeup latency.
    ctx_->trace.CloseSpan(read.fault_begin, ev_fault_service_, read.initiator.value, fi.page,
                          hist_fault_service_);
  }
  // Dispatch the per-pack request queues: prefetch reads and batched daemon
  // writebacks complete here, one record-sorted round per pack per step.
  // What a round leaves queued is work for the next step.
  bool unfinished = false;
  for (uint16_t p = 0; p < ctx_->volumes.pack_count(); ++p) {
    DispatchPackQueue(PackId(p));
    unfinished = unfinished || ctx_->volumes.pack(PackId(p))->queued_io() > 0;
  }
  if (unfinished) {
    PostWork(io_work_);
  }
}

void PageFrameManager::ReplenishFreePool() {
  if (free_list_.size() >= kLowWatermark) {
    return;
  }
  bool any = false;
  while (free_list_.size() < kHighWatermark) {
    const uint32_t slot = ClockSelectVictim();
    if (slot == UINT32_MAX) {
      break;  // nothing evictable; the fault path will report exhaustion
    }
    const FrameIndex victim(first_frame_ + slot);
    ctx_->metrics.Inc(id_evictions_);
    ctx_->metrics.Inc(id_precleaned_frames_);
    if (!CleanAndRelease(victim, /*queue_writeback=*/true).ok()) {
      break;
    }
    any = true;
  }
  if (any) {
    // Flush the staged writebacks in record-sorted rounds.
    for (uint16_t p = 0; p < ctx_->volumes.pack_count(); ++p) {
      DrainPackQueue(PackId(p));
    }
  }
}

Status PageFrameManager::AddPage(PageTable* pt, uint32_t page, PackId pack, VtocIndex vtoc,
                                 QuotaCellId cell, EventcountId seg_ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall);
  VtocEntry* entry = ctx_->volumes.pack(pack)->GetVtoc(vtoc);
  if (entry == nullptr) {
    return Status(Code::kInvalidArgument, "no VTOC entry for segment");
  }
  if (page >= kMaxSegmentPages) {
    return Status(Code::kOutOfBounds, "page beyond maximum segment length");
  }
  FileMapEntry& fm = entry->mutable_map_entry(page);
  if (fm.allocated || fm.zero) {
    return Status(Code::kFailedPrecondition, "page already exists");
  }
  // Allocate the record eagerly: the full-pack exception is detected here,
  // "at the end of this call chain", and reported back up as a status.
  MKS_ASSIGN_OR_RETURN(RecordIndex record, ctx_->volumes.pack(pack)->AllocateRecord());
  MKS_ASSIGN_OR_RETURN(FrameIndex frame, AcquireFrame());
  fm.allocated = true;
  fm.zero = false;
  fm.record = record;

  FrameInfo& fi = info(frame);
  fi.pt = pt;
  fi.page = page;
  fi.pack = pack;
  fi.vtoc = vtoc;
  // The governing cell rides along so a later zero-page reclaim of this page
  // refunds the same books that were charged for its growth.
  fi.cell = cell;
  fi.seg_ec = seg_ec;

  ctx_->memory.ZeroFrame(frame);
  Ptw& ptw = pt->ptws[page];
  ptw.frame = frame.value;
  ptw.in_core = true;
  ptw.unallocated = false;
  ptw.locked = false;
  ptw.used = true;
  ptw.modified = false;
  ctx_->metrics.Inc(id_pages_added_);
  return Status::Ok();
}

Status PageFrameManager::EvictPage(PageTable* pt, uint32_t page, PackId pack, VtocIndex vtoc,
                                   QuotaCellId cell, EventcountId seg_ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Ptw& ptw = pt->ptws[page];
  if (!ptw.in_core) {
    return Status::Ok();
  }
  if (ptw.locked) {
    return Status(Code::kFailedPrecondition, "page is in fault service");
  }
  const FrameIndex frame(ptw.frame);
  FrameInfo& fi = info(frame);
  // Refresh home coordinates (the caller is authoritative).
  fi.pack = pack;
  fi.vtoc = vtoc;
  fi.cell = cell;
  fi.seg_ec = seg_ec;
  return CleanAndRelease(frame);
}

void PageFrameManager::AuditIntegrity(std::vector<std::string>* findings) const {
  size_t in_use = 0;
  size_t in_io = 0;
  for (size_t slot = 0; slot < frames_.size(); ++slot) {
    const FrameInfo& fi = frames_[slot];
    const uint32_t frame = first_frame_ + static_cast<uint32_t>(slot);
    if (fi.state == FrameState::kFree) {
      continue;
    }
    if (fi.state == FrameState::kInUse) {
      ++in_use;
    } else {
      ++in_io;
    }
    if (fi.pt == nullptr) {
      // An in-use frame between AcquireFrame and installation is transient;
      // seeing one at audit time (quiescence) is a leak.
      findings->push_back("frame " + std::to_string(frame) + " in use with no page table");
      continue;
    }
    if (fi.state == FrameState::kInUse) {
      const Ptw& ptw = fi.pt->ptws[fi.page];
      if (ptw.modified && !ptw.used && !ptw.locked && !IsWriterCandidate(FrameIndex(frame))) {
        findings->push_back("frame " + std::to_string(frame) +
                            " is cleanable but missing from the page writer's candidates");
      }
      if (!ptw.in_core) {
        findings->push_back("frame " + std::to_string(frame) +
                            " claims a page whose PTW is not in core");
      } else if (ptw.frame != frame) {
        findings->push_back("frame " + std::to_string(frame) + " vs PTW frame " +
                            std::to_string(ptw.frame) + ": cross-link broken");
      }
    }
  }
  const size_t total = frames_.size();
  if (free_list_.size() + in_use + in_io != total) {
    findings->push_back("frame accounting: free " + std::to_string(free_list_.size()) +
                        " + used " + std::to_string(in_use) + " + io " + std::to_string(in_io) +
                        " != total " + std::to_string(total));
  }
  // Lost writebacks: a record lent to a frame's first write gets its data
  // back only from that page's writeback, so a lent record must be the home
  // of a resident page that is still modified.
  std::vector<std::pair<uint16_t, uint32_t>> dirty_homes;
  for (const FrameInfo& fi : frames_) {
    if (fi.state != FrameState::kInUse || fi.pt == nullptr || !fi.pt->ptws[fi.page].modified) {
      continue;
    }
    const VtocEntry* entry = ctx_->volumes.pack(fi.pack)->GetVtoc(fi.vtoc);
    if (entry != nullptr && entry->map_entry(fi.page).allocated) {
      dirty_homes.emplace_back(fi.pack.value, entry->map_entry(fi.page).record.value);
    }
  }
  std::sort(dirty_homes.begin(), dirty_homes.end());
  for (uint16_t p = 0; p < ctx_->volumes.pack_count(); ++p) {
    const DiskPack* dp = ctx_->volumes.pack(PackId(p));
    for (uint32_t r = 0; r < dp->record_count(); ++r) {
      if (dp->lent(RecordIndex(r)) &&
          !std::binary_search(dirty_homes.begin(), dirty_homes.end(), std::make_pair(p, r))) {
        findings->push_back("pack " + std::to_string(p) + " record " + std::to_string(r) +
                            " is lent, but no resident modified page lives there: its "
                            "writeback was lost");
      }
    }
  }
}

void PageFrameManager::CollectCleanable(size_t max_frames, std::optional<PackId> pack,
                                        std::vector<FrameIndex>* out) {
  out->clear();
  // Ascending slot order through the candidate bitmap instead of a walk over
  // every frame.
  for (size_t w = 0; w < writer_candidates_.size() && out->size() < max_frames; ++w) {
    for (uint64_t bits = writer_candidates_[w]; bits != 0 && out->size() < max_frames;
         bits &= bits - 1) {
      const int b = std::countr_zero(bits);
      const uint64_t bit = uint64_t{1} << b;
      const uint32_t slot = static_cast<uint32_t>(w * 64 + b);
      const FrameInfo& fi = frames_[slot];
      if (fi.state != FrameState::kInUse || fi.pt == nullptr) {
        writer_candidates_[w] &= ~bit;
        continue;
      }
      const Ptw& ptw = fi.pt->ptws[fi.page];
      if (!ptw.modified || ptw.used) {
        writer_candidates_[w] &= ~bit;
        continue;  // clean, or recently referenced: the clock re-marks it
      }
      if (ptw.locked || (pack.has_value() && fi.pack != *pack)) {
        continue;  // busy, or homed on another pack
      }
      const VtocEntry* entry = ctx_->volumes.pack(fi.pack)->GetVtoc(fi.vtoc);
      if (entry == nullptr || !entry->map_entry(fi.page).allocated) {
        continue;  // zero page without a record; leave for eviction-time logic
      }
      // Zero detection rides the write transfer for free (the transfer
      // reads every word anyway).  An all-zero page is NOT cleaned: it stays
      // modified so the eviction path makes the reclaim-vs-retain accounting
      // decision — cleaning it would silently keep a record and a quota
      // charge the missing-page semantics say must be given back.
      const FrameIndex frame(first_frame_ + slot);
      const std::span<const Word> span = ctx_->memory.FrameView(frame);
      if (std::all_of(span.begin(), span.end(), [](Word word) { return word == 0; })) {
        continue;
      }
      out->push_back(frame);
    }
  }
}

void PageFrameManager::CleanInPlace(FrameIndex frame, bool queue) {
  const FrameInfo& fi = info(frame);
  Ptw& ptw = fi.pt->ptws[fi.page];
  DiskPack* dp = ctx_->volumes.pack(fi.pack);
  const RecordIndex record = dp->GetVtoc(fi.vtoc)->map_entry(fi.page).record;
  // The page stays resident and keeps viewing the image it hands over, so
  // its next write detaches the record again instead of copying.
  PageRef image = ctx_->memory.Snapshot(frame, ctx_->volumes.Home(fi.pack, record));
  if (queue) {
    dp->QueueWrite(record, std::move(image), 0);
  } else {
    dp->WriteRecord(record, std::move(image));
  }
  ptw.modified = false;
  const uint32_t slot = frame.value - first_frame_;
  writer_candidates_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
}

size_t PageFrameManager::LaunderPack(PackId pack, size_t max_pages) {
  CollectCleanable(max_pages, pack, &picks_);
  for (const FrameIndex frame : picks_) {
    CleanInPlace(frame, /*queue=*/true);
  }
  DrainPackQueue(pack);
  return picks_.size();
}

std::optional<PackId> PageFrameManager::NextIdleRoundPack() {
  const uint16_t packs = ctx_->volumes.pack_count();
  for (uint16_t step = 0; step < packs; ++step) {
    const PackId pack(static_cast<uint16_t>((idle_round_pack_ + step) % packs));
    CollectCleanable(1, pack, &picks_);
    if (!picks_.empty()) {
      return pack;
    }
  }
  return std::nullopt;
}

void PageFrameManager::IdleRound(PackId pack) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
  idle_round_pack_ = static_cast<uint16_t>((pack.value + 1) % ctx_->volumes.pack_count());
  ctx_->metrics.Inc(id_daemon_writes_, LaunderPack(pack, kIoBatchSize));
  ctx_->metrics.Inc(id_idle_rounds_);
}

void PageFrameManager::PageWriterStep(size_t max_writes) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope io(&ctx_->prof, ProfDomain::kPagingIo);
  if (pipeline_.enabled) {
    ReplenishFreePool();
  }
  CollectCleanable(max_writes, std::nullopt, &picks_);
  for (const FrameIndex frame : picks_) {
    CleanInPlace(frame, pipeline_.enabled);
    ctx_->metrics.Inc(id_daemon_writes_);
  }
  if (pipeline_.enabled && !picks_.empty()) {
    for (uint16_t p = 0; p < ctx_->volumes.pack_count(); ++p) {
      DrainPackQueue(PackId(p));
    }
  }
  if (max_writes > 0 && picks_.size() == max_writes) {
    PostWork(writer_work_);  // a full batch: more may be cleanable
  }
}

}  // namespace mks
