// Direct unit tests of the page frame manager, below the gate layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/rng.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// A harness exposing one segment's paging machinery directly.
struct PfmFixture {
  PfmFixture() : fx(SmallConfig()) {
    EXPECT_TRUE(fx.boot_status.ok());
    segno = fx.MustCreate(">pfm>victim");
    entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
    EXPECT_NE(entry, nullptr);
  }

  static KernelConfig SmallConfig() {
    KernelConfig config;
    config.memory_frames = 48;
    return config;
  }

  AstEntry* Ast() {
    const uint32_t index = fx.kernel.segments().FindIndex(entry->home.uid);
    return index == kNoAst ? nullptr : fx.kernel.segments().Get(index);
  }

  KernelFixture fx;
  Segno segno{};
  const KstEntry* entry = nullptr;
};

TEST(PageFrame, AddPageRejectsDuplicates) {
  PfmFixture h;
  ASSERT_TRUE(h.fx.kernel.gates().Write(*h.fx.ctx, h.segno, 0, 1).ok());
  AstEntry* ast = h.Ast();
  ASSERT_NE(ast, nullptr);
  EXPECT_EQ(h.fx.kernel.page_frames()
                .AddPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                         ast->page_ec)
                .code(),
            Code::kFailedPrecondition);
}

TEST(PageFrame, EvictAndRefault) {
  PfmFixture h;
  KernelGates& gates = h.fx.kernel.gates();
  ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, 5, 99).ok());
  AstEntry* ast = h.Ast();
  ASSERT_NE(ast, nullptr);
  ASSERT_TRUE(ast->page_table.ptws[0].in_core);
  const uint32_t free_before = h.fx.kernel.page_frames().free_frames();
  ASSERT_TRUE(h.fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());
  EXPECT_FALSE(ast->page_table.ptws[0].in_core);
  EXPECT_EQ(h.fx.kernel.page_frames().free_frames(), free_before + 1);
  // Refault through the gate: the data comes back from the record.
  auto value = gates.Read(*h.fx.ctx, h.segno, 5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 99u);
}

TEST(PageFrame, EvictingAnAbsentPageIsANoOp) {
  PfmFixture h;
  ASSERT_TRUE(h.fx.kernel.gates().Write(*h.fx.ctx, h.segno, 0, 1).ok());
  AstEntry* ast = h.Ast();
  EXPECT_TRUE(h.fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 3, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());
}

TEST(PageFrame, WriterDaemonCleansModifiedPages) {
  PfmFixture h;
  KernelGates& gates = h.fx.kernel.gates();
  PageFrameManager& pfm = h.fx.kernel.page_frames();
  for (uint32_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, p * kPageWords, p + 1).ok());
  }
  AstEntry* ast = h.Ast();
  // The daemon skips recently-used pages; age them through a real clock
  // pass: fill memory from another segment until a fault must evict, which
  // clears every `used` bit on the first sweep.
  const Segno filler = h.fx.MustCreate(">pfm>filler");
  const uint64_t evictions0 = h.fx.kernel.metrics().Get("pfm.evictions");
  for (uint32_t p = 0; h.fx.kernel.metrics().Get("pfm.evictions") == evictions0; ++p) {
    ASSERT_LT(p, kMaxSegmentPages);
    ASSERT_TRUE(gates.Write(*h.fx.ctx, filler, p * kPageWords, 100 + p).ok()) << p;
  }
  for (uint32_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(ast->page_table.ptws[p].in_core) << p;
    ASSERT_FALSE(ast->page_table.ptws[p].used) << p;
    ASSERT_TRUE(ast->page_table.ptws[p].modified) << p;
  }
  EXPECT_TRUE(pfm.PageWriterStep(kMaxSegmentPages));
  EXPECT_GT(h.fx.kernel.metrics().Get("pfm.daemon_writes"), 0u);
  for (uint32_t p = 0; p < 6; ++p) {
    EXPECT_FALSE(ast->page_table.ptws[p].modified) << p;
    EXPECT_TRUE(ast->page_table.ptws[p].in_core) << p;  // cleaned, not evicted
  }
  // Nothing left to write on the second pass.
  EXPECT_FALSE(pfm.PageWriterStep(kMaxSegmentPages));
  EXPECT_TRUE(h.fx.kernel.AuditIntegrity().empty());
}

TEST(PageFrame, ZeroScanChargedOnlyForModifiedEvictions) {
  PfmFixture h;
  KernelGates& gates = h.fx.kernel.gates();
  ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, 0, 1).ok());
  AstEntry* ast = h.Ast();
  const uint64_t scans_before = h.fx.kernel.metrics().Get("hw.zero_scans");
  // First eviction: modified -> scanned.
  ASSERT_TRUE(h.fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());
  EXPECT_EQ(h.fx.kernel.metrics().Get("hw.zero_scans"), scans_before + 1);
  // Fault it back READ-only and evict again: clean -> no scan.
  ASSERT_TRUE(gates.Read(*h.fx.ctx, h.segno, 0).ok());
  ASSERT_TRUE(h.fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0, ast->pack, ast->vtoc, ast->quota_cell,
                             ast->page_ec)
                  .ok());
  EXPECT_EQ(h.fx.kernel.metrics().Get("hw.zero_scans"), scans_before + 1);
}

TEST(PageFrame, SequentialSweepLargerThanMemoryMakesProgress) {
  KernelConfig config;
  config.memory_frames = 48;
  config.ast_slots = 16;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">pfm>big");
  KernelGates& gates = fx.kernel.gates();
  for (uint32_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords + p, p).ok()) << p;
  }
  for (uint32_t p = 0; p < 64; ++p) {
    auto value = gates.Read(*fx.ctx, segno, p * kPageWords + p);
    ASSERT_TRUE(value.ok()) << p;
    EXPECT_EQ(*value, p);
  }
  EXPECT_GT(fx.kernel.metrics().Get("pfm.evictions"), 0u);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.writebacks"), 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// The page writer's choice, recomputed by a full scan of every resident
// page: the first `max_writes` frames, in ascending frame order, that are
// modified, unreferenced, unlocked, backed by a record and not all zero.
std::vector<uint32_t> ReferenceWriterPicks(Kernel& kernel, size_t max_writes) {
  std::vector<uint32_t> eligible;
  SegmentManager& segs = kernel.segments();
  for (uint32_t slot = 0; slot < segs.ast_slots(); ++slot) {
    const AstEntry* ast = segs.Get(slot);
    if (ast == nullptr) {
      continue;
    }
    const VtocEntry* vtoc = kernel.ctx().volumes.pack(ast->pack)->GetVtoc(ast->vtoc);
    for (uint32_t p = 0; p < ast->page_table.ptws.size(); ++p) {
      const Ptw& ptw = ast->page_table.ptws[p];
      if (!ptw.in_core || !ptw.modified || ptw.used || ptw.locked || vtoc == nullptr ||
          !vtoc->map_entry(p).allocated) {
        continue;
      }
      bool all_zero = true;
      for (const Word w : kernel.ctx().memory.FrameSpan(FrameIndex(ptw.frame))) {
        all_zero = all_zero && w == 0;
      }
      if (!all_zero) {
        eligible.push_back(ptw.frame);
      }
    }
  }
  std::sort(eligible.begin(), eligible.end());
  if (eligible.size() > max_writes) {
    eligible.resize(max_writes);
  }
  return eligible;
}

// Frames of every resident modified page.
std::vector<uint32_t> ModifiedFrames(Kernel& kernel) {
  std::vector<uint32_t> frames;
  SegmentManager& segs = kernel.segments();
  for (uint32_t slot = 0; slot < segs.ast_slots(); ++slot) {
    const AstEntry* ast = segs.Get(slot);
    if (ast == nullptr) {
      continue;
    }
    for (const Ptw& ptw : ast->page_table.ptws) {
      if (ptw.in_core && ptw.modified) {
        frames.push_back(ptw.frame);
      }
    }
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

// Seeded reads, writes (a fifth of them zeros) and evictions over four
// segments larger than memory together, so the fault path runs the clock;
// every page-writer step is checked against the full-scan reference.  The
// machine has more than 64 pageable frames, so the writer's candidate set
// spans several bitmap words.
void RunWriterChurn(const PagingPipeline& pipeline, uint64_t seed) {
  KernelConfig config;
  config.memory_frames = 192;
  config.paging_pipeline = pipeline;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  PageFrameManager& pfm = fx.kernel.page_frames();
  std::vector<Segno> segnos;
  for (int i = 0; i < 4; ++i) {
    segnos.push_back(fx.MustCreate(">churn>s" + std::to_string(i)));
  }
  constexpr uint32_t kPages = 56;
  Rng rng(seed);
  uint64_t steps_with_writes = 0;
  for (int step = 0; step < 4000; ++step) {
    const Segno segno = segnos[rng.NextBelow(segnos.size())];
    const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(kPages)) * kPageWords +
                            static_cast<uint32_t>(rng.NextBelow(4));
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 40) {
      const Word value = rng.NextBool(0.2) ? 0 : 1 + rng.NextBelow(1000);
      ASSERT_TRUE(gates.Write(*fx.ctx, segno, offset, value).ok()) << step;
    } else if (dice < 80) {
      ASSERT_TRUE(gates.Read(*fx.ctx, segno, offset).ok()) << step;
    } else if (dice < 85) {
      const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
      ASSERT_NE(entry, nullptr);
      AstEntry* ast = fx.kernel.segments().Find(entry->home.uid);
      if (ast != nullptr) {
        ASSERT_TRUE(pfm.EvictPage(&ast->page_table, offset / kPageWords, ast->pack,
                                  ast->vtoc, ast->quota_cell, ast->page_ec)
                        .ok())
            << step;
      }
    } else {
      const size_t max_writes = 1 + rng.NextBelow(12);
      const std::vector<uint32_t> expected = ReferenceWriterPicks(fx.kernel, max_writes);
      const std::vector<uint32_t> dirty_before = ModifiedFrames(fx.kernel);
      const uint64_t writes0 = fx.kernel.metrics().Get("pfm.daemon_writes");
      EXPECT_EQ(pfm.PageWriterStep(max_writes), !expected.empty()) << step;
      // The picks are exactly the frames the step cleaned.
      std::vector<uint32_t> cleaned;
      const std::vector<uint32_t> dirty_after = ModifiedFrames(fx.kernel);
      std::set_difference(dirty_before.begin(), dirty_before.end(), dirty_after.begin(),
                          dirty_after.end(), std::back_inserter(cleaned));
      ASSERT_EQ(cleaned, expected) << step;
      ASSERT_EQ(fx.kernel.metrics().Get("pfm.daemon_writes") - writes0, expected.size());
      steps_with_writes += expected.empty() ? 0 : 1;
    }
    if (step % 100 == 0) {
      const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
      ASSERT_TRUE(findings.empty()) << step << ": " << findings.front();
    }
  }
  EXPECT_GT(steps_with_writes, 50u);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.inline_evictions"), 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(PageFrame, WriterPicksMatchAFullScanUnderChurn) {
  RunWriterChurn(PagingPipeline{}, 11);
  PagingPipeline batched;
  batched.batched_io = true;
  RunWriterChurn(batched, 12);
  PagingPipeline readahead;
  readahead.batched_io = true;
  readahead.readahead = true;
  RunWriterChurn(readahead, 13);
}

// ---- Anticipatory paging pipeline ----

// A user-visible snapshot of one pipelined run: every value the workload
// read, plus the post-shutdown on-disk state (per-VTOC logical page contents
// and flushed quota counts — logical, not record indices, because zero-page
// reclaim and reallocation may legally renumber records).
struct PipelineObservation {
  std::vector<uint64_t> reads;
  // One line per (pack, vtoc, page): "uid:page=word0" or "uid:page=zero".
  std::vector<std::string> disk;
  std::vector<std::string> quota;
  uint64_t free_records = 0;
};

// The same pressured workload for every knob setting: fill 64 pages (48-frame
// machine), punch a run of zero pages, then sequential and scattered read
// passes with the page-writer pumped as idle time.
PipelineObservation RunPipelineWorkload(const PagingPipeline& pipeline) {
  KernelConfig config;
  config.memory_frames = 48;
  config.paging_pipeline = pipeline;
  KernelFixture fx{config};
  EXPECT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">eq>a");
  KernelGates& gates = fx.kernel.gates();
  PipelineObservation obs;
  uint32_t refs = 0;
  auto touch = [&](uint32_t page) {
    auto value = gates.Read(*fx.ctx, segno, page * kPageWords);
    EXPECT_TRUE(value.ok()) << page;
    obs.reads.push_back(value.ok() ? *value : UINT64_MAX);
    if (++refs % 4 == 0) {
      (void)fx.kernel.vprocs().RunKernelTask("page_writer");
    }
  };
  for (uint32_t p = 0; p < 64; ++p) {
    EXPECT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords, p + 1).ok()) << p;
  }
  for (uint32_t p = 40; p < 48; ++p) {  // these become zero pages at eviction
    EXPECT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords, 0).ok()) << p;
  }
  for (uint32_t round = 0; round < 2; ++round) {
    for (uint32_t p = 0; p < 64; ++p) {
      touch(p);
    }
  }
  for (uint32_t i = 0, p = 0; i < 64; ++i, p = (p + 29) % 64) {
    touch(p);
  }
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
  EXPECT_TRUE(fx.kernel.Shutdown().ok());
  // On-disk state after an orderly shutdown.
  std::vector<Word> buf(kPageWords);
  for (uint16_t p = 0; p < fx.kernel.config().pack_count; ++p) {
    const DiskPack* pack = fx.kernel.ctx().volumes.pack(PackId(p));
    obs.free_records += pack->free_records();
    for (uint32_t v = 0; v < pack->vtoc_slots(); ++v) {
      const VtocEntry* entry = pack->GetVtoc(VtocIndex(v));
      if (entry == nullptr) {
        continue;
      }
      const std::string uid = std::to_string(entry->uid.value);
      for (uint32_t page = 0; page < entry->file_map.size(); ++page) {
        const FileMapEntry& fm = entry->file_map[page];
        if (fm.zero) {
          obs.disk.push_back(uid + ":" + std::to_string(page) + "=zero");
        } else if (fm.allocated) {
          pack->CopyRecord(fm.record, std::span<Word>(buf));
          obs.disk.push_back(uid + ":" + std::to_string(page) + "=" +
                             std::to_string(buf[0]));
        }
      }
      if (entry->quota.present) {
        obs.quota.push_back(uid + "=" + std::to_string(entry->quota.count) + "/" +
                            std::to_string(entry->quota.limit));
      }
    }
  }
  return obs;
}

TEST(PagingPipeline, EveryKnobCombinationIsObservationallyEquivalent) {
  const PipelineObservation baseline = RunPipelineWorkload(PagingPipeline{});
  ASSERT_EQ(baseline.reads.size(), 64u * 3);
  for (int mask = 1; mask < 8; ++mask) {
    PagingPipeline pp;
    pp.precleaning = (mask & 1) != 0;
    pp.batched_io = (mask & 2) != 0;
    pp.readahead = (mask & 4) != 0;
    const PipelineObservation obs = RunPipelineWorkload(pp);
    EXPECT_EQ(obs.reads, baseline.reads) << "mask " << mask;
    EXPECT_EQ(obs.disk, baseline.disk) << "mask " << mask;
    EXPECT_EQ(obs.quota, baseline.quota) << "mask " << mask;
    EXPECT_EQ(obs.free_records, baseline.free_records) << "mask " << mask;
  }
}

TEST(PagingPipeline, PrecleaningKeepsTheFaultPathOutOfEvictions) {
  PagingPipeline pp;
  pp.precleaning = true;
  KernelConfig config;
  config.memory_frames = 48;
  config.paging_pipeline = pp;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">wm>a");
  KernelGates& gates = fx.kernel.gates();
  for (uint32_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords, p + 1).ok());
  }
  PageFrameManager& pfm = fx.kernel.page_frames();
  // The fill above ran without idle time; count from here, where the daemon
  // gets its pumps.
  const uint64_t inline0 = fx.kernel.metrics().Get("pfm.inline_evictions");
  const uint64_t evict0 = fx.kernel.metrics().Get("pfm.evictions");
  const uint64_t precleaned0 = fx.kernel.metrics().Get("pfm.precleaned_frames");
  (void)fx.kernel.vprocs().RunKernelTask("page_writer");  // prime the pool
  bool replenished_once = false;
  uint32_t refs = 0;
  for (uint32_t round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 64; ++p) {
      ASSERT_TRUE(gates.Read(*fx.ctx, segno, p * kPageWords).ok());
      if (++refs % 4 == 0) {
        const bool was_dry = pfm.free_frames() < pp.low_watermark;
        (void)fx.kernel.vprocs().RunKernelTask("page_writer");
        // Watermark invariant: a pump that found the pool below the low
        // watermark leaves it at the high watermark (plenty is evictable
        // here), and never overshoots it.
        if (was_dry) {
          EXPECT_EQ(pfm.free_frames(), pp.high_watermark);
          replenished_once = true;
        }
        EXPECT_GE(pfm.free_frames(), pp.low_watermark);
      }
    }
  }
  EXPECT_TRUE(replenished_once);
  // Pumped often enough, demand never finds the pool dry: zero inline
  // evictions, all replacement moved to the daemon.
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.inline_evictions") - inline0, 0u);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.precleaned_frames") - precleaned0, 0u);
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.evictions") - evict0,
            fx.kernel.metrics().Get("pfm.precleaned_frames") - precleaned0);
}

TEST(PagingPipeline, PrefetchAccountingBalances) {
  KernelConfig config;
  config.memory_frames = 48;
  config.paging_pipeline = PagingPipeline::Full();
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">pf>a");
  KernelGates& gates = fx.kernel.gates();
  for (uint32_t p = 0; p < 64; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords, p + 1).ok());
  }
  uint32_t refs = 0;
  for (uint32_t round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 64; ++p) {
      ASSERT_TRUE(gates.Read(*fx.ctx, segno, p * kPageWords).ok());
      if (++refs % 4 == 0) {
        (void)fx.kernel.vprocs().RunKernelTask("page_writer");
      }
    }
  }
  Metrics& m = fx.kernel.metrics();
  EXPECT_GT(m.Get("pfm.prefetch_issued"), 0u);
  EXPECT_GT(m.Get("pfm.prefetch_hits"), 0u);
  // The sequential scan consumes what it anticipates: every prefetched page
  // is referenced before the clock reclaims it.
  EXPECT_EQ(m.Get("pfm.prefetch_waste"), 0u);
  // Fault suppression is the point: far fewer demand faults than touches.
  EXPECT_LT(m.Get("pfm.faults_serviced"), uint64_t{3 * 64});
  // Deactivating everything forces a final verdict on every prefetched frame:
  // the books must balance exactly.
  ASSERT_TRUE(fx.kernel.Shutdown().ok());
  EXPECT_EQ(m.Get("pfm.prefetch_issued"),
            m.Get("pfm.prefetch_hits") + m.Get("pfm.prefetch_waste"));
}

TEST(KnownSegment, InitiateAssignsDistinctSegnosPerProcess) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno a = fx.MustCreate(">k>a");
  const Segno b = fx.MustCreate(">k>b");
  EXPECT_NE(a.value, b.value);
  EXPECT_GE(a.value, kSystemSegnoLimit);
  // A second process gets its own numbering, independent of the first.
  auto other = fx.kernel.processes().CreateProcess(TestSubject("Other"));
  ASSERT_TRUE(other.ok());
  ProcContext* ctx2 = fx.kernel.processes().Context(*other);
  PathWalker walker(&fx.kernel.gates());
  auto b2 = walker.Initiate(*ctx2, ">k>b");
  ASSERT_TRUE(b2.ok());
  // Different processes may reuse the same segment numbers for different
  // segments; identity lives in the uid, not the number.
  const KstEntry* mine = fx.kernel.known_segments().Lookup(fx.pid, b);
  const KstEntry* theirs = fx.kernel.known_segments().Lookup(*other, *b2);
  ASSERT_NE(mine, nullptr);
  ASSERT_NE(theirs, nullptr);
  EXPECT_EQ(mine->home.uid.value, theirs->home.uid.value);
}

TEST(KnownSegment, SegnoOfFindsBindings) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">k>x");
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  ASSERT_NE(entry, nullptr);
  auto found = fx.kernel.known_segments().SegnoOf(fx.pid, entry->home.uid);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->value, segno.value);
  EXPECT_EQ(fx.kernel.known_segments().SegnoOf(fx.pid, SegmentUid(0xdead)).code(),
            Code::kNotFound);
}

TEST(KnownSegment, KstExhaustionReported) {
  KernelConfig config;
  config.user_sdw_count = 8;  // tiny KST (some slots used by the state segment)
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  Status last = Status::Ok();
  for (int i = 0; i < 12 && last.ok(); ++i) {
    PathWalker walker(&fx.kernel.gates());
    auto entry = walker.CreateSegment(*fx.ctx, ">k>f" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    last = fx.kernel.gates().Initiate(*fx.ctx, *entry).status();
  }
  EXPECT_EQ(last.code(), Code::kResourceExhausted);
}

}  // namespace
}  // namespace mks
