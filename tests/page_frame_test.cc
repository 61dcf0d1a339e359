// Direct unit tests of the page frame manager, below the gate layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
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

  Status Evict(uint32_t page) {
    AstEntry* ast = Ast();
    return fx.kernel.page_frames().EvictPage(&ast->page_table, page);
  }
  DiskPack* Pack() { return fx.kernel.ctx().volumes.pack(Ast()->page_table.pack); }
  RecordIndex Record(uint32_t page) {
    return Pack()->GetVtoc(Ast()->page_table.vtoc)->map_entry(page).record;
  }
  FrameIndex Frame(uint32_t page) { return FrameIndex(Ast()->page_table.ptws[page].frame); }
  PrimaryMemory& Memory() { return fx.kernel.ctx().memory; }
  // Writes `value` at word `offset` of page 0, writes the page back and
  // faults it in again read-only, so its frame is bound to the record's
  // image.
  void ReadBackBound(uint32_t offset, Word value) {
    KernelGates& gates = fx.kernel.gates();
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, offset, value).ok());
    ASSERT_TRUE(Evict(0).ok());
    auto read = gates.Read(*fx.ctx, segno, offset);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(*read, value);
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
                .AddPage(&ast->page_table, 0)
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
                  .EvictPage(&ast->page_table, 0)
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
                  .EvictPage(&ast->page_table, 3)
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
  pfm.PageWriterStep(kMaxSegmentPages);
  const uint64_t writes = h.fx.kernel.metrics().Get("pfm.daemon_writes");
  EXPECT_GT(writes, 0u);
  for (uint32_t p = 0; p < 6; ++p) {
    EXPECT_FALSE(ast->page_table.ptws[p].modified) << p;
    EXPECT_TRUE(ast->page_table.ptws[p].in_core) << p;  // cleaned, not evicted
  }
  // Nothing left to write on the second pass.
  pfm.PageWriterStep(kMaxSegmentPages);
  EXPECT_EQ(h.fx.kernel.metrics().Get("pfm.daemon_writes"), writes);
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
                  .EvictPage(&ast->page_table, 0)
                  .ok());
  EXPECT_EQ(h.fx.kernel.metrics().Get("hw.zero_scans"), scans_before + 1);
  // Fault it back READ-only and evict again: clean -> no scan.
  ASSERT_TRUE(gates.Read(*h.fx.ctx, h.segno, 0).ok());
  ASSERT_TRUE(h.fx.kernel.page_frames()
                  .EvictPage(&ast->page_table, 0)
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

// ---- Page images shared by reference ----

TEST(PageSharing, ReadInViewsTheRecordsImage) {
  PfmFixture h;
  const uint64_t copies = h.Memory().page_copies();
  h.ReadBackBound(5, 99);
  EXPECT_EQ(h.Memory().FrameView(h.Frame(0)).data(), h.Pack()->Share(h.Record(0))->data());
  EXPECT_FALSE(h.Pack()->lent(h.Record(0)));
  EXPECT_EQ(h.Memory().page_copies(), copies);
}

TEST(PageSharing, FirstWriteDetachesTheRecordAndASecondWriteDoesNotCopy) {
  PfmFixture h;
  KernelGates& gates = h.fx.kernel.gates();
  h.ReadBackBound(5, 99);
  const uint64_t copies = h.Memory().page_copies();
  const Word* image = h.Memory().FrameView(h.Frame(0)).data();
  ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, 6, 1).ok());
  EXPECT_TRUE(h.Pack()->lent(h.Record(0)));
  EXPECT_EQ(h.Memory().FrameView(h.Frame(0)).data(), image);  // written in place
  ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, 7, 2).ok());
  EXPECT_EQ(h.Memory().FrameView(h.Frame(0)).data(), image);
  EXPECT_EQ(h.Memory().page_copies(), copies);
  // Lent to a resident modified page: not a finding.
  EXPECT_TRUE(h.fx.kernel.AuditIntegrity().empty());
  // The writeback hands the same image back to the record.
  ASSERT_TRUE(h.Evict(0).ok());
  EXPECT_FALSE(h.Pack()->lent(h.Record(0)));
  EXPECT_EQ(h.Pack()->Share(h.Record(0))->data(), image);
  EXPECT_EQ(*gates.Read(*h.fx.ctx, h.segno, 6), 1u);
  EXPECT_EQ(h.Memory().page_copies(), copies);
}

TEST(PageSharing, RetainedZeroPageReadsBackZeroAndRelocates) {
  PfmFixture h;
  h.fx.kernel.page_frames().set_retain_zero_records(true);
  KernelGates& gates = h.fx.kernel.gates();
  h.ReadBackBound(3, 5);
  // Zero the page through the bound frame: the record is lent to it.
  ASSERT_TRUE(gates.Write(*h.fx.ctx, h.segno, 3, 0).ok());
  const RecordIndex record = h.Record(0);
  ASSERT_TRUE(h.Pack()->lent(record));
  ASSERT_TRUE(h.Evict(0).ok());
  EXPECT_EQ(h.fx.kernel.metrics().Get("pfm.zero_retained"), 1u);
  EXPECT_FALSE(h.Pack()->lent(record));  // kept, with its data dropped
  EXPECT_EQ(*gates.Read(*h.fx.ctx, h.segno, 3), 0u);
  ASSERT_TRUE(h.Evict(0).ok());
  EXPECT_TRUE(h.fx.kernel.AuditIntegrity().empty());
  // Relocation reads every record of the segment.
  const uint32_t ast = h.fx.kernel.segments().FindIndex(h.entry->home.uid);
  h.fx.kernel.address_spaces().DisconnectEverywhere(h.entry->home.uid);
  ASSERT_TRUE(h.fx.kernel.segments().Relocate(ast).ok());
  const PageTable& home = h.fx.kernel.segments().Get(ast)->page_table;
  const VtocEntry* moved = h.fx.kernel.ctx().volumes.pack(home.pack)->GetVtoc(home.vtoc);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->RecordsUsed(), 1u);
  EXPECT_TRUE(moved->map_entry(0).zero);
}

// Cleans a dirty page behind page control's back: its frame is released
// without the writeback that would have returned the record's data.
void LoseWriteback(PfmFixture& h) {
  h.ReadBackBound(5, 99);
  ASSERT_TRUE(h.fx.kernel.gates().Write(*h.fx.ctx, h.segno, 5, 100).ok());
  ASSERT_TRUE(h.Pack()->lent(h.Record(0)));
  h.Ast()->page_table.ptws[0].modified = false;
  ASSERT_TRUE(h.Evict(0).ok());
}

TEST(PageSharing, AuditReportsALostWriteback) {
  PfmFixture h;
  LoseWriteback(h);
  const std::vector<std::string> findings = h.fx.kernel.AuditIntegrity();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("writeback was lost"), std::string::npos) << findings[0];
}

TEST(PageSharingDeathTest, ReadOfALostWritebackAborts) {
  EXPECT_DEATH(
      {
        PfmFixture h;
        LoseWriteback(h);
        (void)h.fx.kernel.gates().Read(*h.fx.ctx, h.segno, 5);
      },
      "writeback was lost");
}

TEST(PageSharing, PipelinedSweepMakesNoCopiesOnceWrittenBack) {
  KernelConfig config;
  config.memory_frames = 48;
  config.paging_pipeline = PagingPipeline::Full();
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">pfm>cyclic");
  KernelGates& gates = fx.kernel.gates();
  constexpr uint32_t kPages = 64;  // larger than memory
  const auto sweep = [&](Word round) {
    for (uint32_t p = 0; p < kPages; ++p) {
      const uint32_t offset = p * kPageWords + p;
      if (round > 0) {
        auto value = gates.Read(*fx.ctx, segno, offset);
        ASSERT_TRUE(value.ok()) << p;
        ASSERT_EQ(*value, round * 1000 + p - 1000) << p;
      }
      ASSERT_TRUE(gates.Write(*fx.ctx, segno, offset, round * 1000 + p).ok()) << p;
    }
  };
  sweep(0);  // creates every page; the cyclic order writes each one back
  sweep(1);
  const uint64_t copies = fx.kernel.ctx().memory.page_copies();
  const uint64_t writes = fx.kernel.metrics().Get("disk.writes");
  for (Word round = 2; round < 5; ++round) {
    sweep(round);
  }
  EXPECT_GT(fx.kernel.metrics().Get("disk.writes"), writes + 2 * kPages);
  EXPECT_EQ(fx.kernel.ctx().memory.page_copies(), copies);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// The candidate walk's choice, recomputed by a full scan of every resident
// page: the first `max_writes` frames, in ascending frame order, that are
// modified, unreferenced, unlocked, backed by a record and not all zero —
// and homed on `pack`, when one is given.
std::vector<uint32_t> ReferenceWriterPicks(Kernel& kernel, size_t max_writes,
                                           std::optional<PackId> pack = std::nullopt) {
  std::vector<uint32_t> eligible;
  SegmentManager& segs = kernel.segments();
  for (uint32_t slot = 0; slot < segs.ast_slots(); ++slot) {
    const AstEntry* ast = segs.Get(slot);
    if (ast == nullptr || (pack.has_value() && ast->page_table.pack != *pack)) {
      continue;
    }
    const VtocEntry* vtoc =
        kernel.ctx().volumes.pack(ast->page_table.pack)->GetVtoc(ast->page_table.vtoc);
    for (uint32_t p = 0; p < ast->page_table.ptws.size(); ++p) {
      const Ptw& ptw = ast->page_table.ptws[p];
      if (!ptw.in_core || !ptw.modified || ptw.used || ptw.locked || vtoc == nullptr ||
          !vtoc->map_entry(p).allocated) {
        continue;
      }
      bool all_zero = true;
      for (const Word w : kernel.ctx().memory.FrameView(FrameIndex(ptw.frame))) {
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
// spans several bitmap words.  With the pipeline on, a page-writer step is
// checked only where the free pool sits at or above the low watermark, so
// pre-cleaning stays inert in it and the candidate walk alone decides what
// is cleaned.
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
      AstEntry* ast = fx.kernel.segments().Get(fx.kernel.segments().FindIndex(entry->home.uid));
      if (ast != nullptr) {
        ASSERT_TRUE(pfm.EvictPage(&ast->page_table, offset / kPageWords).ok())
            << step;
      }
    } else {
      const size_t max_writes = 1 + rng.NextBelow(12);
      // The shared walk, unfiltered and per pack (the laundering filter),
      // against the full scan.
      std::vector<FrameIndex> picks;
      for (int p = -1; p < fx.kernel.config().pack_count; ++p) {
        const std::optional<PackId> pack =
            p < 0 ? std::nullopt : std::optional<PackId>(PackId(static_cast<uint16_t>(p)));
        pfm.CollectCleanable(max_writes, pack, &picks);
        std::vector<uint32_t> walked;
        for (const FrameIndex frame : picks) {
          walked.push_back(frame.value);
        }
        ASSERT_EQ(walked, ReferenceWriterPicks(fx.kernel, max_writes, pack))
            << step << " pack " << p;
      }
      if (pipeline.enabled && pfm.free_frames() < PageFrameManager::kLowWatermark) {
        // Pre-cleaning would run ahead of the picks.  Refill only a dry pool,
        // with a step that cleans nothing, so faults in between still find
        // it dry and launder inline.
        if (pfm.free_frames() == 0) {
          pfm.PageWriterStep(0);
        }
      } else {
        const std::vector<uint32_t> expected = ReferenceWriterPicks(fx.kernel, max_writes);
        const std::vector<uint32_t> dirty_before = ModifiedFrames(fx.kernel);
        const uint64_t writes0 = fx.kernel.metrics().Get("pfm.daemon_writes");
        const EventcountTable& ecs = fx.kernel.ctx().eventcounts;
        const uint64_t work0 = pipeline.enabled ? ecs.Read(pfm.writer_work()) : 0;
        pfm.PageWriterStep(max_writes);
        if (pipeline.enabled) {
          // The step posts itself more work exactly when it cleaned a full
          // batch.
          ASSERT_EQ(ecs.Read(pfm.writer_work()) - work0, expected.size() == max_writes ? 1u : 0u)
              << step;
        }
        // The picks are exactly the frames the step cleaned.
        std::vector<uint32_t> cleaned;
        const std::vector<uint32_t> dirty_after = ModifiedFrames(fx.kernel);
        std::set_difference(dirty_before.begin(), dirty_before.end(), dirty_after.begin(),
                            dirty_after.end(), std::back_inserter(cleaned));
        ASSERT_EQ(cleaned, expected) << step;
        ASSERT_EQ(fx.kernel.metrics().Get("pfm.daemon_writes") - writes0, expected.size());
        steps_with_writes += expected.empty() ? 0 : 1;
      }
    }
    if (step % 100 == 0) {
      const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
      ASSERT_TRUE(findings.empty()) << step << ": " << findings.front();
    }
  }
  EXPECT_GT(steps_with_writes, 50u);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.inline_evictions"), 0u);
  if (pipeline.enabled) {
    // Fault-path laundering cleans pages behind the candidate walk's back.
    EXPECT_GT(fx.kernel.metrics().Get("pfm.laundered_pages"), 0u);
  }
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(PageFrame, WriterPicksMatchAFullScanUnderChurn) {
  RunWriterChurn(PagingPipeline{}, 11);
  RunWriterChurn(PagingPipeline::Full(), 14);
  RunWriterChurn(PagingPipeline::Full(), 15);
}

// ---- Laundering on the fault path ----

// Cleanable pages beside the victim on its pack: fewer than kIoBatchSize - 1,
// so the decoys, not the batch size, decide what the round takes.
constexpr uint32_t kLaundered = 5;
static_assert(PageFrameManager::kIoBatchSize > kLaundered + 1);

// What one dirty inline eviction did, seen from outside the manager.
struct EvictionOutcome {
  Cycles fault_cycles = 0;  // the gate write whose fault evicts the victim
  uint64_t disk_writes = 0;
  uint64_t batch_rounds = 0;
  uint64_t batched_records = 0;
  uint64_t writebacks = 0;
  uint64_t laundered = 0;
  uint64_t daemon_writes = 0;
};

// Stages one inline eviction whose every participant is known, then runs it
// under `pipeline`.  Segment A's first written page V is the clock's victim;
// beside it on A's pack sit kLaundered cleanable pages and three decoys (a
// referenced page, a locked page, an all-zero modified page), and segment B
// holds one cleanable page on the other pack.  Every other resident page is
// clean or all zero, and referenced, so neither the clock nor the candidate
// walk can take it.  With `clean_victim` the page writer first cleans V and
// every other cleanable page.
// The set-up runs with the pipeline off, so only the measured fault differs
// between pipelines.
EvictionOutcome RunDirtyInlineEviction(const PagingPipeline& pipeline, bool clean_victim) {
  EvictionOutcome out;
  KernelFixture fx{PfmFixture::SmallConfig()};
  EXPECT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  PageFrameManager& pfm = fx.kernel.page_frames();
  SegmentManager& segs = fx.kernel.segments();
  Metrics& m = fx.kernel.metrics();
  auto ast_of = [&](Segno segno) {
    return segs.Get(segs.FindIndex(fx.kernel.known_segments().Lookup(fx.pid, segno)->home.uid));
  };
  auto write = [&](Segno segno, uint32_t page, Word value) {
    EXPECT_TRUE(gates.Write(*fx.ctx, segno, page * kPageWords, value).ok()) << page;
  };

  // A, a filler C and, on the other pack, B: each written once so it is
  // active before memory fills.
  const Segno a = fx.MustCreate(">l>a");
  const Segno c = fx.MustCreate(">l>c");
  write(a, 0, 1);
  write(c, 0, 1);
  Segno b{};
  for (int i = 0; i < 4; ++i) {
    b = fx.MustCreate(">l>b" + std::to_string(i));
    write(b, 0, 1);
    if (ast_of(b)->page_table.pack != ast_of(a)->page_table.pack) {
      break;
    }
  }
  AstEntry* ast_a = ast_of(a);
  AstEntry* ast_b = ast_of(b);
  EXPECT_NE(ast_a->page_table.pack, ast_b->page_table.pack);

  // The test pages, in clock order: V, the cleanable pages, the decoys on
  // A's pack, and B's page 1 on the other pack.
  const uint32_t v = 1;
  const uint32_t referenced = v + kLaundered + 1;
  const uint32_t locked = referenced + 1;
  const uint32_t zero = locked + 1;
  const uint32_t end = zero + 1;
  auto is_test_page = [&](const AstEntry* ast, uint32_t p) {
    return (ast == ast_a && p >= v && p < end) || (ast == ast_b && p == 1);
  };
  // Sets `used` on every other resident page, as a reference would.
  auto reference_others = [&]() {
    for (uint32_t slot = 0; slot < segs.ast_slots(); ++slot) {
      AstEntry* ast = segs.Get(slot);
      for (uint32_t p = 0; ast != nullptr && p < ast->page_table.ptws.size(); ++p) {
        if (ast->page_table.ptws[p].in_core && !is_test_page(ast, p)) {
          ast->page_table.ptws[p].used = true;
        }
      }
    }
  };

  // Fill memory, run the clock once round every page (a zero-filled page
  // takes the freed frame), and clean everything: the resident set is now
  // clean or all zero, and unreferenced.
  uint32_t next_c = 1;
  while (pfm.free_frames() > 0) {
    write(c, next_c, 100 + next_c);
    ++next_c;
  }
  reference_others();
  write(c, next_c++, 0);
  pfm.PageWriterStep(kMaxSegmentPages);

  // The test pages take the next frames in clock order.
  for (uint32_t p = v; p < end; ++p) {
    write(a, p, p == zero ? 0 : 1000 + p);
  }
  write(b, 1, 2001);
  // A second lap: every test page loses its reference and becomes a writer
  // candidate; the lap's victim is a clean filler page.
  reference_others();
  write(c, next_c++, 0);
  EXPECT_TRUE(gates.Read(*fx.ctx, a, referenced * kPageWords).ok());
  reference_others();
  ast_a->page_table.ptws[locked].locked = true;  // a fault is in service on it
  if (clean_victim) {
    pfm.PageWriterStep(kMaxSegmentPages);
  }
  for (uint32_t p = v; p < end; ++p) {
    const Ptw& ptw = ast_a->page_table.ptws[p];
    EXPECT_TRUE(ptw.in_core) << p;
    EXPECT_EQ(ptw.modified, !clean_victim || p >= referenced) << p;
    EXPECT_EQ(ptw.used, p == referenced) << p;
  }
  // Nothing outside the test pages is cleanable, on either pack.
  std::vector<uint32_t> test_frames = {ast_b->page_table.ptws[1].frame};
  for (uint32_t p = v; p < end; ++p) {
    test_frames.push_back(ast_a->page_table.ptws[p].frame);
  }
  std::vector<FrameIndex> picks;
  pfm.CollectCleanable(kMaxSegmentPages, std::nullopt, &picks);
  for (const FrameIndex frame : picks) {
    EXPECT_NE(std::find(test_frames.begin(), test_frames.end(), frame.value), test_frames.end())
        << "frame " << frame.value;
  }
  const uint32_t b_frame = ast_b->page_table.ptws[1].frame;

  // The measured fault: growth of A needs a frame, and the pool is dry.
  pfm.set_pipeline(pipeline);
  const uint64_t writes0 = m.Get("disk.writes");
  const uint64_t rounds0 = m.Get("disk.batch_dispatches");
  const uint64_t batched0 = m.Get("disk.batched_records");
  const uint64_t writebacks0 = m.Get("pfm.writebacks");
  const uint64_t laundered0 = m.Get("pfm.laundered_pages");
  const uint64_t daemon0 = m.Get("pfm.daemon_writes");
  const Cycles before = fx.kernel.clock().now();
  write(a, end, 3000);
  out.fault_cycles = fx.kernel.clock().now() - before;
  out.disk_writes = m.Get("disk.writes") - writes0;
  out.batch_rounds = m.Get("disk.batch_dispatches") - rounds0;
  out.batched_records = m.Get("disk.batched_records") - batched0;
  out.writebacks = m.Get("pfm.writebacks") - writebacks0;
  out.laundered = m.Get("pfm.laundered_pages") - laundered0;
  out.daemon_writes = m.Get("pfm.daemon_writes") - daemon0;

  EXPECT_FALSE(ast_a->page_table.ptws[v].in_core) << "V was not the victim";
  const bool laundering = pipeline.enabled && !clean_victim;
  for (uint32_t p = v + 1; p < referenced; ++p) {
    // The cleanable pages: laundered (resident, clean, off the bitmap), or
    // untouched when the eviction wrote only its victim.
    const Ptw& ptw = ast_a->page_table.ptws[p];
    EXPECT_TRUE(ptw.in_core) << p;
    EXPECT_EQ(ptw.modified, !laundering && !clean_victim) << p;
    EXPECT_EQ(pfm.IsWriterCandidate(FrameIndex(ptw.frame)), !laundering && !clean_victim)
        << p;
  }
  // The decoys are untouched.
  EXPECT_TRUE(ast_a->page_table.ptws[referenced].modified);
  EXPECT_TRUE(ast_a->page_table.ptws[referenced].used);
  EXPECT_TRUE(ast_a->page_table.ptws[locked].modified);
  EXPECT_TRUE(ast_a->page_table.ptws[locked].locked);
  EXPECT_TRUE(ast_a->page_table.ptws[zero].modified);
  EXPECT_TRUE(ast_a->page_table.ptws[zero].in_core);
  EXPECT_EQ(ast_b->page_table.ptws[1].modified, !clean_victim);
  EXPECT_EQ(pfm.IsWriterCandidate(FrameIndex(b_frame)), !clean_victim);
  ast_a->page_table.ptws[locked].locked = false;

  // Every page reads back its data after a refault.
  for (uint32_t p = v; p <= end; ++p) {
    EXPECT_TRUE(pfm.EvictPage(&ast_a->page_table, p).ok());
  }
  EXPECT_TRUE(pfm.EvictPage(&ast_b->page_table, 1).ok());
  for (uint32_t p = v; p <= end; ++p) {
    auto value = gates.Read(*fx.ctx, a, p * kPageWords);
    EXPECT_TRUE(value.ok()) << p;
    EXPECT_EQ(value.ok() ? *value : 0, p == zero ? 0 : p == end ? 3000 : 1000 + p) << p;
  }
  auto value = gates.Read(*fx.ctx, b, kPageWords);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.ok() ? *value : 0, 2001u);
  const std::vector<std::string> findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
  return out;
}

TEST(PageFrame, DirtyInlineEvictionLaundersItsPackInOneRound) {
  // The measured fault grows a segment, so readahead has nothing to post,
  // and no page-writer step runs after the pipeline goes on: laundering is
  // the only part of the pipeline that acts.
  const PagingPipeline full = PagingPipeline::Full();
  const EvictionOutcome clean = RunDirtyInlineEviction(PagingPipeline{}, /*clean_victim=*/true);
  const EvictionOutcome off = RunDirtyInlineEviction(PagingPipeline{}, false);
  const EvictionOutcome on = RunDirtyInlineEviction(full, false);
  // Pipeline off: the victim's single synchronous write (and its zero scan),
  // cycle for cycle, and nothing else written.
  EXPECT_EQ(off.fault_cycles - clean.fault_cycles,
            Costs::kPageScanPerWord * kPageWords + Costs::kDiskWriteLatency);
  EXPECT_EQ(off.disk_writes, 1u);
  EXPECT_EQ(off.batch_rounds, 0u);
  EXPECT_EQ(off.writebacks, 1u);
  EXPECT_EQ(off.laundered, 0u);
  // Pipeline on: the victim and its k pack-mates go in one record-sorted
  // round, 30000 + 3000k where the victim alone paid 30000.
  EXPECT_EQ(on.fault_cycles - off.fault_cycles, kLaundered * Costs::kDiskBatchedTransfer);
  EXPECT_EQ(on.disk_writes, 1u + kLaundered);
  EXPECT_EQ(on.batch_rounds, 1u);
  EXPECT_EQ(on.batched_records, kLaundered);
  EXPECT_EQ(on.writebacks, 1u);
  EXPECT_EQ(on.laundered, kLaundered);
  EXPECT_EQ(on.daemon_writes, 0u);
  // A clean victim forces no write, so nothing is laundered.
  const EvictionOutcome clean_on = RunDirtyInlineEviction(full, /*clean_victim=*/true);
  EXPECT_EQ(clean_on.fault_cycles, clean.fault_cycles);
  EXPECT_EQ(clean_on.disk_writes, 0u);
  EXPECT_EQ(clean_on.laundered, 0u);
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

// The same pressured workload for both pipeline settings: fill 64 pages
// (48-frame machine), punch a run of zero pages, then sequential and
// scattered read passes with the page-writer pumped as idle time.
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
          const PageRef image = pack->Share(fm.record);
          obs.disk.push_back(uid + ":" + std::to_string(page) + "=" +
                             std::to_string(image == nullptr ? 0 : (*image)[0]));
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

TEST(PagingPipeline, OffAndFullAreObservationallyEquivalent) {
  const PipelineObservation off = RunPipelineWorkload(PagingPipeline{});
  ASSERT_EQ(off.reads.size(), 64u * 3);
  const PipelineObservation full = RunPipelineWorkload(PagingPipeline::Full());
  EXPECT_EQ(full.reads, off.reads);
  EXPECT_EQ(full.disk, off.disk);
  EXPECT_EQ(full.quota, off.quota);
  EXPECT_EQ(full.free_records, off.free_records);
}

TEST(PagingPipeline, PrecleaningKeepsTheFaultPathOutOfEvictions) {
  KernelConfig config;
  config.memory_frames = 48;
  config.paging_pipeline = PagingPipeline::Full();
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
    // A stride walk (29 is coprime to 64) defeats the sequence detector, so
    // readahead stays inert (checked below) and pre-cleaning alone supplies
    // the frames.
    for (uint32_t i = 0, p = 0; i < 64; ++i, p = (p + 29) % 64) {
      ASSERT_TRUE(gates.Read(*fx.ctx, segno, p * kPageWords).ok());
      if (++refs % 4 == 0) {
        const bool was_dry = pfm.free_frames() < PageFrameManager::kLowWatermark;
        (void)fx.kernel.vprocs().RunKernelTask("page_writer");
        // Watermark invariant: a pump that found the pool below the low
        // watermark leaves it at the high watermark (plenty is evictable
        // here), and never overshoots it.
        if (was_dry) {
          EXPECT_EQ(pfm.free_frames(), PageFrameManager::kHighWatermark);
          replenished_once = true;
        }
        EXPECT_GE(pfm.free_frames(), PageFrameManager::kLowWatermark);
      }
    }
  }
  EXPECT_TRUE(replenished_once);
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.prefetch_issued"), 0u);
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
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  // The state segment takes some of the KST's slots, so initiating one
  // segment per user segno fills it.
  Status last = Status::Ok();
  for (int i = 0; i < AddressSpaceManager::kUserSdwCount && last.ok(); ++i) {
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
