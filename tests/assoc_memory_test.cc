// Tests for the descriptor associative memory: the cache is a pure
// accelerator, so no invalidation event (eviction, deactivation, bound
// shrink, access revocation, DSBR reload) may ever let it serve a stale
// translation, and a kernel whose cache never hits must do the same as one
// whose cache does -- only what it costs differs.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/hw/machine.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// AssociativeMemory in isolation.
// ---------------------------------------------------------------------------

TEST(AssocMemory, ZeroEntriesIsDisabled) {
  AssociativeMemory assoc(0);
  EXPECT_FALSE(assoc.enabled());
  EXPECT_EQ(assoc.capacity(), 0u);
  EXPECT_EQ(assoc.Lookup(Segno(1), 2), nullptr);
}

TEST(AssocMemory, InsertThenLookup) {
  AssociativeMemory assoc(16);
  ASSERT_TRUE(assoc.enabled());
  Ptw ptw;
  assoc.Insert(Segno(7), 3, &ptw, true, false, false, 4);
  AssociativeMemory::Entry* entry = assoc.Lookup(Segno(7), 3);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->segno, Segno(7));
  EXPECT_EQ(entry->page, 3u);
  EXPECT_EQ(entry->ptw, &ptw);
  EXPECT_TRUE(entry->read);
  EXPECT_FALSE(entry->write);
  EXPECT_EQ(entry->ring_bracket, 4);
  EXPECT_EQ(assoc.Lookup(Segno(7), 4), nullptr);
  EXPECT_EQ(assoc.Lookup(Segno(8), 3), nullptr);
}

TEST(AssocMemory, LruEvictionWithinSet) {
  // 4 entries = a single 4-way set; five distinct pages force an eviction of
  // exactly the least recently used one.
  AssociativeMemory assoc(AssociativeMemory::kWays);
  std::vector<Ptw> ptws(5);
  for (uint32_t i = 0; i < 4; ++i) {
    assoc.Insert(Segno(1), i, &ptws[i], true, true, true, 7);
  }
  // Touch page 0 so page 1 becomes the LRU victim.
  ASSERT_NE(assoc.Lookup(Segno(1), 0), nullptr);
  assoc.Insert(Segno(1), 99, &ptws[4], true, true, true, 7);
  EXPECT_NE(assoc.Lookup(Segno(1), 0), nullptr);
  EXPECT_EQ(assoc.Lookup(Segno(1), 1), nullptr);
  EXPECT_NE(assoc.Lookup(Segno(1), 99), nullptr);
}

TEST(AssocMemory, InvalidateSegnoDropsOnlyThatSegno) {
  AssociativeMemory assoc(16);
  Ptw a, b;
  assoc.Insert(Segno(5), 0, &a, true, true, true, 7);
  assoc.Insert(Segno(5), 1, &a, true, true, true, 7);
  assoc.Insert(Segno(6), 0, &b, true, true, true, 7);
  EXPECT_EQ(assoc.InvalidateSegno(Segno(5)), 2u);
  EXPECT_EQ(assoc.Lookup(Segno(5), 0), nullptr);
  EXPECT_EQ(assoc.Lookup(Segno(5), 1), nullptr);
  EXPECT_NE(assoc.Lookup(Segno(6), 0), nullptr);
  EXPECT_EQ(a.assoc_refs, 0u);
  EXPECT_EQ(b.assoc_refs, 1u);
}

TEST(AssocMemory, SetPlacementMixesSegnoAndPage) {
  // The set a translation lands in is a function of (segno, page) that hit
  // and miss sequences, and so every charged cycle, depend on; pin it.
  constexpr size_t kSets = 4;
  AssociativeMemory assoc(kSets * AssociativeMemory::kWays);
  Ptw ptw;
  for (uint16_t segno = 60; segno < 70; ++segno) {
    for (uint32_t page = 0; page < 12; ++page) {
      assoc.Insert(Segno(segno), page, &ptw, true, true, true, 7);
      const auto slots = assoc.slots();
      const auto it = std::find_if(slots.begin(), slots.end(), [&](const auto& e) {
        return e.valid && e.segno == Segno(segno) && e.page == page;
      });
      ASSERT_NE(it, slots.end());
      const uint64_t mixed = ((uint64_t{segno} << 32) | page) * 0x9e3779b97f4a7c15ULL;
      EXPECT_EQ(static_cast<size_t>(it - slots.begin()) / AssociativeMemory::kWays,
                (mixed >> 32) & (kSets - 1))
          << "segno " << segno << " page " << page;
    }
  }
}

TEST(AssocMemory, InvalidatePtw) {
  AssociativeMemory assoc(16);
  PageTable pt;
  pt.ptws.assign(4, Ptw{});
  Ptw outside;
  assoc.Insert(Segno(1), 0, &pt.ptws[0], true, true, true, 7);
  assoc.Insert(Segno(1), 2, &pt.ptws[2], true, true, true, 7);
  assoc.Insert(Segno(2), 0, &outside, true, true, true, 7);
  EXPECT_EQ(assoc.InvalidatePtw(&pt.ptws[2]), 1u);
  EXPECT_EQ(assoc.Lookup(Segno(1), 2), nullptr);
  EXPECT_NE(assoc.Lookup(Segno(1), 0), nullptr);
  EXPECT_NE(assoc.Lookup(Segno(2), 0), nullptr);
  assoc.Flush();
  EXPECT_EQ(assoc.Lookup(Segno(1), 0), nullptr);
  EXPECT_EQ(assoc.Lookup(Segno(2), 0), nullptr);
}

// ---------------------------------------------------------------------------
// The Processor's use of the cache: invalidation correctness.
// ---------------------------------------------------------------------------

struct AssocRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  PageTable pt;
  DescriptorSegment ds;
  Processor processor;

  AssocRig() : processor(/*associative_entries=*/16, &cost, &metrics) {
    pt.ptws.assign(8, Ptw{});
    ds.sdws.assign(4, Sdw{});
    Sdw& sdw = ds.sdws[0];
    sdw.present = true;
    sdw.page_table = &pt;
    sdw.bound_pages = 8;
    sdw.read = true;
    sdw.write = true;
    sdw.ring_bracket = 4;
    processor.set_user_ds(&ds);
  }

  void MapPage(uint32_t page, uint32_t frame) {
    pt.ptws[page].in_core = true;
    pt.ptws[page].unallocated = false;
    pt.ptws[page].frame = frame;
  }

  uint64_t Hits() const { return metrics.Get("hw.assoc_hits"); }
};

constexpr Segno kSeg{kSystemSegnoLimit};

TEST(AssocProcessor, SecondAccessIsAHit) {
  AssocRig rig;
  rig.MapPage(1, 7);
  auto first = rig.processor.Access(kSeg, kPageWords + 5, AccessMode::kRead, 4);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(rig.Hits(), 0u);
  auto second = rig.processor.Access(kSeg, kPageWords + 6, AccessMode::kRead, 4);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(rig.Hits(), 1u);
  EXPECT_EQ(second.abs_addr, 7u * kPageWords + 6);
}

TEST(AssocProcessor, EvictedPageFaultsInsteadOfServingStaleFrame) {
  AssocRig rig;
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  // Page control evicts the page: frame is reassigned, PTW goes out-of-core,
  // and the eviction site invalidates the cached pairing.
  rig.pt.ptws[2].in_core = false;
  rig.pt.ptws[2].frame = 0;
  rig.processor.InvalidateAssociative(&rig.pt.ptws[2]);
  auto r = rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
}

TEST(AssocProcessor, EvictedPageFaultsEvenWithoutExplicitInvalidation) {
  // Belt and braces: the hit path validates the live PTW, so even a missed
  // invalidation cannot produce a wrong absolute address for an out-of-core
  // page -- the reference falls through to the full walk and faults.
  AssocRig rig;
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  rig.pt.ptws[2].in_core = false;
  auto r = rig.processor.Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
  EXPECT_EQ(rig.Hits(), 0u);
}

TEST(AssocProcessor, SegnoClearBeforeDeactivationKeepsReusedStorageUnconsulted) {
  AssocRig rig;
  rig.MapPage(3, 11);
  ASSERT_TRUE(rig.processor.Access(kSeg, 3 * kPageWords, AccessMode::kRead, 4).ok);
  // The disconnect that must precede deactivation clears the segno; then
  // segment control deactivates and the AST slot (and its page table) is
  // handed to a different segment whose page 3 lives in another frame.
  rig.processor.ClearAssociative(kSeg);
  rig.pt.ptws.assign(8, Ptw{});
  rig.MapPage(3, 5);
  auto r = rig.processor.Access(kSeg, 3 * kPageWords, AccessMode::kRead, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.abs_addr, 5u * kPageWords);
}

TEST(AssocProcessor, BoundShrinkNeverServesStale) {
  AssocRig rig;
  rig.MapPage(5, 13);
  ASSERT_TRUE(rig.processor.Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  // The hit path does not re-check the bound (the cached pairing stands in
  // for the whole walk), so the descriptor-mutation site must invalidate.
  rig.ds.sdws[0].bound_pages = 4;
  rig.processor.ClearAssociative(kSeg);
  auto r = rig.processor.Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kOutOfBounds);
}

TEST(AssocProcessor, AccessRevocationNeverServesStale) {
  AssocRig rig;
  rig.MapPage(0, 3);
  ASSERT_TRUE(rig.processor.Access(kSeg, 1, AccessMode::kWrite, 4).ok);
  rig.ds.sdws[0].write = false;
  rig.processor.ClearAssociative(kSeg);
  auto r = rig.processor.Access(kSeg, 1, AccessMode::kWrite, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kAccessViolation);
  // Reads were not revoked and still resolve (and re-fill the cache).
  EXPECT_TRUE(rig.processor.Access(kSeg, 1, AccessMode::kRead, 4).ok);
}

TEST(AssocProcessor, DsbrReloadFlushes) {
  AssocRig rig;
  rig.MapPage(1, 7);
  ASSERT_TRUE(rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4).ok);
  EXPECT_EQ(rig.Hits(), 1u);
  const uint64_t flushes_before = rig.metrics.Get("hw.assoc_flushes");
  // Loading a different descriptor base clears the associative memory, as on
  // the 6180: entries from the old address space must not survive.  The new
  // space maps the same segno to a different frame; serving the cached
  // pairing would hand back the old one.
  DescriptorSegment other = rig.ds;
  PageTable other_pt;
  other_pt.ptws.assign(8, Ptw{});
  other_pt.ptws[1] = Ptw{.frame = 12, .in_core = true, .unallocated = false};
  other.sdws[0].page_table = &other_pt;
  rig.processor.set_user_ds(&other);
  EXPECT_GT(rig.metrics.Get("hw.assoc_flushes"), flushes_before);
  auto r = rig.processor.Access(kSeg, kPageWords, AccessMode::kRead, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.abs_addr, 12u * kPageWords);
  EXPECT_EQ(rig.Hits(), 1u);  // first post-reload reference misses
}

// ---------------------------------------------------------------------------
// Property: cache on vs cache off is cost-only.  Same reference string, a
// memory small enough to force eviction and reactivation traffic, and the
// two kernels must agree on every per-reference outcome, every value read
// back, and the total fault count.  The "off" kernel's associative memory is
// flushed before every reference, so it never serves a hit.
// ---------------------------------------------------------------------------

TEST(AssocProperty, CacheOnAndOffAgreeOnEverythingButCost) {
  constexpr uint32_t kSegments = 5;
  constexpr uint32_t kPagesPerSeg = 12;
  constexpr size_t kReferences = 4000;

  KernelConfig config;
  config.memory_frames = 72;  // < data pages + resident core segments
  KernelFixture on(config);
  KernelFixture off(config);
  const auto flush_off = [&off] {
    ProcessorPool& cpus = off.kernel.ctx().cpus;
    for (uint16_t k = 0; k < cpus.count(); ++k) {
      cpus.cpu(k).FlushAssociative();
    }
  };
  ASSERT_TRUE(on.boot_status.ok());
  ASSERT_TRUE(off.boot_status.ok());

  std::vector<Segno> on_segs, off_segs;
  for (uint32_t s = 0; s < kSegments; ++s) {
    const std::string path = ">prop>seg" + std::to_string(s);
    on_segs.push_back(on.MustCreate(path));
    off_segs.push_back(off.MustCreate(path));
  }

  Rng rng(42);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < kReferences; ++i) {
    const uint32_t s = static_cast<uint32_t>(rng.NextBelow(kSegments));
    const uint32_t page = static_cast<uint32_t>(rng.NextZipf(kPagesPerSeg, 1.1));
    const uint32_t offset = page * kPageWords + static_cast<uint32_t>(rng.NextBelow(kPageWords));
    flush_off();
    if (rng.NextBool(0.4)) {
      const Word value = static_cast<Word>(i + 1);
      Status a = on.kernel.gates().Write(*on.ctx, on_segs[s], offset, value);
      Status b = off.kernel.gates().Write(*off.ctx, off_segs[s], offset, value);
      mismatches += a.code() != b.code();
    } else {
      auto a = on.kernel.gates().Read(*on.ctx, on_segs[s], offset);
      auto b = off.kernel.gates().Read(*off.ctx, off_segs[s], offset);
      mismatches += a.status().code() != b.status().code();
      if (a.ok() && b.ok()) {
        mismatches += *a != *b;
      } else {
        mismatches += a.ok() != b.ok();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The cache did something (otherwise this property is vacuous) ...
  EXPECT_GT(on.kernel.metrics().Get("hw.assoc_hits"), 0u);
  EXPECT_EQ(off.kernel.metrics().Get("hw.assoc_hits"), 0u);
  // ... and changed nothing the program can observe: same fault history,
  // same final memory contents.
  EXPECT_EQ(on.kernel.metrics().Get("pfm.faults_serviced"),
            off.kernel.metrics().Get("pfm.faults_serviced"));
  EXPECT_EQ(on.kernel.metrics().Get("ksm.segment_faults"),
            off.kernel.metrics().Get("ksm.segment_faults"));
  for (uint32_t s = 0; s < kSegments; ++s) {
    for (uint32_t w = 0; w < kPagesPerSeg * kPageWords; w += 257) {
      auto a = on.kernel.gates().Read(*on.ctx, on_segs[s], w);
      auto b = off.kernel.gates().Read(*off.ctx, off_segs[s], w);
      ASSERT_EQ(a.ok(), b.ok()) << "seg " << s << " word " << w;
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << "seg " << s << " word " << w;
      }
    }
  }
}

}  // namespace
}  // namespace mks
