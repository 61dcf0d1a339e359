// Tests for the simulated hardware: translation, faults, the new-design
// processor features, and the arena page images live in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/hw/machine.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

struct HwFixture {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  PrimaryMemory memory{16, &cost, &metrics};
  PageTable pt;
  DescriptorSegment ds;

  explicit HwFixture(HwFeatures features = HwFeatures::KernelDesign())
      : processor(features, &cost, &metrics) {
    pt.ptws.assign(4, Ptw{});
    ds.sdws.assign(4, Sdw{});
    Sdw& sdw = ds.sdws[0];
    sdw.present = true;
    sdw.page_table = &pt;
    sdw.bound_pages = 4;
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

  Processor processor;
};

// With the second DSBR, user segnos start at kSystemSegnoLimit.
constexpr Segno kSeg0{kSystemSegnoLimit};

TEST(Hw, SuccessfulTranslationSetsUsedAndModified) {
  HwFixture hw;
  hw.MapPage(1, 7);
  auto r = hw.processor.Access(kSeg0, kPageWords + 5, AccessMode::kWrite, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.abs_addr, 7u * kPageWords + 5);
  EXPECT_TRUE(hw.pt.ptws[1].used);
  EXPECT_TRUE(hw.pt.ptws[1].modified);
}

TEST(Hw, MissingSegmentFault) {
  HwFixture hw;
  auto r = hw.processor.Access(Segno{kSystemSegnoLimit + 2}, 0, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kMissingSegment);
}

TEST(Hw, OutOfBoundsFault) {
  HwFixture hw;
  auto r = hw.processor.Access(kSeg0, 4 * kPageWords, AccessMode::kRead, 4);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.fault.kind, FaultKind::kOutOfBounds);
}

TEST(Hw, AccessViolationAndRingViolation) {
  HwFixture hw;
  hw.MapPage(0, 3);
  auto exec = hw.processor.Access(kSeg0, 0, AccessMode::kExecute, 4);
  EXPECT_EQ(exec.fault.kind, FaultKind::kAccessViolation);
  auto ring = hw.processor.Access(kSeg0, 0, AccessMode::kRead, 5);
  EXPECT_EQ(ring.fault.kind, FaultKind::kRingViolation);
}

TEST(Hw, QuotaExceptionBitDistinguishesGrowth) {
  HwFixture with_bit{HwFeatures::KernelDesign()};
  auto r = with_bit.processor.Access(kSeg0, 0, AccessMode::kWrite, 4);
  EXPECT_EQ(r.fault.kind, FaultKind::kQuotaException);

  // Baseline hardware reports only a missing page; software re-diagnoses.
  HwFixture without{HwFeatures::Baseline()};
  auto r2 = without.processor.Access(Segno{0}, 0, AccessMode::kWrite, 4);
  EXPECT_EQ(r2.fault.kind, FaultKind::kMissingPage);
}

TEST(Hw, DescriptorLockBitLocksAndLatchesAddress) {
  HwFixture hw;
  hw.pt.ptws[0].unallocated = false;  // allocated but not in core
  auto first = hw.processor.Access(kSeg0, 0, AccessMode::kRead, 4);
  EXPECT_EQ(first.fault.kind, FaultKind::kMissingPage);
  EXPECT_TRUE(hw.pt.ptws[0].locked);
  // The fault names the locked descriptor by (segno, page).
  EXPECT_EQ(first.fault.segno, kSeg0);
  EXPECT_EQ(first.fault.page, 0u);
  // A second toucher sees the locked descriptor, not a missing page.
  auto second = hw.processor.Access(kSeg0, 0, AccessMode::kRead, 4);
  EXPECT_EQ(second.fault.kind, FaultKind::kLockedDescriptor);
}

TEST(Hw, MissingPageFaultNamesTheWord) {
  // Like the 6180's fault data, the fault names the referenced word within
  // the page, whether the walk follows an associative-memory miss or there is
  // no associative memory at all.
  HwFeatures plain_walk = HwFeatures::KernelDesign();
  plain_walk.associative_memory = false;
  for (const HwFeatures& features : {HwFeatures::KernelDesign(), plain_walk}) {
    for (const uint32_t word : {0u, kPageWords / 2, kPageWords - 1}) {
      HwFixture hw{features};
      hw.pt.ptws[2].unallocated = false;  // allocated but not in core
      auto r = hw.processor.Access(kSeg0, 2 * kPageWords + word, AccessMode::kRead, 4);
      ASSERT_EQ(r.fault.kind, FaultKind::kMissingPage);
      EXPECT_EQ(r.fault.page, 2u);
      EXPECT_EQ(r.fault.word, word);
      EXPECT_EQ(hw.metrics.Get("hw.assoc_misses"), features.associative_memory ? 1u : 0u);
    }
  }
}

TEST(Hw, BaselineHardwareNeverLocks) {
  HwFixture hw{HwFeatures::Baseline()};
  hw.pt.ptws[0].unallocated = false;
  auto first = hw.processor.Access(Segno{0}, 0, AccessMode::kRead, 4);
  EXPECT_EQ(first.fault.kind, FaultKind::kMissingPage);
  EXPECT_FALSE(hw.pt.ptws[0].locked);
  auto second = hw.processor.Access(Segno{0}, 0, AccessMode::kRead, 4);
  EXPECT_EQ(second.fault.kind, FaultKind::kMissingPage);
}

TEST(Hw, SecondDsbrSplitsSystemAndUserSpaces) {
  HwFixture hw;
  // Build a one-segment system space.
  PageTable sys_pt;
  sys_pt.ptws.assign(1, Ptw{});
  sys_pt.ptws[0].in_core = true;
  sys_pt.ptws[0].unallocated = false;
  sys_pt.ptws[0].frame = 2;
  DescriptorSegment sys_ds;
  sys_ds.sdws.assign(1, Sdw{});
  sys_ds.sdws[0] = Sdw{true, &sys_pt, 1, true, true, true, 0};
  hw.processor.set_system_ds(&sys_ds);

  // Segno 0 translates through the system space at ring 0 only.
  auto sys = hw.processor.Access(Segno{0}, 9, AccessMode::kRead, 0);
  ASSERT_TRUE(sys.ok);
  EXPECT_EQ(sys.abs_addr, 2u * kPageWords + 9);
  auto user_ring = hw.processor.Access(Segno{0}, 9, AccessMode::kRead, 4);
  EXPECT_EQ(user_ring.fault.kind, FaultKind::kRingViolation);

  // User segnos are offset by the system boundary.
  hw.MapPage(0, 5);
  auto user = hw.processor.Access(kSeg0, 3, AccessMode::kRead, 4);
  ASSERT_TRUE(user.ok);
  EXPECT_EQ(user.abs_addr, 5u * kPageWords + 3);
}

TEST(Hw, ZeroScanChargesPerWordAndDetects) {
  HwFixture hw;
  const Cycles before = hw.clock.now();
  EXPECT_TRUE(hw.memory.FrameIsZero(FrameIndex(1)));
  EXPECT_GE(hw.clock.now() - before, static_cast<Cycles>(kPageWords));
  hw.memory.WriteWord(kPageWords + 17, 9);
  EXPECT_FALSE(hw.memory.FrameIsZero(FrameIndex(1)));
}

TEST(Hw, MemoryReadWriteRoundTrip) {
  HwFixture hw;
  hw.memory.WriteWord(1234, 0xabcdef);
  EXPECT_EQ(hw.memory.ReadWord(1234), 0xabcdefu);
  hw.memory.ZeroFrame(FrameIndex(1234 / kPageWords));
  EXPECT_EQ(hw.memory.ReadWord(1234), 0u);
}

// A one-record page store: it holds `image` until a frame's first write
// detaches it.
struct OneRecord : PageSource {
  static constexpr uint64_t kCookie = 7;
  PageRef image;
  bool Detach(uint64_t cookie, const PageImage* held) override {
    if (cookie != kCookie || image.get() != held) {
      return false;
    }
    image.reset();
    return true;
  }
};

TEST(Hw, BoundFrameViewsItsImageAndDetachesOnFirstWrite) {
  HwFixture hw;
  OneRecord record;
  record.image = NewPageImage();
  (*record.image)[3] = 42;
  const PageImage* image = record.image.get();
  hw.memory.Bind(FrameIndex(1), record.image, PageHome{&record, OneRecord::kCookie});
  EXPECT_EQ(hw.memory.ReadWord(kPageWords + 3), 42u);
  EXPECT_EQ(hw.memory.FrameView(FrameIndex(1)).data(), image->data());
  hw.memory.WriteWord(kPageWords + 4, 7);
  EXPECT_EQ(record.image, nullptr);  // detached, not copied
  EXPECT_EQ(hw.memory.FrameView(FrameIndex(1)).data(), image->data());
  hw.memory.WriteWord(kPageWords + 5, 8);
  EXPECT_EQ(hw.memory.page_copies(), 0u);
  // A writeback shares the image; the next write detaches it again.
  record.image = hw.memory.Snapshot(FrameIndex(1), PageHome{&record, OneRecord::kCookie});
  EXPECT_EQ(record.image.get(), image);
  hw.memory.WriteWord(kPageWords + 6, 9);
  EXPECT_EQ(record.image, nullptr);
  EXPECT_EQ(hw.memory.page_copies(), 0u);
}

TEST(Hw, WriteToAnImageSomeoneElseHoldsCopies) {
  HwFixture hw;
  OneRecord record;
  hw.memory.ZeroFrame(FrameIndex(2));
  hw.memory.WriteWord(2 * kPageWords, 1);  // a zero frame's own image: no copy
  EXPECT_EQ(hw.memory.page_copies(), 0u);
  const PageRef held = hw.memory.Snapshot(FrameIndex(2), PageHome{&record, OneRecord::kCookie});
  hw.memory.WriteWord(2 * kPageWords, 2);  // `held` is not the frame's record
  EXPECT_EQ(hw.memory.page_copies(), 1u);
  EXPECT_EQ((*held)[0], 1u);
  EXPECT_EQ(hw.memory.ReadWord(2 * kPageWords), 2u);
  // Home storage cannot be lent: its snapshot is a copy.
  hw.memory.WriteWord(3 * kPageWords, 5);
  const PageRef home = hw.memory.Snapshot(FrameIndex(3), PageHome{});
  EXPECT_EQ(hw.memory.page_copies(), 2u);
  hw.memory.WriteWord(3 * kPageWords, 6);
  EXPECT_EQ((*home)[0], 5u);
}

// The page-image arena is process-wide and every test in this binary shares
// it, so these tests read its counts as differences.

TEST(PageArena, AReleasedSlotIsHandedOutAgainAsZeros) {
  PageRef image = NewPageImage();
  image->fill(0x5a5a);
  const PageImage* slot = image.get();
  const uint64_t live = PageArenaNow().live;
  image.reset();
  EXPECT_EQ(PageArenaNow().live, live - 1);
  const PageRef again = NewPageImage();
  EXPECT_EQ(again.get(), slot);  // the last slot released is the first reused
  EXPECT_TRUE(std::all_of(again->begin(), again->end(), [](Word w) { return w == 0; }));
  EXPECT_EQ(PageArenaNow().live, live);
}

TEST(PageArena, ChunksAre2MbAligned) {
  constexpr uintptr_t kChunk = uintptr_t{2} << 20;
  const auto address = [](const PageRef& image) { return reinterpret_cast<uintptr_t>(image.get()); };
  // Take images until the arena has mapped two chunks.  The image that made
  // it map one sits in the chunk's first slot, just after its reference
  // count, and every image after it up to the next chunk's first lies in the
  // same 2 MB-aligned window.  No chunk holds more than kChunk /
  // sizeof(PageImage) images, which bounds the takes.
  std::vector<PageRef> held;
  std::vector<size_t> firsts;
  uint64_t chunks = PageArenaNow().chunks;
  const uint64_t most = (chunks + 2) * (kChunk / sizeof(PageImage));
  while (firsts.size() < 2 && held.size() < most) {
    held.push_back(NewPageImage());
    if (PageArenaNow().chunks != chunks) {
      chunks = PageArenaNow().chunks;
      firsts.push_back(held.size() - 1);
    }
  }
  ASSERT_EQ(firsts.size(), 2u);
  for (const size_t first : firsts) {
    EXPECT_LT(address(held[first]) % kChunk, 64u);
  }
  for (size_t i = firsts[0]; i < firsts[1]; ++i) {
    EXPECT_EQ(address(held[i]) / kChunk, address(held[firsts[0]]) / kChunk) << "image " << i;
  }
  // The slots fill the chunk: images are over 99% of it.
  EXPECT_GT((firsts[1] - firsts[0]) * sizeof(PageImage), kChunk * 99 / 100);
}

TEST(PageArena, ADestroyedKernelGivesBackEverySlotItTook) {
  const uint64_t live = PageArenaNow().live;
  {
    KernelConfig config;
    config.memory_frames = 48;
    KernelFixture fx{config};
    ASSERT_TRUE(fx.boot_status.ok()) << fx.boot_status;
    const Segno segno = fx.MustCreate(">work>arena");
    for (uint32_t page = 0; page < 64; ++page) {
      ASSERT_TRUE(fx.kernel.gates().Write(*fx.ctx, segno, page * kPageWords, page + 1).ok());
    }
    // Frames hold the resident pages' images and records the evicted ones'.
    EXPECT_GE(PageArenaNow().live - live, 64u);
  }
  EXPECT_EQ(PageArenaNow().live, live);
}

#if defined(__SANITIZE_ADDRESS__)
// A released image's slot is poisoned, so a frame view or record that
// outlives its image is reported instead of reading whatever image takes the
// slot next.
TEST(PageArenaDeathTest, ReadingAReleasedImageIsReported) {
  PageRef image = NewPageImage();
  const volatile Word* words = image->data();
  image.reset();
  EXPECT_DEATH((void)words[3], "use-after-poison");
}
#endif

}  // namespace
}  // namespace mks
