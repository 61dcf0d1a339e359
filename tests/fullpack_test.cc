// End-to-end tests of the full-pack exception path in the new kernel: the
// downward grow chain, relocation, and the non-returning upward signal that
// rewrites the directory entry.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

KernelConfig TinyPacks() {
  KernelConfig config;
  config.pack_count = 2;
  config.records_per_pack = 28;
  config.vtoc_slots_per_pack = 32;
  return config;
}

TEST(FullPack, SegmentMovesAndDirectoryEntryIsRewritten) {
  KernelFixture fx{TinyPacks()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  auto b = gates.CreateSegment(*fx.ctx, gates.RootId(), "b", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sa = gates.Initiate(*fx.ctx, *a);
  auto sb = gates.Initiate(*fx.ctx, *b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  // Interleave growth on both segments until one pack fills and the upward
  // signal fires.
  Status st = Status::Ok();
  uint32_t grown = 0;
  for (uint32_t p = 0; p < 24 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sa, p * kPageWords, p + 1);
    if (st.ok()) {
      st = gates.Write(*fx.ctx, *sb, p * kPageWords, p + 101);
      ++grown;
    }
  }
  ASSERT_GT(fx.kernel.metrics().Get("ksm.full_pack_moves"), 0u);
  ASSERT_GT(fx.kernel.metrics().Get("gates.upward_signals"), 0u);
  ASSERT_GT(fx.kernel.metrics().Get("dir.moves_completed"), 0u);

  // Every page written before and after the move is intact.
  for (uint32_t p = 0; p < grown; ++p) {
    auto va = gates.Read(*fx.ctx, *sa, p * kPageWords);
    ASSERT_TRUE(va.ok()) << p << ": " << va.status();
    EXPECT_EQ(*va, p + 1);
    auto vb = gates.Read(*fx.ctx, *sb, p * kPageWords);
    ASSERT_TRUE(vb.ok()) << p << ": " << vb.status();
    EXPECT_EQ(*vb, p + 101);
  }
}

TEST(FullPack, OtherProcessReconnectsThroughSegmentFault) {
  KernelFixture fx{TinyPacks()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto other_proc = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ASSERT_TRUE(other_proc.ok());
  ProcContext* other = fx.kernel.processes().Context(*other_proc);

  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  auto filler =
      gates.CreateSegment(*fx.ctx, gates.RootId(), "fill", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(filler.ok());
  auto sa_mine = gates.Initiate(*fx.ctx, *a);
  auto sa_other = gates.Initiate(*other, *a);
  auto sf = gates.Initiate(*fx.ctx, *filler);
  ASSERT_TRUE(sa_mine.ok());
  ASSERT_TRUE(sa_other.ok());
  ASSERT_TRUE(sf.ok());

  // Both processes touch `a`, then growth forces it off its pack.
  ASSERT_TRUE(gates.Write(*fx.ctx, *sa_mine, 0, 42).ok());
  auto seen = gates.Read(*other, *sa_other, 0);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 42u);

  Status st = Status::Ok();
  for (uint32_t p = 0; p < 24 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sf, p * kPageWords, 1);
    if (st.ok()) {
      st = gates.Write(*fx.ctx, *sa_mine, p * kPageWords, p);
    }
  }
  ASSERT_GT(fx.kernel.metrics().Get("ksm.full_pack_moves"), 0u);

  // The other process's SDW was severed by the move; its next reference
  // takes a missing-segment fault and reconnects via the standard machinery.
  auto after = gates.Read(*other, *sa_other, 0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, 0u);  // page 0 was rewritten with p=0 during the fill
  EXPECT_GT(fx.kernel.metrics().Get("ksm.segment_faults"), 0u);
}

// A read still in flight when the segment moves lands at its new home: page
// control reads the home off the page table when the read lands, and the
// move wrote the new one there.
TEST(FullPack, ReadInFlightAcrossTheMoveLandsAtTheNewHome) {
  KernelConfig config = TinyPacks();
  config.async_paging = true;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  PageFrameManager& pfm = fx.kernel.page_frames();

  auto other_proc = fx.kernel.processes().CreateProcess(TestSubject("Smith"));
  ASSERT_TRUE(other_proc.ok());
  ProcContext* other = fx.kernel.processes().Context(*other_proc);
  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  auto filler =
      gates.CreateSegment(*fx.ctx, gates.RootId(), "fill", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(filler.ok());
  auto sa_mine = gates.Initiate(*fx.ctx, *a);
  auto sa_other = gates.Initiate(*other, *a);
  auto sf = gates.Initiate(*fx.ctx, *filler);
  ASSERT_TRUE(sa_mine.ok());
  ASSERT_TRUE(sa_other.ok());
  ASSERT_TRUE(sf.ok());

  // Page 0 of `a` holds 1 and is evicted; the other process's read of it is
  // posted.
  ASSERT_TRUE(gates.Write(*fx.ctx, *sa_mine, 0, 1).ok());
  const uint32_t slot = fx.kernel.segments().FindIndex(SegmentUid(a->value));
  ASSERT_TRUE(pfm.EvictPage(&fx.kernel.segments().Get(slot)->page_table, 0).ok());
  ASSERT_EQ(gates.Read(*other, *sa_other, 0).status().code(), Code::kBlocked);
  const PackId first_home = fx.kernel.known_segments().Lookup(fx.pid, *sa_mine)->home.pack;

  // Growth fills the pack and moves `a` while the read is in flight.
  auto home = [&] { return fx.kernel.known_segments().Lookup(fx.pid, *sa_mine)->home.pack; };
  for (uint32_t p = 1; p < 24 && home() == first_home; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *sf, p * kPageWords, 1).ok()) << p;
    ASSERT_TRUE(gates.Write(*fx.ctx, *sa_mine, p * kPageWords, p + 1).ok()) << p;
  }
  ASSERT_NE(home(), first_home);
  ASSERT_EQ(fx.kernel.segments().FindIndex(SegmentUid(a->value)), slot);
  ASSERT_EQ(pfm.pending_io(), 1u);

  LandPostedReads(fx.kernel);
  auto theirs = ReadLanding(fx.kernel, *other, *sa_other, 0);
  auto mine = ReadLanding(fx.kernel, *fx.ctx, *sa_mine, 0);
  ASSERT_TRUE(theirs.ok()) << theirs.status();
  ASSERT_TRUE(mine.ok()) << mine.status();
  EXPECT_EQ(*theirs, 1u);
  EXPECT_EQ(*mine, 1u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(FullPack, WhenNoTargetPackExistsGrowthFails) {
  KernelConfig config = TinyPacks();
  config.pack_count = 1;  // nowhere to move to
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto a = gates.CreateSegment(*fx.ctx, gates.RootId(), "a", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(a.ok());
  auto sa = gates.Initiate(*fx.ctx, *a);
  ASSERT_TRUE(sa.ok());
  Status st = Status::Ok();
  uint32_t p = 0;
  for (; p < 40 && st.ok(); ++p) {
    st = gates.Write(*fx.ctx, *sa, p * kPageWords, 1);
  }
  EXPECT_EQ(st.code(), Code::kPackFull);
}

}  // namespace
}  // namespace mks
