// The zero-page confinement case study (paper section "From simple semantics
// do complex implementations grow"): because page-sized blocks of zeros are
// represented by file-map flags, READING a zero page allocates storage and
// updates the quota count — a write caused by a read, "perhaps on the other
// side of a protection boundary, in violation of the confinement goal".
//
// These tests demonstrate the channel and the close_zero_page_channel knob
// that trades storage charging accuracy for confinement.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// Builds a directory with quota, a segment with a reclaimed zero page, and
// returns (dir id, segno for the reader).
struct ChannelSetup {
  EntryId dir{};
  Segno segno{};
};

ChannelSetup BuildZeroPageSegment(KernelFixture& fx) {
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup;
  auto dir =
      gates.CreateDirectory(*fx.ctx, gates.RootId(), "qdir", WorldAcl(), Label::SystemLow());
  EXPECT_TRUE(dir.ok());
  setup.dir = *dir;
  EXPECT_TRUE(gates.SetQuota(*fx.ctx, *dir, 100).ok());
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "signal_file", WorldAcl(), Label::SystemLow());
  EXPECT_TRUE(seg.ok());
  auto segno = gates.Initiate(*fx.ctx, *seg);
  EXPECT_TRUE(segno.ok());
  setup.segno = *segno;
  // Grow page 0 with data, then zero it so eviction reclaims the record.
  EXPECT_TRUE(gates.Write(*fx.ctx, *segno, 0, 1).ok());
  EXPECT_TRUE(gates.Write(*fx.ctx, *segno, 0, 0).ok());
  // Force the page out: deactivate by severing and recycling.
  const SegmentUid uid(seg->value);
  fx.kernel.address_spaces().DisconnectEverywhere(uid);
  const uint32_t ast = fx.kernel.segments().FindIndex(uid);
  EXPECT_NE(ast, kNoAst);
  EXPECT_TRUE(fx.kernel.segments().Deactivate(ast).ok());
  return setup;
}

TEST(Confinement, ZeroPageReclaimRefundsQuota) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup = BuildZeroPageSegment(fx);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.zero_reclaims"), 0u);
  auto q = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(q.ok());
  // Only the directory's own backing page remains charged; the zeroed page
  // was refunded.
  EXPECT_EQ(q->count, 1u);
}

TEST(Confinement, ReadOfZeroPageWritesAccounting) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup = BuildZeroPageSegment(fx);

  auto before = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(before.ok());

  // The observer "reads" — and the quota count changes.  One bit has crossed
  // from the reader's activity into low-visible accounting state.
  auto value = gates.Read(*fx.ctx, setup.segno, 0);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0u);

  auto after = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count, before->count + 1);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.zero_page_reallocations"), 0u);
}

TEST(Confinement, CovertChannelTransmitsBits) {
  // A high-labelled sender modulates reads of zero pages in a low segment;
  // a low observer reads the quota count.  (Reading DOWN is legal under
  // simple security — that is exactly why this is a covert channel and not
  // an access-control failure.)
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  auto dir =
      gates.CreateDirectory(*fx.ctx, gates.RootId(), "qdir", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 100).ok());
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "medium", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto segno_low = gates.Initiate(*fx.ctx, *seg);
  ASSERT_TRUE(segno_low.ok());
  // Prepare 4 zero pages (grow + zero + evict).
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno_low, p * kPageWords, 1).ok());
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno_low, p * kPageWords, 0).ok());
  }
  const SegmentUid uid(seg->value);
  fx.kernel.address_spaces().DisconnectEverywhere(uid);
  ASSERT_TRUE(fx.kernel.segments().Deactivate(fx.kernel.segments().FindIndex(uid)).ok());

  // High sender: reads pages 0 and 2 only (the message 1010).
  auto high_proc = fx.kernel.processes().CreateProcess(TestSubject("High", 3));
  ASSERT_TRUE(high_proc.ok());
  ProcContext* high = fx.kernel.processes().Context(*high_proc);
  auto segno_high = gates.Initiate(*high, *seg);
  ASSERT_TRUE(segno_high.ok());
  auto q0 = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(gates.Read(*high, *segno_high, 0 * kPageWords).ok());
  ASSERT_TRUE(gates.Read(*high, *segno_high, 2 * kPageWords).ok());

  // Low observer: the count moved by exactly the number of 1-bits sent.
  auto q1 = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->count - q0->count, 2u);
}

// A read of a reclaimed zero page must charge a page and allocate a record.
// When either fails, the service unlocks the descriptor the fault locked, so
// every retry reports the same clean status (not "descriptor locked"), the
// audit stays empty, and the read succeeds once there is room again.
TEST(Confinement, ZeroPageReadPastAFullQuotaCellFailsCleanlyOnEveryRetry) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup = BuildZeroPageSegment(fx);
  auto quota = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(quota.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, setup.dir, quota->count).ok());  // the cell is full
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto value = gates.Read(*fx.ctx, setup.segno, 0);
    EXPECT_EQ(value.code(), Code::kQuotaOverflow) << attempt << ": " << value.status();
  }
  const auto findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();

  ASSERT_TRUE(gates.SetQuota(*fx.ctx, setup.dir, quota->count + 1).ok());
  auto value = gates.Read(*fx.ctx, setup.segno, 0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(Confinement, ZeroPageReadOnAFullPackFailsCleanlyOnEveryRetry) {
  KernelConfig config;
  config.pack_count = 1;
  config.records_per_pack = 48;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup = BuildZeroPageSegment(fx);
  // Fill the one pack.
  auto filler =
      gates.CreateSegment(*fx.ctx, gates.RootId(), "filler", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(filler.ok());
  auto filler_segno = gates.Initiate(*fx.ctx, *filler);
  ASSERT_TRUE(filler_segno.ok());
  Status grown = Status::Ok();
  for (uint32_t p = 0; p < kMaxSegmentPages && grown.ok(); ++p) {
    grown = gates.Write(*fx.ctx, *filler_segno, p * kPageWords, p + 1);
  }
  ASSERT_FALSE(grown.ok());
  ASSERT_EQ(fx.kernel.ctx().volumes.pack(PackId(0))->free_records(), 0u);

  for (int attempt = 0; attempt < 3; ++attempt) {
    auto value = gates.Read(*fx.ctx, setup.segno, 0);
    EXPECT_EQ(value.code(), Code::kPackFull) << attempt << ": " << value.status();
  }
  const auto findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();

  ASSERT_TRUE(gates.Delete(*fx.ctx, gates.RootId(), "filler").ok());
  auto value = gates.Read(*fx.ctx, setup.segno, 0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 0u);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

TEST(Confinement, RetainModeClosesTheChannel) {
  KernelConfig config;
  config.close_zero_page_channel = true;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  ChannelSetup setup = BuildZeroPageSegment(fx);

  auto before = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(before.ok());
  // With records retained for zero pages, a read moves no accounting state.
  ASSERT_TRUE(gates.Read(*fx.ctx, setup.segno, 0).ok());
  auto after = gates.GetQuota(*fx.ctx, setup.dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count, before->count);
  // The price: the zero page still holds (and is charged for) its record.
  EXPECT_GT(fx.kernel.metrics().Get("pfm.zero_retained"), 0u);
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.zero_page_reallocations"), 0u);
}

}  // namespace
}  // namespace mks
