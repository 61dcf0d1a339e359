// Tests for quota cells and the quota semantics of the new design: static
// binding, the childless rule, overflow, persistence.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

struct QuotaCellFixture {
  KernelContext ctx{/*memory_frames=*/32, CostModel::kDefaultStructuredFactor, /*secret=*/1};
  CoreSegmentManager core_segs{&ctx};
  QuotaCellManager quota{&ctx, &core_segs};
  PackId pack{};
  VtocIndex vtoc{};

  QuotaCellFixture() {
    EXPECT_TRUE(quota.Init(8).ok());
    pack = ctx.volumes.AddPack(16, 8);
    auto v = ctx.volumes.pack(pack)->AllocateVtoc(SegmentUid(5), true);
    EXPECT_TRUE(v.ok());
    vtoc = *v;
  }
};

TEST(QuotaCell, CreateChargeOverflowRefund) {
  QuotaCellFixture fx;
  auto cell = fx.quota.CreateCell(fx.pack, fx.vtoc, 3);
  ASSERT_TRUE(cell.ok());
  EXPECT_TRUE(fx.quota.Charge(*cell, 2).ok());
  EXPECT_TRUE(fx.quota.Charge(*cell, 1).ok());
  EXPECT_EQ(fx.quota.Charge(*cell, 1).code(), Code::kQuotaOverflow);
  ASSERT_TRUE(fx.quota.Refund(*cell, 1).ok());
  EXPECT_TRUE(fx.quota.Charge(*cell, 1).ok());
  auto info = fx.quota.Info(*cell);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->count, 3u);
  EXPECT_EQ(info->limit, 3u);
}

TEST(QuotaCell, PersistsToVtocOnFlush) {
  QuotaCellFixture fx;
  auto cell = fx.quota.CreateCell(fx.pack, fx.vtoc, 10);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(fx.quota.Charge(*cell, 4).ok());
  ASSERT_TRUE(fx.quota.FlushCell(*cell).ok());
  const VtocEntry* entry = fx.ctx.volumes.pack(fx.pack)->GetVtoc(fx.vtoc);
  EXPECT_EQ(entry->quota.count, 4u);
  EXPECT_EQ(entry->quota.limit, 10u);
}

TEST(QuotaCell, LoadIsIdempotent) {
  QuotaCellFixture fx;
  auto cell = fx.quota.CreateCell(fx.pack, fx.vtoc, 10);
  ASSERT_TRUE(cell.ok());
  auto again = fx.quota.LoadCell(fx.pack, fx.vtoc);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->value, cell->value);
  EXPECT_EQ(fx.quota.cached_count(), 1u);
}

TEST(QuotaCell, DestroyRequiresZeroCount) {
  QuotaCellFixture fx;
  auto cell = fx.quota.CreateCell(fx.pack, fx.vtoc, 10);
  ASSERT_TRUE(cell.ok());
  ASSERT_TRUE(fx.quota.Charge(*cell, 1).ok());
  EXPECT_EQ(fx.quota.DestroyCell(*cell).code(), Code::kNonEmpty);
  ASSERT_TRUE(fx.quota.Refund(*cell, 1).ok());
  EXPECT_TRUE(fx.quota.DestroyCell(*cell).ok());
  const VtocEntry* entry = fx.ctx.volumes.pack(fx.pack)->GetVtoc(fx.vtoc);
  EXPECT_FALSE(entry->quota.present);
}

TEST(QuotaCell, CacheTableBounded) {
  QuotaCellFixture fx;  // 8 slots
  for (int i = 0; i < 8; ++i) {
    auto v = fx.ctx.volumes.pack(fx.pack)->AllocateVtoc(SegmentUid(100 + i), true);
    if (!v.ok()) {
      break;  // vtoc slots < 8 is fine; the loop below still exercises limits
    }
    (void)fx.quota.CreateCell(fx.pack, *v, 1);
  }
  EXPECT_LE(fx.quota.cached_count(), 8u);
}

// --- end-to-end quota semantics through the kernel ---

TEST(QuotaSemantics, ChildlessRuleEnforced) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  // Childless: designation works.
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 100).ok());
  auto q = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->designated);
  EXPECT_EQ(q->limit, 100u);
  // Undesignate while childless: allowed.
  ASSERT_TRUE(gates.RemoveQuota(*fx.ctx, *dir).ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 100).ok());
  // With a child present, designation state is frozen.
  ASSERT_TRUE(gates.CreateSegment(*fx.ctx, *dir, "child", WorldAcl(), Label::SystemLow()).ok());
  EXPECT_EQ(gates.RemoveQuota(*fx.ctx, *dir).code(), Code::kNonEmpty);
  auto sub = gates.CreateDirectory(*fx.ctx, *dir, "subdir", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(gates.CreateSegment(*fx.ctx, *sub, "x", WorldAcl(), Label::SystemLow()).ok());
  EXPECT_EQ(gates.SetQuota(*fx.ctx, *sub, 5).code(), Code::kNonEmpty);
}

TEST(QuotaSemantics, GrowthChargesTheStaticCellAndOverflows) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 6).ok());
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "data", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto segno = gates.Initiate(*fx.ctx, *seg);
  ASSERT_TRUE(segno.ok());
  // The directory's own backing page consumed 1 of the 6; five more fit.
  for (uint32_t p = 0; p < 5; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno, p * kPageWords, 1).ok()) << p;
  }
  EXPECT_EQ(gates.Write(*fx.ctx, *segno, 5 * kPageWords, 1).code(), Code::kQuotaOverflow);
  auto q = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->count, 6u);
  // The root's cell was NOT charged for pages under the inferior quota dir.
  auto root_q = gates.GetQuota(*fx.ctx, gates.RootId());
  ASSERT_TRUE(root_q.ok());
  EXPECT_LT(root_q->count, 6u);
}

// SetQuota on a directory already designated changes its cell's limit.
TEST(QuotaSemantics, SetQuotaOnADesignatedDirectoryChangesItsLimit) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 100).ok());
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "data", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto segno = gates.Initiate(*fx.ctx, *seg);
  ASSERT_TRUE(segno.ok());
  for (uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno, p * kPageWords, 1).ok()) << p;
  }
  auto before = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->count, 4u);  // the directory's own page and three grown

  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, before->count).ok());
  auto after = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->designated);
  EXPECT_EQ(after->limit, before->count);
  EXPECT_EQ(after->count, before->count);
  EXPECT_EQ(gates.Write(*fx.ctx, *segno, 3 * kPageWords, 1).code(), Code::kQuotaOverflow);
  const auto findings = fx.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(QuotaSemantics, DeleteRefundsStorage) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto dir = gates.CreateDirectory(*fx.ctx, gates.RootId(), "q", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(gates.SetQuota(*fx.ctx, *dir, 50).ok());
  auto seg = gates.CreateSegment(*fx.ctx, *dir, "data", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto segno = gates.Initiate(*fx.ctx, *seg);
  ASSERT_TRUE(segno.ok());
  for (uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *segno, p * kPageWords, 1).ok());
  }
  auto before = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(gates.Delete(*fx.ctx, *dir, "data").ok());
  auto after = gates.GetQuota(*fx.ctx, *dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->count + 8, before->count);
}

}  // namespace
}  // namespace mks
