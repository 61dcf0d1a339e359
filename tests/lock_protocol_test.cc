// End-to-end tests of the descriptor-lock wait/notify protocol under
// contention: with asynchronous paging, the first toucher of a missing page
// posts the read and leaves the descriptor locked; every other toucher takes
// a locked-descriptor fault and awaits the segment's page-arrival
// eventcount.  Completion unlocks the descriptor and
// notifies everyone.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

KernelConfig AsyncConfig() {
  KernelConfig config;
  config.async_paging = true;
  config.memory_frames = 64;
  return config;
}

TEST(LockProtocol, SecondToucherWaitsOnTheEventcount) {
  KernelFixture fx{AsyncConfig()};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();

  PageFrameManager& pfm = fx.kernel.page_frames();

  // Shared segment with resident-then-evicted pages.
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "shared", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto segno = gates.Initiate(*fx.ctx, *entry);
  ASSERT_TRUE(gates.Write(*fx.ctx, *segno, 0, 7).ok());
  ASSERT_TRUE(gates.Write(*fx.ctx, *segno, kPageWords, 8).ok());
  ASSERT_TRUE(gates.Write(*fx.ctx, *segno, 2 * kPageWords, 9).ok());
  const SegmentUid uid(entry->value);
  const uint32_t ast_index = fx.kernel.segments().FindIndex(uid);
  AstEntry* ast = fx.kernel.segments().Get(ast_index);
  for (uint32_t page = 0; page < 3; ++page) {
    ASSERT_TRUE(
        pfm.EvictPage(&ast->page_table, page, ast->pack, ast->vtoc, ast->quota_cell, ast->page_ec)
            .ok());
  }
  EXPECT_FALSE(pfm.NextReadDue().has_value());

  // First toucher: posts the read, blocks.
  Status first = gates.Read(*fx.ctx, *segno, 0).status();
  EXPECT_EQ(first.code(), Code::kBlocked);
  EXPECT_TRUE(ast->page_table.ptws[0].locked);
  EXPECT_EQ(pfm.pending_io(), 1u);
  ASSERT_TRUE(pfm.NextReadDue().has_value());
  const Cycles due = *pfm.NextReadDue();
  EXPECT_GT(due, fx.kernel.clock().now());
  EXPECT_LE(due, fx.kernel.clock().now() + Costs::kDiskReadLatency);

  // Second toucher (another process): hits the LOCKED descriptor, not a
  // missing page, and is told to await the same eventcount.
  auto second_pid = fx.kernel.processes().CreateProcess(TestSubject("Second"));
  ProcContext* second = fx.kernel.processes().Context(*second_pid);
  auto their_segno = gates.Initiate(*second, *entry);
  ASSERT_TRUE(their_segno.ok());
  Status blocked = gates.Read(*second, *their_segno, 0).status();
  EXPECT_EQ(blocked.code(), Code::kBlocked);
  EXPECT_GT(fx.kernel.metrics().Get("gates.locked_descriptor_waits"), 0u);
  EXPECT_TRUE(second->pending_wait.valid);
  EXPECT_EQ(second->pending_wait.ec.value, ast->page_ec.value);

  // The transfer lands exactly at its due time, and the landing posts the
  // daemon's work; until the daemon completes it, it still counts as
  // pending I/O.
  const EventcountTable& ecs = fx.kernel.ctx().eventcounts;
  const uint64_t io_work0 = ecs.Read(pfm.io_work());
  EXPECT_EQ(pfm.LandReads(due - 1), 0u);
  EXPECT_EQ(ecs.Read(pfm.io_work()), io_work0);
  EXPECT_EQ(pfm.LandReads(due), 1u);
  EXPECT_EQ(ecs.Read(pfm.io_work()), io_work0 + 1);
  EXPECT_FALSE(pfm.NextReadDue().has_value());
  EXPECT_EQ(pfm.pending_io(), 1u);
  EXPECT_TRUE(ast->page_table.ptws[0].locked);

  // The daemon unlocks and notifies, and leaves itself no work.
  ASSERT_GE(due, fx.kernel.clock().now());
  fx.kernel.clock().Advance(due - fx.kernel.clock().now());
  pfm.PageIoDaemonStep();
  EXPECT_EQ(ecs.Read(pfm.io_work()), io_work0 + 1);
  EXPECT_EQ(pfm.pending_io(), 0u);
  EXPECT_FALSE(ast->page_table.ptws[0].locked);
  EXPECT_GE(fx.kernel.ctx().eventcounts.Read(ast->page_ec), second->pending_wait.target);

  // Both retries now succeed and see the data.
  auto mine = gates.Read(*fx.ctx, *segno, 0);
  auto theirs = gates.Read(*second, *their_segno, 0);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(*mine, 7u);
  EXPECT_EQ(*theirs, 7u);
  // Exactly one disk read serviced both touchers.
  EXPECT_EQ(fx.kernel.metrics().Get("pfm.async_reads"), 1u);

  // Two reads posted at different times land one at a time, in post order.
  EXPECT_EQ(gates.Read(*fx.ctx, *segno, kPageWords).status().code(), Code::kBlocked);
  EXPECT_EQ(gates.Read(*second, *their_segno, 2 * kPageWords).status().code(), Code::kBlocked);
  EXPECT_EQ(pfm.pending_io(), 2u);
  ASSERT_TRUE(pfm.NextReadDue().has_value());
  const Cycles first_due = *pfm.NextReadDue();
  ASSERT_GE(first_due, fx.kernel.clock().now());
  fx.kernel.clock().Advance(first_due - fx.kernel.clock().now());
  EXPECT_EQ(pfm.LandReads(fx.kernel.clock().now()), 1u);
  ASSERT_TRUE(pfm.NextReadDue().has_value());
  const Cycles second_due = *pfm.NextReadDue();
  EXPECT_GT(second_due, first_due);
  pfm.PageIoDaemonStep();
  EXPECT_FALSE(ast->page_table.ptws[1].locked);
  EXPECT_TRUE(ast->page_table.ptws[2].locked);
  ASSERT_GE(second_due, fx.kernel.clock().now());
  fx.kernel.clock().Advance(second_due - fx.kernel.clock().now());
  EXPECT_EQ(pfm.LandReads(fx.kernel.clock().now()), 1u);
  pfm.PageIoDaemonStep();
  EXPECT_FALSE(ast->page_table.ptws[2].locked);
  EXPECT_EQ(pfm.pending_io(), 0u);
  EXPECT_FALSE(pfm.NextReadDue().has_value());
  auto page1 = gates.Read(*fx.ctx, *segno, kPageWords);
  auto page2 = gates.Read(*second, *their_segno, 2 * kPageWords);
  ASSERT_TRUE(page1.ok());
  ASSERT_TRUE(page2.ok());
  EXPECT_EQ(*page1, 8u);
  EXPECT_EQ(*page2, 9u);
}

TEST(LockProtocol, ManyProcessesSharingOneHotSegmentAllFinish) {
  KernelConfig config = AsyncConfig();
  config.memory_frames = 56;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "hot", WorldAcl(),
                                   Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto warm = gates.Initiate(*fx.ctx, *entry);
  for (uint32_t p = 0; p < 24; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, *warm, p * kPageWords, p + 1).ok());
  }

  std::vector<ProcessId> pids;
  for (int i = 0; i < 4; ++i) {
    auto pid = fx.kernel.processes().CreateProcess(TestSubject("R" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = fx.kernel.processes().Context(*pid);
    auto segno = gates.Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 48; ++n) {
      // Overlapping strides: several processes regularly race to the same
      // evicted page.
      program.push_back(UserOp::Read(*segno, ((n + 7u * i) % 24) * kPageWords));
    }
    ASSERT_TRUE(fx.kernel.processes().SetProgram(*pid, std::move(program)).ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(500000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(fx.kernel.processes().state(pid), ProcState::kDone)
        << fx.kernel.processes().stats(pid).last_error;
  }
  // Values intact under all that contention.
  for (uint32_t p = 0; p < 24; ++p) {
    auto value = gates.Read(*fx.ctx, *warm, p * kPageWords);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, p + 1);
  }
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

}  // namespace
}  // namespace mks
