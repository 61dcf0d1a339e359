// End-to-end tests of the descriptor-lock wait/notify protocol under
// contention: with asynchronous paging, the first toucher of a missing page
// posts the read and leaves the descriptor locked; every other toucher takes
// a locked-descriptor fault and awaits the segment's page-arrival
// eventcount.  Completion unlocks the descriptor and
// notifies everyone.  A read still in flight when its segment is deactivated
// is cut loose: it lands in no page table, whatever the slot holds by then.
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
    ASSERT_TRUE(pfm.EvictPage(&ast->page_table, page).ok());
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
  EXPECT_EQ(second->pending_wait.ec.value, ast->page_table.arrival.value);

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
  EXPECT_GE(fx.kernel.ctx().eventcounts.Read(ast->page_table.arrival),
            second->pending_wait.target);

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

// A shared segment whose page 0 holds 7 and is evicted, and a second process
// whose read of it is posted.  The first process has terminated the segment,
// so once the reader lets go of it nothing connects it.
struct PostedReadRig {
  explicit PostedReadRig(KernelConfig config) : fx(config) {}

  void SetUp() {
    ASSERT_TRUE(fx.boot_status.ok());
    KernelGates& gates = fx.kernel.gates();
    auto entry = gates.CreateSegment(*fx.ctx, gates.RootId(), "s", WorldAcl(),
                                     Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    s = *entry;
    auto mine = gates.Initiate(*fx.ctx, s);
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(gates.Write(*fx.ctx, *mine, 0, 7).ok());
    ASSERT_TRUE(gates.Terminate(*fx.ctx, *mine).ok());
  }

  // The reader touches the segment, its page 0 is evicted, and the reader's
  // read of it is posted.
  void PostRead() {
    KernelGates& gates = fx.kernel.gates();
    auto pid = fx.kernel.processes().CreateProcess(TestSubject("Reader"));
    ASSERT_TRUE(pid.ok());
    reader_pid = *pid;
    reader = fx.kernel.processes().Context(reader_pid);
    auto segno = gates.Initiate(*reader, s);
    ASSERT_TRUE(segno.ok());
    reader_segno = *segno;
    auto seen = ReadLanding(fx.kernel, *reader, reader_segno, 0);
    ASSERT_TRUE(seen.ok()) << seen.status();
    ASSERT_EQ(*seen, 7u);
    slot = fx.kernel.segments().FindIndex(SegmentUid(s.value));
    ASSERT_TRUE(fx.kernel.page_frames().EvictPage(&fx.kernel.segments().Get(slot)->page_table, 0)
                    .ok());
    ASSERT_EQ(gates.Read(*reader, reader_segno, 0).status().code(), Code::kBlocked);
    ASSERT_EQ(fx.kernel.page_frames().pending_io(), 1u);
  }

  KernelFixture fx;
  EntryId s{};
  ProcessId reader_pid{};
  ProcContext* reader = nullptr;
  Segno reader_segno{};
  uint32_t slot = kNoAst;
};

// A reader logs out with its read in flight, and AST replacement hands the
// segment's slot to another segment before the read lands: the read must
// not land in the new occupant's page table.
TEST(LockProtocol, AReadInFlightAcrossAnAstReplacementLandsInNoOtherSegment) {
  KernelConfig config = AsyncConfig();
  config.ast_slots = 6;
  PostedReadRig rig{config};
  ASSERT_NO_FATAL_FAILURE(rig.SetUp());
  Kernel& kernel = rig.fx.kernel;
  KernelGates& gates = kernel.gates();
  ProcContext& mine = *rig.fx.ctx;

  // Eight more segments, page 0 of o<i> holding 100 + i.
  std::vector<EntryId> others;
  for (uint32_t i = 0; i < 8; ++i) {
    auto entry = gates.CreateSegment(mine, gates.RootId(), "o" + std::to_string(i), WorldAcl(),
                                     Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = gates.Initiate(mine, *entry);
    ASSERT_TRUE(segno.ok());
    ASSERT_TRUE(gates.Write(mine, *segno, 0, 100 + i).ok());
    ASSERT_TRUE(gates.Terminate(mine, *segno).ok());
    others.push_back(*entry);
  }
  ASSERT_NO_FATAL_FAILURE(rig.PostRead());
  ASSERT_TRUE(kernel.processes().DestroyProcess(rig.reader_pid).ok());

  // Growing each o<i> by a page cycles the AST through the reader's slot.
  auto grow = [&](uint32_t i) {
    auto segno = gates.Initiate(mine, others[i]);
    ASSERT_TRUE(segno.ok());
    ASSERT_TRUE(gates.Write(mine, *segno, kPageWords, 200 + i).ok());
    ASSERT_TRUE(gates.Terminate(mine, *segno).ok());
  };
  uint32_t taker = UINT32_MAX;
  for (uint32_t i = 0; i < others.size() && taker == UINT32_MAX; ++i) {
    ASSERT_NO_FATAL_FAILURE(grow(i));
    if (kernel.segments().FindIndex(SegmentUid(others[i].value)) == rig.slot) {
      taker = i;
    }
  }
  ASSERT_NE(taker, UINT32_MAX) << "no segment took the reader's slot";
  ASSERT_EQ(kernel.page_frames().pending_io(), 1u);
  const uint32_t free_before = kernel.page_frames().free_frames();

  LandPostedReads(kernel);
  EXPECT_EQ(kernel.page_frames().free_frames(), free_before + 1);  // the orphan's frame
  EXPECT_FALSE(kernel.segments().Get(rig.slot)->page_table.ptws[0].in_core);
  auto read = [&](uint32_t i, uint32_t page) {
    auto segno = gates.Initiate(mine, others[i]);
    EXPECT_TRUE(segno.ok());
    auto value = ReadLanding(kernel, mine, *segno, page * kPageWords);
    EXPECT_TRUE(gates.Terminate(mine, *segno).ok());
    return value;
  };
  auto taker_page0 = read(taker, 0);
  ASSERT_TRUE(taker_page0.ok()) << taker_page0.status();
  EXPECT_EQ(*taker_page0, 100 + taker);
  for (uint32_t i = 0; i <= taker; ++i) {
    auto page0 = read(i, 0);
    auto page1 = read(i, 1);
    ASSERT_TRUE(page0.ok()) << i << ": " << page0.status();
    ASSERT_TRUE(page1.ok()) << i << ": " << page1.status();
    EXPECT_EQ(*page0, 100 + i);
    EXPECT_EQ(*page1, 200 + i);
  }
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
}

// Deactivation leaves the slot empty while a read is in flight: the orphan
// is accepted by the audit while its read is posted, and when the read
// lands its frame returns to the free list with nothing installed.
TEST(LockProtocol, DeactivatingWithAReadInFlightOrphansTheRead) {
  PostedReadRig rig{AsyncConfig()};
  ASSERT_NO_FATAL_FAILURE(rig.SetUp());
  ASSERT_NO_FATAL_FAILURE(rig.PostRead());
  Kernel& kernel = rig.fx.kernel;
  PageFrameManager& pfm = kernel.page_frames();
  ASSERT_TRUE(kernel.gates().Terminate(*rig.reader, rig.reader_segno).ok());
  const uint32_t free_before = pfm.free_frames();

  ASSERT_TRUE(kernel.segments().Deactivate(rig.slot).ok());
  EXPECT_EQ(pfm.pending_io(), 1u);
  EXPECT_TRUE(kernel.AuditIntegrity().empty());

  LandPostedReads(kernel);
  EXPECT_EQ(pfm.pending_io(), 0u);
  EXPECT_EQ(pfm.free_frames(), free_before + 1);
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
  auto segno = kernel.gates().Initiate(*rig.reader, rig.s);
  ASSERT_TRUE(segno.ok());
  auto value = ReadLanding(kernel, *rig.reader, *segno, 0);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 7u);
}

// Readahead queues reads on the pack's request queue.  Deactivating the
// segment orphans them there as well as the posted demand reads: the audit
// accepts each orphan while its read is queued, and each frame comes back
// when its round is dispatched.
TEST(LockProtocol, DeactivatingWithReadaheadQueuedOrphansTheQueuedReads) {
  KernelConfig config = AsyncConfig();
  config.paging_pipeline = PagingPipeline::Full();
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  KernelGates& gates = fx.kernel.gates();
  PageFrameManager& pfm = fx.kernel.page_frames();
  const Segno segno = fx.MustCreate(">ra>s");
  for (uint32_t p = 0; p < 12; ++p) {
    ASSERT_TRUE(gates.Write(*fx.ctx, segno, p * kPageWords, p + 1).ok());
  }
  const KstEntry* entry = fx.kernel.known_segments().Lookup(fx.pid, segno);
  const uint32_t slot = fx.kernel.segments().FindIndex(entry->home.uid);
  for (uint32_t p = 0; p < 12; ++p) {
    ASSERT_TRUE(pfm.EvictPage(&fx.kernel.segments().Get(slot)->page_table, p).ok());
  }
  const uint32_t free_before = pfm.free_frames();
  // Two sequential demand faults: the second queues readahead behind it.
  ASSERT_EQ(gates.Read(*fx.ctx, segno, 0).status().code(), Code::kBlocked);
  ASSERT_EQ(gates.Read(*fx.ctx, segno, kPageWords).status().code(), Code::kBlocked);
  ASSERT_GT(fx.kernel.metrics().Get("pfm.prefetch_issued"), 0u);
  ASSERT_GT(fx.kernel.ctx().volumes.pack(entry->home.pack)->queued_io(), 0u);

  ASSERT_TRUE(gates.Terminate(*fx.ctx, segno).ok());
  ASSERT_TRUE(fx.kernel.segments().Deactivate(slot).ok());
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
  LandPostedReads(fx.kernel);
  EXPECT_EQ(fx.kernel.ctx().volumes.pack(entry->home.pack)->queued_io(), 0u);
  EXPECT_EQ(pfm.free_frames(), free_before);
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
}

// A deletion severs a waiting reader's connection and deactivates the
// segment with its read in flight.  Cutting the read loose advances the
// page-arrival count, so the reader retries at once and gets a clean error
// instead of waiting on an arrival that will never come.
TEST(LockProtocol, DeletingASegmentWithAReadInFlightWakesItsReader) {
  PostedReadRig rig{AsyncConfig()};
  ASSERT_NO_FATAL_FAILURE(rig.SetUp());
  ASSERT_NO_FATAL_FAILURE(rig.PostRead());
  Kernel& kernel = rig.fx.kernel;
  const WaitSpec wait = rig.reader->pending_wait;
  ASSERT_TRUE(wait.valid);
  EXPECT_LT(kernel.ctx().eventcounts.Read(wait.ec), wait.target);

  ASSERT_TRUE(kernel.gates().Delete(*rig.fx.ctx, kernel.gates().RootId(), "s").ok());
  EXPECT_GE(kernel.ctx().eventcounts.Read(wait.ec), wait.target);
  const Status retry = kernel.gates().Read(*rig.reader, rig.reader_segno, 0).status();
  EXPECT_FALSE(retry.ok());
  EXPECT_NE(retry.code(), Code::kBlocked) << retry;

  LandPostedReads(kernel);
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
}

// The reverse of the descriptor-lock rule: a frame in flight names a PTW that
// is locked and not in core.  A posted read under an unlocked PTW is named.
TEST(LockProtocol, AuditNamesAPostedReadUnderAnUnlockedDescriptor) {
  PostedReadRig rig{AsyncConfig()};
  ASSERT_NO_FATAL_FAILURE(rig.SetUp());
  ASSERT_NO_FATAL_FAILURE(rig.PostRead());
  Kernel& kernel = rig.fx.kernel;
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
  Ptw& ptw = kernel.segments().Get(rig.slot)->page_table.ptws[0];
  ptw.locked = false;
  const std::vector<std::string> findings = kernel.AuditIntegrity();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("in flight for page 0"), std::string::npos) << findings[0];
  ptw.locked = true;
  LandPostedReads(kernel);
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
}

}  // namespace
}  // namespace mks
