// Tests for the core segment manager and virtual processor manager — the
// bottom two layers of the lattice.
#include <gtest/gtest.h>

#include "src/kernel/vproc.h"

namespace mks {
namespace {

struct BottomFixture {
  KernelContext ctx{/*memory_frames=*/32, CostModel::kDefaultStructuredFactor, /*secret=*/1};
  CoreSegmentManager core_segs{&ctx};
};

TEST(CoreSegment, AllocateReadWrite) {
  BottomFixture fx;
  auto seg = fx.core_segs.Allocate("maps", 2);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(fx.core_segs.SizeWords(*seg), 2 * kPageWords);
  EXPECT_EQ(fx.core_segs.Name(*seg), "maps");
  ASSERT_TRUE(fx.core_segs.WriteWord(*seg, 2047, 55).ok());
  auto value = fx.core_segs.ReadWord(*seg, 2047);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 55u);
}

TEST(CoreSegment, OutOfBoundsRejected) {
  BottomFixture fx;
  auto seg = fx.core_segs.Allocate("small", 1);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(fx.core_segs.WriteWord(*seg, kPageWords, 1).code(), Code::kOutOfBounds);
  EXPECT_EQ(fx.core_segs.ReadWord(*seg, kPageWords).code(), Code::kOutOfBounds);
}

TEST(CoreSegment, BudgetKeepsHalfOfMemoryPageable) {
  BottomFixture fx;  // 32 frames -> at most 16 for core segments
  auto big = fx.core_segs.Allocate("big", 16);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(fx.core_segs.Allocate("one_more", 1).code(), Code::kResourceExhausted);
  EXPECT_EQ(fx.core_segs.FirstPageableFrame(), 16u);
}

TEST(CoreSegment, SealedAfterInitialization) {
  BottomFixture fx;
  ASSERT_TRUE(fx.core_segs.Allocate("a", 1).ok());
  fx.core_segs.Seal();
  EXPECT_EQ(fx.core_segs.Allocate("b", 1).code(), Code::kFailedPrecondition);
  // Existing segments still readable/writable: the ONLY operations left.
  ASSERT_TRUE(fx.core_segs.WriteWord(CoreSegId(0), 0, 1).ok());
}

TEST(CoreSegment, RawSpanAliasesPrimaryMemory) {
  BottomFixture fx;
  auto seg = fx.core_segs.Allocate("span", 1);
  ASSERT_TRUE(seg.ok());
  auto span = fx.core_segs.RawSpan(*seg);
  span[10] = 1234;
  auto value = fx.core_segs.ReadWord(*seg, 10);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 1234u);
}

TEST(CoreSegment, RawSpanAliasesEveryFrameOfTheSegment) {
  BottomFixture fx;
  auto seg = fx.core_segs.Allocate("span2", 2);
  ASSERT_TRUE(seg.ok());
  auto span = fx.core_segs.RawSpan(*seg);
  ASSERT_EQ(span.size(), 2u * kPageWords);
  span[1034] = 1234;  // page 2
  for (int i = 0; i < 12; ++i) {
    auto value = fx.core_segs.ReadWord(*seg, 1034);
    ASSERT_TRUE(value.ok());
    ASSERT_EQ(*value, 1234u) << i;
  }
  ASSERT_TRUE(fx.core_segs.WriteWord(*seg, 1040, 5).ok());
  EXPECT_EQ(span[1034], 1234u);
  EXPECT_EQ(span[1040], 5u);
}

struct VprocFixture : BottomFixture {
  VirtualProcessorManager vpm{&ctx, &core_segs};
  VprocFixture() { EXPECT_TRUE(vpm.Init(4).ok()); }
};

TEST(Vproc, FixedPoolAndKernelBinding) {
  VprocFixture fx;
  EXPECT_EQ(fx.vpm.vp_count(), 4u);
  EXPECT_EQ(fx.vpm.UserPool().size(), 4u);
  const EventcountId work = fx.ctx.eventcounts.Create();
  auto vp = fx.vpm.BindKernelTask("daemon", work, [] {});
  ASSERT_TRUE(vp.ok());
  EXPECT_TRUE(fx.vpm.IsKernelVp(*vp));
  EXPECT_EQ(fx.vpm.task_name(*vp), "daemon");
  EXPECT_EQ(fx.vpm.UserPool().size(), 3u);
}

TEST(Vproc, PoolExhaustsAtFixedSize) {
  VprocFixture fx;
  const EventcountId work = fx.ctx.eventcounts.Create();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fx.vpm.BindKernelTask("t" + std::to_string(i), work, [] {}).ok());
  }
  EXPECT_EQ(fx.vpm.BindKernelTask("extra", work, [] {}).code(), Code::kResourceExhausted);
}

TEST(Vproc, AcquireAndReleaseUserVps) {
  VprocFixture fx;
  auto v1 = fx.vpm.AcquireIdleUserVp();
  auto v2 = fx.vpm.AcquireIdleUserVp();
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(fx.vpm.state(*v1), VpState::kRunning);
  fx.vpm.ReleaseUserVp(*v1);
  EXPECT_EQ(fx.vpm.state(*v1), VpState::kIdle);
  // Exhaustion.
  ASSERT_TRUE(fx.vpm.AcquireIdleUserVp().ok());
  ASSERT_TRUE(fx.vpm.AcquireIdleUserVp().ok());
  ASSERT_TRUE(fx.vpm.AcquireIdleUserVp().ok());
  EXPECT_EQ(fx.vpm.AcquireIdleUserVp().code(), Code::kResourceExhausted);
}

TEST(Vproc, AwaitAndAdvance) {
  VprocFixture fx;
  const EventcountId ec = fx.ctx.eventcounts.Create();
  auto vp = fx.vpm.BindKernelTask("waiter", fx.ctx.eventcounts.Create(), [] {});
  ASSERT_TRUE(vp.ok());
  EXPECT_FALSE(fx.vpm.Await(*vp, ec, 1));
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kWaiting);
  fx.vpm.Advance(ec);
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kReady);
  // Already satisfied: no suspension.
  EXPECT_TRUE(fx.vpm.Await(*vp, ec, 1));
}

TEST(Vproc, RunKernelTasksReportsWork) {
  // A bound task waits on its work eventcount and runs only after an
  // advance; RunKernelTasks reports whether it ran one.
  VprocFixture fx;
  const EventcountId work = fx.ctx.eventcounts.Create();
  int runs = 0;
  bool repost = false;
  auto vp = fx.vpm.BindKernelTask("worker", work, [&] {
    ++runs;
    if (repost) {
      fx.vpm.Advance(work);
    }
  });
  ASSERT_TRUE(vp.ok());
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kWaiting);
  EXPECT_FALSE(fx.vpm.RunKernelTasks());  // nothing posted yet
  EXPECT_EQ(runs, 0);
  fx.vpm.Advance(work);
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kReady);
  EXPECT_TRUE(fx.vpm.RunKernelTasks());
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kWaiting);
  EXPECT_FALSE(fx.vpm.RunKernelTasks());
  EXPECT_EQ(runs, 1);
  // Two advances before a run are one run's worth of work.
  fx.vpm.Advance(work);
  fx.vpm.Advance(work);
  EXPECT_TRUE(fx.vpm.RunKernelTasks());
  EXPECT_FALSE(fx.vpm.RunKernelTasks());
  EXPECT_EQ(runs, 2);
  // Work posted during the run readies the task again.
  repost = true;
  fx.vpm.Advance(work);
  EXPECT_TRUE(fx.vpm.RunKernelTasks());
  EXPECT_EQ(fx.vpm.state(*vp), VpState::kReady);
  repost = false;
  EXPECT_TRUE(fx.vpm.RunKernelTasks());
  EXPECT_FALSE(fx.vpm.RunKernelTasks());
  EXPECT_EQ(runs, 4);
}

TEST(Vproc, StateRecordsLiveInTheCoreSegment) {
  VprocFixture fx;
  // vp_states is the first core segment this fixture allocates.
  auto state_word = fx.core_segs.ReadWord(CoreSegId(0), 0);
  ASSERT_TRUE(state_word.ok());
  auto vp = fx.vpm.AcquireIdleUserVp();
  ASSERT_TRUE(vp.ok());
  auto after = fx.core_segs.ReadWord(CoreSegId(0), vp->value * 4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, static_cast<Word>(VpState::kRunning));
}

}  // namespace
}  // namespace mks
