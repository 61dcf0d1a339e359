// Tests for the sharded per-CPU run queues (PR 5): determinism with work
// stealing on, dispatch order with it off, shortest-queue placement, fixed
// steal-victim ordering, and knobs-off equivalence with the legacy global
// ready list.
#include <gtest/gtest.h>

#include "src/sim/cpu_sched.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// The shared mixed workload (RunMixed, tests/kernel_fixture.h) at quantum 3,
// so each program takes several dispatches.  Its working sets overflow the
// frame pool, so parking and re-readying exercise the wake -> enqueue path.
constexpr uint32_t kOps = 48;
constexpr uint32_t kQuantum = 3;

KernelConfig RqConfig(uint16_t cpus, bool sharded, bool steal, Cycles connect_cost) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: eviction pressure
  config.vp_count = 6;
  config.sharded_runqueues = sharded;
  config.steal = steal;
  config.connect_cost = connect_cost;
  return config;
}

TEST(RunQueueDeterminism, TwoShardedStealRunsAreBitIdentical) {
  const KernelConfig config = RqConfig(4, /*sharded=*/true, /*steal=*/true,
                                       /*connect_cost=*/200);
  const MixedRun a = RunMixed(config, kOps, kQuantum);
  const MixedRun b = RunMixed(config, kOps, kQuantum);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // Work stealing and the connect-cost charges are part of the deterministic
  // interleaving: the full counter dump (runq.steals, per-shard depths, the
  // per-CPU busy clocks), the audit, the global clock, and the stored values
  // must all match exactly across runs.
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.audit, b.audit);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
}

TEST(RunQueueEquivalence, KnobsOffIsByteIdenticalAndStealAloneIsInert) {
  // steal=true without sharded_runqueues configures no queues at all: the
  // knob combination must be byte-identical to the defaults.
  const MixedRun off = RunMixed(RqConfig(4, false, false, 0), kOps, kQuantum);
  const MixedRun steal_only = RunMixed(RqConfig(4, false, true, 0), kOps, kQuantum);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(steal_only.ok);
  EXPECT_EQ(off.counters, steal_only.counters);
  EXPECT_EQ(off.clock, steal_only.clock);
  EXPECT_EQ(off.values, steal_only.values);
}

TEST(RunQueueEquivalence, ShardedComputesTheSameResultsAsTheGlobalList) {
  // Sharding changes who runs where and what the dispatch path charges —
  // never what the programs compute.  Same stored values, everything
  // finishes, books balance.
  const MixedRun global = RunMixed(RqConfig(4, false, false, 0), kOps, kQuantum);
  const MixedRun sharded = RunMixed(RqConfig(4, true, true, 200), kOps, kQuantum);
  ASSERT_TRUE(global.ok);
  ASSERT_TRUE(sharded.ok);
  EXPECT_EQ(global.values, sharded.values);
  EXPECT_TRUE(global.all_done);
  EXPECT_TRUE(sharded.all_done);
  EXPECT_TRUE(global.audit.empty()) << global.audit.front();
  EXPECT_TRUE(sharded.audit.empty()) << sharded.audit.front();
}

TEST(RunQueueDispatch, WithoutStealingTheLeastBehindCpuWithWorkRunsNext) {
  // Three CPUs, two processes: each lands on its own queue (0 and 1), so
  // CPU 2's stays empty and, once CPU 2 is least behind, every quantum goes
  // to whichever of CPUs 0 and 1 trails.  A computes long, then writes a
  // shared word; B computes briefly, then writes it.  B's write comes first
  // in virtual time, so it must run first, and A's must land last.
  Kernel kernel{RqConfig(3, /*sharded=*/true, /*steal=*/false, /*connect_cost=*/0)};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(1);
  PathWalker walker(&kernel.gates());
  auto a = kernel.processes().CreateProcess(TestSubject("A"));
  auto b = kernel.processes().CreateProcess(TestSubject("B"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ProcContext* ctx_a = kernel.processes().Context(*a);
  ProcContext* ctx_b = kernel.processes().Context(*b);
  auto entry = walker.CreateSegment(*ctx_a, ">work>shared", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  auto seg_a = kernel.gates().Initiate(*ctx_a, *entry);
  auto seg_b = kernel.gates().Initiate(*ctx_b, *entry);
  ASSERT_TRUE(seg_a.ok());
  ASSERT_TRUE(seg_b.ok());
  ASSERT_TRUE(kernel.processes()
                  .SetProgram(*a, {UserOp::Compute(5000), UserOp::Write(*seg_a, 0, 1)})
                  .ok());
  ASSERT_TRUE(kernel.processes()
                  .SetProgram(*b, {UserOp::Compute(10), UserOp::Write(*seg_b, 0, 2)})
                  .ok());
  kernel.ctx().smp.AlignAll();
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000).ok());
  EXPECT_GT(kernel.metrics().Get("smp.cpu0.busy_cycles"), 0u);
  EXPECT_GT(kernel.metrics().Get("smp.cpu1.busy_cycles"), 0u);
  auto word = kernel.gates().Read(*ctx_a, *seg_a, 0);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(*word, 1u);
}

// A process destroyed while still on a sharded run queue leaves the queue:
// it never runs, the others finish, and the kernel audits clean.
TEST(RunQueueDispatch, DestroyingAQueuedProcessDropsItFromItsQueue) {
  Kernel kernel{RqConfig(2, /*sharded=*/true, /*steal=*/true, /*connect_cost=*/100)};
  ASSERT_TRUE(kernel.Boot().ok());
  UserProcessManager& procs = kernel.processes();
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<Segno> segnos;
  for (uint32_t i = 0; i < 3; ++i) {
    auto pid = procs.CreateProcess(TestSubject("P" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = procs.Context(*pid);
    if (i == 0) {
      ASSERT_TRUE(walker.CreateSegment(*ctx, ">work>shared", WorldAcl(), Label::SystemLow()).ok());
    }
    auto segno = walker.Initiate(*ctx, ">work>shared");
    ASSERT_TRUE(segno.ok()) << segno.status();
    ASSERT_TRUE(procs.SetProgram(*pid, {UserOp::Compute(10), UserOp::Write(*segno, i, i + 1)})
                    .ok());
    pids.push_back(*pid);
    segnos.push_back(*segno);
  }
  ASSERT_TRUE(procs.DestroyProcess(pids[1]).ok());
  ASSERT_TRUE(procs.RunUntilQuiescent(1000).ok());
  for (uint32_t i : {0u, 2u}) {
    EXPECT_EQ(procs.state(pids[i]), ProcState::kDone) << i;
    auto word = kernel.gates().Read(*procs.Context(pids[i]), segnos[i], 1);
    ASSERT_TRUE(word.ok());
    EXPECT_EQ(*word, 0u);  // the destroyed process never ran
  }
  auto word = kernel.gates().Read(*procs.Context(pids[0]), segnos[0], 2);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(*word, 3u);
  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

// ---------------------------------------------------------------------------
// RunQueueSet unit level: placement and steal ordering.
// ---------------------------------------------------------------------------

struct RqRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  Tracer trace{&clock, &metrics};
  RunQueueSet rq;

  explicit RqRig(uint16_t cpus, bool steal, Cycles connect_cost = 0)
      : rq(cpus, steal, connect_cost, &cost, &metrics, &trace) {}
};

TEST(RunQueueSetUnit, EnqueuePicksTheShortestQueueAndTheHintOnlyOnATie) {
  RqRig rig(4, /*steal=*/false);
  // No hint: every queue is empty, so the lowest index wins.
  rig.rq.Enqueue(10, /*from_cpu=*/2, RunQueueSet::kNoCpu, 0);
  EXPECT_EQ(rig.rq.depth(0), 1u);
  // A shorter queue beats the hint: queue 0 holds one item, queues 1-3 none.
  rig.rq.Enqueue(11, /*from_cpu=*/0, /*hint_cpu=*/0, 0);
  EXPECT_EQ(rig.rq.depth(0), 1u);
  EXPECT_EQ(rig.rq.depth(1), 1u);
  // The hint wins a tie: queues 2 and 3 are both empty.
  rig.rq.Enqueue(13, /*from_cpu=*/0, /*hint_cpu=*/3, 0);
  EXPECT_EQ(rig.rq.depth(2), 0u);
  EXPECT_EQ(rig.rq.depth(3), 1u);
  // No hint again: the one shortest queue, 2, takes it.
  rig.rq.Enqueue(12, /*from_cpu=*/0, RunQueueSet::kNoCpu, 0);
  EXPECT_EQ(rig.rq.depth(2), 1u);
  // Each CPU's own queue holds exactly the item placed there.
  for (uint16_t cpu = 0; cpu < 4; ++cpu) {
    const auto own = rig.rq.Dequeue(cpu, 0);
    ASSERT_TRUE(own.ok);
    EXPECT_EQ(own.id, 10u + cpu);
  }
  EXPECT_FALSE(rig.rq.AnyQueued());
}

TEST(RunQueueSetUnit, StealScansVictimsInFixedAscendingOrder) {
  RqRig rig(4, /*steal=*/true);
  // Hint one item onto each of queues 2, 1, 3 (enqueue order deliberately
  // scrambled; placement, not arrival, must decide).
  rig.rq.Enqueue(22, /*from_cpu=*/2, /*hint_cpu=*/2, 0);
  rig.rq.Enqueue(11, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  rig.rq.Enqueue(33, /*from_cpu=*/3, /*hint_cpu=*/3, 0);
  ASSERT_EQ(rig.rq.depth(1), 1u);
  ASSERT_EQ(rig.rq.depth(2), 1u);
  ASSERT_EQ(rig.rq.depth(3), 1u);
  // CPU 0's own queue is empty: victims scan 1, 2, 3 — in that order, every
  // time, regardless of queue depths or enqueue order.
  const auto first = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(first.ok);
  EXPECT_TRUE(first.stolen);
  EXPECT_EQ(first.id, 11u);
  EXPECT_EQ(first.victim, 1u);
  const auto second = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.id, 22u);
  EXPECT_EQ(second.victim, 2u);
  const auto third = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(third.ok);
  EXPECT_EQ(third.id, 33u);
  EXPECT_EQ(third.victim, 3u);
  EXPECT_FALSE(rig.rq.Dequeue(0, 0).ok);
  EXPECT_EQ(rig.metrics.Get("runq.steals"), 3u);
}

TEST(RunQueueSetUnit, StealDisabledLeavesOtherQueuesAlone) {
  RqRig rig(2, /*steal=*/false);
  rig.rq.Enqueue(7, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  EXPECT_FALSE(rig.rq.Dequeue(0, 0).ok);
  EXPECT_TRUE(rig.rq.AnyQueued());
  EXPECT_TRUE(rig.rq.Dequeue(1, 0).ok);
}

}  // namespace
}  // namespace mks
