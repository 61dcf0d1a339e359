// Tests for the sharded per-CPU run queues (PR 5): determinism with work
// stealing on, fixed steal-victim ordering, affinity masks under dispatch
// pressure (on pools of up to 64 CPUs), and knobs-off equivalence with the
// legacy global ready list.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

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

// ---------------------------------------------------------------------------
// RunQueueSet unit level: steal ordering and mask filtering.
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

TEST(RunQueueSetUnit, StealScansVictimsInFixedAscendingOrder) {
  RqRig rig(4, /*steal=*/true);
  // Hint-pin one any-CPU item to each of queues 2, 1, 3 (enqueue order
  // deliberately scrambled; placement, not arrival, must decide).
  rig.rq.Enqueue(22, 0, /*from_cpu=*/2, /*hint_cpu=*/2, 0);
  rig.rq.Enqueue(11, 0, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  rig.rq.Enqueue(33, 0, /*from_cpu=*/3, /*hint_cpu=*/3, 0);
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

TEST(RunQueueSetUnit, StealSkipsAffinityIncompatibleItems) {
  RqRig rig(4, /*steal=*/true);
  // Queue 1 holds an item only CPU 1 may run; queue 2 holds an any-CPU item.
  rig.rq.Enqueue(11, /*mask=*/1u << 1, /*from_cpu=*/1, RunQueueSet::kNoCpu, 0);
  rig.rq.Enqueue(22, /*mask=*/0, /*from_cpu=*/2, /*hint_cpu=*/2, 0);
  ASSERT_EQ(rig.rq.depth(1), 1u);
  // The thief checks victim 1 first, finds nothing it may run, and moves on.
  const auto popped = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(popped.ok);
  EXPECT_TRUE(popped.stolen);
  EXPECT_EQ(popped.id, 22u);
  EXPECT_EQ(popped.victim, 2u);
  EXPECT_EQ(rig.rq.depth(1), 1u);  // the pinned item was not disturbed
  // CPU 1 takes its own pinned item off the front, unstolen.
  const auto own = rig.rq.Dequeue(1, 0);
  ASSERT_TRUE(own.ok);
  EXPECT_FALSE(own.stolen);
  EXPECT_EQ(own.id, 11u);
}

TEST(RunQueueSetUnit, MasksNameEverySixtyFourCpuPoolMember) {
  RqRig rig(40, /*steal=*/true);
  // One item only CPU 0 may run, one only CPU 35 may run.  A 32-bit shift
  // of the mask by CPU index would let CPU 32 (32 mod 32 = 0) run the first
  // and truncate the second's mask to "any CPU".
  rig.rq.Enqueue(10, /*mask=*/uint64_t{1}, /*from_cpu=*/0, RunQueueSet::kNoCpu, 0);
  rig.rq.Enqueue(35, /*mask=*/uint64_t{1} << 35, /*from_cpu=*/0, RunQueueSet::kNoCpu, 0);
  ASSERT_EQ(rig.rq.depth(0), 1u);
  ASSERT_EQ(rig.rq.depth(35), 1u);
  EXPECT_FALSE(rig.rq.Allowed(uint64_t{1}, 32));
  EXPECT_TRUE(rig.rq.Allowed(uint64_t{1} << 35, 35));
  // CPU 32's steal scan visits queue 35 before queue 0 and may take neither.
  EXPECT_FALSE(rig.rq.Dequeue(32, 0).ok);
  EXPECT_EQ(rig.rq.TotalQueued(), 2u);
  const auto on35 = rig.rq.Dequeue(35, 0);
  ASSERT_TRUE(on35.ok);
  EXPECT_FALSE(on35.stolen);
  EXPECT_EQ(on35.id, 35u);
  EXPECT_EQ(on35.mask, uint64_t{1} << 35);
  const auto on0 = rig.rq.Dequeue(0, 0);
  ASSERT_TRUE(on0.ok);
  EXPECT_EQ(on0.id, 10u);
}

TEST(RunQueueSetUnit, StealDisabledLeavesOtherQueuesAlone) {
  RqRig rig(2, /*steal=*/false);
  rig.rq.Enqueue(7, 0, /*from_cpu=*/1, /*hint_cpu=*/1, 0);
  EXPECT_FALSE(rig.rq.Dequeue(0, 0).ok);
  EXPECT_TRUE(rig.rq.AnyQueued());
  EXPECT_TRUE(rig.rq.Dequeue(1, 0).ok);
}

// ---------------------------------------------------------------------------
// Affinity under pressure.
// ---------------------------------------------------------------------------

TEST(RunQueueAffinity, InvalidMaskIsRejected) {
  KernelFixture fx(RqConfig(2, true, true, 0));
  ASSERT_TRUE(fx.boot_status.ok());
  // Bit 2 names a CPU outside the 2-CPU pool: the mask excludes every CPU.
  EXPECT_EQ(fx.kernel.processes().SetAffinity(fx.pid, 1u << 2).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(fx.kernel.processes().SetAffinity(fx.pid, 0x3).code(), Code::kOk);
  EXPECT_EQ(fx.kernel.processes().affinity(fx.pid), 0x3u);
  EXPECT_EQ(fx.kernel.processes().SetAffinity(ProcessId(999), 1).code(), Code::kNotFound);
}

TEST(RunQueueAffinity, MasksAreRespectedUnderDispatchPressure) {
  KernelConfig config = RqConfig(4, /*sharded=*/true, /*steal=*/true, /*connect_cost=*/200);
  config.trace.enabled = true;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(2);  // maximal dispatch pressure
  PathWalker walker(&kernel.gates());
  std::map<uint32_t, uint32_t> pin_of;  // pid -> affinity mask
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < 8; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("A" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>a" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 32; ++n) {
      program.push_back(UserOp::Compute(30));
      program.push_back(UserOp::Write(*segno, (n % 4) * kPageWords, n));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
    // Interleave pins: even processes on CPUs {0,1}, odd on CPUs {2,3}.
    // With 8 runnable processes on 4 CPUs every dispatch is contended, so any
    // mask violation (a steal crossing the pin, a mis-homed enqueue) shows.
    const uint32_t pin = (i % 2 == 0) ? 0x3u : 0xcu;
    ASSERT_TRUE(kernel.processes().SetAffinity(*pid, pin).ok());
    pin_of[pid->value] = pin;
    pids.push_back(*pid);
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(kernel.processes().state(pid), ProcState::kDone);
  }
  // Every surviving quantum span must have run on a CPU its process's mask
  // allows.
  const Tracer& trace = kernel.ctx().trace;
  uint64_t quanta_seen = 0;
  for (uint16_t cpu = 0; cpu < 4; ++cpu) {
    for (const TraceRecord& rec : trace.Snapshot(cpu)) {
      if (trace.EventName(rec.event) != "uproc.quantum") {
        continue;
      }
      auto pin = pin_of.find(rec.proc);
      if (pin == pin_of.end()) {
        continue;
      }
      ++quanta_seen;
      EXPECT_NE(pin->second & (1u << rec.cpu), 0u)
          << "process " << rec.proc << " (mask " << pin->second << ") ran a quantum on cpu "
          << rec.cpu;
    }
  }
  EXPECT_GT(quanta_seen, 0u);
  // Both halves of the pool did real work.
  for (uint16_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_GT(kernel.metrics().Get("smp.cpu" + std::to_string(cpu) + ".busy_cycles"), 0u);
  }
}

TEST(RunQueueAffinity, PinsAboveCpu31HoldOnAFortyCpuPool) {
  constexpr uint16_t kCpus = 40;
  KernelConfig config = RqConfig(kCpus, /*sharded=*/true, /*steal=*/true, /*connect_cost=*/200);
  config.trace.enabled = true;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(2);
  PathWalker walker(&kernel.gates());
  // Process 0 is pinned to CPU 0, process 1 to CPU 35; the rest run
  // anywhere, so idle CPUs keep scanning the pinned queues for steals.
  const uint64_t pins[] = {uint64_t{1}, uint64_t{1} << 35, 0, 0, 0, 0};
  std::map<uint32_t, uint64_t> pin_of;
  for (uint32_t i = 0; i < std::size(pins); ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("F" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>f" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 24; ++n) {
      program.push_back(UserOp::Compute(30));
      program.push_back(UserOp::Write(*segno, (n % 4) * kPageWords, n));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
    ASSERT_TRUE(kernel.processes().SetAffinity(*pid, pins[i]).ok());
    EXPECT_EQ(kernel.processes().affinity(*pid), pins[i]);
    pin_of[pid->value] = pins[i];
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  ASSERT_TRUE(kernel.processes().AllDone());
  // Quantum spans per pinned process, by the CPU that ran them.
  const Tracer& trace = kernel.ctx().trace;
  std::map<uint64_t, std::map<uint16_t, uint64_t>> quanta_by_pin;
  for (uint16_t cpu = 0; cpu < kCpus; ++cpu) {
    for (const TraceRecord& rec : trace.Snapshot(cpu)) {
      auto pin = pin_of.find(rec.proc);
      if (trace.EventName(rec.event) == "uproc.quantum" && pin != pin_of.end() &&
          pin->second != 0) {
        ++quanta_by_pin[pin->second][rec.cpu];
      }
    }
  }
  const std::map<uint16_t, uint64_t>& cpu0 = quanta_by_pin[uint64_t{1}];
  const std::map<uint16_t, uint64_t>& cpu35 = quanta_by_pin[uint64_t{1} << 35];
  ASSERT_FALSE(cpu0.empty());
  ASSERT_FALSE(cpu35.empty());
  EXPECT_EQ(cpu0.begin()->first, 0u);
  EXPECT_EQ(cpu0.size(), 1u) << "CPU-0 pin ran on cpu " << cpu0.rbegin()->first;
  EXPECT_EQ(cpu35.begin()->first, 35u);
  EXPECT_EQ(cpu35.size(), 1u) << "CPU-35 pin ran on cpu " << cpu35.begin()->first;
}

}  // namespace
}  // namespace mks
