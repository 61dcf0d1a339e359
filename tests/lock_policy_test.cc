// Tests for the two lock policies: test-and-set and MCS handoff arithmetic
// at the SimSpinLock unit level, knobs-off byte-equivalence with the
// pre-policy lock, bit-identical MCS double-runs at 4 and 16 CPUs, the
// profiler domains ChargeLockWait attributes lock waits to, and the
// baseline's test-and-set global lock.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/baseline/supervisor.h"
#include "src/sync/spinlock.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// SimSpinLock unit level: the handoff-traffic arithmetic.
//
// One shared script, three acquirers: A takes the lock uncontended and holds
// until t=1000; B arrives at t=0 (one grant inside its wait window); C
// arrives at t=500 after B released at t=1200 (two grants inside its
// window).  Only the traffic charged on top of the gap differs by policy.
// ---------------------------------------------------------------------------

constexpr Cycles kLine = 100;

LockPolicyConfig PolicyConfig(LockPolicy policy) { return LockPolicyConfig{policy, kLine}; }

TEST(LockPolicyUnit, TestAndSetChargesOnlyTheGap) {
  SimSpinLock lock;
  lock.Configure(PolicyConfig(LockPolicy::kTestAndSet));
  EXPECT_EQ(lock.Acquire(0), 0u);
  lock.Release(1000);
  EXPECT_EQ(lock.Acquire(0), 1000u);  // the gap, nothing else
  lock.Release(1200);
  EXPECT_EQ(lock.Acquire(500), 700u);
  lock.Release(1400);
  EXPECT_EQ(lock.acquisitions(), 3u);
  EXPECT_EQ(lock.contended(), 2u);
  EXPECT_EQ(lock.handoffs(), 0u);
  EXPECT_EQ(lock.handoff_cycles(), 0u);
  EXPECT_EQ(lock.total_spin(), 1700u);
}

TEST(LockPolicyUnit, McsPaysExactlyOneLinePerHandoff) {
  SimSpinLock lock;
  lock.Configure(PolicyConfig(LockPolicy::kMcs));
  EXPECT_EQ(lock.Acquire(0), 0u);  // uncontended: line already resident
  lock.Release(1000);
  EXPECT_EQ(lock.Acquire(0), 1000u + kLine);
  EXPECT_EQ(lock.last_acquire_handoff(), kLine);
  lock.Release(1200);
  // C sat through two grants, but the releasing holder wrote C's private
  // queue node: one line moved, however deep the queue.
  EXPECT_EQ(lock.Acquire(500), 700u + kLine);
  lock.Release(1400);
  EXPECT_EQ(lock.handoffs(), 2u);
  EXPECT_EQ(lock.handoff_cycles(), 2 * kLine);
  EXPECT_EQ(lock.total_spin(), 1700u + 2 * kLine);
  EXPECT_EQ(lock.max_spin(), 1000u + kLine);
}

TEST(LockPolicyUnit, HandoffOrderIsFifoAndResumesAtTheReleasePoint) {
  // Host call order is grant order under both policies.  A contended
  // acquirer resumes exactly at the previous holder's release point plus
  // its policy's transfer charge: local_now + spin lands on free_at_ +
  // traffic, never earlier and never reordered.
  for (LockPolicy policy : {LockPolicy::kTestAndSet, LockPolicy::kMcs}) {
    SCOPED_TRACE(policy == LockPolicy::kMcs ? "mcs" : "tas");
    const Cycles line = policy == LockPolicy::kMcs ? kLine : 0;
    SimSpinLock lock;
    lock.Configure(PolicyConfig(policy));
    ASSERT_EQ(lock.Acquire(0), 0u);
    lock.Release(900);
    Cycles release_point = 900;
    // Arrival times deliberately out of order (700 after 300): the lock
    // still hands off in call order, each acquirer departing from the
    // previous release point.
    for (const Cycles arrival : {Cycles{300}, Cycles{700}, Cycles{100}}) {
      const Cycles resume = arrival + lock.Acquire(arrival);
      EXPECT_EQ(resume, release_point + line);
      const Cycles hold = 50;
      release_point = resume + hold;
      lock.Release(release_point);
    }
    EXPECT_EQ(lock.contended(), 3u);
  }
}

TEST(LockPolicyUnit, UncontendedAcquiresAreFreeUnderEveryPolicy) {
  for (LockPolicy policy : {LockPolicy::kTestAndSet, LockPolicy::kMcs}) {
    SimSpinLock lock;
    lock.Configure(PolicyConfig(policy));
    EXPECT_EQ(lock.Acquire(0), 0u);
    lock.Release(100);
    EXPECT_EQ(lock.Acquire(200), 0u);  // arrived after the release: no handoff
    lock.Release(300);
    EXPECT_EQ(lock.contended(), 0u);
    EXPECT_EQ(lock.handoff_cycles(), 0u);
  }
}

// ---------------------------------------------------------------------------
// LockTenure: one hold of a modelled lock, from acquire to release, the way
// every kernel, answering and baseline lock site holds its lock.
// ---------------------------------------------------------------------------

// A bare clock with the profiler on.
struct TenureRig {
  TenureRig() {
    ProfConfig config;
    config.enabled = true;
    prof.Enable(1, config);
  }
  LockTenure Take(Cycles lnow) { return LockTenure(&lock, lnow, &prof, &cost); }
  Cycles Domain(ProfDomain d) const { return prof.DomainTotals()[static_cast<size_t>(d)]; }
  Clock clock;
  CostModel cost{&clock};
  Prof prof{&clock};
  SimSpinLock lock;
};

TEST(LockTenureUnit, ReleasesAtAcquirePlusGlobalProgressPlusHold) {
  for (LockPolicy policy : {LockPolicy::kTestAndSet, LockPolicy::kMcs}) {
    TenureRig rig;
    rig.lock.Configure(PolicyConfig(policy));
    const Cycles handoff = policy == LockPolicy::kMcs ? kLine : 0;  // MCS's, on top
    Prof::Window window(&rig.prof, 0, ProfDomain::kDispatch);
    {
      LockTenure a = rig.Take(1000);
      rig.cost.Charge(CodeStyle::kOptimized, 250);  // work under the lock
      a.Release(40);                                // and an uncharged hold: free at 1290
    }
    {
      // B waits from 1100 to 1290 and works 60.  Its destructor releases, and
      // the wait counts as held time, so the lock frees at 1350 + handoff.
      LockTenure b = rig.Take(1100);
      EXPECT_EQ(b.spin(), 190u + handoff);
      rig.cost.Charge(CodeStyle::kOptimized, 60);
    }
    EXPECT_EQ(rig.Take(1000).spin(), 350u + 2 * handoff);
    EXPECT_EQ(rig.clock.now(), 250u + 190u + 60u + 350u + 3 * handoff);  // waits charged
    EXPECT_EQ(rig.Domain(ProfDomain::kLockSpin), 190u + 350u + handoff);
    EXPECT_EQ(rig.Domain(ProfDomain::kLockHandoff), 2 * handoff);
  }
}

TEST(LockTenureUnit, ALineMovesOnlyFromAnotherKnownOwner) {
  TenureRig rig;
  Prof::Window window(&rig.prof, 0, ProfDomain::kDispatch);
  uint16_t owner = LockTenure::kNoOwner;
  // Each touch acquires where the last one released, so none waits.
  auto touch = [&](uint16_t cpu, Cycles transfer) {
    return rig.Take(rig.clock.now()).TouchLine(&owner, cpu, transfer);
  };
  EXPECT_FALSE(touch(0, kLine));  // no known owner yet
  EXPECT_FALSE(touch(0, kLine));  // the owner itself
  EXPECT_TRUE(touch(1, kLine));   // another known CPU: one transfer
  EXPECT_FALSE(touch(2, 0));      // an unpriced line never moves,
  EXPECT_EQ(owner, 2);            // but changes owner
  EXPECT_EQ(rig.clock.now(), kLine);
  EXPECT_EQ(rig.Domain(ProfDomain::kLockHandoff), kLine);
}

// ---------------------------------------------------------------------------
// Kernel level: knobs-off equivalence and MCS determinism on the global
// ready list (the shared mixed workload, RunMixed in tests/kernel_fixture.h,
// with the list lock under contention at quantum 3 and connect cost 200).
// ---------------------------------------------------------------------------

constexpr uint32_t kOps = 48;
constexpr uint32_t kQuantum = 3;

KernelConfig PolicyKernelConfig(uint16_t cpus, LockPolicy policy) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 48;
  config.vp_count = 6;
  config.connect_cost = 200;  // prices dispatch traffic AND the lock lines
  config.lock_policy = policy;
  return config;
}

TEST(LockPolicyEquivalence, KnobsOffIsByteIdenticalToExplicitTestAndSet) {
  // The default-constructed config and an explicit kTestAndSet selection
  // must run the exact pre-policy code path: same counters, clock, audit,
  // values — and no handoff traffic recorded anywhere.
  KernelConfig defaults;
  defaults.cpu_count = 4;
  defaults.memory_frames = 48;
  defaults.vp_count = 6;
  defaults.connect_cost = 200;
  const MixedRun off = RunMixed(defaults, kOps, kQuantum);
  const MixedRun tas =
      RunMixed(PolicyKernelConfig(4, LockPolicy::kTestAndSet), kOps, kQuantum);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(tas.ok);
  EXPECT_EQ(off.counters, tas.counters);
  EXPECT_EQ(off.audit, tas.audit);
  EXPECT_EQ(off.clock, tas.clock);
  EXPECT_EQ(off.values, tas.values);
  EXPECT_EQ(off.lock_handoffs, 0u);
  EXPECT_EQ(off.lock_handoff_cycles, 0u);
  EXPECT_EQ(tas.lock_handoff_cycles, 0u);
}

TEST(LockPolicyEquivalence, PoliciesNeverChangeWhatProgramsCompute) {
  // Policies price the handoff; they never reorder grants.  Both policies
  // compute identical stored values and finish cleanly, MCS charges one
  // connect_cost line per contended grant, and charging that traffic can
  // only lengthen the run.
  const MixedRun tas =
      RunMixed(PolicyKernelConfig(4, LockPolicy::kTestAndSet), kOps, kQuantum);
  const MixedRun mcs = RunMixed(PolicyKernelConfig(4, LockPolicy::kMcs), kOps, kQuantum);
  ASSERT_TRUE(tas.ok);
  ASSERT_TRUE(mcs.ok);
  ASSERT_GT(mcs.lock_contended, 0u) << "workload must contend the list lock";
  EXPECT_EQ(tas.values, mcs.values);
  EXPECT_TRUE(mcs.all_done);
  EXPECT_TRUE(mcs.audit.empty()) << mcs.audit.front();
  EXPECT_EQ(mcs.lock_handoffs, mcs.lock_contended);
  EXPECT_EQ(mcs.lock_handoff_cycles, mcs.lock_handoffs * 200);
  EXPECT_LE(tas.clock, mcs.clock);
}

TEST(LockPolicyDeterminism, DoubleRunsAreBitIdenticalAtFourAndSixteenCpus) {
  for (uint16_t cpus : {uint16_t{4}, uint16_t{16}}) {
    SCOPED_TRACE("mcs @ " + std::to_string(cpus));
    const KernelConfig config = PolicyKernelConfig(cpus, LockPolicy::kMcs);
    const MixedRun a = RunMixed(config, kOps, kQuantum);
    const MixedRun b = RunMixed(config, kOps, kQuantum);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.audit, b.audit);
    EXPECT_EQ(a.clock, b.clock);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.lock_handoff_cycles, b.lock_handoff_cycles);
  }
}

TEST(LockPolicyDeterminism, ShardedRunQueuesAcceptThePolicyDeterministically) {
  // The policy also rides the per-shard locks: sharded + steal + MCS must
  // double-run bit-identical and still compute the same values as TAS.
  KernelConfig config = PolicyKernelConfig(4, LockPolicy::kMcs);
  config.sharded_runqueues = true;
  config.steal = true;
  const MixedRun a = RunMixed(config, kOps, kQuantum);
  const MixedRun b = RunMixed(config, kOps, kQuantum);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
  KernelConfig tas = config;
  tas.lock_policy = LockPolicy::kTestAndSet;
  const MixedRun t = RunMixed(tas, kOps, kQuantum);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(a.values, t.values);
}

// ---------------------------------------------------------------------------
// Profiler attribution: ChargeLockWait sends the gap to the holder's release
// to lock-spin, and the grant's traffic and every line bounce to
// lock-handoff.
// ---------------------------------------------------------------------------

TEST(LockPolicyProf, LockWaitsLandInTheirDomainsAtFourAndSixteenCpus) {
  for (uint16_t cpus : {uint16_t{4}, uint16_t{16}}) {
    SCOPED_TRACE("mcs @ " + std::to_string(cpus));
    KernelConfig config = PolicyKernelConfig(cpus, LockPolicy::kMcs);
    config.profile.enabled = true;
    const MixedRun r = RunMixed(config, kOps, kQuantum);
    ASSERT_TRUE(r.ok);
    const uint64_t spin = r.counters.at("sched.list_lock_spin_cycles");
    const uint64_t transfers = r.counters.at("sched.list_transfer_cycles");
    // Both halves of the split are populated.
    ASSERT_GT(r.lock_handoff_cycles, 0u);
    ASSERT_GT(spin, r.lock_handoff_cycles);
    const auto domain = [&](ProfDomain d) { return r.domains[static_cast<size_t>(d)]; };
    EXPECT_EQ(domain(ProfDomain::kLockHandoff), r.lock_handoff_cycles + transfers);
    EXPECT_EQ(domain(ProfDomain::kLockSpin), spin - r.lock_handoff_cycles);
    EXPECT_TRUE(r.ledger_balanced);
  }
}

// ---------------------------------------------------------------------------
// Baseline supervisor: the one global lock is test-and-set.
// ---------------------------------------------------------------------------

TEST(LockPolicyBaseline, GlobalLockChargesPerPolicyAndStaysDeterministic) {
  // The 4-CPU fault storm contends the global lock; every cycle of spin the
  // lock reports is the gap charged as baseline.lock_spin_cycles, and the
  // storm double-runs bit-identically.
  auto run = [] {
    struct Out {
      Cycles clock = 0;
      uint64_t contended = 0;
      Cycles spin = 0;
      std::map<std::string, uint64_t, std::less<>> counters;
      bool ok = false;
    } out;
    BaselineConfig config;
    config.memory_frames = 16;  // 4 procs x 6 pages = 24 > 16: every pass faults
    config.cpu_count = 4;
    MonolithicSupervisor sup{config};
    if (!sup.Boot().ok()) {
      return out;
    }
    using Op = MonolithicSupervisor::BaselineOp;
    for (uint32_t i = 0; i < 4; ++i) {
      auto pid = sup.CreateProcess();
      auto uid = sup.CreatePath(">t>s" + std::to_string(i));
      if (!pid.ok() || !uid.ok()) {
        return out;
      }
      for (uint32_t p = 0; p < 6; ++p) {
        (void)sup.Write(*uid, p * kPageWords, p + 1);
      }
      std::vector<Op> program;
      for (uint32_t p = 0; p < 6; ++p) {
        program.push_back(Op{Op::Kind::kRead, *uid, p * kPageWords, 0, 0});
      }
      (void)sup.SetProgram(*pid, std::move(program));
    }
    sup.AlignCpus();
    if (!sup.RunUntilQuiescent(100000).ok()) {
      return out;
    }
    out.clock = sup.clock().now();
    out.contended = sup.global_lock_contended();
    out.spin = sup.global_lock_spin_cycles();
    out.counters = sup.metrics().counters();
    out.ok = true;
    return out;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_GT(a.contended, 0u) << "storm must contend the global lock";
  EXPECT_GT(a.spin, 0u);
  EXPECT_EQ(a.counters.at("baseline.lock_spin_cycles"), a.spin);
  EXPECT_EQ(a.counters.at("baseline.lock_contended"), a.contended);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.spin, b.spin);
  EXPECT_EQ(a.counters, b.counters);
}

}  // namespace
}  // namespace mks
