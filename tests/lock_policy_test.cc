// Tests for the pluggable lock-policy suite (PR 7): the per-policy handoff
// arithmetic at the SimSpinLock unit level, loud Anderson over-subscription,
// knobs-off byte-equivalence with the pre-policy lock, and bit-identical
// double-runs per policy at 4 and 16 CPUs.
#include <gtest/gtest.h>

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

LockPolicyConfig PolicyConfig(LockPolicy policy, uint16_t slots = 4) {
  return LockPolicyConfig{policy, kLine, slots};
}

TEST(LockPolicyUnit, TestAndSetChargesOnlyTheGap) {
  SimSpinLock lock;
  lock.Configure(PolicyConfig(LockPolicy::kTestAndSet));
  EXPECT_EQ(lock.Acquire(0, 0), 0u);
  lock.Release(1000);
  EXPECT_EQ(lock.Acquire(0, 1), 1000u);  // the gap, nothing else
  lock.Release(1200);
  EXPECT_EQ(lock.Acquire(500, 2), 700u);
  lock.Release(1400);
  EXPECT_EQ(lock.acquisitions(), 3u);
  EXPECT_EQ(lock.contended(), 2u);
  EXPECT_EQ(lock.handoffs(), 0u);
  EXPECT_EQ(lock.handoff_cycles(), 0u);
  EXPECT_EQ(lock.total_spin(), 1700u);
}

TEST(LockPolicyUnit, TicketPaysOneLinePerObservedHandoff) {
  SimSpinLock lock;
  lock.Configure(PolicyConfig(LockPolicy::kTicket));
  EXPECT_EQ(lock.Acquire(0, 0), 0u);  // uncontended: line already resident
  lock.Release(1000);
  // B's window (0, 1000] holds one recorded grant: gap 1000 + 1 transfer.
  EXPECT_EQ(lock.Acquire(0, 1), 1000u + kLine);
  lock.Release(1200);
  // C's window (500, 1200] holds both grants (1000 and 1200): now_serving
  // was invalidated under it twice, so it pays two line re-fetches.
  EXPECT_EQ(lock.Acquire(500, 2), 700u + 2 * kLine);
  lock.Release(1400);
  EXPECT_EQ(lock.handoffs(), 3u);
  EXPECT_EQ(lock.handoff_cycles(), 3 * kLine);
  EXPECT_EQ(lock.max_queue_depth(), 3u);  // C saw two grants + itself
  EXPECT_EQ(lock.max_spin(), 1000u + kLine);
}

TEST(LockPolicyUnit, AndersonAndMcsPayExactlyOneLinePerHandoff) {
  for (LockPolicy policy : {LockPolicy::kAnderson, LockPolicy::kMcs}) {
    SCOPED_TRACE(LockPolicyName(policy));
    SimSpinLock lock;
    lock.Configure(PolicyConfig(policy));
    EXPECT_EQ(lock.Acquire(0, 0), 0u);
    lock.Release(1000);
    EXPECT_EQ(lock.Acquire(0, 1), 1000u + kLine);
    lock.Release(1200);
    // Same two-grant window as the ticket case, but the releasing holder
    // wrote C's private slot/node: one line moved, however deep the queue.
    EXPECT_EQ(lock.Acquire(500, 2), 700u + kLine);
    lock.Release(1400);
    EXPECT_EQ(lock.handoffs(), 2u);
    EXPECT_EQ(lock.handoff_cycles(), 2 * kLine);
    EXPECT_EQ(lock.max_queue_depth(), 3u);  // depth observed, not charged
    EXPECT_EQ(lock.total_spin(), 1700u + 2 * kLine);
  }
}

TEST(LockPolicyUnit, HandoffOrderIsFifoAndResumesAtTheReleasePoint) {
  // Host call order is grant order in every policy.  A contended acquirer
  // resumes exactly at the previous holder's release point plus its
  // policy's transfer charge: local_now + spin lands on free_at_ + traffic,
  // never earlier and never reordered.
  for (LockPolicy policy : {LockPolicy::kTicket, LockPolicy::kAnderson, LockPolicy::kMcs}) {
    SCOPED_TRACE(LockPolicyName(policy));
    SimSpinLock lock;
    lock.Configure(PolicyConfig(policy));
    ASSERT_EQ(lock.Acquire(0, 0), 0u);
    lock.Release(900);
    Cycles release_point = 900;
    // Arrival times deliberately out of order (700 after 300): the lock
    // still hands off in call order, each acquirer departing from the
    // previous release point.
    const Cycles arrivals[] = {300, 700, 100};
    const uint16_t cpus[] = {1, 2, 3};
    for (int i = 0; i < 3; ++i) {
      const Cycles spin = lock.Acquire(arrivals[i], cpus[i]);
      const Cycles resume = arrivals[i] + spin;
      EXPECT_GE(resume, release_point + kLine);
      if (policy != LockPolicy::kTicket) {
        EXPECT_EQ(resume, release_point + kLine);  // exactly one line transfer
      }
      const Cycles hold = 50;
      release_point = resume + hold;
      lock.Release(release_point);
    }
    EXPECT_EQ(lock.contended(), 3u);
  }
}

TEST(LockPolicyUnit, UncontendedAcquiresAreFreeUnderEveryPolicy) {
  for (LockPolicy policy :
       {LockPolicy::kTestAndSet, LockPolicy::kTicket, LockPolicy::kAnderson, LockPolicy::kMcs}) {
    SimSpinLock lock;
    lock.Configure(PolicyConfig(policy));
    EXPECT_EQ(lock.Acquire(0, 0), 0u);
    lock.Release(100);
    EXPECT_EQ(lock.Acquire(200, 1), 0u);  // arrived after the release: no handoff
    lock.Release(300);
    EXPECT_EQ(lock.contended(), 0u);
    EXPECT_EQ(lock.handoff_cycles(), 0u);
  }
}

TEST(LockPolicyDeathTest, AndersonWithoutSlotsAbortsAtConfigure) {
  EXPECT_DEATH(
      {
        SimSpinLock lock;
        lock.Configure(LockPolicyConfig{LockPolicy::kAnderson, kLine, 0});
      },
      "anderson_slots");
}

TEST(LockPolicyDeathTest, AndersonOverSubscriptionAbortsLoudly) {
  // A 2-slot array accepts two distinct CPUs; the third is the silent-wrap
  // bug class of the real lock and must abort, not wrap.
  EXPECT_DEATH(
      {
        SimSpinLock lock;
        lock.Configure(LockPolicyConfig{LockPolicy::kAnderson, kLine, 2});
        lock.Acquire(0, 0);
        lock.Release(10);
        lock.Acquire(0, 1);
        lock.Release(20);
        lock.Acquire(0, 2);
      },
      "over-subscribed");
}

// ---------------------------------------------------------------------------
// Kernel level: knobs-off equivalence and per-policy determinism on the
// global ready list (the runqueue_test.cc mixed workload, with the list
// lock under contention at quantum 3 and connect cost 200).
// ---------------------------------------------------------------------------

struct RunResult {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::vector<std::string> audit;
  Cycles clock = 0;
  std::vector<Word> values;
  uint64_t lock_contended = 0;
  uint64_t lock_handoffs = 0;
  Cycles lock_handoff_cycles = 0;
  uint64_t lock_max_queue_depth = 0;
  bool all_done = false;
  bool ok = false;
};

RunResult RunMixed(const KernelConfig& config) {
  RunResult out;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  kernel.processes().set_quantum(3);
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<Segno> segnos;
  for (uint32_t i = 0; i < 6; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
    if (!pid.ok()) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>p" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return out;
    }
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 48; ++n) {
      if (n % 3 == 0) {
        program.push_back(UserOp::Compute(25));
      } else {
        program.push_back(UserOp::Write(*segno, (n % 10) * kPageWords + n, n * 7 + i));
      }
    }
    if (!kernel.processes().SetProgram(*pid, std::move(program)).ok()) {
      return out;
    }
    pids.push_back(*pid);
    segnos.push_back(*segno);
  }
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  for (uint32_t i = 0; i < 6; ++i) {
    auto word = kernel.gates().Read(*kernel.processes().Context(pids[i]), segnos[i],
                                    7 * kPageWords + 47);
    if (!word.ok()) {
      return out;
    }
    out.values.push_back(*word);
  }
  out.all_done = kernel.processes().AllDone();
  out.audit = kernel.AuditIntegrity();
  out.counters = kernel.metrics().counters();
  out.clock = kernel.clock().now();
  const SimSpinLock& lock = kernel.processes().list_lock();
  out.lock_contended = lock.contended();
  out.lock_handoffs = lock.handoffs();
  out.lock_handoff_cycles = lock.handoff_cycles();
  out.lock_max_queue_depth = lock.max_queue_depth();
  out.ok = true;
  return out;
}

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
  const RunResult off = RunMixed(defaults);
  const RunResult tas = RunMixed(PolicyKernelConfig(4, LockPolicy::kTestAndSet));
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
  // Policies price the handoff; they never reorder grants.  Every policy
  // computes identical stored values and finishes cleanly, and the traffic
  // ordering holds: tas <= anderson == mcs <= ticket in total clock.
  const RunResult tas = RunMixed(PolicyKernelConfig(4, LockPolicy::kTestAndSet));
  const RunResult ticket = RunMixed(PolicyKernelConfig(4, LockPolicy::kTicket));
  const RunResult anderson = RunMixed(PolicyKernelConfig(4, LockPolicy::kAnderson));
  const RunResult mcs = RunMixed(PolicyKernelConfig(4, LockPolicy::kMcs));
  ASSERT_TRUE(tas.ok);
  ASSERT_TRUE(ticket.ok);
  ASSERT_TRUE(anderson.ok);
  ASSERT_TRUE(mcs.ok);
  ASSERT_GT(ticket.lock_contended, 0u) << "workload must contend the list lock";
  EXPECT_EQ(tas.values, ticket.values);
  EXPECT_EQ(tas.values, anderson.values);
  EXPECT_EQ(tas.values, mcs.values);
  EXPECT_TRUE(ticket.all_done);
  EXPECT_TRUE(ticket.audit.empty()) << ticket.audit.front();
  // Anderson and MCS charge identically (one line per handoff): their whole
  // runs are byte-identical, down to the counter dump.
  EXPECT_EQ(anderson.counters, mcs.counters);
  EXPECT_EQ(anderson.clock, mcs.clock);
  EXPECT_EQ(anderson.lock_handoff_cycles, mcs.lock_handoff_cycles);
  // The ticket broadcast can only cost more than the single-line handoff,
  // which can only cost more than charging nothing.
  EXPECT_LE(tas.clock, anderson.clock);
  EXPECT_LE(anderson.clock, ticket.clock);
  EXPECT_GE(ticket.lock_handoff_cycles, mcs.lock_handoff_cycles);
  if (ticket.lock_max_queue_depth > 2) {
    // Some waiter observed more than one grant: the broadcast strictly
    // out-costs the single line.
    EXPECT_GT(ticket.lock_handoff_cycles, mcs.lock_handoff_cycles);
    EXPECT_GT(ticket.clock, anderson.clock);
  }
}

TEST(LockPolicyDeterminism, DoubleRunsAreBitIdenticalAtFourAndSixteenCpus) {
  for (LockPolicy policy : {LockPolicy::kTicket, LockPolicy::kAnderson, LockPolicy::kMcs}) {
    for (uint16_t cpus : {uint16_t{4}, uint16_t{16}}) {
      SCOPED_TRACE(std::string(LockPolicyName(policy)) + " @ " + std::to_string(cpus));
      const KernelConfig config = PolicyKernelConfig(cpus, policy);
      const RunResult a = RunMixed(config);
      const RunResult b = RunMixed(config);
      ASSERT_TRUE(a.ok);
      ASSERT_TRUE(b.ok);
      EXPECT_EQ(a.counters, b.counters);
      EXPECT_EQ(a.audit, b.audit);
      EXPECT_EQ(a.clock, b.clock);
      EXPECT_EQ(a.values, b.values);
      EXPECT_EQ(a.lock_handoff_cycles, b.lock_handoff_cycles);
      EXPECT_EQ(a.lock_max_queue_depth, b.lock_max_queue_depth);
    }
  }
}

TEST(LockPolicyDeterminism, ShardedRunQueuesAcceptThePolicyDeterministically) {
  // The policy also rides the per-shard locks: sharded + steal + MCS must
  // double-run bit-identical and still compute the same values as TAS.
  KernelConfig config = PolicyKernelConfig(4, LockPolicy::kMcs);
  config.sharded_runqueues = true;
  config.steal = true;
  const RunResult a = RunMixed(config);
  const RunResult b = RunMixed(config);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
  KernelConfig tas = config;
  tas.lock_policy = LockPolicy::kTestAndSet;
  const RunResult t = RunMixed(tas);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(a.values, t.values);
}

// ---------------------------------------------------------------------------
// Baseline supervisor: the policy knob on the one global lock.
// ---------------------------------------------------------------------------

TEST(LockPolicyBaseline, GlobalLockChargesPerPolicyAndStaysDeterministic) {
  auto run = [](LockPolicy policy) {
    struct Out {
      Cycles clock = 0;
      uint64_t contended = 0;
      uint64_t handoffs = 0;
      Cycles handoff_cycles = 0;
      bool ok = false;
    } out;
    BaselineConfig config;
    config.memory_frames = 16;  // 4 procs x 6 pages = 24 > 16: every pass faults
    config.cpu_count = 4;
    config.lock_policy = policy;
    config.lock_transfer_cost = 100;
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
    out.handoffs = sup.global_lock_handoffs();
    out.handoff_cycles = sup.global_lock_handoff_cycles();
    out.ok = true;
    return out;
  };
  const auto mcs_a = run(LockPolicy::kMcs);
  const auto mcs_b = run(LockPolicy::kMcs);
  const auto ticket = run(LockPolicy::kTicket);
  ASSERT_TRUE(mcs_a.ok);
  ASSERT_TRUE(mcs_b.ok);
  ASSERT_TRUE(ticket.ok);
  ASSERT_GT(mcs_a.contended, 0u) << "storm must contend the global lock";
  // MCS: exactly one 100-cycle line per contended handoff, reproducibly.
  EXPECT_EQ(mcs_a.handoffs, mcs_a.contended);
  EXPECT_EQ(mcs_a.handoff_cycles, mcs_a.handoffs * 100);
  EXPECT_EQ(mcs_a.clock, mcs_b.clock);
  EXPECT_EQ(mcs_a.handoff_cycles, mcs_b.handoff_cycles);
  // The ticket broadcast observed at least as many handoffs as MCS granted.
  EXPECT_GE(ticket.handoffs, mcs_a.handoffs);
  EXPECT_GE(ticket.handoff_cycles, mcs_a.handoff_cycles);
}

}  // namespace
}  // namespace mks
