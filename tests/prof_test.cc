// Tests for the cycle-accounting profiler and the stall watchdog.
//
// The profiler's contract (DESIGN.md §5): with profiling on, every cycle a
// CPU's local clock advances is attributed to exactly one domain node, so
//
//     attributed(cpu) == accrued(cpu) == smp.local_now(cpu)
//
// holds at quiescence for every workload shape and every pool size; with
// profiling off the kernel's observable behaviour is bit-identical.  The
// watchdog's contract is independent: a scheduler-progress stamp (quanta run
// + device completions + wakeups) frozen across `stall_rounds` dispatch
// rounds aborts with a flight-recorder dump.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sync/spinlock.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Unit level: attribution mechanics against a bare clock.
// ---------------------------------------------------------------------------

TEST(ProfUnit, ScopesSplitAWindowExactly) {
  Clock clock;
  CostModel cost{&clock};
  Prof prof(&clock);
  ProfConfig config;
  config.enabled = true;
  prof.Enable(2, config);
  {
    Prof::Window window(&prof, 0, ProfDomain::kDispatch);
    cost.Charge(CodeStyle::kOptimized, 100);
    {
      Prof::Scope gate(&prof, ProfDomain::kGate);
      cost.Charge(CodeStyle::kOptimized, 40);
      {
        Prof::Scope lock(&prof, ProfDomain::kLockSpin);
        cost.Charge(CodeStyle::kOptimized, 7);
      }
    }
    cost.Charge(CodeStyle::kOptimized, 10);
  }
  prof.NoteAccrue(0, 157);
  EXPECT_EQ(prof.attributed(0), 157u);
  EXPECT_EQ(prof.accrued(0), 157u);
  EXPECT_EQ(prof.attributed(1), 0u);
  const auto totals = prof.DomainTotals();
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kDispatch)], 110u);
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kGate)], 40u);
  EXPECT_EQ(totals[static_cast<size_t>(ProfDomain::kLockSpin)], 7u);
  // The tree keeps the nesting: lock-spin is a child of gate under dispatch.
  const std::string folded = prof.CollapsedStacks();
  EXPECT_NE(folded.find("cpu0;dispatch 110\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cpu0;dispatch;gate 40\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("cpu0;dispatch;gate;lock-spin 7\n"), std::string::npos) << folded;
}

TEST(ProfUnit, ScopesAreInertOutsideAWindow) {
  Clock clock;
  CostModel cost{&clock};
  Prof prof(&clock);
  ProfConfig config;
  config.enabled = true;
  prof.Enable(1, config);
  // Boot/setup shape: charges with no window open must not be attributed.
  {
    Prof::Scope orphan(&prof, ProfDomain::kGate);
    cost.Charge(CodeStyle::kOptimized, 500);
  }
  EXPECT_EQ(prof.attributed(0), 0u);
  EXPECT_TRUE(prof.CollapsedStacks().empty());
}

TEST(ProfUnit, WatchdogCountsOnlyConsecutiveFrozenRounds) {
  Clock clock;
  Prof prof(&clock);
  ProfConfig config;
  config.stall_rounds = 3;
  prof.Enable(1, config);  // watchdog armed, attribution off
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(10));
  EXPECT_FALSE(prof.NoteDispatchRound(11));  // progress resets the count
  EXPECT_FALSE(prof.NoteDispatchRound(11));
  EXPECT_FALSE(prof.NoteDispatchRound(11));
  EXPECT_TRUE(prof.NoteDispatchRound(11));

  Prof disarmed(&clock);
  disarmed.Enable(1, ProfConfig{});  // stall_rounds == 0: never fires
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(disarmed.NoteDispatchRound(42));
  }
}

// ---------------------------------------------------------------------------
// Kernel level: the accounting identity on real workloads.
// ---------------------------------------------------------------------------

// Asserts the ledger identity on every CPU of a finished run.
void ExpectLedgerBalanced(Kernel& kernel) {
  Prof& prof = kernel.ctx().prof;
  ASSERT_TRUE(prof.enabled());
  Cycles attributed_total = 0;
  for (uint16_t cpu = 0; cpu < prof.cpu_count(); ++cpu) {
    EXPECT_EQ(prof.attributed(cpu), prof.accrued(cpu)) << "cpu " << cpu;
    EXPECT_EQ(prof.accrued(cpu), kernel.ctx().smp.local_now(cpu)) << "cpu " << cpu;
    attributed_total += prof.attributed(cpu);
  }
  // The domain totals are a partition of the same cycles.
  Cycles domain_total = 0;
  for (Cycles c : kernel.ctx().prof.DomainTotals()) {
    domain_total += c;
  }
  EXPECT_EQ(domain_total, attributed_total);
}

KernelConfig ProfConfigFor(uint16_t cpus) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.memory_frames = 48;
  config.profile.enabled = true;
  return config;
}

// P11 shape: private paged working sets larger than memory, so dispatch,
// fault service, and paging I/O all run.
void RunFaultStorm(Kernel& kernel) {
  PathWalker walker(&kernel.gates());
  for (uint32_t i = 0; i < 6; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("F" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>f" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 40; ++n) {
      program.push_back(n % 3 == 0 ? UserOp::Compute(25)
                                   : UserOp::Write(*segno, (n % 10) * kPageWords + n, n + 1));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
}

// P12 shape: every process sweeps the SAME segment with async paging on, so
// CPUs collide on in-flight pages and park on locked descriptors.
// SetUpSharedStorm builds it; RunSharedStorm builds and runs it.
void SetUpSharedStorm(Kernel& kernel) {
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<ProcContext*> ctxs;
  for (uint32_t i = 0; i < 4; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("S" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
    ctxs.push_back(kernel.processes().Context(*pid));
  }
  auto entry = walker.CreateSegment(*ctxs[0], ">work>shared", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  constexpr uint32_t kPages = 24;
  for (uint32_t i = 0; i < pids.size(); ++i) {
    auto segno = kernel.gates().Initiate(*ctxs[i], *entry);
    ASSERT_TRUE(segno.ok());
    if (i == 0) {
      for (uint32_t p = 0; p < kPages; ++p) {
        ASSERT_TRUE(kernel.gates().Write(*ctxs[0], *segno, p * kPageWords, p + 1).ok());
      }
    }
    std::vector<UserOp> program;
    const uint32_t start = i * (kPages / 4);
    for (uint32_t p = 0; p < 2 * kPages; ++p) {
      program.push_back(UserOp::Read(*segno, ((start + p) % kPages) * kPageWords));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(pids[i], std::move(program)).ok());
  }
}

void RunSharedStorm(Kernel& kernel) {
  SetUpSharedStorm(kernel);
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(2000000).ok());
}

TEST(ProfInvariant, FaultStormBalancesAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    Kernel kernel{ProfConfigFor(cpus)};
    ASSERT_TRUE(kernel.Boot().ok());
    RunFaultStorm(kernel);
    ExpectLedgerBalanced(kernel);
  }
}

TEST(ProfInvariant, SharedSegmentStormBalancesAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    KernelConfig config = ProfConfigFor(cpus);
    // Boot pins most of the 48-frame pool in kernel core, leaving fewer free
    // frames than the 24-page shared sweep, so the storm faults continuously.
    config.async_paging = true;
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    RunSharedStorm(kernel);
    ExpectLedgerBalanced(kernel);
  }
}

// With one CPU, every cycle the scheduler charges lands in that CPU's
// windows, so its local clock advances exactly as far as the global clock —
// P12's 1-CPU makespan equals its total.  A charge made outside any window,
// such as readying the page-I/O daemon by landing reads during the
// idle-forward, would open a gap.
TEST(ProfInvariant, OneCpuSharedStormChargesOnlyInsideWindows) {
  KernelConfig config = ProfConfigFor(1);
  config.async_paging = true;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  SetUpSharedStorm(kernel);
  CpuInterleave& smp = kernel.ctx().smp;
  smp.AlignAll();
  const Cycles before = kernel.clock().now();
  const Cycles m0 = smp.Makespan();
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(2000000).ok());
  EXPECT_GT(kernel.metrics().Get("uproc.idle_cycles"), 0u);  // it idled forward
  EXPECT_GT(kernel.metrics().Get("pfm.io_completions"), 0u);
  EXPECT_EQ(smp.Makespan() - m0, kernel.clock().now() - before);
  ExpectLedgerBalanced(kernel);
}

// P16 shape: the bench drives gate calls directly, one anchored window per
// op, the way bench_perf_name_storm does — exercises Window outside the
// process scheduler.
TEST(ProfInvariant, DirectDrivenWindowsBalanceAtEveryPoolSize) {
  for (uint16_t cpus : {uint16_t{1}, uint16_t{4}, uint16_t{16}}) {
    KernelConfig config = ProfConfigFor(cpus);
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    KernelContext& kctx = kernel.ctx();
    PathWalker walker(&kernel.gates());
    auto pid = kernel.processes().CreateProcess(TestSubject());
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    for (uint32_t s = 0; s < 4; ++s) {
      ASSERT_TRUE(walker
                      .CreateSegment(*ctx, ">lib>s" + std::to_string(s), WorldAcl(),
                                     Label::SystemLow())
                      .ok());
    }
    kctx.smp.AlignAll();
    for (uint32_t i = 0; i < 64; ++i) {
      KernelContext::Window window(&kctx, kctx.smp.NextCpu(), ProfDomain::kGate);
      ASSERT_TRUE(walker.Walk(*ctx, ">lib>s" + std::to_string(i % 4)).ok());
    }
    ExpectLedgerBalanced(kernel);
    // A naming walk is gate + directory-read time, by construction.
    const auto totals = kernel.ctx().prof.DomainTotals();
    EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kGate)], 0u);
    EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kDirectoryRead)], 0u);
  }
}

// The one accrual window: its global delta accrues to its CPU alone, at
// close, and the ledger balances.  Closing leaves current_cpu and the anchor
// set, because work driven outside windows still reads them.
TEST(ProfWindow, AccruesExactlyItsGlobalDeltaToItsCpu) {
  Kernel kernel{ProfConfigFor(4)};
  ASSERT_TRUE(kernel.Boot().ok());
  KernelContext& kctx = kernel.ctx();
  {
    // Sets CPU 1's local clock apart from the global clock, which boot moved.
    KernelContext::Window warm(&kctx, 1, ProfDomain::kGate);
    kctx.cost.Charge(CodeStyle::kOptimized, 500);
  }
  const Cycles local0 = kctx.smp.local_now(1);
  const uint64_t windows0 = kctx.metrics.Get("smp.cpu1.quanta");
  Cycles start = 0;
  {
    KernelContext::Window window(&kctx, 1, ProfDomain::kGate);
    start = window.start();
    kctx.cost.Charge(CodeStyle::kOptimized, 321);
    EXPECT_EQ(kctx.LocalNow(), local0 + 321);
    EXPECT_EQ(kctx.smp.local_now(1), local0);  // nothing accrues mid-window
  }
  EXPECT_EQ(kctx.clock.now(), start + 321);
  EXPECT_EQ(kctx.smp.local_now(1), local0 + 321);
  EXPECT_EQ(kctx.smp.local_now(2), 0u);
  EXPECT_EQ(kctx.current_cpu, 1);
  EXPECT_EQ(kctx.window_anchor_local, local0);
  EXPECT_EQ(kctx.window_anchor_global, start);
  { KernelContext::Window empty(&kctx, 1, ProfDomain::kGate); }  // accrues nothing
  EXPECT_EQ(kctx.metrics.Get("smp.cpu1.quanta"), windows0 + 1);
  ExpectLedgerBalanced(kernel);
  EXPECT_EQ(kctx.prof.DomainTotals()[static_cast<size_t>(ProfDomain::kGate)], 500u + 321u);
}

#ifndef NDEBUG
// A window opened inside another would accrue the inner window's work twice.
TEST(ProfWindowDeathTest, NestedWindowAsserts) {
  Kernel kernel{ProfConfigFor(2)};
  ASSERT_TRUE(kernel.Boot().ok());
  KernelContext::Window outer(&kernel.ctx(), 0, ProfDomain::kDispatch);
  EXPECT_DEATH({ KernelContext::Window inner(&kernel.ctx(), 1, ProfDomain::kDispatch); },
               "never nest");
}
#endif

TEST(ProfInvariant, FaultStormPopulatesTheExpectedDomains) {
  Kernel kernel{ProfConfigFor(4)};
  ASSERT_TRUE(kernel.Boot().ok());
  RunFaultStorm(kernel);
  const auto totals = kernel.ctx().prof.DomainTotals();
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kDispatch)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kUprocQuantum)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kFaultService)], 0u);
  EXPECT_GT(totals[static_cast<size_t>(ProfDomain::kPagingIo)], 0u);
}

TEST(ProfDeterminism, CollapsedStacksAreBitIdenticalAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Kernel kernel{ProfConfigFor(4)};
    ASSERT_TRUE(kernel.Boot().ok());
    RunFaultStorm(kernel);
    const std::string folded = kernel.ctx().prof.CollapsedStacks();
    EXPECT_FALSE(folded.empty());
    if (run == 0) {
      first = folded;
    } else {
      EXPECT_EQ(first, folded);
    }
  }
}

// ---------------------------------------------------------------------------
// Off-mode invisibility: profiling may never change what the kernel does.
// ---------------------------------------------------------------------------

TEST(ProfInvisibility, EnablingTheProfilerChangesNoObservableState) {
  std::map<std::string, uint64_t, std::less<>> counters[2];
  Cycles clocks[2] = {0, 0};
  for (int on = 0; on < 2; ++on) {
    KernelConfig config = ProfConfigFor(4);
    config.profile.enabled = on == 1;
    config.profile.stall_rounds = on == 1 ? 10000 : 0;  // watchdog too
    Kernel kernel{config};
    ASSERT_TRUE(kernel.Boot().ok());
    RunFaultStorm(kernel);
    counters[on] = kernel.metrics().counters();
    clocks[on] = kernel.clock().now();
    EXPECT_TRUE(kernel.AuditIntegrity().empty());
  }
  EXPECT_EQ(counters[0], counters[1]);
  EXPECT_EQ(clocks[0], clocks[1]);
}

TEST(ProfInvisibility, ProfilerIsOffByDefault) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  EXPECT_FALSE(fx.kernel.ctx().prof.enabled());
  EXPECT_EQ(fx.kernel.ctx().prof.attributed(0), 0u);
}

// ---------------------------------------------------------------------------
// The stall watchdog: a never-released lock freezes the progress stamp.
// ---------------------------------------------------------------------------

TEST(ProfWatchdogDeathTest, FrozenClockDumpsAndAborts) {
  KernelConfig config;
  config.cpu_count = 1;
  config.vp_count = 4;
  config.profile.enabled = true;  // the dump includes domain trees
  config.profile.stall_rounds = 64;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  auto pid = kernel.processes().CreateProcess(TestSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  // The bug under test: a lock acquired once and never released, polled by a
  // kernel task that re-posts its own work on every run while the lock is
  // held, so every pass dispatches it, while the parked process keeps the
  // system from quiescing.  No quantum runs, no completion lands, no process
  // wakes — the progress stamp pins while each dispatch's vp switch keeps
  // the raw clock creeping, which is why the watchdog keys on the stamp and
  // not the clock.
  SimSpinLock stall_lock;
  LockTenure held(&stall_lock, 0, nullptr, &kernel.ctx().cost);
  const EventcountId work = kernel.ctx().eventcounts.Create();
  ASSERT_TRUE(kernel.vprocs()
                  .BindKernelTask("staller", work,
                                  [&] {
                                    if (stall_lock.held()) {
                                      kernel.vprocs().Advance(work);
                                    }
                                  })
                  .ok());
  kernel.vprocs().Advance(work);  // the first post
  auto ec = kernel.gates().CreateEventcount(*ctx, Label::SystemLow());
  ASSERT_TRUE(ec.ok());
  ASSERT_TRUE(kernel.processes()
                  .SetProgram(*pid, {UserOp::Await(*ec, 1)})  // never advanced
                  .ok());
  EXPECT_DEATH((void)kernel.processes().RunUntilQuiescent(100000), "STALL WATCHDOG");
}

}  // namespace
}  // namespace mks
