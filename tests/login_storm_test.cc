// Tests for the login-storm machinery (PR 10): concurrent Login/Logout
// across the CPU pool is bit-identical on double runs at 4 and 16 CPUs,
// slab-reused process slots leak nothing from their previous life (no bill,
// no KST bindings), and with every knob off the service's new instruments
// stay at zero while behavior stays deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/answering/service.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

std::string PersonOf(int u) { return "User" + std::to_string(u); }
std::string ProjectOf(int u) { return "Proj" + std::to_string(u % 4); }
std::string PasswordOf(int u) { return "pw" + std::to_string(u); }

// ---------------------------------------------------------------------------
// Concurrent storm determinism.
// ---------------------------------------------------------------------------

struct StormTrace {
  bool ok = false;
  Cycles final_now = 0;
  Cycles makespan = 0;
  uint64_t logins = 0;
  uint64_t logouts = 0;
  uint64_t spin = 0;
  uint64_t slab_reuses = 0;
  uint64_t skel_hits = 0;
  uint64_t login_p99 = 0;

  bool operator==(const StormTrace&) const = default;
};

// A miniature of bench_perf_login_storm: every session op runs in its own
// anchored window on the furthest-behind CPU, all concurrency knobs on.
StormTrace RunStorm(uint16_t cpus, int users) {
  StormTrace out;
  KernelConfig config;
  config.cpu_count = cpus;
  config.connect_cost = 400;
  config.trace.enabled = true;
  config.slab_processes = true;
  config.read_policy = ReadPolicy::kPassiveRw;
  Kernel kernel(config);
  if (!kernel.Boot().ok()) {
    return out;
  }
  KernelContext& kctx = kernel.ctx();

  AnsweringConfig acfg;
  acfg.table_mode = SessionTableMode::kSharded;
  acfg.table_lock_policy = LockPolicy::kMcs;
  acfg.table_line_transfer_cost = config.connect_cost;
  acfg.skeleton_cache = true;
  acfg.cache_lock = SharedLockConfig{ReadPolicy::kPassiveRw, config.connect_cost, 0, cpus};
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return out;
  }
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain, acfg);
  for (int u = 0; u < users; ++u) {
    if (!auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(2, 0)).ok()) {
      return out;
    }
  }

  std::vector<ProcessId> pid_of(static_cast<size_t>(users));
  auto drive = [&](auto&& op) -> bool {
    KernelContext::Window window(&kctx, kctx.smp.NextCpu(), ProfDomain::kSessionSetup);
    return op();
  };
  auto login = [&](int u) {
    auto pid = service.Login(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(0, 0));
    if (!pid.ok()) {
      return false;
    }
    pid_of[static_cast<size_t>(u)] = *pid;
    return true;
  };
  auto logout = [&](int u) { return service.Logout(pid_of[static_cast<size_t>(u)]).ok(); };

  // Storm front, one churn wave, drain.
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return login(u); })) {
      return out;
    }
  }
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return logout(u); }) || !drive([&] { return login(u); })) {
      return out;
    }
  }
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return logout(u); })) {
      return out;
    }
  }

  if (service.active_sessions() != 0 || !kernel.AuditIntegrity().empty()) {
    return out;
  }
  out.final_now = kernel.clock().now();
  out.makespan = kctx.smp.Makespan();
  const Metrics& metrics = kernel.metrics();
  out.logins = metrics.Get("answering.logins");
  out.logouts = metrics.Get("answering.logouts");
  out.spin = metrics.Get("answering.session_lock_spin_cycles");
  out.slab_reuses = metrics.Get("uproc.slab_reuses");
  out.skel_hits = metrics.Get("answering.skel_hits");
  out.login_p99 = metrics.HistPercentile("answering.login_cycles", 0.99);
  if (!kernel.Shutdown().ok()) {
    return out;
  }
  out.ok = true;
  return out;
}

TEST(LoginStorm, DoubleRunBitIdenticalAt4Cpus) {
  const StormTrace a = RunStorm(4, 24);
  const StormTrace b = RunStorm(4, 24);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.logins, 2u * 24u);
  EXPECT_GT(a.slab_reuses, 0u);  // the churn wave reuses parked slots
  EXPECT_TRUE(a == b);
}

TEST(LoginStorm, DoubleRunBitIdenticalAt16Cpus) {
  const StormTrace a = RunStorm(16, 24);
  const StormTrace b = RunStorm(16, 24);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Skeleton cache: the cache lock's per-CPU read state spans the pool.
// ---------------------------------------------------------------------------

TEST(LoginStorm, SkeletonCacheLockSpansTheCpuPool) {
  // The config leaves cache_lock.cpu_count at its default of 1, yet logins
  // run on every CPU of a 4-CPU pool.  A cache hit on CPU 3 holds a read
  // token there, and the next cache fill on CPU 0 must revoke it.
  KernelConfig config;
  config.cpu_count = 4;
  Kernel kernel(config);
  ASSERT_TRUE(kernel.Boot().ok());
  KernelContext& kctx = kernel.ctx();
  AnsweringConfig acfg;
  acfg.skeleton_cache = true;
  acfg.cache_lock.policy = ReadPolicy::kPassiveRw;
  Authenticator auth(&kernel);
  ASSERT_TRUE(auth.Init().ok());
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain, acfg);
  for (int u = 0; u < 2; ++u) {
    ASSERT_TRUE(
        auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(2, 0)).ok());
  }
  auto login_on = [&](uint16_t cpu, int u) {
    KernelContext::Window window(&kctx, cpu, ProfDomain::kSessionSetup);
    return service.Login(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(0, 0));
  };

  auto first = login_on(0, 0);  // a miss: fills the cache from CPU 0
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(service.Logout(*first).ok());
  auto again = login_on(3, 0);  // a hit: one read section, on CPU 3
  ASSERT_TRUE(again.ok()) << again.status();
  auto other = login_on(0, 1);  // a miss: its fill revokes CPU 3's token
  ASSERT_TRUE(other.ok()) << other.status();

  EXPECT_EQ(kernel.metrics().Get("answering.skel_hits"), 1u);
  EXPECT_EQ(service.skeleton_lock().revoked_cpus(), 1u);
  ASSERT_TRUE(service.Logout(*again).ok());
  ASSERT_TRUE(service.Logout(*other).ok());
  EXPECT_TRUE(kernel.AuditIntegrity().empty());
  EXPECT_TRUE(kernel.Shutdown().ok());
}

// ---------------------------------------------------------------------------
// Slab-reuse correctness: a recycled slot carries nothing across sessions.
// ---------------------------------------------------------------------------

struct SlabFixture {
  SlabFixture() : kernel(SlabConfig()), auth(&kernel), service(&kernel, &auth) {
    EXPECT_TRUE(kernel.Boot().ok());
    EXPECT_TRUE(auth.Init().ok());
    EXPECT_TRUE(auth.Enroll(Principal{"Alice", "Projx"}, "pw-a", Label(2, 0)).ok());
    EXPECT_TRUE(auth.Enroll(Principal{"Bob", "Projx"}, "pw-b", Label(2, 0)).ok());
  }
  static KernelConfig SlabConfig() {
    KernelConfig config;
    config.slab_processes = true;
    return config;
  }
  Kernel kernel;
  Authenticator auth;
  AnsweringService service;
};

TEST(LoginStorm, SlabReuseLeaksNoBillAndNoKstBindings) {
  SlabFixture fx;
  auto alice = fx.service.Login(Principal{"Alice", "Projx"}, "pw-a", Label(0, 0));
  ASSERT_TRUE(alice.ok()) << alice.status();

  // Alice initiates a segment and runs billable work.
  ProcContext* ctx = fx.kernel.processes().Context(*alice);
  PathWalker walker(&fx.kernel.gates());
  auto entry = walker.CreateSegment(*ctx, ">udd>Projx>Alice>scratch", WorldAcl(), Label(0, 0));
  ASSERT_TRUE(entry.ok());
  auto segno = fx.kernel.gates().Initiate(*ctx, *entry);
  ASSERT_TRUE(segno.ok());
  std::vector<UserOp> program;
  for (int i = 0; i < 4; ++i) {
    program.push_back(UserOp::Write(*segno, static_cast<uint32_t>(i), i));
  }
  ASSERT_TRUE(fx.kernel.processes().SetProgram(*alice, std::move(program)).ok());
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(10000).ok());
  auto bill = fx.service.BillFor(*alice);
  ASSERT_TRUE(bill.ok());
  EXPECT_GT(bill->ops, 0u);
  ASSERT_TRUE(fx.kernel.known_segments().Lookup(*alice, *segno) != nullptr);

  // Logout parks the slot instead of tearing it down.
  ASSERT_TRUE(fx.service.Logout(*alice).ok());
  EXPECT_EQ(fx.kernel.processes().slab_free(), 1u);

  // Bob's login recycles Alice's slot: same ProcessId, nothing inherited.
  auto bob = fx.service.Login(Principal{"Bob", "Projx"}, "pw-b", Label(0, 0));
  ASSERT_TRUE(bob.ok()) << bob.status();
  EXPECT_EQ(bob->value, alice->value);
  EXPECT_EQ(fx.kernel.processes().slab_free(), 0u);
  EXPECT_EQ(fx.kernel.metrics().Get("uproc.slab_reuses"), 1u);
  EXPECT_GE(fx.kernel.metrics().Get("ksm.kst_resets"), 1u);
  // Alice's KST binding is gone from the recycled table...
  EXPECT_EQ(fx.kernel.known_segments().Lookup(*bob, *segno), nullptr);
  // ...and the fresh session owes nothing for Alice's work.
  auto fresh_bill = fx.service.BillFor(*bob);
  ASSERT_TRUE(fresh_bill.ok());
  EXPECT_EQ(fresh_bill->ops, 0u);
  EXPECT_EQ(fresh_bill->cpu_cycles, 0u);

  // The recycled table is immediately usable for Bob's own bindings.
  ProcContext* bctx = fx.kernel.processes().Context(*bob);
  auto bentry = walker.CreateSegment(*bctx, ">udd>Projx>Bob>scratch", WorldAcl(), Label(0, 0));
  ASSERT_TRUE(bentry.ok());
  EXPECT_TRUE(fx.kernel.gates().Initiate(*bctx, *bentry).ok());
  ASSERT_TRUE(fx.service.Logout(*bob).ok());

  // Shutdown drains the parked slot; nothing dangles.
  EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
  EXPECT_TRUE(fx.kernel.Shutdown().ok());
}

TEST(LoginStorm, AccountingSurvivesSlabReuse) {
  SlabFixture fx;
  auto alice = fx.service.Login(Principal{"Alice", "Projx"}, "pw-a", Label(0, 0));
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(fx.service.Logout(*alice).ok());
  auto bob = fx.service.Login(Principal{"Bob", "Projx"}, "pw-b", Label(0, 0));
  ASSERT_TRUE(bob.ok());
  ASSERT_TRUE(fx.service.Logout(*bob).ok());
  // Both principals appear in the report even though they shared one slot.
  const std::string report = fx.service.AccountingReport();
  EXPECT_NE(report.find("Alice.Projx"), std::string::npos);
  EXPECT_NE(report.find("Bob.Projx"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Knobs off: the seed path, byte for byte.
// ---------------------------------------------------------------------------

Cycles RunSerialSessions(const AnsweringConfig& acfg, uint64_t* spin, uint64_t* skel,
                         uint64_t* slab) {
  Kernel kernel{KernelConfig{}};
  EXPECT_TRUE(kernel.Boot().ok());
  Authenticator auth(&kernel);
  EXPECT_TRUE(auth.Init().ok());
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain, acfg);
  for (int u = 0; u < 4; ++u) {
    EXPECT_TRUE(
        auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(2, 0)).ok());
  }
  for (int round = 0; round < 2; ++round) {
    for (int u = 0; u < 4; ++u) {
      auto pid =
          service.Login(Principal{PersonOf(u), ProjectOf(u)}, PasswordOf(u), Label(0, 0));
      EXPECT_TRUE(pid.ok());
      if (pid.ok()) {
        EXPECT_TRUE(service.Logout(*pid).ok());
      }
    }
  }
  const Metrics& metrics = kernel.metrics();
  *spin = metrics.Get("answering.session_lock_spin_cycles");
  *skel = metrics.Get("answering.skel_hits") + metrics.Get("answering.skel_misses");
  *slab = metrics.Get("uproc.slab_reuses") + metrics.Get("ksm.kst_resets");
  return kernel.clock().now();
}

TEST(LoginStorm, KnobsOffChargesNothingAndStaysDeterministic) {
  uint64_t spin = 0, skel = 0, slab = 0;
  const Cycles first = RunSerialSessions(AnsweringConfig{}, &spin, &skel, &slab);
  // The seed path never touches a table lock, the skeleton cache, or the
  // process slab: every new instrument reads zero.
  EXPECT_EQ(spin, 0u);
  EXPECT_EQ(skel, 0u);
  EXPECT_EQ(slab, 0u);
  // Identical runs land on the identical final clock.
  const Cycles second = RunSerialSessions(AnsweringConfig{}, &spin, &skel, &slab);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace mks
