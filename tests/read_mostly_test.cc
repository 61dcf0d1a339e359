// Tests for the read-mostly synchronization layer (PR 8): the per-policy
// spin/traffic arithmetic at the SimSharedLock unit level, knobs-off
// inertness, nested-section reentrancy, the passive-rw@1cpu == off clock
// identity, and RelocateUid interleaved with concurrent lookups under each
// ReadPolicy — bit-identical on double runs at 4 and 16 CPUs.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sync/shared_lock.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// SimSharedLock unit level: what a read costs, what a write costs.
// ---------------------------------------------------------------------------

constexpr Cycles kLine = 100;
constexpr Cycles kGrace = 600;

SharedLockConfig Config(ReadPolicy policy, uint16_t cpus = 4) {
  return SharedLockConfig{policy, kLine, kGrace, cpus};
}

TEST(SharedLockUnit, OffIsFullyInert) {
  SimSharedLock lock;
  lock.Configure(Config(ReadPolicy::kOff));
  EXPECT_FALSE(lock.modeled());
  EXPECT_EQ(lock.AcquireRead(0, 0), 0u);
  lock.ReleaseRead(1000, 0);
  const auto grant = lock.AcquireWrite(0, 1);
  EXPECT_EQ(grant.total, 0u);
  lock.ReleaseWrite(2000);
  EXPECT_EQ(lock.AcquireRead(500, 2), 0u);  // no free point was ever recorded
  EXPECT_EQ(lock.read_grants(), 0u);
  EXPECT_EQ(lock.write_grants(), 0u);
  EXPECT_EQ(lock.read_spin_cycles(), 0u);
  EXPECT_EQ(lock.write_spin_cycles(), 0u);
}

TEST(SharedLockUnit, PassiveRwReadsAreFreeAndWritersRevokeRemoteTokens) {
  SimSharedLock lock;
  lock.Configure(Config(ReadPolicy::kPassiveRw));
  // Two overlapping readers on different CPUs: zero spin, zero traffic —
  // each spins only on its private token.
  EXPECT_EQ(lock.AcquireRead(0, 0), 0u);
  lock.ReleaseRead(1000, 0);
  EXPECT_EQ(lock.AcquireRead(0, 1), 0u);
  lock.ReleaseRead(800, 1);
  EXPECT_EQ(lock.contended_reads(), 0u);
  // The writer drains both token holders (to t=1000) and pays one line per
  // remote CPU revoked: total = (1000 - 200) wait + 2 * kLine traffic.
  const auto grant = lock.AcquireWrite(200, 2);
  EXPECT_EQ(grant.revoked_cpus, 2u);
  EXPECT_EQ(grant.revocation_cycles, 2 * kLine);
  EXPECT_EQ(grant.total, 800u + 2 * kLine);
  lock.ReleaseWrite(1100);
  // A reader that arrives under the writer's section waits only for the
  // section to end — still no line transfers.
  EXPECT_EQ(lock.AcquireRead(1050, 3), 50u);
  lock.ReleaseRead(1500, 3);
  // A writer whose own CPU holds the only token revokes nothing remotely.
  const auto own = lock.AcquireWrite(2000, 3);
  EXPECT_EQ(own.revoked_cpus, 0u);
  EXPECT_EQ(own.total, 0u);
  lock.ReleaseWrite(2100);
  EXPECT_EQ(lock.revoked_cpus(), 2u);
  EXPECT_EQ(lock.revocation_cycles(), 2 * kLine);
}

TEST(SharedLockUnit, EpochReadsPinFreeAndWritersPayPublishPlusGrace) {
  SimSharedLock lock;
  lock.Configure(Config(ReadPolicy::kEpoch));
  EXPECT_EQ(lock.AcquireRead(0, 0), 0u);
  lock.ReleaseRead(1000, 0);
  // Publish: one line to each of the 3 other CPUs.  Grace: drain the reader
  // that pinned the old epoch (to 1000) plus the quiescence machinery.
  const auto grant = lock.AcquireWrite(200, 1);
  EXPECT_EQ(grant.publish_cycles, 3 * kLine);
  EXPECT_EQ(grant.grace_cycles, 800u + kGrace);
  EXPECT_EQ(grant.total, 3 * kLine + 800u + kGrace);
  lock.ReleaseWrite(2000);
  // A reader against the in-flight writer is still free: it dereferences
  // the prior version.
  EXPECT_EQ(lock.AcquireRead(1900, 2), 0u);
  lock.ReleaseRead(2500, 2);
  // The next writer serializes behind the previous one and drains the new
  // read section.
  const auto next = lock.AcquireWrite(2100, 3);
  EXPECT_EQ(next.publish_cycles, 3 * kLine);
  EXPECT_EQ(next.grace_cycles, 400u + kGrace);
  EXPECT_EQ(next.total, 3 * kLine + 400u + kGrace);
  lock.ReleaseWrite(3000);
  EXPECT_EQ(lock.contended_reads(), 0u);
  EXPECT_EQ(lock.read_spin_cycles(), 0u);
  EXPECT_EQ(lock.grace_waits(), 2u);
  EXPECT_EQ(lock.publish_cycles(), 6 * kLine);
}

TEST(SharedLockUnit, GrantOrderNeverDependsOnThePolicy) {
  // The same three-section script under every modeled policy: sections start
  // in call order and each policy only changes what the waiting costs.
  for (ReadPolicy policy : {ReadPolicy::kPassiveRw, ReadPolicy::kEpoch}) {
    SCOPED_TRACE(ReadPolicyName(policy));
    SimSharedLock lock;
    lock.Configure(Config(policy));
    const Cycles r = lock.AcquireRead(0, 0);
    lock.ReleaseRead(r + 500, 0);
    const auto w = lock.AcquireWrite(100, 1);
    lock.ReleaseWrite(100 + w.total + 300);
    const Cycles r2 = lock.AcquireRead(200, 2);
    lock.ReleaseRead(200 + r2 + 100, 2);
    EXPECT_EQ(lock.read_grants(), 2u);
    EXPECT_EQ(lock.write_grants(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Kernel level: inertness, reentrancy, and the 1-CPU clock identity.
// ---------------------------------------------------------------------------

TEST(ReadMostlyKernel, DefaultConfigKeepsTheLocksUnmodeled) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  fx.MustCreate(">a>b");
  PathWalker walker(&fx.kernel.gates());
  EXPECT_TRUE(walker.Walk(*fx.ctx, ">a>b").ok());
  const SimSharedLock& dir_lock = fx.kernel.directories().naming_lock();
  const SimSharedLock& kst_lock = fx.kernel.known_segments().kst_lock();
  EXPECT_FALSE(dir_lock.modeled());
  EXPECT_FALSE(kst_lock.modeled());
  // Not a single counter may move with the knob off.
  EXPECT_EQ(dir_lock.read_grants(), 0u);
  EXPECT_EQ(dir_lock.write_grants(), 0u);
  EXPECT_EQ(kst_lock.read_grants(), 0u);
  EXPECT_EQ(kst_lock.write_grants(), 0u);
  EXPECT_EQ(fx.kernel.metrics().counters().at("dir.read_section_cycles"), 0u);
  EXPECT_EQ(fx.kernel.metrics().counters().at("ksm.write_section_cycles"), 0u);
}

TEST(ReadMostlyKernel, NestedWriteSectionsAreInertNotDoubleCharged) {
  // DeleteEntry of a quota directory calls RemoveQuota inside its own write
  // section; the nested section must not take a second grant.
  KernelConfig config;
  config.read_policy = ReadPolicy::kPassiveRw;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  PathWalker walker(&fx.kernel.gates());
  auto dir = walker.CreateDirectories(*fx.ctx, ">q", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(fx.kernel.gates().SetQuota(*fx.ctx, *dir, 64).ok());
  const uint64_t before = fx.kernel.directories().naming_lock().write_grants();
  ASSERT_TRUE(fx.kernel.gates().Delete(*fx.ctx, fx.kernel.gates().RootId(), "q").ok());
  const uint64_t after = fx.kernel.directories().naming_lock().write_grants();
  EXPECT_EQ(after - before, 1u) << "nested RemoveQuota must ride the outer section";
}

// Shared relocation-storm driver: per-CPU processes all initiate one shared
// segment, then lookups (KST probe + directory search) interleave with
// RelocateUid calls across the pool, each op in its own anchored window on
// the furthest-behind CPU.
struct StormOut {
  Cycles clock = 0;
  std::map<std::string, uint64_t, std::less<>> counters;
  uint64_t read_grants = 0;
  uint64_t contended_reads = 0;
  Cycles read_spin_cycles = 0;
  uint64_t write_grants = 0;
  Cycles write_spin_cycles = 0;
  uint64_t revoked_cpus = 0;
  Cycles revocation_cycles = 0;
  Cycles publish_cycles = 0;
  uint64_t grace_waits = 0;
  Cycles grace_cycles = 0;
  std::vector<uint64_t> observed_packs;  // home.pack seen by each process at the end
  bool ok = false;

  bool operator==(const StormOut&) const = default;
};

StormOut RunRelocationStorm(ReadPolicy policy, uint16_t cpus, uint32_t ops) {
  StormOut out;
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 128;
  config.connect_cost = 200;
  config.read_policy = policy;
  config.epoch_grace_cost = 300;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  KernelContext& kctx = kernel.ctx();
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<ProcContext*> procs;
  std::vector<Segno> segnos;
  for (uint16_t c = 0; c < cpus; ++c) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(c)));
    if (!pid.ok()) {
      return out;
    }
    pids.push_back(*pid);
    procs.push_back(kernel.processes().Context(*pid));
  }
  auto entry = walker.CreateSegment(*procs[0], ">d>shared", WorldAcl(), Label::SystemLow());
  if (!entry.ok()) {
    return out;
  }
  for (uint16_t c = 0; c < cpus; ++c) {
    auto segno = walker.Initiate(*procs[c], ">d>shared");
    if (!segno.ok()) {
      return out;
    }
    segnos.push_back(*segno);
  }
  const auto* probe = kernel.known_segments().Lookup(pids[0], segnos[0]);
  if (probe == nullptr) {
    return out;
  }
  const SegmentUid uid = probe->home.uid;
  const PackId home_pack = probe->home.pack;
  const VtocIndex home_vtoc = probe->home.vtoc;

  // Barrier into the measured region: boot/setup release points cannot
  // read as contention against the measured windows.
  kctx.AlignToGlobal();
  const EntryId root = kernel.gates().RootId();
  for (uint32_t i = 0; i < ops; ++i) {
    const uint16_t cpu = kctx.smp.NextCpu();
    KernelContext::Window window(&kctx, cpu, ProfDomain::kGate);
    if (i % 64 == 63) {
      // Bounce the shared segment between its real home and an alternate:
      // every KST binding in the system must follow.
      const bool alt = (i / 64) % 2 == 0;
      kernel.known_segments().RelocateUid(
          uid, alt ? PackId(home_pack.value + 1) : home_pack,
          alt ? VtocIndex(home_vtoc.value + 1) : home_vtoc);
    } else {
      if (kernel.known_segments().Lookup(pids[cpu], segnos[cpu]) == nullptr) {
        return out;
      }
      if (!kernel.gates().Search(*procs[cpu], root, "d").ok()) {
        return out;
      }
    }
  }
  for (uint16_t c = 0; c < cpus; ++c) {
    const auto* e = kernel.known_segments().Lookup(pids[c], segnos[c]);
    if (e == nullptr) {
      return out;
    }
    out.observed_packs.push_back(e->home.pack.value);
  }
  out.clock = kernel.clock().now();
  out.counters = kernel.metrics().counters();
  for (const SimSharedLock* lock :
       {&kernel.directories().naming_lock(), &kernel.known_segments().kst_lock()}) {
    out.read_grants += lock->read_grants();
    out.contended_reads += lock->contended_reads();
    out.read_spin_cycles += lock->read_spin_cycles();
    out.write_grants += lock->write_grants();
    out.write_spin_cycles += lock->write_spin_cycles();
    out.revoked_cpus += lock->revoked_cpus();
    out.revocation_cycles += lock->revocation_cycles();
    out.publish_cycles += lock->publish_cycles();
    out.grace_waits += lock->grace_waits();
    out.grace_cycles += lock->grace_cycles();
  }
  out.ok = true;
  return out;
}

constexpr uint32_t kStormOps = 512;  // 8 relocations inside the storm

TEST(ReadMostlyRelocation, LookupsAlwaysSeeTheLatestHomeUnderEveryPolicy) {
  // 512 ops: the last relocation (op 447, i/64 == 6) moved the segment to
  // the alternate pack; every process's KST binding must say so.
  for (ReadPolicy policy : {ReadPolicy::kOff, ReadPolicy::kPassiveRw, ReadPolicy::kEpoch}) {
    SCOPED_TRACE(ReadPolicyName(policy));
    const StormOut r = RunRelocationStorm(policy, 4, kStormOps);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.observed_packs.size(), 4u);
    for (uint64_t pack : r.observed_packs) {
      EXPECT_EQ(pack, r.observed_packs[0]);
    }
  }
}

TEST(ReadMostlyRelocation, PoliciesPriceTheScheduleWithoutChangingIt) {
  // Identical grant order across policies: what each process observes is
  // policy-independent; only the clock and the lock counters differ — and in
  // the direction each policy promises.
  const StormOut off = RunRelocationStorm(ReadPolicy::kOff, 4, kStormOps);
  const StormOut prw = RunRelocationStorm(ReadPolicy::kPassiveRw, 4, kStormOps);
  const StormOut epoch = RunRelocationStorm(ReadPolicy::kEpoch, 4, kStormOps);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(prw.ok);
  ASSERT_TRUE(epoch.ok);
  EXPECT_EQ(off.observed_packs, prw.observed_packs);
  EXPECT_EQ(off.observed_packs, epoch.observed_packs);
  // Off records nothing at all.
  EXPECT_EQ(off.read_grants, 0u);
  EXPECT_EQ(off.write_grants, 0u);
  // The modeled policies both saw the same sections.
  EXPECT_EQ(prw.read_grants, epoch.read_grants);
  EXPECT_EQ(prw.write_grants, epoch.write_grants);
  // Passive_rw readers never pay lines (their only waits are writer
  // sections); epoch readers never wait at all.
  EXPECT_EQ(epoch.contended_reads, 0u);
  EXPECT_EQ(epoch.read_spin_cycles, 0u);
  // The writers' traffic terms appear exactly where the model puts them.
  EXPECT_GT(prw.revoked_cpus, 0u);
  EXPECT_EQ(prw.revocation_cycles, prw.revoked_cpus * 200u);
  EXPECT_GT(epoch.publish_cycles, 0u);
  EXPECT_GT(epoch.grace_waits, 0u);
}

TEST(ReadMostlyRelocation, PassiveRwAtOneCpuIsClockIdenticalToOff) {
  // At 1 CPU the anchored windows make spin structurally zero, and a writer
  // has no remote token to revoke, so passive_rw charges nothing: the
  // virtual clock (and what the process observed) must match the un-modeled
  // run exactly.
  const StormOut off = RunRelocationStorm(ReadPolicy::kOff, 1, kStormOps);
  const StormOut prw = RunRelocationStorm(ReadPolicy::kPassiveRw, 1, kStormOps);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(prw.ok);
  EXPECT_EQ(off.clock, prw.clock);
  EXPECT_EQ(off.observed_packs, prw.observed_packs);
  EXPECT_EQ(prw.read_spin_cycles, 0u);
  EXPECT_EQ(prw.write_spin_cycles, 0u);
}

TEST(ReadMostlyRelocation, DoubleRunsAreBitIdenticalAtFourAndSixteenCpus) {
  for (ReadPolicy policy : {ReadPolicy::kPassiveRw, ReadPolicy::kEpoch}) {
    for (uint16_t cpus : {uint16_t{4}, uint16_t{16}}) {
      SCOPED_TRACE(std::string(ReadPolicyName(policy)) + " @ " + std::to_string(cpus));
      const StormOut a = RunRelocationStorm(policy, cpus, kStormOps);
      const StormOut b = RunRelocationStorm(policy, cpus, kStormOps);
      ASSERT_TRUE(a.ok);
      ASSERT_TRUE(b.ok);
      EXPECT_TRUE(a == b);
    }
  }
}

}  // namespace
}  // namespace mks
