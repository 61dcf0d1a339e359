// Tests for the simulated CPU pool: deterministic interleaving, the per-CPU
// hardware state (associative memories, DSBRs), and the invalidation
// protocol (segno broadcasts, targeted page-table-scoped shootdowns).
//
// The two load-bearing properties:
//  * determinism — the interleaving is a function of the workload alone, so
//    two runs with the same KernelConfig produce bit-identical metrics,
//    audits, and clocks even at cpu_count > 1;
//  * functional transparency — the pool changes only the accounting overlay
//    (local clocks, makespan), never what the kernel computes, so any
//    cpu_count yields the same stored values and a clean integrity audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/hw/machine.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level: determinism and equivalence under the pool.
// ---------------------------------------------------------------------------

// The shared mixed workload (RunMixed, tests/kernel_fixture.h) at the
// default quantum.
constexpr uint32_t kMixedOps = 60;

KernelConfig SmpConfig(uint16_t cpus) {
  KernelConfig config;
  config.cpu_count = cpus;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: eviction pressure
  config.vp_count = 6;
  return config;
}

TEST(SmpDeterminism, TwoRunsAtFourCpusAreBitIdentical) {
  KernelConfig config = SmpConfig(4);
  config.paging_pipeline = PagingPipeline::Full();
  const MixedRun a = RunMixed(config, kMixedOps);
  const MixedRun b = RunMixed(config, kMixedOps);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The full metrics dump — every counter, including the per-CPU
  // smp.cpuK.busy_cycles/quanta — must match exactly, as must the audit
  // report and the global clock.  Any divergence means the interleaving
  // consulted something outside the simulation.
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.audit, b.audit);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.values, b.values);
}

TEST(SmpEquivalence, CpuCountNeverChangesWhatTheKernelComputes) {
  const MixedRun uni = RunMixed(SmpConfig(1), kMixedOps);
  const MixedRun smp = RunMixed(SmpConfig(4), kMixedOps);
  ASSERT_TRUE(uni.ok);
  ASSERT_TRUE(smp.ok);
  // Same stored values, clean audits on both.  (The serialized totals also
  // agree because the pool is an accounting overlay over one global clock.)
  EXPECT_EQ(uni.values, smp.values);
  EXPECT_TRUE(uni.audit.empty()) << uni.audit.front();
  EXPECT_TRUE(smp.audit.empty()) << smp.audit.front();
  EXPECT_EQ(uni.clock, smp.clock);
}

TEST(SmpEquivalence, FullPipelineComputesTheSameValuesAtEveryCpuCount) {
  // The daemons are bound here, so the page writer and the idle rounds run.
  // Idle rounds exist only where a CPU trails the furthest clock, so unlike
  // the default configuration the serialized total may differ across CPU
  // counts; what the kernel computes may not.
  std::vector<MixedRun> runs;
  for (const uint16_t cpus : {1, 4, 16}) {
    KernelConfig config = SmpConfig(cpus);
    config.paging_pipeline = PagingPipeline::Full();
    runs.push_back(RunMixed(config, kMixedOps));
    ASSERT_TRUE(runs.back().ok) << cpus << " CPUs";
    EXPECT_TRUE(runs.back().audit.empty()) << cpus << " CPUs: " << runs.back().audit.front();
  }
  EXPECT_EQ(runs[0].values, runs[1].values);
  EXPECT_EQ(runs[0].values, runs[2].values);
}

TEST(SmpAudit, AuditAndShutdownWithPipelineKnobsAtFourCpus) {
  KernelConfig config = SmpConfig(4);
  config.paging_pipeline = PagingPipeline::Full();
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < 6; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("W" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>q" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t p = 0; p < 8; ++p) {  // sequential: feeds the readahead path
      program.push_back(UserOp::Write(*segno, p * kPageWords + p, p + 1));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
    pids.push_back(*pid);
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(kernel.processes().state(pid), ProcState::kDone);
  }
  // The pipeline ran (eviction pressure guarantees cleaning activity) and the
  // cross-module books still balance with four CPUs' worth of interleaving.
  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
  ASSERT_TRUE(kernel.Shutdown().ok());
  const auto post = kernel.AuditIntegrity();
  EXPECT_TRUE(post.empty()) << post.front();
}

TEST(SmpDispatch, QuantaSpreadAcrossThePool) {
  KernelConfig config = SmpConfig(4);
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  kernel.processes().set_quantum(4);  // several quanta per program
  PathWalker walker(&kernel.gates());
  for (uint32_t i = 0; i < 8; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("S" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>s" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 24; ++n) {
      program.push_back(UserOp::Compute(30));
      program.push_back(UserOp::Write(*segno, (n % 3) * kPageWords, n));
    }
    ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
  }
  ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
  // With 8 runnable processes and 4 CPUs, least-local-time dispatch must use
  // more than the bootload CPU.
  uint32_t busy_cpus = 0;
  for (uint16_t k = 0; k < 4; ++k) {
    const std::string prefix = "smp.cpu" + std::to_string(k);
    if (kernel.metrics().Get(prefix + ".busy_cycles") > 0) {
      EXPECT_GT(kernel.metrics().Get(prefix + ".quanta"), 0u);
      ++busy_cpus;
    }
  }
  EXPECT_GE(busy_cpus, 2u);
  // Every CPU's busy time is bounded by the serialized total.
  for (uint16_t k = 0; k < 4; ++k) {
    EXPECT_LE(kernel.metrics().Get("smp.cpu" + std::to_string(k) + ".busy_cycles"),
              kernel.clock().now());
  }
}

// ---------------------------------------------------------------------------
// Idle-time cleaning: the page writer and the idle rounds run after dispatch
// on the least-behind CPU, never in the level-1 window.
// ---------------------------------------------------------------------------

// Self cycles of one collapsed-stack line ("cpu3;dispatch;paging-io"), or 0.
Cycles FoldedCycles(const std::string& folded, const std::string& stack) {
  const std::string key = "\n" + stack + " ";
  const size_t at = ("\n" + folded).find(key);
  return at == std::string::npos ? 0 : std::stoull(folded.substr(at + key.size() - 1));
}

struct IdleCpuRun {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::string folded;            // the profiler's collapsed stacks
  std::vector<Cycles> level1;    // durations of CPU 0's level-1 windows
  uint64_t io_work = 0;          // advances of the page-I/O daemon's work count
  std::map<std::string, uint64_t> task_spans;  // vp.kernel_task spans by task name
  std::vector<Word> values;      // every written page's last value
  std::vector<std::string> audit;
  std::vector<std::string> post_shutdown_audit;
  bool ok = false;
};

constexpr uint32_t kIdlePages = 40;
constexpr uint32_t kIdleLaps = 3;

// Three processes each write a private segment larger than their share of
// memory, lap after lap (eviction pressure, and dirty pages the clock has
// passed); a fourth runs one compute op.  Sharded run queues without
// stealing keep each process on its home queue — with `cpus` = 4, one per
// CPU — so CPU 3 idles while the others still run.
IdleCpuRun RunWithAnIdleCpu(uint16_t cpus) {
  IdleCpuRun out;
  KernelConfig config = SmpConfig(cpus);
  config.memory_frames = 96;  // 3 x 40 written pages against 96 frames
  config.sharded_runqueues = true;
  config.paging_pipeline = PagingPipeline::Full();
  config.profile.enabled = true;
  config.trace.enabled = true;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<Segno> segnos;
  for (uint16_t i = 0; i < 4; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("I" + std::to_string(i)));
    if (!pid.ok()) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>i" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return out;
    }
    std::vector<UserOp> program;
    if (i == 3) {
      program.push_back(UserOp::Compute(25));
    } else {
      for (uint32_t n = 0; n < kIdlePages * kIdleLaps; ++n) {
        program.push_back(UserOp::Write(*segno, (n % kIdlePages) * kPageWords, n * 10 + i));
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
  for (uint16_t i = 0; i < 3; ++i) {
    for (uint32_t p = 0; p < kIdlePages; ++p) {
      auto word =
          kernel.gates().Read(*kernel.processes().Context(pids[i]), segnos[i], p * kPageWords);
      if (!word.ok()) {
        return out;
      }
      out.values.push_back(*word);
    }
  }
  out.counters = kernel.metrics().counters();
  out.io_work = kernel.ctx().eventcounts.Read(kernel.page_frames().io_work());
  out.folded = kernel.ctx().prof.CollapsedStacks();
  const Tracer& trace = kernel.ctx().trace;
  for (const TraceRecord& r : trace.Snapshot(0)) {
    if (trace.EventName(r.event) == "uproc.level1") {
      out.level1.push_back(r.dur);
    }
  }
  for (uint16_t cpu = 0; cpu < trace.cpu_count(); ++cpu) {
    for (const TraceRecord& r : trace.Snapshot(cpu)) {
      if (trace.EventName(r.event) == "vp.kernel_task") {
        ++out.task_spans[kernel.vprocs().task_name(VpId(static_cast<uint16_t>(r.proc)))];
      }
    }
  }
  out.audit = kernel.AuditIntegrity();
  if (!kernel.Shutdown().ok()) {
    return out;
  }
  out.post_shutdown_audit = kernel.AuditIntegrity();
  out.ok = true;
  return out;
}

TEST(SmpIdleRounds, TheCpuThatFinishesFirstCleansOutsideTheLevel1Window) {
  const IdleCpuRun one = RunWithAnIdleCpu(1);
  const IdleCpuRun four = RunWithAnIdleCpu(4);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(four.ok);
  EXPECT_GT(four.counters.at("pfm.idle_rounds"), 0u);
  // Idle rounds write on top of what the page writer cleans.
  EXPECT_GT(four.counters.at("pfm.daemon_writes"), one.counters.at("pfm.daemon_writes"));
  // The idle CPU did disk work outside any quantum — paging I/O directly
  // under its dispatch root — and it is in that CPU's busy cycles.
  const Cycles idle_io = FoldedCycles(four.folded, "cpu3;dispatch;paging-io");
  EXPECT_GE(idle_io, Costs::kDiskWriteLatency);
  EXPECT_GE(four.counters.at("smp.cpu3.busy_cycles"), idle_io);
  // CPU 0's level-1 window has nothing to do, let alone a page to write:
  // synchronous paging posts no read, so the page-I/O daemon's work count
  // never advances and the daemon is never dispatched, and no process
  // parks, so no wakeup is drained.  No window records a span.
  EXPECT_EQ(four.io_work, 0u);
  EXPECT_TRUE(four.level1.empty());
  EXPECT_EQ(four.task_spans.count("page_io_daemon"), 0u);
  EXPECT_EQ(four.task_spans.count("page_writer"), 1u);  // the writer did run
  // Every page reads back its last write; the books balance before and
  // after shutdown.
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t p = 0; p < kIdlePages; ++p) {
      EXPECT_EQ(four.values[i * kIdlePages + p], ((kIdleLaps - 1) * kIdlePages + p) * 10 + i)
          << i << ":" << p;
    }
  }
  EXPECT_TRUE(four.audit.empty()) << four.audit.front();
  EXPECT_TRUE(four.post_shutdown_audit.empty()) << four.post_shutdown_audit.front();
}

TEST(SmpIdleRounds, NoneAtOneCpuWhereTheFaultPathStillLaunders) {
  // One CPU is always at the furthest clock, so no idle round may start;
  // dirty inline evictions launder on the fault path instead.
  const IdleCpuRun one = RunWithAnIdleCpu(1);
  const IdleCpuRun four = RunWithAnIdleCpu(4);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(four.ok);
  EXPECT_EQ(one.counters.at("pfm.idle_rounds"), 0u);
  EXPECT_GT(one.counters.at("pfm.laundered_pages"), 0u);
  EXPECT_EQ(one.values, four.values);
  EXPECT_TRUE(one.audit.empty()) << one.audit.front();
  EXPECT_TRUE(one.post_shutdown_audit.empty()) << one.post_shutdown_audit.front();
}

TEST(SmpIdleRounds, KernelVpPaysOneTransferWhenItChangesCpu) {
  KernelConfig config = SmpConfig(2);
  config.connect_cost = 400;
  config.paging_pipeline = PagingPipeline::Full();  // binds the page writer
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  KernelContext& kctx = kernel.ctx();
  Metrics& m = kernel.metrics();
  // Unposted, the writer is not dispatched at all.
  const Cycles idle0 = kctx.clock.now();
  EXPECT_FALSE(kernel.vprocs().RunKernelTask("page_writer"));
  EXPECT_EQ(kctx.clock.now(), idle0);
  // Posted work the writer finds nothing to clean for: its run costs only
  // its dispatch.
  auto run_writer_on = [&](uint16_t cpu) {
    kctx.current_cpu = cpu;
    kernel.vprocs().Advance(kernel.page_frames().writer_work());
    const Cycles before = kctx.clock.now();
    EXPECT_TRUE(kernel.vprocs().RunKernelTask("page_writer"));
    return kctx.clock.now() - before;
  };
  const uint64_t migrations0 = m.Get("vproc.vp_migrations");
  const Cycles same = run_writer_on(0);  // its state record starts on CPU 0
  EXPECT_EQ(m.Get("vproc.vp_migrations"), migrations0);
  const Cycles moved = run_writer_on(1);
  EXPECT_EQ(m.Get("vproc.vp_migrations"), migrations0 + 1);
  EXPECT_EQ(moved, same + config.connect_cost);
  EXPECT_EQ(run_writer_on(1), same);
  EXPECT_EQ(m.Get("vproc.vp_migrations"), migrations0 + 1);
}

// ---------------------------------------------------------------------------
// Hardware-level: the pool's broadcast protocol and per-CPU state.
// ---------------------------------------------------------------------------

struct PoolRig {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  PageTable pt;
  DescriptorSegment ds;
  ProcessorPool pool;

  explicit PoolRig(uint16_t cpus)
      : pool(cpus,
             HwFeatures{.second_dsbr = true,
                        .associative_memory = true,
                        .associative_entries = 16},
             &cost, &metrics) {
    pt.ptws.assign(8, Ptw{});
    ds.sdws.assign(4, Sdw{});
    Sdw& sdw = ds.sdws[0];
    sdw.present = true;
    sdw.page_table = &pt;
    sdw.bound_pages = 8;
    sdw.read = true;
    sdw.write = true;
    sdw.ring_bracket = 4;
    pt.connected.push_back(&ds);
    for (uint16_t k = 0; k < pool.count(); ++k) {
      pool.cpu(k).set_user_ds(&ds);
    }
  }

  void MapPage(uint32_t page, uint32_t frame) {
    pt.ptws[page].in_core = true;
    pt.ptws[page].unallocated = false;
    pt.ptws[page].frame = frame;
  }
};

constexpr Segno kSeg{kSystemSegnoLimit};

TEST(ProcessorPool, ZeroCpuCountClampsToOne) {
  PoolRig rig(0);
  EXPECT_EQ(rig.pool.count(), 1u);
}

TEST(ProcessorPool, BroadcastClearDropsStaleTranslationsOnEveryCpu) {
  PoolRig rig(2);
  rig.MapPage(5, 13);
  // Both CPUs cache the translation for page 5.
  ASSERT_TRUE(rig.pool.cpu(0).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.pool.cpu(1).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4).ok);
  // A descriptor mutation made while running on CPU 0 (bound shrink) must
  // reach CPU 1's cache too — the hardware "connect" signal.
  rig.ds.sdws[0].bound_pages = 4;
  rig.pool.ClearAssociative(kSeg);
  for (uint16_t k = 0; k < 2; ++k) {
    auto r = rig.pool.cpu(k).Access(kSeg, 5 * kPageWords, AccessMode::kRead, 4);
    ASSERT_FALSE(r.ok) << "cpu " << k << " served a stale translation";
    EXPECT_EQ(r.fault.kind, FaultKind::kOutOfBounds);
  }
}

TEST(ProcessorPool, BroadcastPtwInvalidationCoversEviction) {
  PoolRig rig(2);
  rig.MapPage(2, 9);
  ASSERT_TRUE(rig.pool.cpu(0).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  ASSERT_TRUE(rig.pool.cpu(1).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4).ok);
  // Page control (running on CPU 0) evicts the page; the space connecting
  // the table is loaded on both CPUs, so both drop their copy.
  rig.pt.ptws[2].in_core = false;
  rig.pt.ptws[2].frame = 0;
  rig.pool.InvalidateAssociative(&rig.pt.ptws[2], rig.pt, /*sender=*/0);
  EXPECT_EQ(rig.pt.ptws[2].assoc_refs, 0u);
  for (uint16_t k = 0; k < 2; ++k) {
    auto r = rig.pool.cpu(k).Access(kSeg, 2 * kPageWords, AccessMode::kRead, 4);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.fault.kind, FaultKind::kMissingPage);
  }
}

TEST(ProcessorPool, DropUserDsClearsOnlyMatchingDsbrs) {
  PoolRig rig(2);
  DescriptorSegment other;
  other.sdws.assign(1, Sdw{});
  rig.pool.cpu(1).set_user_ds(&other);
  // Tearing down the address space behind `ds` must unlatch CPU 0's DSBR but
  // leave CPU 1 (running a different space) alone.
  rig.pool.DropUserDs(&rig.ds);
  EXPECT_EQ(rig.pool.cpu(0).user_ds(), nullptr);
  EXPECT_EQ(rig.pool.cpu(1).user_ds(), &other);
}

TEST(ProcessorPool, DsbrLoadsKeepTheLoadedOnMask) {
  PoolRig rig(3);
  EXPECT_EQ(rig.ds.loaded_on, 0b111u);
  DescriptorSegment other;
  rig.pool.cpu(1).set_user_ds(&other);
  EXPECT_EQ(rig.ds.loaded_on, 0b101u);
  EXPECT_EQ(other.loaded_on, 0b010u);
  rig.pool.DropUserDs(&rig.ds);
  EXPECT_EQ(rig.ds.loaded_on, 0u);
  rig.pool.cpu(1).set_user_ds(nullptr);
  EXPECT_EQ(other.loaded_on, 0u);
}

TEST(ProcessorPool, ShootdownAbortsWhenAnUntargetedCacheHoldsThePtw) {
  PoolRig rig(2);
  rig.MapPage(1, 4);
  ASSERT_TRUE(rig.pool.cpu(1).Access(kSeg, kPageWords, AccessMode::kRead, 4).ok);
  // Bookkeeping gone wrong: the table forgets the space CPU 1 has loaded.
  rig.pt.connected.clear();
  EXPECT_DEATH(rig.pool.InvalidateAssociative(&rig.pt.ptws[1], rig.pt, /*sender=*/0),
               "untargeted associative memory");
  EXPECT_DEATH(rig.pool.InvalidateAssociative(rig.pt, /*sender=*/0),
               "untargeted associative memory");
}

TEST(ProcessorPool, RejectsMoreCpusThanAMaskNames) {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  EXPECT_DEATH(ProcessorPool(ProcessorPool::kMaxCpus + 1, HwFeatures{}, &cost, &metrics),
               "loaded-on masks");
}

// ---------------------------------------------------------------------------
// Kernel-level targeting: which CPUs a page-table-scoped mutation signals.
// ---------------------------------------------------------------------------

// A booted 4-CPU kernel with a charged interconnect and the fixture's test
// process.
struct TargetRig {
  static KernelConfig Config() {
    KernelConfig config;
    config.cpu_count = 4;
    config.connect_cost = 100;
    return config;
  }

  KernelFixture f{Config()};

  ProcessId NewProcess(const std::string& person) {
    auto pid = f.kernel.processes().CreateProcess(TestSubject(person));
    EXPECT_TRUE(pid.ok()) << pid.status();
    return *pid;
  }
  ProcContext& Ctx(ProcessId pid) { return *f.kernel.processes().Context(pid); }
  Segno Initiate(ProcessId pid, EntryId entry) {
    auto segno = f.kernel.gates().Initiate(Ctx(pid), entry);
    EXPECT_TRUE(segno.ok()) << segno.status();
    return *segno;
  }
  // `pid` writes page `page` of `segno` while running on `cpu`.
  void Touch(ProcessId pid, uint16_t cpu, Segno segno, uint32_t page) {
    f.kernel.ctx().current_cpu = cpu;
    EXPECT_TRUE(f.kernel.gates().Write(Ctx(pid), segno, page * kPageWords, page + 1).ok());
  }
  // The AST slot of the segment `pid` has connected at `segno`.
  uint32_t Slot(ProcessId pid, Segno segno) {
    const PageTable* pt =
        f.kernel.address_spaces().Space(pid)->sdws[segno.value - kSystemSegnoLimit].page_table;
    for (uint32_t slot = 0; slot < f.kernel.segments().ast_slots(); ++slot) {
      AstEntry* entry = f.kernel.segments().Get(slot);
      if (entry != nullptr && &entry->page_table == pt) {
        return slot;
      }
    }
    ADD_FAILURE() << "segno " << segno.value << " is not connected";
    return kNoAst;
  }
  // Page control evicts page `page` of AST slot `slot` while running on
  // `cpu`; returns the connect signals the eviction sent.
  uint64_t Evict(uint32_t slot, uint32_t page, uint16_t cpu) {
    AstEntry* entry = f.kernel.segments().Get(slot);
    EXPECT_TRUE(entry->page_table.ptws[page].in_core);
    f.kernel.ctx().current_cpu = cpu;
    const uint64_t before = Signals();
    EXPECT_TRUE(f.kernel.page_frames()
                    .EvictPage(&entry->page_table, page, entry->pack, entry->vtoc,
                               entry->quota_cell, entry->page_ec)
                    .ok());
    EXPECT_FALSE(entry->page_table.ptws[page].in_core);
    return Signals() - before;
  }
  uint64_t Signals() { return f.kernel.metrics().Get("hw.connect_signals"); }
};

TEST(TargetedShootdown, EvictionSignalsOnlyTheCpuWithTheSpaceLoaded) {
  TargetRig rig;
  const Segno segno = rig.f.MustCreate(">t>private");
  rig.Touch(rig.f.pid, /*cpu=*/0, segno, 0);
  const uint32_t slot = rig.Slot(rig.f.pid, segno);
  // Only CPU 0 has the connecting space loaded: one signal from CPU 2 ...
  EXPECT_EQ(rig.Evict(slot, 0, /*cpu=*/2), 1u);
  // ... and none from CPU 0 itself, whose own cache is no remote signal.
  rig.Touch(rig.f.pid, /*cpu=*/0, segno, 0);
  EXPECT_EQ(rig.Evict(slot, 0, /*cpu=*/0), 0u);
  const auto findings = rig.f.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(TargetedShootdown, SharedSegmentSignalsEveryCpuWithAConnectingSpaceLoaded) {
  TargetRig rig;
  PathWalker walker(&rig.f.kernel.gates());
  auto entry = walker.CreateSegment(*rig.f.ctx, ">t>shared", WorldAcl(), Label::SystemLow());
  ASSERT_TRUE(entry.ok());
  const ProcessId other = rig.NewProcess("Smith");
  const Segno mine = rig.Initiate(rig.f.pid, *entry);
  const Segno theirs = rig.Initiate(other, *entry);
  rig.Touch(rig.f.pid, /*cpu=*/0, mine, 1);
  rig.Touch(other, /*cpu=*/1, theirs, 1);
  const uint32_t slot = rig.Slot(rig.f.pid, mine);
  ASSERT_EQ(slot, rig.Slot(other, theirs));
  EXPECT_EQ(rig.Evict(slot, 1, /*cpu=*/3), 2u);
  rig.Touch(other, /*cpu=*/1, theirs, 1);
  EXPECT_EQ(rig.Evict(slot, 1, /*cpu=*/1), 1u);  // CPU 0 still has a space loaded
  const auto findings = rig.f.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(TargetedShootdown, SpaceLatchedOnACpuItsProcessLeftIsStillSignalled) {
  TargetRig rig;
  const Segno segno = rig.f.MustCreate(">t>moved");
  rig.Touch(rig.f.pid, /*cpu=*/1, segno, 2);
  // The process moves to CPU 0; CPU 1's DSBR (and its cached translation)
  // stay latched until something else is loaded there.
  rig.Touch(rig.f.pid, /*cpu=*/0, segno, 2);
  DescriptorSegment* space = rig.f.kernel.address_spaces().Space(rig.f.pid);
  ASSERT_EQ(rig.f.kernel.ctx().cpus.cpu(1).user_ds(), space);
  EXPECT_EQ(space->loaded_on, 0b11u);
  EXPECT_EQ(rig.Evict(rig.Slot(rig.f.pid, segno), 2, /*cpu=*/0), 1u);
  const auto findings = rig.f.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(TargetedShootdown, DeactivatingAnUnconnectedSegmentSignalsNobody) {
  TargetRig rig;
  const Segno segno = rig.f.MustCreate(">t>done");
  rig.Touch(rig.f.pid, /*cpu=*/1, segno, 0);
  rig.Touch(rig.f.pid, /*cpu=*/1, segno, 3);
  const uint32_t slot = rig.Slot(rig.f.pid, segno);
  ASSERT_TRUE(rig.f.kernel.gates().Terminate(*rig.f.ctx, segno).ok());
  ASSERT_NE(rig.f.kernel.segments().Get(slot), nullptr);
  ASSERT_EQ(rig.f.kernel.segments().Get(slot)->connections, 0u);
  rig.f.kernel.ctx().current_cpu = 2;
  const uint64_t before = rig.Signals();
  // Deactivation evicts both resident pages and invalidates the table.
  ASSERT_TRUE(rig.f.kernel.segments().Deactivate(slot).ok());
  EXPECT_EQ(rig.Signals(), before);
  const auto findings = rig.f.kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(TargetedShootdown, AuditCatchesBookkeepingOutOfStep) {
  TargetRig rig;
  const Segno segno = rig.f.MustCreate(">t>audited");
  rig.Touch(rig.f.pid, /*cpu=*/1, segno, 0);
  Kernel& kernel = rig.f.kernel;
  auto has = [&](const std::string& needle) {
    for (const std::string& finding : kernel.AuditIntegrity()) {
      if (finding.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  auto findings = kernel.AuditIntegrity();
  ASSERT_TRUE(findings.empty()) << findings.front();
  DescriptorSegment* space = kernel.address_spaces().Space(rig.f.pid);
  // A loaded-on mask that disagrees with the DSBRs.
  space->loaded_on ^= 0b100;
  EXPECT_TRUE(has("loaded-on mask"));
  space->loaded_on ^= 0b100;
  // A page table whose connected-space list disagrees with its SDWs.
  PageTable& pt = kernel.segments().Get(rig.Slot(rig.f.pid, segno))->page_table;
  pt.connected.push_back(space);
  EXPECT_TRUE(has("connected spaces"));
  pt.connected.pop_back();
  // A cached translation the CPU's loaded space no longer reaches.
  Sdw& sdw = space->sdws[segno.value - kSystemSegnoLimit];
  sdw.present = false;
  EXPECT_TRUE(has("cpu 1: associative entry"));
  sdw.present = true;
  findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
}

// ---------------------------------------------------------------------------
// Randomized: the targeted pool against a reference that invalidates every
// processor directly.
// ---------------------------------------------------------------------------

// One machine of the comparison: a pool with its own spaces and page tables
// (a PTW's presence count spans every cache holding it, so the two machines
// must not share descriptors).
struct ShootdownMachine {
  static constexpr uint32_t kSpaces = 6;
  static constexpr uint32_t kTables = 5;
  static constexpr uint32_t kPages = 4;
  static constexpr uint16_t kSegnos = 4;

  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  std::vector<PageTable> tables;
  std::vector<DescriptorSegment> spaces;
  ProcessorPool pool;

  explicit ShootdownMachine(uint16_t cpus)
      : tables(kTables),
        spaces(kSpaces),
        pool(cpus,
             HwFeatures{.second_dsbr = true,
                        .associative_memory = true,
                        .associative_entries = 8},
             &cost, &metrics) {
    pool.set_connect_cost(1);
    for (PageTable& pt : tables) {
      pt.ptws.assign(kPages, Ptw{});
    }
    for (DescriptorSegment& ds : spaces) {
      ds.sdws.assign(kSegnos, Sdw{});
    }
  }
};

void CompareTargetedWithBroadcast(uint16_t cpus, uint64_t seed) {
  using M = ShootdownMachine;
  M targeted(cpus);
  M reference(cpus);
  Rng rng(seed);
  uint64_t accesses = 0;
  uint64_t evictions = 0;
  uint64_t targeted_signals = 0;
  uint64_t broadcast_signals = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    const uint16_t cpu = static_cast<uint16_t>(rng.NextBelow(cpus));
    if (op < 10) {  // bind a space (or none) to the CPU's user DSBR
      const uint64_t s = rng.NextBelow(M::kSpaces + 1);
      for (M* m : {&targeted, &reference}) {
        m->pool.cpu(cpu).set_user_ds(s == M::kSpaces ? nullptr : &m->spaces[s]);
      }
    } else if (op < 60) {  // a reference
      const Segno segno(static_cast<uint16_t>(kSystemSegnoLimit + rng.NextBelow(M::kSegnos)));
      const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(M::kPages)) * kPageWords + 5;
      const AccessMode mode = rng.NextBool(0.3) ? AccessMode::kWrite : AccessMode::kRead;
      const AccessResult a = targeted.pool.cpu(cpu).Access(segno, offset, mode, 4);
      const AccessResult b = reference.pool.cpu(cpu).Access(segno, offset, mode, 4);
      ASSERT_EQ(a.ok, b.ok) << "step " << step;
      ASSERT_EQ(a.fault.kind, b.fault.kind) << "step " << step;
      ASSERT_EQ(a.abs_addr, b.abs_addr) << "step " << step;
      ASSERT_EQ(targeted.metrics.Get("hw.assoc_hits"), reference.metrics.Get("hw.assoc_hits"))
          << "step " << step;
      ++accesses;
    } else if (op < 72) {  // connect a segno of a space to a page table
      const uint64_t s = rng.NextBelow(M::kSpaces);
      const uint16_t index = static_cast<uint16_t>(rng.NextBelow(M::kSegnos));
      const uint64_t t = rng.NextBelow(M::kTables);
      const bool write = rng.NextBool(0.5);
      if (targeted.spaces[s].sdws[index].present) {
        continue;
      }
      for (M* m : {&targeted, &reference}) {
        m->spaces[s].sdws[index] = Sdw{true, &m->tables[t], M::kPages, true, write, false, 4};
      }
      targeted.tables[t].connected.push_back(&targeted.spaces[s]);
    } else if (op < 80) {  // disconnect: the segno clear stays a broadcast
      const uint64_t s = rng.NextBelow(M::kSpaces);
      const uint16_t index = static_cast<uint16_t>(rng.NextBelow(M::kSegnos));
      Sdw& sdw = targeted.spaces[s].sdws[index];
      if (!sdw.present) {
        continue;
      }
      auto& connected = sdw.page_table->connected;
      connected.erase(std::find(connected.begin(), connected.end(), &targeted.spaces[s]));
      const Segno segno(static_cast<uint16_t>(kSystemSegnoLimit + index));
      for (M* m : {&targeted, &reference}) {
        m->spaces[s].sdws[index] = Sdw{};
      }
      targeted.pool.ClearAssociative(segno);
      for (uint16_t k = 0; k < cpus; ++k) {
        reference.pool.cpu(k).ClearAssociative(segno);
      }
    } else if (op < 92) {  // evict a resident page
      const uint64_t t = rng.NextBelow(M::kTables);
      const uint64_t p = rng.NextBelow(M::kPages);
      if (!targeted.tables[t].ptws[p].in_core) {
        continue;
      }
      for (M* m : {&targeted, &reference}) {
        m->tables[t].ptws[p].in_core = false;
      }
      const uint64_t before = targeted.metrics.Get("hw.connect_signals");
      targeted.pool.InvalidateAssociative(&targeted.tables[t].ptws[p], targeted.tables[t], cpu);
      const uint64_t sent = targeted.metrics.Get("hw.connect_signals") - before;
      for (uint16_t k = 0; k < cpus; ++k) {
        reference.pool.cpu(k).InvalidateAssociative(&reference.tables[t].ptws[p]);
      }
      ASSERT_LE(sent, cpus - 1u) << "step " << step;
      targeted_signals += sent;
      broadcast_signals += cpus - 1u;
      ++evictions;
    } else if (op < 95) {  // invalidate a whole table (deactivation)
      const uint64_t t = rng.NextBelow(M::kTables);
      const uint64_t before = targeted.metrics.Get("hw.connect_signals");
      targeted.pool.InvalidateAssociative(targeted.tables[t], cpu);
      ASSERT_LE(targeted.metrics.Get("hw.connect_signals") - before, cpus - 1u);
      for (uint16_t k = 0; k < cpus; ++k) {
        reference.pool.cpu(k).InvalidateAssociative(&reference.tables[t]);
      }
    } else {  // bring a page in, at a frame it may not have had before
      const uint64_t t = rng.NextBelow(M::kTables);
      const uint64_t p = rng.NextBelow(M::kPages);
      const uint32_t frame = static_cast<uint32_t>(rng.NextBelow(64));
      for (M* m : {&targeted, &reference}) {
        Ptw& ptw = m->tables[t].ptws[p];
        ptw.in_core = true;
        ptw.unallocated = false;
        ptw.frame = frame;
      }
    }
  }
  // Same cached translations everywhere, and every one of them reachable.
  for (uint16_t k = 0; k < cpus; ++k) {
    auto a = targeted.pool.cpu(k).associative().slots();
    auto b = reference.pool.cpu(k).associative().slots();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].valid, b[i].valid) << "cpu " << k << " slot " << i;
      if (a[i].valid) {
        EXPECT_EQ(a[i].key, b[i].key) << "cpu " << k << " slot " << i;
      }
    }
  }
  std::vector<std::string> findings;
  targeted.pool.AuditAssociative(&findings);
  EXPECT_TRUE(findings.empty()) << findings.front();
  EXPECT_GT(accesses, 5000u);
  EXPECT_GT(evictions, 500u);
  EXPECT_GT(targeted.metrics.Get("hw.assoc_hits"), 0u);
  EXPECT_LT(targeted_signals, broadcast_signals);
}

TEST(TargetedShootdown, RandomizedAgreesWithBroadcastAtFourCpus) {
  CompareTargetedWithBroadcast(4, 1977);
}

TEST(TargetedShootdown, RandomizedAgreesWithBroadcastAtSixteenCpus) {
  CompareTargetedWithBroadcast(16, 7349);
}

}  // namespace
}  // namespace mks
