// Tests for the two-level process implementation: scheduling, blocking on
// asynchronous paging, and the real-memory upward signalling path.
#include <gtest/gtest.h>

#include "tests/kernel_fixture.h"

namespace mks {
namespace {

std::vector<UserOp> TouchProgram(Segno segno, uint32_t pages, uint32_t rounds) {
  std::vector<UserOp> program;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t p = 0; p < pages; ++p) {
      program.push_back(UserOp::Write(segno, p * kPageWords + r, r * 100 + p));
      program.push_back(UserOp::Compute(20));
    }
  }
  return program;
}

TEST(Uproc, SingleProcessRunsToCompletion) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">work>data");
  ASSERT_TRUE(fx.kernel.processes().SetProgram(fx.pid, TouchProgram(segno, 4, 3)).ok());
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(100000).ok());
  EXPECT_EQ(fx.kernel.processes().state(fx.pid), ProcState::kDone);
  const ProcessStats& stats = fx.kernel.processes().stats(fx.pid);
  EXPECT_EQ(stats.ops_executed, 24u);
  EXPECT_GT(stats.dispatches, 0u);
}

TEST(Uproc, ManyProcessesShareTheFixedVpPool) {
  KernelConfig config;
  config.vp_count = 4;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  fx.kernel.processes().set_quantum(4);  // programs span several quanta
  std::vector<ProcessId> pids{fx.pid};
  for (int i = 0; i < 7; ++i) {
    auto pid = fx.kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  // Create the shared segment once (the fixture's own initiation is not
  // reused: each process must initiate for itself).
  (void)fx.MustCreate(">work>shared");
  for (ProcessId pid : pids) {
    // Each process needs its own initiation of the shared segment.
    auto entry = fx.kernel.gates().Search(*fx.kernel.processes().Context(pid),
                                          fx.kernel.gates().RootId(), "work");
    ASSERT_TRUE(entry.ok());
    auto file = fx.kernel.gates().Search(*fx.kernel.processes().Context(pid), *entry, "shared");
    ASSERT_TRUE(file.ok());
    auto my_segno =
        fx.kernel.gates().Initiate(*fx.kernel.processes().Context(pid), *file);
    ASSERT_TRUE(my_segno.ok());
    ASSERT_TRUE(
        fx.kernel.processes().SetProgram(pid, TouchProgram(*my_segno, 3, 2)).ok());
  }
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(200000).ok());
  for (ProcessId pid : pids) {
    EXPECT_EQ(fx.kernel.processes().state(pid), ProcState::kDone) << pid.value;
  }
  // More processes than user vps: multiplexing really happened.
  EXPECT_GT(fx.kernel.metrics().Get("vproc.dispatches"),
            static_cast<uint64_t>(pids.size()));
}

TEST(UprocAsync, BlockedProcessesAreWokenThroughTheRealMemoryQueue) {
  KernelConfig config;
  config.async_paging = true;
  config.memory_frames = 48;
  config.ast_slots = 12;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());

  std::vector<ProcessId> pids{fx.pid};
  for (int i = 0; i < 3; ++i) {
    auto pid = fx.kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
    ASSERT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  // Each process gets its own segment; small memory forces paging, so reads
  // of evicted pages block on the posted I/O.
  int i = 0;
  for (ProcessId pid : pids) {
    ProcContext* ctx = fx.kernel.processes().Context(pid);
    PathWalker walker(&fx.kernel.gates());
    auto entry = walker.CreateSegment(*ctx, ">w>f" + std::to_string(i++), WorldAcl(),
                                      Label::SystemLow());
    ASSERT_TRUE(entry.ok());
    auto segno = fx.kernel.gates().Initiate(*ctx, *entry);
    ASSERT_TRUE(segno.ok());
    ASSERT_TRUE(fx.kernel.processes().SetProgram(pid, TouchProgram(*segno, 10, 3)).ok());
  }
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(400000).ok());
  for (ProcessId pid : pids) {
    ASSERT_EQ(fx.kernel.processes().state(pid), ProcState::kDone)
        << fx.kernel.processes().stats(pid).last_error;
  }
  EXPECT_GT(fx.kernel.metrics().Get("pfm.async_reads"), 0u);
  EXPECT_GT(fx.kernel.metrics().Get("pfm.io_completions"), 0u);
  // Some process parked and was re-awakened via the queue.
  uint64_t blocks = 0;
  for (ProcessId pid : pids) {
    blocks += fx.kernel.processes().stats(pid).blocks;
  }
  EXPECT_GT(blocks, 0u);
}

TEST(UprocAsync, IdleTimeIsAccountedWhenAllProcessesWait) {
  KernelConfig config;
  config.async_paging = true;
  config.memory_frames = 64;
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">w>lonely");
  std::vector<UserOp> program;
  for (uint32_t p = 0; p < 12; ++p) {
    program.push_back(UserOp::Write(segno, p * kPageWords, p));
  }
  // Re-read everything after eviction pressure from a second pass.
  for (uint32_t p = 0; p < 12; ++p) {
    program.push_back(UserOp::Read(segno, p * kPageWords));
  }
  ASSERT_TRUE(fx.kernel.processes().SetProgram(fx.pid, std::move(program)).ok());
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(200000).ok());
  EXPECT_EQ(fx.kernel.processes().state(fx.pid), ProcState::kDone);
}

// Async paging with the paging pipeline: demand reads go to the device and
// readahead to the pack request queues, and all of it has completed by the
// time the scheduler reports quiescence.
TEST(UprocAsync, QuiescenceLeavesNoPageIoInFlight) {
  for (const uint16_t cpus : {1, 4}) {
    SCOPED_TRACE(cpus);
    KernelConfig config;
    config.async_paging = true;
    config.paging_pipeline = PagingPipeline::Full();
    config.cpu_count = cpus;
    config.memory_frames = 128;
    KernelFixture fx{config};
    ASSERT_TRUE(fx.boot_status.ok());

    std::vector<ProcessId> pids{fx.pid};
    for (int i = 1; i < 6; ++i) {
      auto pid = fx.kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
      ASSERT_TRUE(pid.ok());
      pids.push_back(*pid);
    }
    // Each process writes 48 pages of its own segment, more than memory
    // holds for six, then reads the first 30 back in order.
    std::vector<SegmentUid> uids;
    for (size_t i = 0; i < pids.size(); ++i) {
      ProcContext* ctx = fx.kernel.processes().Context(pids[i]);
      PathWalker walker(&fx.kernel.gates());
      auto entry = walker.CreateSegment(*ctx, ">w>s" + std::to_string(i), WorldAcl(),
                                        Label::SystemLow());
      ASSERT_TRUE(entry.ok());
      auto segno = fx.kernel.gates().Initiate(*ctx, *entry);
      ASSERT_TRUE(segno.ok());
      uids.push_back(SegmentUid(entry->value));
      std::vector<UserOp> program;
      for (uint32_t p = 0; p < 48; ++p) {
        program.push_back(UserOp::Write(*segno, p * kPageWords, p + 1));
      }
      for (uint32_t p = 0; p < 30; ++p) {
        program.push_back(UserOp::Read(*segno, p * kPageWords));
      }
      ASSERT_TRUE(fx.kernel.processes().SetProgram(pids[i], std::move(program)).ok());
    }
    ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(1000000).ok());
    for (ProcessId pid : pids) {
      EXPECT_EQ(fx.kernel.processes().state(pid), ProcState::kDone)
          << fx.kernel.processes().stats(pid).last_error;
    }
    EXPECT_GT(fx.kernel.metrics().Get("pfm.async_reads"), 0u);
    EXPECT_GT(fx.kernel.metrics().Get("pfm.prefetch_issued"), 0u);

    PageFrameManager& pfm = fx.kernel.page_frames();
    EXPECT_EQ(pfm.pending_io(), 0u);
    EXPECT_FALSE(pfm.NextReadDue().has_value());
    VolumeControl& volumes = fx.kernel.ctx().volumes;
    for (uint16_t p = 0; p < volumes.pack_count(); ++p) {
      EXPECT_EQ(volumes.pack(PackId(p))->queued_io(), 0u) << "pack " << p;
    }
    for (const SegmentUid uid : uids) {
      const uint32_t ast = fx.kernel.segments().FindIndex(uid);
      if (ast == kNoAst) {
        continue;  // deactivated: nothing of it can be in flight
      }
      const std::vector<Ptw>& ptws = fx.kernel.segments().Get(ast)->page_table.ptws;
      for (size_t page = 0; page < ptws.size(); ++page) {
        EXPECT_FALSE(ptws[page].locked) << "segment " << uid.value << " page " << page;
      }
    }
    EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
    EXPECT_TRUE(fx.kernel.Shutdown().ok());
  }
}

// What parking processes on one user eventcount, advancing it once and
// running the survivors to the end leaves behind.
struct ParkRun {
  Code parking_run = Code::kOk;          // the run in which everyone parks
  std::vector<ProcState> parked_states;  // after that run
  std::vector<ProcState> states;         // after the advance
  std::vector<Code> errors;
  size_t waiters_left = 0;
  std::vector<std::string> audit_parked;  // with the survivors parked
  std::vector<std::string> audit_woken;   // after the advance woke them
  bool shutdown_ok = false;
  Cycles clock = 0;
  std::map<std::string, uint64_t, std::less<>> counters;
};

void ParkAndWake(const KernelConfig& config, int parked, ParkRun* out) {
  KernelFixture fx{config};
  ASSERT_TRUE(fx.boot_status.ok());
  UserProcessManager& procs = fx.kernel.processes();
  auto ec = fx.kernel.gates().CreateEventcount(*fx.ctx, Label::SystemLow());
  ASSERT_TRUE(ec.ok());
  std::vector<ProcessId> pids;
  for (int i = 0; i < parked; ++i) {
    auto pid = procs.CreateProcess(TestSubject("W" + std::to_string(i)));
    ASSERT_TRUE(pid.ok()) << i;
    ASSERT_TRUE(procs.SetProgram(*pid, {UserOp::Await(*ec, 1), UserOp::Compute(10)}).ok());
    pids.push_back(*pid);
  }
  // Nothing can advance the count from inside.
  out->parking_run = procs.RunUntilQuiescent(100000).code();
  for (ProcessId pid : pids) {
    out->parked_states.push_back(procs.state(pid));
  }
  out->audit_parked = fx.kernel.AuditIntegrity();
  ASSERT_TRUE(fx.kernel.gates().AdvanceEventcount(*fx.ctx, *ec).ok());
  EXPECT_TRUE(procs.RunUntilQuiescent(100000).ok());
  for (ProcessId pid : pids) {
    out->states.push_back(procs.state(pid));
    out->errors.push_back(procs.stats(pid).last_error.code());
  }
  out->waiters_left = fx.kernel.ctx().eventcounts.WaiterCount(*ec);
  out->audit_woken = fx.kernel.AuditIntegrity();
  out->clock = fx.kernel.clock().now();
  out->counters = fx.kernel.metrics().counters();
  out->shutdown_ok = fx.kernel.Shutdown().ok();
}

// The real-memory queue holds one page of messages, fewer than the
// processes one advance can satisfy.  A wakeup that does not fit waits for
// the drain that makes room, so every parked process wakes.
TEST(UprocWake, AFullQueueLosesNoWakeup) {
  KernelConfig config;
  config.memory_frames = 1024;
  config.ast_slots = 512;  // every parked process keeps its state segment active
  config.vtoc_slots_per_pack = 1024;
  ParkRun run;
  ASSERT_NO_FATAL_FAILURE(ParkAndWake(config, 400, &run));
  EXPECT_EQ(run.parking_run, Code::kFailedPrecondition);
  for (size_t i = 0; i < run.states.size(); ++i) {
    EXPECT_EQ(run.parked_states[i], ProcState::kBlocked) << i;
    EXPECT_EQ(run.states[i], ProcState::kDone) << i;
  }
  EXPECT_EQ(run.waiters_left, 0u);
  EXPECT_TRUE(run.audit_woken.empty());
  EXPECT_TRUE(run.shutdown_ok);
}

// Plain parking meets ROADMAP item 8's exhausted AST: a parked process keeps
// its state segment active, so with the default 64 AST slots not all of 100
// parked processes fit.  The surplus aborts with a clean resource-exhausted
// status at dispatch, the rest wake and finish, the kernel stays consistent,
// and the outcome is deterministic.
TEST(UprocWake, ParkingPastTheAstAbortsTheSurplusCleanly) {
  ParkRun run;
  ASSERT_NO_FATAL_FAILURE(ParkAndWake(KernelConfig{}, 100, &run));
  size_t aborted = 0;
  for (size_t i = 0; i < run.states.size(); ++i) {
    if (run.states[i] == ProcState::kAborted) {
      ++aborted;
      EXPECT_EQ(run.errors[i], Code::kResourceExhausted) << i;
    } else {
      EXPECT_EQ(run.states[i], ProcState::kDone) << i;
    }
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_TRUE(run.audit_parked.empty()) << run.audit_parked.front();
  EXPECT_TRUE(run.audit_woken.empty()) << run.audit_woken.front();
  EXPECT_TRUE(run.shutdown_ok);

  ParkRun again;
  ASSERT_NO_FATAL_FAILURE(ParkAndWake(KernelConfig{}, 100, &again));
  EXPECT_EQ(again.states, run.states);
  EXPECT_EQ(again.errors, run.errors);
  EXPECT_EQ(again.clock, run.clock);
  EXPECT_EQ(again.counters, run.counters);
}

// A process destroyed while parked withdraws its registration: the count
// forgets it, and a later advance posts nothing for the dead pid — not even
// when slab pooling hands the pid to a successor.
TEST(UprocWake, DestroyingAParkedProcessWithdrawsItsRegistration) {
  for (const bool slab : {false, true}) {
    SCOPED_TRACE(slab ? "slab" : "no slab");
    KernelConfig config;
    config.slab_processes = slab;
    KernelFixture fx{config};
    ASSERT_TRUE(fx.boot_status.ok());
    UserProcessManager& procs = fx.kernel.processes();
    const EventcountTable& ecs = fx.kernel.ctx().eventcounts;
    auto ec = fx.kernel.gates().CreateEventcount(*fx.ctx, Label::SystemLow());
    ASSERT_TRUE(ec.ok());
    auto parked = procs.CreateProcess(TestSubject("Parked"));
    ASSERT_TRUE(parked.ok());
    ASSERT_TRUE(procs.SetProgram(*parked, {UserOp::Await(*ec, 1)}).ok());
    EXPECT_EQ(procs.RunUntilQuiescent(1000).code(), Code::kFailedPrecondition);
    ASSERT_EQ(procs.state(*parked), ProcState::kBlocked);
    EXPECT_EQ(ecs.WaiterCount(*ec), 1u);

    ASSERT_TRUE(procs.DestroyProcess(*parked).ok());
    EXPECT_EQ(ecs.WaiterCount(*ec), 0u);
    auto successor = procs.CreateProcess(TestSubject("Successor"));
    ASSERT_TRUE(successor.ok());
    EXPECT_EQ(*successor == *parked, slab);
    ASSERT_TRUE(procs.SetProgram(*successor, {UserOp::Compute(10)}).ok());
    const uint64_t wakeups = fx.kernel.metrics().Get("sync.wakeups");
    ASSERT_TRUE(fx.kernel.gates().AdvanceEventcount(*fx.ctx, *ec).ok());
    EXPECT_EQ(fx.kernel.metrics().Get("sync.wakeups"), wakeups);
    ASSERT_TRUE(procs.RunUntilQuiescent(1000).ok());
    EXPECT_EQ(procs.state(*successor), ProcState::kDone);
    EXPECT_EQ(procs.stats(*successor).blocks, 0u);
    EXPECT_TRUE(fx.kernel.AuditIntegrity().empty());
    EXPECT_TRUE(fx.kernel.Shutdown().ok());
  }
}

TEST(Uproc, AbortedProcessReportsItsError) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  const Segno segno = fx.MustCreate(">w>bounded");
  std::vector<UserOp> program;
  program.push_back(UserOp::Write(segno, kMaxSegmentPages * kPageWords + 1, 1));
  ASSERT_TRUE(fx.kernel.processes().SetProgram(fx.pid, std::move(program)).ok());
  ASSERT_TRUE(fx.kernel.processes().RunUntilQuiescent(1000).ok());
  EXPECT_EQ(fx.kernel.processes().state(fx.pid), ProcState::kAborted);
  EXPECT_EQ(fx.kernel.processes().stats(fx.pid).last_error.code(), Code::kOutOfBounds);
}

TEST(Uproc, DestroyProcessReleasesResources) {
  KernelFixture fx;
  ASSERT_TRUE(fx.boot_status.ok());
  auto pid = fx.kernel.processes().CreateProcess(TestSubject("Gone"));
  ASSERT_TRUE(pid.ok());
  const size_t before = fx.kernel.address_spaces().space_count();
  ASSERT_TRUE(fx.kernel.processes().DestroyProcess(*pid).ok());
  EXPECT_EQ(fx.kernel.address_spaces().space_count(), before - 1);
  EXPECT_EQ(fx.kernel.processes().DestroyProcess(*pid).code(), Code::kNotFound);
}

}  // namespace
}  // namespace mks
