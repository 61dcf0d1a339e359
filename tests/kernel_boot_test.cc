// Boot and end-to-end smoke tests of the assembled kernel.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"

namespace mks {
namespace {

Subject UserSubject(const std::string& person = "Jones", uint8_t level = 0) {
  return Subject{Principal{person, "Projx"}, Label(level, 0), /*ring=*/4};
}

Acl OpenAcl() {
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  return acl;
}

TEST(KernelBoot, BootSucceeds) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());
  EXPECT_TRUE(kernel.booted());
  EXPECT_TRUE(kernel.core_segments().sealed());
  EXPECT_GT(kernel.page_frames().free_frames(), 0u);
}

TEST(KernelBoot, CoreSegmentsAreFixedAfterBoot) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());
  auto extra = kernel.core_segments().Allocate("late", 1);
  EXPECT_EQ(extra.code(), Code::kFailedPrecondition);
}

TEST(KernelBoot, ShutdownDrainsPidsPastTheFourThousandthProcess) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());
  // Without slab pooling every process gets a fresh pid, so churn carries
  // the live ones past any fixed pid bound.
  for (int i = 0; i < 4099; ++i) {
    auto pid = kernel.processes().CreateProcess(UserSubject());
    ASSERT_TRUE(pid.ok()) << pid.status();
    ASSERT_TRUE(kernel.processes().DestroyProcess(*pid).ok());
  }
  auto live = kernel.processes().CreateProcess(UserSubject());
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->value, 4100u);
  const auto findings = kernel.AuditIntegrity();
  EXPECT_TRUE(findings.empty()) << findings.front();
  const Status shutdown = kernel.Shutdown();
  EXPECT_TRUE(shutdown.ok()) << shutdown;
  EXPECT_EQ(kernel.processes().process_count(), 0u);
}

TEST(KernelEndToEnd, CreateWriteReadSegment) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());

  auto pid = kernel.processes().CreateProcess(UserSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  ASSERT_NE(ctx, nullptr);

  KernelGates& gates = kernel.gates();
  auto seg = gates.CreateSegment(*ctx, gates.RootId(), "alpha", OpenAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok()) << seg.status();

  auto segno = gates.Initiate(*ctx, *seg);
  ASSERT_TRUE(segno.ok()) << segno.status();

  ASSERT_TRUE(gates.Write(*ctx, *segno, 0, 0xdeadbeef).ok());
  ASSERT_TRUE(gates.Write(*ctx, *segno, 5000, 42).ok());  // crosses pages, grows
  auto v0 = gates.Read(*ctx, *segno, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*v0, 0xdeadbeefu);
  auto v1 = gates.Read(*ctx, *segno, 5000);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 42u);
  // An untouched word in a grown page reads zero.
  auto v2 = gates.Read(*ctx, *segno, 5001);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 0u);
}

TEST(KernelEndToEnd, SearchFindsCreatedEntry) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());
  auto pid = kernel.processes().CreateProcess(UserSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  KernelGates& gates = kernel.gates();

  auto seg = gates.CreateSegment(*ctx, gates.RootId(), "beta", OpenAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto found = gates.Search(*ctx, gates.RootId(), "beta");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->value, seg->value);

  auto missing = gates.Search(*ctx, gates.RootId(), "gamma");
  EXPECT_EQ(missing.code(), Code::kNoEntry);
}

TEST(KernelEndToEnd, DataSurvivesDeactivationCycles) {
  KernelConfig config;
  config.memory_frames = 64;  // small memory: forces paging
  config.ast_slots = 8;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  auto pid = kernel.processes().CreateProcess(UserSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  KernelGates& gates = kernel.gates();

  // Create several segments and fill pages, cycling the small AST/memory.
  std::vector<Segno> segnos;
  for (int i = 0; i < 4; ++i) {
    auto seg = gates.CreateSegment(*ctx, gates.RootId(), "f" + std::to_string(i), OpenAcl(),
                                   Label::SystemLow());
    ASSERT_TRUE(seg.ok()) << seg.status();
    auto segno = gates.Initiate(*ctx, *seg);
    ASSERT_TRUE(segno.ok()) << segno.status();
    segnos.push_back(*segno);
    for (uint32_t p = 0; p < 16; ++p) {
      ASSERT_TRUE(gates.Write(*ctx, *segno, p * kPageWords + 7, 100u * i + p).ok());
    }
  }
  for (int i = 0; i < 4; ++i) {
    for (uint32_t p = 0; p < 16; ++p) {
      auto v = gates.Read(*ctx, segnos[i], p * kPageWords + 7);
      ASSERT_TRUE(v.ok()) << v.status();
      EXPECT_EQ(*v, 100u * i + p);
    }
  }
  EXPECT_GT(kernel.metrics().Get("pfm.evictions"), 0u);
}

TEST(KernelEndToEnd, RuntimeCallsStayInsideDeclaredLattice) {
  KernelConfig config;
  config.memory_frames = 96;
  config.ast_slots = 8;
  Kernel kernel{config};
  ASSERT_TRUE(kernel.Boot().ok());
  auto pid = kernel.processes().CreateProcess(UserSubject());
  ASSERT_TRUE(pid.ok());
  ProcContext* ctx = kernel.processes().Context(*pid);
  KernelGates& gates = kernel.gates();

  auto dir = gates.CreateDirectory(*ctx, gates.RootId(), "sub", OpenAcl(), Label::SystemLow());
  ASSERT_TRUE(dir.ok());
  auto seg = gates.CreateSegment(*ctx, *dir, "data", OpenAcl(), Label::SystemLow());
  ASSERT_TRUE(seg.ok());
  auto segno = gates.Initiate(*ctx, *seg);
  ASSERT_TRUE(segno.ok());
  for (uint32_t p = 0; p < 30; ++p) {
    ASSERT_TRUE(gates.Write(*ctx, *segno, p * kPageWords, p).ok());
  }
  ASSERT_TRUE(gates.Delete(*ctx, *dir, "data").ok());

  const DependencyGraph declared = Kernel::DeclaredLattice();
  EXPECT_TRUE(declared.IsLoopFree());
  const auto undeclared = kernel.tracker().UndeclaredEdges(declared);
  EXPECT_TRUE(undeclared.empty()) << [&] {
    std::string all;
    for (const auto& e : undeclared) {
      all += e + "\n";
    }
    return all;
  }();
}

// A kernel task enters page control afresh, as a fault does, so the paging
// daemons add no call edge from the virtual processor manager.  The
// benchmark's configuration — the paging pipeline, sharded run queues with
// stealing, interconnect costs — runs a paging program to quiescence with
// both daemons working, at 1 and 4 CPUs, synchronous and asynchronous, and
// the observed call structure stays loop-free and inside the lattice.
TEST(KernelEndToEnd, KernelTasksStayInsideDeclaredLattice) {
  for (const bool async : {false, true}) {
    for (const uint16_t cpus : {1, 4}) {
      SCOPED_TRACE(std::string(async ? "async" : "sync") + " cpus " + std::to_string(cpus));
      KernelConfig config;
      config.memory_frames = 96;
      config.cpu_count = cpus;
      config.async_paging = async;
      config.paging_pipeline = PagingPipeline::Full();
      config.sharded_runqueues = true;
      config.steal = true;
      config.connect_cost = 400;
      Kernel kernel{config};
      ASSERT_TRUE(kernel.Boot().ok());
      KernelGates& gates = kernel.gates();
      for (int i = 0; i < 4; ++i) {
        auto pid = kernel.processes().CreateProcess(UserSubject("P" + std::to_string(i)));
        ASSERT_TRUE(pid.ok());
        ProcContext* ctx = kernel.processes().Context(*pid);
        auto seg = gates.CreateSegment(*ctx, gates.RootId(), "s" + std::to_string(i), OpenAcl(),
                                       Label::SystemLow());
        ASSERT_TRUE(seg.ok());
        auto segno = gates.Initiate(*ctx, *seg);
        ASSERT_TRUE(segno.ok());
        // 4 x 24 written pages against the pool: every process writes its
        // sweep, then reads it back in order, faulting throughout.
        std::vector<UserOp> program;
        for (uint32_t p = 0; p < 24; ++p) {
          program.push_back(UserOp::Write(*segno, p * kPageWords, p + 1));
        }
        for (uint32_t p = 0; p < 24; ++p) {
          program.push_back(UserOp::Read(*segno, p * kPageWords));
        }
        ASSERT_TRUE(kernel.processes().SetProgram(*pid, std::move(program)).ok());
      }
      ASSERT_TRUE(kernel.processes().RunUntilQuiescent(1000000).ok());
      for (ProcessId pid : kernel.processes().LivePids()) {
        EXPECT_EQ(kernel.processes().state(pid), ProcState::kDone) << pid.value;
      }
      // Both daemons ran: the writer cleaned, and under async paging the
      // page-I/O daemon completed posted reads.
      EXPECT_GT(kernel.metrics().Get("pfm.precleaned_frames"), 0u);
      if (async) {
        EXPECT_GT(kernel.metrics().Get("pfm.io_completions"), 0u);
      }
      EXPECT_TRUE(kernel.tracker().observed().IsLoopFree());
      const auto undeclared = kernel.tracker().UndeclaredEdges(Kernel::DeclaredLattice());
      EXPECT_TRUE(undeclared.empty()) << undeclared.front();
      EXPECT_TRUE(kernel.AuditIntegrity().empty());
    }
  }
}

// The audit holds the kernel to its lattice too: page control calling up
// into segment control, an edge the lattice does not declare, is a finding
// that names the edge.
TEST(KernelEndToEnd, AuditNamesAnUndeclaredCallEdge) {
  Kernel kernel{KernelConfig{}};
  ASSERT_TRUE(kernel.Boot().ok());
  ASSERT_TRUE(kernel.AuditIntegrity().empty());
  {
    CallTracker& tracker = kernel.tracker();
    CallTracker::Scope page_control(&tracker, tracker.Register(module_names::kPageFrame));
    EXPECT_EQ(kernel.segments().Deactivate(UINT32_MAX).code(), Code::kInvalidArgument);
  }
  const std::vector<std::string> findings = kernel.AuditIntegrity();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("page_frame_manager -> segment_manager"), std::string::npos)
      << findings[0];
}

}  // namespace
}  // namespace mks
