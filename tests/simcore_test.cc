// Tests for the flattened simulator core (the host-throughput refactor).
//
// The refactor's contract is byte-identical virtual-time output: the
// tournament-tree dispatcher and the lazy page fill are host-side
// reorganizations only.  Two layers of evidence:
//  * unit — the O(1) min-structure agrees with a reference linear scan under
//    arbitrary Accrue/AdvanceAll/AlignAll sequences (the reference IS the
//    old dispatcher, so this is old-vs-new selection);
//  * end-to-end — double runs of the P11/P12/P13 workload shapes at 1, 4,
//    and 16 CPUs produce byte-identical counter snapshots and trace exports.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/sim/cpu_sched.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// CpuInterleave: tournament tree vs the reference linear scan.
// ---------------------------------------------------------------------------

// The pre-refactor dispatcher: per-CPU absolute clocks, linear scans.
struct ReferenceInterleave {
  explicit ReferenceInterleave(uint16_t n) : locals(n, 0) {}

  uint16_t NextCpu() const {
    uint16_t best = 0;
    for (uint16_t k = 1; k < locals.size(); ++k) {
      if (locals[k] < locals[best]) {
        best = k;
      }
    }
    return best;
  }
  void Accrue(uint16_t cpu, Cycles delta) { locals[cpu] += delta; }
  void AdvanceAll(Cycles delta) {
    for (Cycles& c : locals) {
      c += delta;
    }
  }
  void AlignAll() {
    const Cycles m = Makespan();
    for (Cycles& c : locals) {
      c = m;
    }
  }
  Cycles Makespan() const {
    Cycles m = 0;
    for (Cycles c : locals) {
      m = std::max(m, c);
    }
    return m;
  }

  std::vector<Cycles> locals;
};

void ExpectAgreement(const CpuInterleave& tree, const ReferenceInterleave& ref) {
  ASSERT_EQ(tree.count(), ref.locals.size());
  EXPECT_EQ(tree.NextCpu(), ref.NextCpu());
  EXPECT_EQ(tree.Makespan(), ref.Makespan());
  for (uint16_t k = 0; k < tree.count(); ++k) {
    EXPECT_EQ(tree.local_now(k), ref.locals[k]) << "cpu " << k;
  }
}

TEST(CpuInterleaveTree, MatchesReferenceScanUnderMixedOps) {
  for (uint16_t cpus : {1, 2, 3, 4, 7, 8, 16, 40, 64}) {
    Metrics metrics;
    CpuInterleave tree(cpus, &metrics);
    ReferenceInterleave ref(cpus);
    std::mt19937 rng(12345u + cpus);
    for (int step = 0; step < 500; ++step) {
      const uint32_t pick = rng() % 100;
      if (pick < 70) {
        const uint16_t cpu = static_cast<uint16_t>(rng() % cpus);
        const Cycles delta = rng() % 1000;
        tree.Accrue(cpu, delta);
        ref.Accrue(cpu, delta);
      } else if (pick < 85) {
        const Cycles delta = rng() % 500;
        tree.AdvanceAll(delta);
        ref.AdvanceAll(delta);
      } else {
        tree.AlignAll();
        ref.AlignAll();
      }
      ExpectAgreement(tree, ref);
    }
  }
}

TEST(CpuInterleaveTree, TiesResolveToLowestIndex) {
  Metrics metrics;
  CpuInterleave tree(4, &metrics);
  EXPECT_EQ(tree.NextCpu(), 0u);  // all zero: lowest index wins
  tree.Accrue(0, 10);
  EXPECT_EQ(tree.NextCpu(), 1u);
  tree.Accrue(1, 10);
  tree.Accrue(2, 10);
  tree.Accrue(3, 10);
  EXPECT_EQ(tree.NextCpu(), 0u);  // tied again at 10
}

TEST(CpuInterleaveTree, AlignAllSynchronizesToMakespan) {
  Metrics metrics;
  CpuInterleave tree(3, &metrics);
  tree.Accrue(1, 100);
  tree.Accrue(2, 40);
  EXPECT_EQ(tree.Makespan(), 100u);
  tree.AlignAll();
  for (uint16_t k = 0; k < 3; ++k) {
    EXPECT_EQ(tree.local_now(k), 100u);
  }
  EXPECT_EQ(tree.NextCpu(), 0u);
  tree.AdvanceAll(7);
  EXPECT_EQ(tree.Makespan(), 107u);
  EXPECT_EQ(tree.local_now(2), 107u);
}

// ---------------------------------------------------------------------------
// End-to-end: double-run byte-equality across the P11/P12/P13 shapes.
// ---------------------------------------------------------------------------

struct Snapshot {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::string trace_json;
  Cycles clock = 0;
  Cycles makespan = 0;
  bool ok = false;

  friend bool operator==(const Snapshot& a, const Snapshot& b) {
    return a.ok && b.ok && a.counters == b.counters && a.trace_json == b.trace_json &&
           a.clock == b.clock && a.makespan == b.makespan;
  }
};

enum class Shape { kFaultStorm, kSharedStorm, kRunQueueMix };

// One run of a P11/P12/P13-shaped workload, everything observable captured.
Snapshot RunShape(Shape shape, uint16_t cpus) {
  Snapshot out;
  KernelConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.trace = true;
  if (shape == Shape::kSharedStorm) {
    config.async_paging = true;  // P12: in-flight transfers keep PTWs locked
  }
  if (shape == Shape::kRunQueueMix) {
    config.sharded_runqueues = true;  // P13: sharded queues + stealing,
    config.steal = true;              // charged interconnect
    config.connect_cost = 40;
  }
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  PathWalker walker(&kernel.gates());
  const uint32_t processes = shape == Shape::kFaultStorm ? 4 : 6;
  std::vector<ProcessId> pids;
  std::vector<ProcContext*> ctxs;
  for (uint32_t i = 0; i < processes; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
    if (!pid.ok()) {
      return out;
    }
    pids.push_back(*pid);
    ctxs.push_back(kernel.processes().Context(*pid));
  }
  if (shape == Shape::kSharedStorm) {
    // P12: everyone sweeps one shared segment, staggered starts.
    constexpr uint32_t kSharedPages = 24;
    auto entry = walker.CreateSegment(*ctxs[0], ">work>shared", WorldAcl(), Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    for (uint32_t i = 0; i < processes; ++i) {
      auto segno = kernel.gates().Initiate(*ctxs[i], *entry);
      if (!segno.ok()) {
        return out;
      }
      if (i == 0) {
        for (uint32_t p = 0; p < kSharedPages; ++p) {
          (void)kernel.gates().Write(*ctxs[0], *segno, p * kPageWords, p + 1);
        }
      }
      std::vector<UserOp> program;
      const uint32_t start = i * (kSharedPages / processes);
      for (uint32_t r = 0; r < 2; ++r) {
        for (uint32_t p = 0; p < kSharedPages; ++p) {
          program.push_back(UserOp::Read(*segno, ((start + p) % kSharedPages) * kPageWords));
        }
      }
      (void)kernel.processes().SetProgram(pids[i], std::move(program));
    }
  } else {
    for (uint32_t i = 0; i < processes; ++i) {
      auto entry = walker.CreateSegment(*ctxs[i], ">work>p" + std::to_string(i), WorldAcl(),
                                        Label::SystemLow());
      if (!entry.ok()) {
        return out;
      }
      auto segno = kernel.gates().Initiate(*ctxs[i], *entry);
      if (!segno.ok()) {
        return out;
      }
      std::vector<UserOp> program;
      if (shape == Shape::kFaultStorm) {
        // P11: 4 x 24 pages > 64 frames, every touch faults.
        for (uint32_t p = 0; p < 24; ++p) {
          (void)kernel.gates().Write(*ctxs[i], *segno, p * kPageWords, p + 1);
        }
        for (uint32_t r = 0; r < 2; ++r) {
          for (uint32_t p = 0; p < 24; ++p) {
            program.push_back(UserOp::Read(*segno, p * kPageWords));
          }
        }
      } else {
        // P13: compute + paged writes, enough churn to exercise the queues.
        for (uint32_t n = 0; n < 60; ++n) {
          if (n % 3 == 0) {
            program.push_back(UserOp::Compute(25));
          } else {
            program.push_back(UserOp::Write(*segno, (n % 8) * kPageWords + n, n * 7 + i));
          }
        }
      }
      (void)kernel.processes().SetProgram(pids[i], std::move(program));
    }
  }
  kernel.ctx().smp.AlignAll();
  if (!kernel.processes().RunUntilQuiescent(8000000).ok()) {
    return out;
  }
  out.counters = kernel.metrics().counters();
  out.trace_json = TraceExporter::Export(kernel.ctx().trace);
  out.clock = kernel.clock().now();
  out.makespan = kernel.ctx().smp.Makespan();
  out.ok = true;
  return out;
}

class ShapeDeterminism : public ::testing::TestWithParam<std::tuple<Shape, uint16_t>> {};

TEST_P(ShapeDeterminism, DoubleRunIsByteIdentical) {
  const auto [shape, cpus] = GetParam();
  const Snapshot a = RunShape(shape, cpus);
  const Snapshot b = RunShape(shape, cpus);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_GT(a.counters.at("hw.translations"), 0u);  // the run did real work
}

std::string ShapeParamName(const ::testing::TestParamInfo<std::tuple<Shape, uint16_t>>& info) {
  const Shape shape = std::get<0>(info.param);
  const char* name = shape == Shape::kFaultStorm    ? "FaultStorm"
                     : shape == Shape::kSharedStorm ? "SharedStorm"
                                                    : "RunQueueMix";
  return std::string(name) + "_" + std::to_string(std::get<1>(info.param)) + "cpu";
}

INSTANTIATE_TEST_SUITE_P(
    P11P12P13, ShapeDeterminism,
    ::testing::Combine(::testing::Values(Shape::kFaultStorm, Shape::kSharedStorm,
                                         Shape::kRunQueueMix),
                       ::testing::Values(uint16_t{1}, uint16_t{4}, uint16_t{16})),
    ShapeParamName);

}  // namespace
}  // namespace mks
