// P2 — the reference name manager extraction.  Paper: "The name space
// manager ran somewhat faster" once moved to the user ring: a lookup became
// an ordinary procedure call into per-process data instead of a trip through
// a kernel gate into a shared kernel table.
#include <benchmark/benchmark.h>

#include "src/baseline/supervisor.h"
#include "src/fs/ref_name.h"
#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr int kNames = 128;

void BM_BaselineInKernelLookup(benchmark::State& state) {
  MonolithicSupervisor sup{BaselineConfig{}};
  (void)sup.Boot();
  auto pid = sup.CreateProcess();
  for (int i = 0; i < kNames; ++i) {
    (void)sup.NameBind(*pid, "name" + std::to_string(i), SegmentUid(100 + i));
  }
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const Cycles before = sup.clock().now();
    benchmark::DoNotOptimize(sup.NameLookup(*pid, "name" + std::to_string(i++ % kNames)));
    cycles += sup.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BaselineInKernelLookup);

void BM_ExtractedUserRingLookup(benchmark::State& state) {
  BenchKernel fx;
  ReferenceNameManager names(&fx.kernel.ctx());
  for (int i = 0; i < kNames; ++i) {
    (void)names.Bind(fx.pid, "name" + std::to_string(i), Segno(70 + i));
  }
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const Cycles before = fx.kernel.clock().now();
    benchmark::DoNotOptimize(names.Resolve(fx.pid, "name" + std::to_string(i++ % kNames)));
    cycles += fx.kernel.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExtractedUserRingLookup);

void BM_BaselineBind(benchmark::State& state) {
  MonolithicSupervisor sup{BaselineConfig{}};
  (void)sup.Boot();
  auto pid = sup.CreateProcess();
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const Cycles before = sup.clock().now();
    benchmark::DoNotOptimize(sup.NameBind(*pid, "n" + std::to_string(i++), SegmentUid(5)));
    cycles += sup.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BaselineBind);

void BM_ExtractedBind(benchmark::State& state) {
  BenchKernel fx;
  ReferenceNameManager names(&fx.kernel.ctx());
  Cycles cycles = 0;
  int i = 0;
  for (auto _ : state) {
    const Cycles before = fx.kernel.clock().now();
    benchmark::DoNotOptimize(names.Bind(fx.pid, "n" + std::to_string(i++), Segno(70)));
    cycles += fx.kernel.clock().now() - before;
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExtractedBind);

// Deterministic sim-cycle runs for the JSON summary (google-benchmark's
// stdout counters are host-run averages; the paper's claim is in sim cycles).
struct NameSimCycles {
  double lookup_baseline = 0;
  double lookup_extracted = 0;
  double bind_baseline = 0;
  double bind_extracted = 0;
};

NameSimCycles MeasureSimCycles(int iters) {
  NameSimCycles r;
  {
    MonolithicSupervisor sup{BaselineConfig{}};
    (void)sup.Boot();
    auto pid = sup.CreateProcess();
    for (int i = 0; i < kNames; ++i) {
      (void)sup.NameBind(*pid, "name" + std::to_string(i), SegmentUid(100 + i));
    }
    Cycles before = sup.clock().now();
    for (int i = 0; i < iters; ++i) {
      (void)sup.NameLookup(*pid, "name" + std::to_string(i % kNames));
    }
    r.lookup_baseline = static_cast<double>(sup.clock().now() - before) / iters;
    before = sup.clock().now();
    for (int i = 0; i < iters; ++i) {
      (void)sup.NameBind(*pid, "b" + std::to_string(i), SegmentUid(5));
    }
    r.bind_baseline = static_cast<double>(sup.clock().now() - before) / iters;
  }
  {
    BenchKernel fx;
    ReferenceNameManager names(&fx.kernel.ctx());
    for (int i = 0; i < kNames; ++i) {
      (void)names.Bind(fx.pid, "name" + std::to_string(i), Segno(70 + i));
    }
    Cycles before = fx.kernel.clock().now();
    for (int i = 0; i < iters; ++i) {
      (void)names.Resolve(fx.pid, "name" + std::to_string(i % kNames));
    }
    r.lookup_extracted = static_cast<double>(fx.kernel.clock().now() - before) / iters;
    before = fx.kernel.clock().now();
    for (int i = 0; i < iters; ++i) {
      (void)names.Bind(fx.pid, "b" + std::to_string(i), Segno(70));
    }
    r.bind_extracted = static_cast<double>(fx.kernel.clock().now() - before) / iters;
  }
  return r;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  std::printf(
      "P2 -- name manager extraction.  Paper: \"The name space manager ran\n"
      "somewhat faster.\"  Expect ExtractedUserRingLookup sim_cycles below\n"
      "BaselineInKernelLookup (no gate crossing).\n\n");
  const NameSimCycles sim = MeasureSimCycles(/*iters=*/512);
  const bool reproduced = sim.lookup_extracted < sim.lookup_baseline;
  EmitJson(JsonLine("name_manager")
               .Field("cyc_lookup_baseline", sim.lookup_baseline)
               .Field("cyc_lookup_extracted", sim.lookup_extracted)
               .Field("cyc_bind_baseline", sim.bind_baseline)
               .Field("cyc_bind_extracted", sim.bind_extracted)
               .Field("reproduced", reproduced ? "yes" : "no"));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reproduced ? 0 : 1;
}
