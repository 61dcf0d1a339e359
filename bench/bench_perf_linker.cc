// P1 — the dynamic linker extraction.  Paper: "the dynamic linker ran
// somewhat slower when removed from the kernel [;] the causes were well
// understood and curable."  The extracted linker performs its first-
// reference searches through kernel gates from the user ring; the snapped
// (fast) path is equivalent in both configurations.
//
// Both linkers run fixed counts of snapped and first-reference links, and
// the bench reports simulated machine cycles per link, the quantity the
// paper's statement is about.
#include <cstdio>

#include "src/baseline/supervisor.h"
#include "src/fs/linker.h"
#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr int kSymbols = 64;

struct LinkerSimCycles {
  double snap_baseline = 0;
  double snap_extracted = 0;
  double first_ref_baseline = 0;
  double first_ref_extracted = 0;
};

LinkerSimCycles MeasureSimCycles(int snap_iters, int first_refs) {
  LinkerSimCycles r;
  {
    MonolithicSupervisor sup{BaselineConfig{}};
    (void)sup.Boot();
    auto pid = sup.CreateProcess();
    for (int i = 0; i < kSymbols; ++i) {
      (void)sup.CreatePath(">lib>sym" + std::to_string(i));
      (void)sup.LinkSnap(*pid, "sym" + std::to_string(i), ">lib>sym" + std::to_string(i));
    }
    const Cycles before = sup.clock().now();
    for (int i = 0; i < snap_iters; ++i) {
      const std::string symbol = "sym" + std::to_string(i % kSymbols);
      (void)sup.LinkSnap(*pid, symbol, ">lib>" + symbol);
    }
    r.snap_baseline = static_cast<double>(sup.clock().now() - before) / snap_iters;
    Cycles first = 0;
    for (int i = 0; i < first_refs; ++i) {
      const std::string symbol = "f" + std::to_string(i);
      (void)sup.CreatePath(">lib>" + symbol);
      const Cycles b2 = sup.clock().now();
      (void)sup.LinkSnap(*pid, symbol, ">lib>" + symbol);
      first += sup.clock().now() - b2;
    }
    r.first_ref_baseline = static_cast<double>(first) / first_refs;
  }
  {
    BenchKernel fx;
    PathWalker walker(&fx.kernel.gates());
    ReferenceNameManager names(&fx.kernel.ctx());
    DynamicLinker linker(&fx.kernel.ctx(), &fx.kernel.gates(), &walker, &names);
    linker.AddSearchDir(fx.pid, ">lib");
    for (int i = 0; i < kSymbols; ++i) {
      (void)walker.CreateSegment(*fx.ctx, ">lib>sym" + std::to_string(i), BenchWorldAcl(),
                                 Label::SystemLow());
      (void)linker.Snap(*fx.ctx, "sym" + std::to_string(i));
    }
    const Cycles before = fx.kernel.clock().now();
    for (int i = 0; i < snap_iters; ++i) {
      (void)linker.Snap(*fx.ctx, "sym" + std::to_string(i % kSymbols));
    }
    r.snap_extracted = static_cast<double>(fx.kernel.clock().now() - before) / snap_iters;
    Cycles first = 0;
    for (int i = 0; i < first_refs; ++i) {
      const std::string symbol = "f" + std::to_string(i);
      (void)walker.CreateSegment(*fx.ctx, ">lib>" + symbol, BenchWorldAcl(), Label::SystemLow());
      const Cycles b2 = fx.kernel.clock().now();
      (void)linker.Snap(*fx.ctx, symbol);
      first += fx.kernel.clock().now() - b2;
    }
    r.first_ref_extracted = static_cast<double>(first) / first_refs;
  }
  return r;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf(
      "P1 -- linker extraction.  Paper: the extracted linker \"ran somewhat slower\";\n"
      "expect its first reference above the in-kernel one, and the snapped fast\n"
      "paths comparable.\n\n");
  const LinkerSimCycles sim = MeasureSimCycles(/*snap_iters=*/512, /*first_refs=*/128);
  std::printf("sim cycles per link     in-kernel   extracted\n");
  std::printf("  snapped (fast path)  %10.2f  %10.2f\n", sim.snap_baseline, sim.snap_extracted);
  std::printf("  first reference      %10.2f  %10.2f\n\n", sim.first_ref_baseline,
              sim.first_ref_extracted);
  const bool slower = sim.first_ref_extracted > sim.first_ref_baseline;
  EmitJson(JsonLine("linker")
               .Field("cyc_snap_baseline", sim.snap_baseline)
               .Field("cyc_snap_extracted", sim.snap_extracted)
               .Field("cyc_first_ref_baseline", sim.first_ref_baseline)
               .Field("cyc_first_ref_extracted", sim.first_ref_extracted)
               .Field("first_ref_ratio", sim.first_ref_extracted / sim.first_ref_baseline)
               .Field("reproduced", slower ? "yes" : "no"));
  std::printf("paper: \"somewhat slower\".  extracted first reference above in-kernel: %s\n",
              slower ? "REPRODUCED" : "MISMATCH");
  return slower ? 0 : 1;
}
