// Ablation — sizing the fixed virtual-processor pool.  Brinch Hansen's
// simplification requires every vp state to live in the fastest memory; the
// two-level design keeps the pool small and multiplexes arbitrary user
// processes over it.  The sweep runs the same twelve processes on a 4-CPU
// machine at each pool size and prints simulated figures only: the region's
// serialized cycles, its makespan across the CPUs, and the frames the pool's
// state records keep permanently resident.
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr uint16_t kCpus = 4;

struct PoolResult {
  Cycles serialized = 0;         // global-clock cycles of the measured region
  Cycles makespan = 0;           // the region's completion time across kCpus
  uint32_t vp_state_frames = 0;  // permanently-resident state records
};

PoolResult RunWithPool(uint16_t vp_count) {
  KernelConfig config;
  config.cpu_count = kCpus;
  config.vp_count = vp_count;
  config.memory_frames = 256;
  Kernel kernel{config};
  PoolResult result;
  if (!kernel.Boot().ok()) {
    return result;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  constexpr int kProcesses = 12;
  for (int i = 0; i < kProcesses; ++i) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return result;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">w>p" + std::to_string(i), BenchWorldAcl(),
                                      Label::SystemLow());
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 80; ++n) {
      program.push_back(UserOp::Compute(25));
      if (n % 4 == 0) {
        program.push_back(UserOp::Write(*segno, (n % 6) * kPageWords, n));
      }
    }
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }
  KernelContext& kctx = kernel.ctx();
  kctx.AlignToGlobal();  // set-up outside windows must not read as contention
  const Cycles before = kernel.clock().now();
  const Cycles m0 = kctx.smp.Makespan();
  (void)kernel.processes().RunUntilQuiescent(1000000);
  result.serialized = kernel.clock().now() - before;
  result.makespan = kctx.smp.Makespan() - m0;
  // vp_states is the first core segment allocated at boot.
  result.vp_state_frames = kernel.core_segments().SizeWords(CoreSegId(0)) / kPageWords;
  return result;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== Ablation: fixed virtual-processor pool size ===\n\n");
  std::printf("12 user processes, identical work, %u CPUs, pool swept:\n\n", kCpus);
  std::printf("%8s %18s %18s %18s\n", "vps", "serialized (cyc)", "makespan (cyc)",
              "vp states (frames)");
  for (uint16_t vps : {1, 2, 4, 8, 16, 32}) {
    const PoolResult r = RunWithPool(vps);
    std::printf("%8u %18llu %18llu %18u\n", vps, (unsigned long long)r.serialized,
                (unsigned long long)r.makespan, r.vp_state_frames);
  }
  std::printf(
      "\npaper: \"If the number of processes is fixed at the maximum that would\n"
      "ever be needed, valuable primary memory space would be unused at other\n"
      "times.  This combination of pressures led to the design for a two-level\n"
      "implementation of processor multiplexing.\"  Here a process holds a vp\n"
      "for one quantum only, so the pool's size bounds no concurrency and the\n"
      "makespan does not depend on it; what a larger pool buys is only more\n"
      "permanently-resident state-record frames.\n");
  return 0;
}
