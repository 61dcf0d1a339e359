// P11 — the multiprocessor ablation.  The 6180 was a multiprocessor, and the
// paper's hardware additions (the descriptor lock bit above all) only earn
// their keep when processors race on descriptors and locks.  This bench
// sweeps the simulated CPU pool over the fault-storm and scheduler-mix
// workloads for both supervisors.
//
// Two numbers per configuration:
//   total_cycles — serialized work (the global clock delta; what one
//                  processor would take);
//   makespan     — simulated-parallel completion time (the furthest-ahead
//                  per-CPU local clock).
//
// The kernel has no global page-table lock — colliding references park on
// the locked segment's page-arrival eventcount — so its quanta distribute
// across the pool and makespan falls toward total/N.  The baseline serializes every fault behind
// the global lock: waiting CPUs burn the gap as charged spin, the spin share
// of total work grows with the pool, and makespan barely moves — the
// lock-contention collapse the paper predicts.
//
// Usage: bench_perf_smp [--smoke] [--trace] [--profile]
//   --smoke: one tiny iteration, for CI under sanitizers
//   --trace: enable the virtual-time tracer in both supervisors; each traced
//            run emits an `smp_hist` JSON line with p50/p95/p99 of every
//            populated histogram, result lines gain `trace_dropped`, and the
//            4-CPU kernel fault storm is exported as bench_perf_smp.trace.json
//            (Chrome trace-event format, loadable in Perfetto)
//   --profile: enable the cycle-accounting profiler in the kernel runs; each
//            run prints a top-domain breakdown table, emits an `smp_prof`
//            JSON line, and the 4-CPU fault storm's domain trees are exported
//            as bench_perf_smp.prof.folded (flamegraph.pl collapsed stacks)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

struct Workload {
  const char* name;
  uint32_t processes;
  uint32_t pages_per_process;
  uint32_t rounds;      // fault storm: sweeps over the pages
  uint32_t mix_ops;     // scheduler mix: ops per process (0: pure storm)
};

struct SmpResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_contended = 0;
  uint64_t lock_spin = 0;
  uint64_t locked_waits = 0;
  uint64_t trace_dropped = 0;  // ring records lost; reported when tracing
  bool ok = false;
};

// One `smp_hist` line per traced run carries p50/p95/p99 of EVERY histogram
// with observations, emitted while the run's Metrics is still alive.
void EmitHistLine(const Metrics& metrics, const Workload& w, const char* supervisor,
                  uint16_t cpus) {
  JsonLine line("smp_hist");
  line.Field("workload", w.name)
      .Field("supervisor", supervisor)
      .Field("cpus", uint64_t{cpus});
  EmitJson(FieldAllHistograms(line, metrics));
}

// Builds one process's op list.  The fault storm is a cyclic sweep of the
// process's pages (working sets sized so the sum exceeds memory: every touch
// faults); the mix interleaves compute with paged writes like bench P5.
template <typename Op, typename MakeCompute, typename MakeRead, typename MakeWrite>
std::vector<Op> BuildProgram(const Workload& w, MakeCompute compute, MakeRead read,
                             MakeWrite write) {
  std::vector<Op> program;
  if (w.mix_ops == 0) {
    for (uint32_t r = 0; r < w.rounds; ++r) {
      for (uint32_t p = 0; p < w.pages_per_process; ++p) {
        program.push_back(read(p * kPageWords));
      }
    }
  } else {
    for (uint32_t n = 0; n < w.mix_ops; ++n) {
      if (n % 3 == 0) {
        program.push_back(compute(40));
      } else {
        program.push_back(write((n % w.pages_per_process) * kPageWords + n, n));
      }
    }
  }
  return program;
}

SmpResult RunBaseline(const Workload& w, uint16_t cpus, bool trace) {
  SmpResult out;
  BaselineConfig config;
  config.memory_frames = w.mix_ops == 0 ? 64 : 256;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.trace = trace;
  MonolithicSupervisor sup{config};
  if (!sup.Boot().ok()) {
    return out;
  }
  using Op = MonolithicSupervisor::BaselineOp;
  for (uint32_t i = 0; i < w.processes; ++i) {
    auto pid = sup.CreateProcess();
    auto uid = sup.CreatePath(">work>p" + std::to_string(i));
    if (!pid.ok() || !uid.ok()) {
      return out;
    }
    auto program = BuildProgram<Op>(
        w, [](Cycles c) { return Op{Op::Kind::kCompute, {}, 0, 0, c}; },
        [&](uint32_t off) { return Op{Op::Kind::kRead, *uid, off, 0, 0}; },
        [&](uint32_t off, Word v) { return Op{Op::Kind::kWrite, *uid, off, v, 0}; });
    // Populate the pages so storm reads hit allocated records.
    for (uint32_t p = 0; p < w.pages_per_process; ++p) {
      (void)sup.Write(*uid, p * kPageWords, p + 1);
    }
    (void)sup.SetProgram(*pid, std::move(program));
  }
  const Cycles before = sup.clock().now();
  sup.AlignCpus();  // the measured region starts with the pool synchronized
  const Cycles m0 = sup.Makespan();
  if (!sup.RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  out.total = sup.clock().now() - before;
  out.makespan = sup.Makespan() - m0;
  out.lock_acquisitions = sup.global_lock_acquisitions();
  out.lock_contended = sup.global_lock_contended();
  out.lock_spin = sup.global_lock_spin_cycles();
  if (trace) {
    out.trace_dropped = TraceDroppedTotal(sup.trace());
    EmitHistLine(sup.metrics(), w, "baseline", cpus);
  }
  out.ok = true;
  return out;
}

SmpResult RunKernel(const Workload& w, uint16_t cpus, bool trace, bool profile,
                    const char* trace_path = nullptr) {
  SmpResult out;
  KernelConfig config;
  config.memory_frames = w.mix_ops == 0 ? 64 : 256;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.trace = trace;
  config.profile.enabled = profile;
  config.profile.stall_rounds = kBenchStallRounds;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  const Acl acl = BenchWorldAcl();
  for (uint32_t i = 0; i < w.processes; ++i) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry =
        walker.CreateSegment(*ctx, ">work>p" + std::to_string(i), acl, Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return out;
    }
    for (uint32_t p = 0; p < w.pages_per_process; ++p) {
      (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1);
    }
    auto program = BuildProgram<UserOp>(
        w, [](Cycles c) { return UserOp::Compute(c); },
        [&](uint32_t off) { return UserOp::Read(*segno, off); },
        [&](uint32_t off, Word v) { return UserOp::Write(*segno, off, v); });
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }
  const Cycles before = kernel.clock().now();
  kernel.ctx().smp.AlignAll();  // measured region starts synchronized
  const Cycles m0 = kernel.ctx().smp.Makespan();
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  out.total = kernel.clock().now() - before;
  out.makespan = kernel.ctx().smp.Makespan() - m0;
  out.locked_waits = kernel.metrics().Get("gates.locked_descriptor_waits");
  if (trace) {
    out.trace_dropped = TraceDroppedTotal(kernel.ctx().trace);
    EmitHistLine(kernel.metrics(), w, "kernel", cpus);
  }
  if (trace && trace_path != nullptr) {
    if (!TraceExporter::WriteFile(kernel.ctx().trace, trace_path)) {
      std::fprintf(stderr, "trace export failed: %s\n", trace_path);
    } else {
      std::printf("trace written: %s\n", trace_path);
    }
  }
  if (profile) {
    char title[96];
    std::snprintf(title, sizeof title, "kernel %s @ %u cpus", w.name, cpus);
    PrintProfileTable(kernel.ctx().prof, title);
    JsonLine pline("smp_prof");
    pline.Field("workload", w.name).Field("cpus", uint64_t{cpus});
    EmitJson(FieldProfDomains(pline, kernel.ctx().prof));
    // One flamegraph export, from the most contended configuration.
    if (w.mix_ops == 0 && cpus == 4) {
      WriteFolded(kernel.ctx().prof, "bench_perf_smp.prof.folded");
    }
  }
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  bool smoke = false;
  bool trace = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4, 8};
  const Workload workloads[] = {
      // 4 x 24 pages = 96 > 64 frames: every touch faults.
      {"fault_storm", 4, 24, smoke ? 1u : 4u, 0},
      {"scheduler_mix", 8, 6, 0, smoke ? 24u : 120u},
  };

  std::printf("=== P11: CPU-pool sweep (deterministic interleaving) ===\n\n");
  bool kernel_scales = true;
  bool baseline_collapses = true;
  for (const Workload& w : workloads) {
    std::printf("%s:\n%6s %12s %12s %10s %14s %12s\n", w.name, "cpus", "makespan", "total",
                "speedup", "lock spin", "spin share");
    Cycles kernel_m1 = 0, baseline_m1 = 0;
    double baseline_prev_share = -1.0;
    for (uint16_t cpus : cpu_counts) {
      const SmpResult b = RunBaseline(w, cpus, trace);
      // Export the Chrome trace of the most contended kernel configuration:
      // the 4-CPU fault storm.
      const bool want_export = trace && w.mix_ops == 0 && cpus == 4;
      const SmpResult k = RunKernel(w, cpus, trace, profile,
                                    want_export ? "bench_perf_smp.trace.json" : nullptr);
      if (!b.ok || !k.ok) {
        std::fprintf(stderr, "run failed (%s, %u cpus)\n", w.name, cpus);
        return 1;
      }
      if (cpus == 1) {
        kernel_m1 = k.makespan;
        baseline_m1 = b.makespan;
      }
      const double b_speedup = static_cast<double>(baseline_m1) / b.makespan;
      const double k_speedup = static_cast<double>(kernel_m1) / k.makespan;
      const double spin_share = b.total == 0 ? 0 : static_cast<double>(b.lock_spin) / b.total;
      std::printf("  baseline %3u %12llu %12llu %9.2fx %14llu %11.1f%%\n", cpus,
                  (unsigned long long)b.makespan, (unsigned long long)b.total, b_speedup,
                  (unsigned long long)b.lock_spin, spin_share * 100);
      std::printf("  kernel   %3u %12llu %12llu %9.2fx %14s %12s\n", cpus,
                  (unsigned long long)k.makespan, (unsigned long long)k.total, k_speedup, "-",
                  "-");
      JsonLine bline("smp");
      bline.Field("workload", w.name)
          .Field("supervisor", "baseline")
          .Field("cpus", uint64_t{cpus})
          .Field("makespan", b.makespan)
          .Field("total_cycles", b.total)
          .Field("speedup_vs_1cpu", b_speedup)
          .Field("lock_acquisitions", b.lock_acquisitions)
          .Field("lock_contended", b.lock_contended)
          .Field("lock_spin_cycles", b.lock_spin)
          .Field("spin_share", spin_share);
      if (trace) {
        bline.Field("trace_dropped", b.trace_dropped);
      }
      EmitJson(bline);
      JsonLine kline("smp");
      kline.Field("workload", w.name)
          .Field("supervisor", "kernel")
          .Field("cpus", uint64_t{cpus})
          .Field("makespan", k.makespan)
          .Field("total_cycles", k.total)
          .Field("speedup_vs_1cpu", k_speedup)
          .Field("locked_descriptor_waits", k.locked_waits);
      if (trace) {
        kline.Field("trace_dropped", k.trace_dropped);
      }
      EmitJson(kline);
      if (cpus == 4 && k.makespan >= kernel_m1) {
        kernel_scales = false;  // the acceptance shape: 4 CPUs beat 1
      }
      // The collapse claim is about the lock-bound workload; the mix is the
      // contrast case (mostly compute, the lock is incidental).
      if (w.mix_ops == 0 && cpus > 1) {
        if (spin_share <= baseline_prev_share) {
          baseline_collapses = false;  // spin share must grow with the pool
        }
        baseline_prev_share = spin_share;
      }
    }
    std::printf("\n");
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  const bool shape = kernel_scales && baseline_collapses;
  std::printf("kernel makespan improves at 4 CPUs: %s\n", kernel_scales ? "yes" : "NO");
  std::printf("baseline spin share grows with CPU count: %s\n",
              baseline_collapses ? "yes" : "NO");
  std::printf("\npaper: the global page-table lock is the multiprocessor bottleneck the\n"
              "descriptor lock bit removes -> %s\n", shape ? "REPRODUCED" : "MISMATCH");
  return shape ? 0 : 1;
}
