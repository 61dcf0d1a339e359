// P13 — sharded per-CPU run queues vs the global ready list, under a charged
// interconnect.  PR 5's dispatch refactor shards the level-2 ready list into
// per-CPU queues (own SimSpinLock each) with deterministic work stealing;
// KernelConfig::connect_cost prices every touch of scheduler state from a
// CPU other than its cache line's last owner.
//
// The sweep crosses dispatch mode (global list / sharded / sharded+steal)
// with connect cost {0, 200, 800} and CPU pool {1, 2, 4} over two workloads:
//
//   fault_storm  — P11's kernel fault storm, byte-for-byte the same work
//                  (4 processes x 24 pages > 64 frames, 4 sweep rounds), so
//                  the mode-vs-mode deltas ride on a known baseline;
//   mixed        — a dispatch-rate-bound mix at quantum 2: four paged
//                  readers and four compute processes, so the global list
//                  bounces between CPUs every quantum while a sharded CPU
//                  mostly works its own queue.
//
// At connect cost 0 every mode degenerates to the legacy scheduler's charge
// stream; the interesting rows are cost > 0, where the global list pays a
// line transfer plus the lock-held dispatch window per quantum and the
// sharded queues pay only for steals and cross-CPU re-homes.
//
// Usage: bench_perf_runqueue [--smoke] [--trace] [--profile]
//   --smoke: tiny sweep (1 round, cpus {1,4}, costs {0,800}) with the tracer
//            on; exports bench_perf_runqueue.trace.json; always exits 0
//   --trace: enable the tracer in the full sweep (steal spans, queue-depth
//            histograms, per-queue lock spin) and export the 4-CPU max-cost
//            sharded+steal fault storm as bench_perf_runqueue.trace.json;
//            result lines gain `trace_dropped` and each traced run emits a
//            `runqueue_hist` line with every populated histogram
//   --profile: enable the cycle-accounting profiler; each run prints a
//            top-domain breakdown table and emits a `runqueue_prof` JSON
//            line; the sharded+steal 4-CPU max-cost fault storm exports
//            bench_perf_runqueue.prof.folded (flamegraph collapsed stacks)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

struct Mode {
  const char* name;
  bool sharded;
  bool steal;
};

constexpr Mode kModes[] = {
    {"global", false, false},
    {"sharded", true, false},
    {"sharded_steal", true, true},
};

struct RqResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t steals = 0;
  uint64_t transfers = 0;
  uint64_t rq_lock_spin_cycles = 0;
  uint64_t list_transfers = 0;
  uint64_t list_lock_spin_cycles = 0;
  uint64_t connect_signals = 0;
  uint64_t vp_migrations = 0;
  uint64_t proc_migrations = 0;
  uint64_t trace_dropped = 0;  // ring records lost; reported when tracing
  bool ok = false;
};

void CaptureCounters(const Metrics& metrics, RqResult* out) {
  out->steals = metrics.Get("runq.steals");
  out->transfers = metrics.Get("runq.transfers");
  out->rq_lock_spin_cycles = metrics.Get("runq.lock_spin_cycles");
  out->list_transfers = metrics.Get("sched.list_transfers");
  out->list_lock_spin_cycles = metrics.Get("sched.list_lock_spin_cycles");
  out->connect_signals = metrics.Get("hw.connect_signals");
  out->vp_migrations = metrics.Get("vproc.vp_migrations");
  out->proc_migrations = metrics.Get("sched.proc_migrations");
}

KernelConfig MakeConfig(const Mode& mode, uint16_t cpus, Cycles connect_cost,
                        uint32_t frames, bool trace, bool profile) {
  KernelConfig config;
  config.memory_frames = frames;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.sharded_runqueues = mode.sharded;
  config.steal = mode.steal;
  config.connect_cost = connect_cost;
  config.trace = trace;
  config.profile.enabled = profile;
  config.profile.stall_rounds = kBenchStallRounds;
  return config;
}

// Shared per-run reporting for both workloads: trace_dropped + the all-
// histogram line when tracing, the top-domain table + `runqueue_prof` line
// (and optionally the folded flamegraph export) when profiling.
void ReportRun(Kernel& kernel, RqResult* out, const char* workload, const Mode& mode,
               uint16_t cpus, Cycles cost, bool trace, bool profile,
               const char* folded_path) {
  if (trace) {
    out->trace_dropped = TraceDroppedTotal(kernel.ctx().trace);
    JsonLine hline("runqueue_hist");
    hline.Field("workload", workload)
        .Field("mode", mode.name)
        .Field("cpus", uint64_t{cpus})
        .Field("connect_cost", uint64_t{cost});
    EmitJson(FieldAllHistograms(hline, kernel.metrics()));
  }
  if (profile) {
    char title[96];
    std::snprintf(title, sizeof title, "%s %s @ %u cpus, cost %llu", workload, mode.name,
                  cpus, (unsigned long long)cost);
    PrintProfileTable(kernel.ctx().prof, title);
    JsonLine pline("runqueue_prof");
    pline.Field("workload", workload)
        .Field("mode", mode.name)
        .Field("cpus", uint64_t{cpus})
        .Field("connect_cost", uint64_t{cost});
    EmitJson(FieldProfDomains(pline, kernel.ctx().prof));
    if (folded_path != nullptr) {
      WriteFolded(kernel.ctx().prof, folded_path);
    }
  }
}

// P11's kernel fault storm, unchanged: every touch of the cyclic page sweep
// faults because the working sets sum past the frame pool.
RqResult RunStorm(const Mode& mode, uint16_t cpus, Cycles connect_cost, uint32_t rounds,
                  bool trace, bool profile, const char* trace_path,
                  const char* folded_path) {
  RqResult out;
  constexpr uint32_t kProcs = 4;
  constexpr uint32_t kPages = 24;
  Kernel kernel{MakeConfig(mode, cpus, connect_cost, /*frames=*/64, trace, profile)};
  if (!kernel.Boot().ok()) {
    return out;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  const Acl acl = BenchWorldAcl();
  for (uint32_t i = 0; i < kProcs; ++i) {
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
    for (uint32_t p = 0; p < kPages; ++p) {
      (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1);
    }
    std::vector<UserOp> program;
    for (uint32_t r = 0; r < rounds; ++r) {
      for (uint32_t p = 0; p < kPages; ++p) {
        program.push_back(UserOp::Read(*segno, p * kPageWords));
      }
    }
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }
  const Cycles before = kernel.clock().now();
  kernel.ctx().smp.AlignAll();
  const Cycles m0 = kernel.ctx().smp.Makespan();
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  out.total = kernel.clock().now() - before;
  out.makespan = kernel.ctx().smp.Makespan() - m0;
  CaptureCounters(kernel.metrics(), &out);
  if (trace && trace_path != nullptr) {
    if (!TraceExporter::WriteFile(kernel.ctx().trace, trace_path)) {
      std::fprintf(stderr, "trace export failed: %s\n", trace_path);
    } else {
      std::printf("trace written: %s\n", trace_path);
    }
  }
  ReportRun(kernel, &out, "fault_storm", mode, cpus, connect_cost, trace, profile,
            folded_path);
  out.ok = true;
  return out;
}

// The dispatch-rate-bound mix: quantum 2, so every pair of ops pays a full
// dispatch round trip through the scheduler's shared state.  Four paged
// readers and four compute processes; any process may run on any CPU.
RqResult RunMixed(const Mode& mode, uint16_t cpus, Cycles connect_cost, uint32_t ops,
                  bool trace, bool profile) {
  RqResult out;
  constexpr uint32_t kProcs = 8;
  constexpr uint32_t kPages = 16;
  Kernel kernel{MakeConfig(mode, cpus, connect_cost, /*frames=*/256, trace, profile)};
  if (!kernel.Boot().ok()) {
    return out;
  }
  kernel.processes().set_quantum(2);
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  const Acl acl = BenchWorldAcl();
  for (uint32_t i = 0; i < kProcs; ++i) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry =
        walker.CreateSegment(*ctx, ">work>m" + std::to_string(i), acl, Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return out;
    }
    for (uint32_t p = 0; p < kPages; ++p) {
      (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1);
    }
    const bool reader = i < kProcs / 2;
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < ops; ++n) {
      if (reader) {
        program.push_back(UserOp::Read(*segno, (n % kPages) * kPageWords));
      } else {
        program.push_back(UserOp::Compute(40));
      }
    }
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }
  const Cycles before = kernel.clock().now();
  kernel.ctx().smp.AlignAll();
  const Cycles m0 = kernel.ctx().smp.Makespan();
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  out.total = kernel.clock().now() - before;
  out.makespan = kernel.ctx().smp.Makespan() - m0;
  CaptureCounters(kernel.metrics(), &out);
  ReportRun(kernel, &out, "mixed", mode, cpus, connect_cost, trace, profile,
            /*folded_path=*/nullptr);
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
      trace = true;  // the smoke run doubles as the tracer's CI exercise
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4};
  const std::vector<Cycles> costs =
      smoke ? std::vector<Cycles>{0, 800} : std::vector<Cycles>{0, 200, 800};
  const uint32_t storm_rounds = smoke ? 1 : 4;
  const uint32_t mix_ops = smoke ? 24 : 120;
  const Cycles max_cost = costs.back();

  std::printf("=== P13: run-queue sharding x stealing x connect cost ===\n\n");
  // verdict inputs: the 4-CPU max-cost rows of each workload.
  Cycles storm_global_4 = 0, storm_steal_4 = 0;
  double mixed_global_speedup = 0, mixed_steal_speedup = 0;
  for (const char* workload : {"fault_storm", "mixed"}) {
    const bool storm = std::strcmp(workload, "fault_storm") == 0;
    std::printf("%s:\n%15s %5s %6s %12s %12s %9s %8s %10s %10s\n", workload, "mode", "cpus",
                "cost", "makespan", "total", "speedup", "steals", "transfers", "migrations");
    for (Cycles cost : costs) {
      for (const Mode& mode : kModes) {
        Cycles m1 = 0;
        for (uint16_t cpus : cpu_counts) {
          const bool heaviest = storm && mode.steal && cpus == 4 && cost == max_cost;
          const bool want_export = trace && heaviest;
          const bool want_folded = profile && heaviest;
          const RqResult r =
              storm ? RunStorm(mode, cpus, cost, storm_rounds, trace, profile,
                               want_export ? "bench_perf_runqueue.trace.json" : nullptr,
                               want_folded ? "bench_perf_runqueue.prof.folded" : nullptr)
                    : RunMixed(mode, cpus, cost, mix_ops, trace, profile);
          if (!r.ok) {
            std::fprintf(stderr, "run failed (%s, %s, %u cpus, cost %llu)\n", workload,
                         mode.name, cpus, (unsigned long long)cost);
            return 1;
          }
          if (cpus == 1) {
            m1 = r.makespan;
          }
          const double speedup = static_cast<double>(m1) / r.makespan;
          const uint64_t migrations = r.vp_migrations + r.proc_migrations;
          std::printf("%15s %5u %6llu %12llu %12llu %8.2fx %8llu %10llu %10llu\n", mode.name,
                      cpus, (unsigned long long)cost, (unsigned long long)r.makespan,
                      (unsigned long long)r.total, speedup, (unsigned long long)r.steals,
                      (unsigned long long)(r.transfers + r.list_transfers),
                      (unsigned long long)migrations);
          JsonLine line("runqueue");
          line.Field("workload", workload)
              .Field("mode", mode.name)
              .Field("cpus", uint64_t{cpus})
              .Field("connect_cost", uint64_t{cost})
              .Field("makespan", r.makespan)
              .Field("total_cycles", r.total)
              .Field("speedup_vs_1cpu", speedup)
              .Field("steals", r.steals)
              .Field("queue_transfers", r.transfers)
              .Field("queue_lock_spin_cycles", r.rq_lock_spin_cycles)
              .Field("list_transfers", r.list_transfers)
              .Field("list_lock_spin_cycles", r.list_lock_spin_cycles)
              .Field("connect_signals", r.connect_signals)
              .Field("vp_migrations", r.vp_migrations)
              .Field("proc_migrations", r.proc_migrations);
          if (trace) {
            line.Field("trace_dropped", r.trace_dropped);
          }
          EmitJson(line);
          if (cpus == 4 && cost == max_cost) {
            if (storm && std::strcmp(mode.name, "global") == 0) {
              storm_global_4 = r.makespan;
            }
            if (storm && mode.steal) {
              storm_steal_4 = r.makespan;
            }
            if (!storm && std::strcmp(mode.name, "global") == 0) {
              mixed_global_speedup = speedup;
            }
            if (!storm && mode.steal) {
              mixed_steal_speedup = speedup;
            }
          }
        }
      }
    }
    std::printf("\n");
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  const bool storm_wins = storm_steal_4 != 0 && storm_steal_4 < storm_global_4;
  const bool mixed_wins = mixed_steal_speedup > mixed_global_speedup;
  std::printf("4-CPU fault storm, cost %llu: sharded+steal makespan %llu < global %llu: %s\n",
              (unsigned long long)max_cost, (unsigned long long)storm_steal_4,
              (unsigned long long)storm_global_4, storm_wins ? "yes" : "NO");
  std::printf("4-CPU mixed, cost %llu: sharded+steal speedup %.2fx > global %.2fx: %s\n",
              (unsigned long long)max_cost, mixed_steal_speedup, mixed_global_speedup,
              mixed_wins ? "yes" : "NO");
  std::printf("\nsharded dispatch keeps scheduler traffic off the interconnect the global\n"
              "ready list saturates -> %s\n",
              storm_wins && mixed_wins ? "REPRODUCED" : "MISMATCH");
  return storm_wins && mixed_wins ? 0 : 1;
}
