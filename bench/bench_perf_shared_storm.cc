// P12 — the shared-segment fault storm (ROADMAP open item).  Every process
// initiates the SAME segment, so all CPUs race on one AST entry and one page
// table.  With async paging on, a posted demand read leaves the page's PTW
// locked until the I/O daemon completes it; a second CPU touching that page
// while the transfer is in flight takes a kLockedDescriptor fault and parks
// on the segment's page-arrival eventcount — the paper's descriptor lock bit
// doing its job without any global page-table lock.
//
// The working set (one segment, `kSharedPages` pages) exceeds memory_frames,
// so the storm faults continuously, and staggered start offsets make the
// collisions happen mid-transfer rather than in lockstep.
//
// The tracer is on by default here (this bench exists to exercise it): JSON
// lines carry fault-service p50/p95/p99, and the 4-CPU run is exported as
// bench_perf_shared_storm.trace.json — open it in Perfetto and the
// fault.page_service spans on different lanes visibly overlap on the same
// page while gate.reference spans park behind the locked descriptor.
//
// Usage: bench_perf_shared_storm [--smoke]
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

constexpr uint32_t kSharedPages = 96;  // > memory_frames: every sweep faults
constexpr uint32_t kProcesses = 6;

struct StormResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t locked_waits = 0;
  uint64_t fault_count = 0;
  uint64_t fault_p50 = 0;
  uint64_t fault_p95 = 0;
  uint64_t fault_p99 = 0;
  uint64_t trace_dropped = 0;
  bool ok = false;
};

StormResult RunStorm(uint16_t cpus, uint32_t rounds, const char* trace_path) {
  StormResult out;
  KernelConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.vp_count = 6;
  config.async_paging = true;  // in-flight transfers keep PTWs locked
  config.trace.enabled = true;
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok()) {
    return out;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  PathWalker walker(&kernel.gates());
  const Acl acl = BenchWorldAcl();

  // One process authors the shared segment; everyone initiates the same
  // branch, so all address spaces map the same AST entry and page table.
  std::vector<ProcessId> pids;
  std::vector<ProcContext*> ctxs;
  for (uint32_t i = 0; i < kProcesses; ++i) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return out;
    }
    pids.push_back(*pid);
    ctxs.push_back(kernel.processes().Context(*pid));
  }
  auto entry = walker.CreateSegment(*ctxs[0], ">work>shared", acl, Label::SystemLow());
  if (!entry.ok()) {
    return out;
  }
  for (uint32_t i = 0; i < kProcesses; ++i) {
    auto segno = kernel.gates().Initiate(*ctxs[i], *entry);
    if (!segno.ok()) {
      return out;
    }
    if (i == 0) {  // populate once; later sweeps fault the pages back in
      for (uint32_t p = 0; p < kSharedPages; ++p) {
        (void)kernel.gates().Write(*ctxs[0], *segno, p * kPageWords, p + 1);
      }
    }
    // Staggered cyclic sweep: process i starts kSharedPages/kProcesses pages
    // ahead of process i-1, so touches collide on in-flight pages.
    std::vector<UserOp> program;
    const uint32_t start = i * (kSharedPages / kProcesses);
    for (uint32_t r = 0; r < rounds; ++r) {
      for (uint32_t p = 0; p < kSharedPages; ++p) {
        const uint32_t page = (start + p) % kSharedPages;
        program.push_back(UserOp::Read(*segno, page * kPageWords));
      }
    }
    (void)kernel.processes().SetProgram(pids[i], std::move(program));
  }

  const Cycles before = kernel.clock().now();
  kernel.ctx().smp.AlignAll();
  const Cycles m0 = kernel.ctx().smp.Makespan();
  if (!kernel.processes().RunUntilQuiescent(4000000).ok()) {
    return out;
  }
  out.total = kernel.clock().now() - before;
  out.makespan = kernel.ctx().smp.Makespan() - m0;
  out.locked_waits = kernel.metrics().Get("gates.locked_descriptor_waits");
  out.fault_count = kernel.metrics().HistCount("fault.service_cycles");
  if (out.fault_count > 0) {
    out.fault_p50 = kernel.metrics().HistPercentile("fault.service_cycles", 0.50);
    out.fault_p95 = kernel.metrics().HistPercentile("fault.service_cycles", 0.95);
    out.fault_p99 = kernel.metrics().HistPercentile("fault.service_cycles", 0.99);
  }
  out.trace_dropped = TraceDroppedTotal(kernel.ctx().trace);
  if (trace_path != nullptr) {
    if (!TraceExporter::WriteFile(kernel.ctx().trace, trace_path)) {
      std::fprintf(stderr, "trace export failed: %s\n", trace_path);
    } else {
      std::printf("trace written: %s\n", trace_path);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const uint32_t rounds = smoke ? 1u : 4u;
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4};

  std::printf("=== P12: shared-segment fault storm (one AST entry, %u CPUs max) ===\n\n",
              (unsigned)cpu_counts.back());
  std::printf("%6s %12s %12s %10s %14s %10s %10s %10s\n", "cpus", "makespan", "total",
              "speedup", "locked waits", "p50", "p95", "p99");
  Cycles m1 = 0;
  uint64_t waits_at_max = 0;
  bool scaled = true;
  for (uint16_t cpus : cpu_counts) {
    const bool want_export = cpus == cpu_counts.back();
    const StormResult r =
        RunStorm(cpus, rounds, want_export ? "bench_perf_shared_storm.trace.json" : nullptr);
    if (!r.ok) {
      std::fprintf(stderr, "run failed (%u cpus)\n", cpus);
      return 1;
    }
    if (cpus == 1) {
      m1 = r.makespan;
    }
    const double speedup = static_cast<double>(m1) / r.makespan;
    std::printf("%6u %12llu %12llu %9.2fx %14llu %10llu %10llu %10llu\n", cpus,
                (unsigned long long)r.makespan, (unsigned long long)r.total, speedup,
                (unsigned long long)r.locked_waits, (unsigned long long)r.fault_p50,
                (unsigned long long)r.fault_p95, (unsigned long long)r.fault_p99);
    JsonLine line("shared_storm");
    line.Field("cpus", uint64_t{cpus})
        .Field("makespan", r.makespan)
        .Field("total_cycles", r.total)
        .Field("speedup_vs_1cpu", speedup)
        .Field("locked_descriptor_waits", r.locked_waits)
        .Field("fault_count", r.fault_count)
        .Field("fault_service_p50", r.fault_p50)
        .Field("fault_service_p95", r.fault_p95)
        .Field("fault_service_p99", r.fault_p99)
        .Field("trace_dropped", r.trace_dropped);
    EmitJson(line);
    if (cpus == cpu_counts.back()) {
      waits_at_max = r.locked_waits;
      if (r.makespan >= m1) {
        scaled = false;
      }
    }
  }

  if (smoke) {
    std::printf("\nsmoke run complete\n");
    return 0;
  }
  // The shape this bench exists to show: CPUs really do collide on the shared
  // page table (locked-descriptor parks happen), yet the storm still scales —
  // the descriptor lock bit serializes per-page, not globally.
  const bool collided = waits_at_max > 0;
  std::printf("\nlocked-descriptor parks at %u CPUs: %llu (%s)\n",
              (unsigned)cpu_counts.back(), (unsigned long long)waits_at_max,
              collided ? "collisions observed" : "NO COLLISIONS");
  std::printf("makespan improves at %u CPUs: %s\n", (unsigned)cpu_counts.back(),
              scaled ? "yes" : "NO");
  std::printf("\npaper: per-descriptor locking lets a shared working set page in\n"
              "parallel without a global page-table lock -> %s\n",
              collided && scaled ? "REPRODUCED" : "MISMATCH");
  return collided && scaled ? 0 : 1;
}
