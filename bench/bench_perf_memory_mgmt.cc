// P4 — the memory manager redesign [Huber, 1976; Mason, in prep.].  Paper:
// the new memory manager was "somewhat slower, for two important reasons":
// (1) PL/I recoding cost ~2x on the code path, (2) dedicated processes added
// a small unavoidable call cost — partially bought back by running the page
// writer at low priority in otherwise idle time.  "All together, the
// performance impact ... would be negative, but not significant unless the
// system were cramped for memory and thrashing."
//
// The bench replays identical locality-bearing reference strings against the
// baseline supervisor and the new kernel across a memory-size sweep and
// reports simulated cycles per reference, plus the idle-time reclamation of
// the asynchronous (daemon) configuration.
#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/common/rng.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

struct Ref {
  uint32_t segment;
  uint32_t page;
  bool write;
};

// A reference string with working-set locality: bursts within a segment,
// Zipf-skewed page popularity.
std::vector<Ref> MakeTrace(uint64_t seed, uint32_t segments, uint32_t pages_per_segment,
                           size_t refs) {
  Rng rng(seed);
  std::vector<Ref> trace;
  trace.reserve(refs);
  uint32_t segment = 0;
  while (trace.size() < refs) {
    if (rng.NextBool(0.2)) {
      segment = static_cast<uint32_t>(rng.NextBelow(segments));
    }
    const uint32_t burst = rng.NextBurst(0.7, 8);
    for (uint32_t i = 0; i < burst && trace.size() < refs; ++i) {
      Ref ref;
      ref.segment = segment;
      ref.page = static_cast<uint32_t>(rng.NextZipf(pages_per_segment, 1.0));
      ref.write = rng.NextBool(0.3);
      trace.push_back(ref);
    }
  }
  return trace;
}

struct RunResult {
  Cycles cycles = 0;
  uint64_t faults = 0;
  uint64_t writebacks = 0;
  uint64_t daemon_writes = 0;
  uint64_t assoc_hits = 0;
  uint64_t assoc_misses = 0;
  uint64_t assoc_flushes = 0;
};

RunResult RunBaseline(uint32_t frames, const std::vector<Ref>& trace, uint32_t segments,
                      uint32_t pages) {
  BaselineConfig config;
  config.memory_frames = frames;
  config.records_per_pack = 8192;
  config.retranslate_conflict_rate = 0.02;
  MonolithicSupervisor sup{config};
  RunResult result;
  if (!sup.Boot().ok()) {
    return result;
  }
  std::vector<SegmentUid> uids;
  for (uint32_t s = 0; s < segments; ++s) {
    auto uid = sup.CreatePath(">data>seg" + std::to_string(s));
    if (!uid.ok()) {
      return result;
    }
    uids.push_back(*uid);
    for (uint32_t p = 0; p < pages; ++p) {
      (void)sup.Write(*uid, p * kPageWords, p + 1);
    }
  }
  const uint64_t faults_before = sup.metrics().Get("baseline.page_faults");
  const Cycles before = sup.clock().now();
  for (const Ref& ref : trace) {
    if (ref.write) {
      (void)sup.Write(uids[ref.segment], ref.page * kPageWords + 1, 7);
    } else {
      (void)sup.Read(uids[ref.segment], ref.page * kPageWords + 1);
    }
  }
  result.cycles = sup.clock().now() - before;
  result.faults = sup.metrics().Get("baseline.page_faults") - faults_before;
  result.writebacks = sup.metrics().Get("baseline.writebacks");
  return result;
}

RunResult RunKernel(uint32_t frames, const std::vector<Ref>& trace, uint32_t segments,
                    uint32_t pages, bool async) {
  KernelConfig config;
  config.memory_frames = frames;
  config.records_per_pack = 8192;
  config.async_paging = async;
  Kernel kernel{ArmWatchdog(config)};
  RunResult result;
  if (!kernel.Boot().ok()) {
    return result;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  auto pid = kernel.processes().CreateProcess(user);
  if (!pid.ok()) {
    return result;
  }
  ProcContext* ctx = kernel.processes().Context(*pid);
  PathWalker walker(&kernel.gates());
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  std::vector<Segno> segnos;
  for (uint32_t s = 0; s < segments; ++s) {
    auto entry =
        walker.CreateSegment(*ctx, ">data>seg" + std::to_string(s), acl, Label::SystemLow());
    if (!entry.ok()) {
      return result;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return result;
    }
    segnos.push_back(*segno);
    for (uint32_t p = 0; p < pages; ++p) {
      (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1);
    }
  }
  // Drive the gates directly: this bench isolates the memory manager; the
  // scheduler comparison is bench_perf_scheduler's job.  In the async
  // configuration, blocked references are retried after letting the page
  // I/O daemon run (the page writer cleans frames in between).
  const uint64_t faults_before = kernel.metrics().Get("pfm.faults_serviced");
  const Cycles before = kernel.clock().now();
  for (const Ref& ref : trace) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      Status st = ref.write
                      ? kernel.gates().Write(*ctx, segnos[ref.segment],
                                             ref.page * kPageWords + 1, 7)
                      : kernel.gates().Read(*ctx, segnos[ref.segment],
                                            ref.page * kPageWords + 1)
                            .status();
      if (st.code() != Code::kBlocked) {
        break;
      }
      // Idle until the transfer completes, then let the daemons run.
      PageFrameManager& pfm = kernel.page_frames();
      if (const std::optional<Cycles> due = pfm.NextReadDue()) {
        if (*due > kernel.clock().now()) {
          kernel.clock().Advance(*due - kernel.clock().now());
        }
        pfm.LandReads(kernel.clock().now());
      }
      kernel.vprocs().RunKernelTasks();
    }
  }
  result.cycles = kernel.clock().now() - before;
  result.faults = kernel.metrics().Get("pfm.faults_serviced") - faults_before;
  result.writebacks = kernel.metrics().Get("pfm.writebacks");
  result.daemon_writes = kernel.metrics().Get("pfm.daemon_writes");
  result.assoc_hits = kernel.metrics().Get("hw.assoc_hits");
  result.assoc_misses = kernel.metrics().Get("hw.assoc_misses");
  result.assoc_flushes = kernel.metrics().Get("hw.assoc_flushes");
  return result;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  constexpr uint32_t kSegments = 6;
  constexpr uint32_t kPages = 24;  // 144 data pages total
  constexpr size_t kRefs = 3000;
  const auto trace = MakeTrace(1977, kSegments, kPages, kRefs);

  std::printf("=== P4: Memory management, baseline vs new design ===\n\n");
  std::printf("workload: %zu references, %u segments x %u pages (locality+Zipf)\n\n", kRefs,
              kSegments, kPages);
  std::printf("%10s %16s %16s %8s %10s %10s\n", "frames", "baseline cyc/ref", "kernel cyc/ref",
              "ratio", "b.faults", "k.faults");

  double plenty_ratio = 0.0;
  double tight_ratio = 0.0;
  uint64_t plenty_hits = 0, plenty_misses = 0, plenty_flushes = 0;
  const uint32_t sweeps[] = {320, 224, 176, 144, 128};
  for (uint32_t frames : sweeps) {
    const RunResult baseline = RunBaseline(frames, trace, kSegments, kPages);
    const RunResult kernel = RunKernel(frames, trace, kSegments, kPages, /*async=*/false);
    const double b = static_cast<double>(baseline.cycles) / kRefs;
    const double k = static_cast<double>(kernel.cycles) / kRefs;
    const double ratio = k / b;
    if (frames == sweeps[0]) {
      plenty_ratio = ratio;
      plenty_hits = kernel.assoc_hits;
      plenty_misses = kernel.assoc_misses;
      plenty_flushes = kernel.assoc_flushes;
    }
    tight_ratio = ratio;
    std::printf("%10u %16.0f %16.0f %8.2f %10llu %10llu\n", frames, b, k, ratio,
                (unsigned long long)baseline.faults, (unsigned long long)kernel.faults);
    EmitJson(JsonLine("memory_mgmt")
                 .Field("frames", uint64_t{frames})
                 .Field("cyc_per_ref_baseline", b)
                 .Field("cyc_per_ref_kernel", k)
                 .Field("ratio", ratio)
                 .Field("baseline_faults", baseline.faults)
                 .Field("kernel_faults", kernel.faults));
  }

  std::printf("\nkernel associative memory at %u frames: %llu hits / %llu misses / %llu\n"
              "flushes — the fast path the baseline lacks on this reference string.\n",
              sweeps[0], (unsigned long long)plenty_hits, (unsigned long long)plenty_misses,
              (unsigned long long)plenty_flushes);

  std::printf(
      "\nnote: the new kernel's permanently-resident core segments (vp states,\n"
      "AST area, quota table, message queue) come out of the same memory, so it\n"
      "enters the fault-dominated regime a few frames earlier — exactly the\n"
      "\"valuable primary memory space would be unused\" cost the paper weighs\n"
      "against fixing the number of processes.\n");

  // The dedicated-process configuration: the page writer cleans frames at
  // low priority, so replacement rarely pays an inline writeback.
  const RunResult daemons = RunKernel(144, trace, kSegments, kPages, /*async=*/true);
  std::printf("\nasync/daemon configuration at 144 frames: %.0f cyc/ref, inline writebacks %llu,"
              "\n  daemon writes %llu (work moved to otherwise-idle low priority)\n",
              static_cast<double>(daemons.cycles) / kRefs,
              (unsigned long long)daemons.writebacks,
              (unsigned long long)daemons.daemon_writes);
  const bool shape = plenty_ratio < tight_ratio && plenty_ratio < 1.6;
  EmitJson(JsonLine("memory_mgmt_summary")
               .Field("ratio_plenty", plenty_ratio)
               .Field("ratio_tight", tight_ratio)
               .Field("async_cyc_per_ref", static_cast<double>(daemons.cycles) / kRefs)
               .Field("async_inline_writebacks", daemons.writebacks)
               .Field("async_daemon_writes", daemons.daemon_writes)
               .Field("reproduced", shape ? "yes" : "no"));

  std::printf(
      "\npaper shape: new design slightly slower with ample memory, the gap\n"
      "widening only when cramped and thrashing.\n"
      "ratio at %u frames: %.2fx ; ratio at %u frames: %.2fx -> %s\n",
      sweeps[0], plenty_ratio, sweeps[4], tight_ratio, shape ? "REPRODUCED" : "MISMATCH");
  return shape ? 0 : 1;
}
