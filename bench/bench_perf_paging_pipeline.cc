// P10 — the anticipatory paging pipeline.  With demand paging, a scan over a
// working set larger than memory pays one full disk latency per touched page,
// and every eviction happens inline on the fault path.  The pipeline attacks
// both: the page-writer daemon pre-cleans frames to keep a free pool between
// watermarks (faults stop paying evictions), per-pack request queues dispatch
// in record-sorted rounds (one seek amortized over the round), and a
// forward-sequential fault pattern posts readahead for the next pages (the
// scan stops faulting at all on anticipated pages).
//
// The bench runs the pipeline off and on over a sequential scan and a
// scattered trace.  Cycles are the simulator's single global clock, so the
// pipeline's wins here are pure cost amortization — batching and fault
// suppression — not overlap.
//
// Verdict: the full pipeline at least halves the sequential scan's cycles
// per fault, and pays no inline eviction on either trace.
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr uint32_t kPages = 192;  // working set: 4x the pageable frames
constexpr uint32_t kRounds = 4;
constexpr uint32_t kPumpEvery = 4;  // references between page-writer pumps

struct RunResult {
  double cyc_per_fault = 0;  // per reference of the scan == per baseline fault
  uint64_t faults = 0;
  uint64_t evictions = 0;
  uint64_t inline_evictions = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_waste = 0;
  uint64_t batched_records = 0;
};

// Runs one trace against one pipeline setting.  `sequential` selects the
// forward scan; otherwise a deterministic scattered permutation (stride walk)
// that defeats the sequence detector.  The page-writer daemon is pumped every
// few references, standing in for the idle time it runs in on a real system;
// its cycles land on the same global clock, so pre-cleaning is charged fairly.
RunResult RunTrace(const PagingPipeline& pipeline, bool sequential) {
  KernelConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.paging_pipeline = pipeline;
  BenchKernel bk{config};
  PathWalker walker(&bk.kernel.gates());
  auto entry = walker.CreateSegment(*bk.ctx, ">pipe", BenchWorldAcl(), Label::SystemLow());
  if (!entry.ok()) {
    std::abort();
  }
  auto segno = bk.kernel.gates().Initiate(*bk.ctx, *entry);
  if (!segno.ok()) {
    std::abort();
  }
  for (uint32_t p = 0; p < kPages; ++p) {
    (void)bk.kernel.gates().Write(*bk.ctx, *segno, p * kPageWords, p + 1);
  }
  uint32_t refs = 0;
  auto touch = [&](uint32_t page) {
    (void)bk.kernel.gates().Read(*bk.ctx, *segno, page * kPageWords);
    if (++refs % kPumpEvery == 0) {
      (void)bk.kernel.vprocs().RunKernelTask("page_writer");
    }
  };
  auto one_round = [&]() {
    if (sequential) {
      for (uint32_t p = 0; p < kPages; ++p) {
        touch(p);
      }
    } else {
      // 67 is coprime to 192: a full-coverage walk with no sequential pairs.
      uint32_t p = 0;
      for (uint32_t i = 0; i < kPages; ++i) {
        touch(p);
        p = (p + 67) % kPages;
      }
    }
  };
  one_round();  // warmup: first evictions write the fill data back
  Metrics& m = bk.kernel.metrics();
  const Cycles before = bk.kernel.clock().now();
  const uint64_t faults0 = m.Get("pfm.faults_serviced");
  const uint64_t evict0 = m.Get("pfm.evictions");
  const uint64_t inline0 = m.Get("pfm.inline_evictions");
  const uint64_t issued0 = m.Get("pfm.prefetch_issued");
  const uint64_t hits0 = m.Get("pfm.prefetch_hits");
  const uint64_t waste0 = m.Get("pfm.prefetch_waste");
  const uint64_t batched0 = m.Get("disk.batched_records");
  for (uint32_t r = 0; r < kRounds; ++r) {
    one_round();
  }
  RunResult result;
  // Under demand paging every reference of the pressured scan faults, so
  // per-reference cycles ARE per-fault cycles of the disabled pipeline — the
  // one denominator that stays comparable as the pipeline suppresses faults.
  result.cyc_per_fault = static_cast<double>(bk.kernel.clock().now() - before) /
                         static_cast<double>(kRounds * kPages);
  result.faults = m.Get("pfm.faults_serviced") - faults0;
  result.evictions = m.Get("pfm.evictions") - evict0;
  result.inline_evictions = m.Get("pfm.inline_evictions") - inline0;
  result.prefetch_issued = m.Get("pfm.prefetch_issued") - issued0;
  result.prefetch_hits = m.Get("pfm.prefetch_hits") - hits0;
  result.prefetch_waste = m.Get("pfm.prefetch_waste") - waste0;
  result.batched_records = m.Get("disk.batched_records") - batched0;
  return result;
}

void Emit(const char* trace, const char* knobs, const RunResult& r) {
  const double inline_rate =
      r.evictions == 0 ? 0.0
                       : static_cast<double>(r.inline_evictions) / static_cast<double>(r.evictions);
  EmitJson(JsonLine("paging_pipeline")
               .Field("trace", trace)
               .Field("knobs", knobs)
               .Field("cyc_per_fault", r.cyc_per_fault)
               .Field("faults", r.faults)
               .Field("inline_eviction_rate", inline_rate)
               .Field("prefetch_issued", r.prefetch_issued)
               .Field("prefetch_hits", r.prefetch_hits)
               .Field("prefetch_waste", r.prefetch_waste)
               .Field("batched_records", r.batched_records));
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== P10: Anticipatory paging pipeline ===\n\n");

  double off_seq = 0;
  double full_seq = 0;
  uint64_t full_inline = 0;  // summed over both traces
  for (const char* trace : {"sequential", "scattered"}) {
    const bool sequential = trace[0] == 's' && trace[1] == 'e';
    std::printf("%-10s %-22s %14s %8s %10s %10s\n", "trace", "knobs", "cyc/fault", "faults",
                "inline-ev", "pf hit/iss");
    for (const bool full : {false, true}) {
      const char* name = full ? "full" : "off";
      const RunResult r = RunTrace(full ? PagingPipeline::Full() : PagingPipeline{}, sequential);
      std::printf("%-10s %-22s %14.0f %8llu %10llu %5llu/%llu\n", trace, name, r.cyc_per_fault,
                  (unsigned long long)r.faults, (unsigned long long)r.inline_evictions,
                  (unsigned long long)r.prefetch_hits, (unsigned long long)r.prefetch_issued);
      Emit(trace, name, r);
      if (full) {
        full_inline += r.inline_evictions;
      }
      if (sequential) {
        (full ? full_seq : off_seq) = r.cyc_per_fault;
      }
    }
    std::printf("\n");
  }

  const double speedup = full_seq > 0 ? off_seq / full_seq : 0;
  const bool reproduced = speedup >= 2.0 && full_inline == 0;
  std::printf("\nsequential scan under pressure: %.0f -> %.0f cyc/fault (%.1fx)\n", off_seq,
              full_seq, speedup);
  std::printf("full pipeline inline evictions, both traces: %llu\n",
              (unsigned long long)full_inline);
  std::printf("a missing-page fault almost never pays an inline writeback: %s\n",
              reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
