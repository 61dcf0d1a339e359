// Tests for the virtual-time tracer (src/sim/trace.h).
//
// Load-bearing properties:
//  * reproducibility — because records are stamped from the deterministic
//    global clock, two runs of the same 4-CPU workload export byte-identical
//    Chrome traces;
//  * invisibility — enabling the tracer never changes what the kernel
//    computes: counters, audit, and the clock match a trace-off run exactly
//    (tracing charges no cycles and keeps its names out of the counter
//    store);
//  * ring semantics — bounded per-CPU rings drop oldest-first and count
//    what they dropped;
//  * histogram semantics — log2 buckets with exact boundaries, and
//    percentile readback returns the upper bound of the bucket at rank.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/sim/trace.h"
#include "tests/kernel_fixture.h"

namespace mks {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level: determinism and invisibility at 4 CPUs.
// ---------------------------------------------------------------------------

struct TracedRun {
  std::string trace_json;
  std::map<std::string, uint64_t, std::less<>> counters;
  Cycles clock = 0;
  uint64_t fault_hist_count = 0;
  uint64_t dropped = 0;
  bool ok = false;
};

// Fault-heavy mixed workload at 4 CPUs; exports the trace before teardown.
TracedRun RunTraced(bool trace_enabled) {
  TracedRun out;
  KernelConfig config;
  config.cpu_count = 4;
  config.vp_count = 6;
  config.memory_frames = 48;  // 6 procs x 10 pages = 60 > 48: faults happen
  config.trace = trace_enabled;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  PathWalker walker(&kernel.gates());
  for (uint32_t i = 0; i < 6; ++i) {
    auto pid = kernel.processes().CreateProcess(TestSubject("U" + std::to_string(i)));
    if (!pid.ok()) {
      return out;
    }
    ProcContext* ctx = kernel.processes().Context(*pid);
    auto entry = walker.CreateSegment(*ctx, ">work>p" + std::to_string(i), WorldAcl(),
                                      Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    if (!segno.ok()) {
      return out;
    }
    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 60; ++n) {
      if (n % 3 == 0) {
        program.push_back(UserOp::Compute(25));
      } else {
        program.push_back(UserOp::Write(*segno, (n % 10) * kPageWords + n, n * 7 + i));
      }
    }
    if (!kernel.processes().SetProgram(*pid, std::move(program)).ok()) {
      return out;
    }
  }
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  out.trace_json = TraceExporter::Export(kernel.ctx().trace);
  out.counters = kernel.metrics().counters();
  out.clock = kernel.clock().now();
  out.fault_hist_count = kernel.metrics().HistCount("fault.service_cycles");
  for (uint16_t cpu = 0; cpu < kernel.ctx().trace.cpu_count(); ++cpu) {
    out.dropped += kernel.ctx().trace.dropped(cpu);
  }
  out.ok = true;
  return out;
}

TEST(TraceDeterminism, TwoTracedRunsAtFourCpusExportIdenticalJson) {
  const TracedRun a = RunTraced(true);
  const TracedRun b = RunTraced(true);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  // The whole exported trace — every timestamp, duration, lane, and arg —
  // must be byte-identical: the stamps come from the deterministic global
  // clock, so any divergence means tracing consulted real time or memory
  // layout.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_GT(a.trace_json.size(), 2u);
  EXPECT_GT(a.fault_hist_count, 0u);  // the workload really faulted
}

TEST(TraceInvisibility, EnablingTheTracerChangesNothingTheKernelComputes) {
  const TracedRun off = RunTraced(false);
  const TracedRun on = RunTraced(true);
  ASSERT_TRUE(off.ok);
  ASSERT_TRUE(on.ok);
  // Tracing charges no cycles and interns its names outside the counter
  // store, so the full counter dump and the final clock match exactly.
  EXPECT_EQ(off.counters, on.counters);
  EXPECT_EQ(off.clock, on.clock);
  // With the knob off nothing records or observes.
  EXPECT_EQ(off.fault_hist_count, 0u);
  EXPECT_TRUE(TraceExporter::Export(Tracer{nullptr, nullptr}).find("\"ph\":\"X\"") ==
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Unit-level: ring overflow.
// ---------------------------------------------------------------------------

TEST(TraceRing, DropsOldestAndCountsDropped) {
  Clock clock;
  Metrics metrics;
  Tracer tracer(&clock, &metrics);
  tracer.Enable(1, true);
  const TraceEventId ev = tracer.InternEvent("tick");
  constexpr uint32_t kOverflow = 12;
  for (uint32_t i = 0; i < Tracer::kRingCapacity + kOverflow; ++i) {
    clock.Advance(1);
    tracer.Instant(ev, /*proc=*/i);
  }
  const std::vector<TraceRecord> kept = tracer.Snapshot(0);
  ASSERT_EQ(kept.size(), Tracer::kRingCapacity);
  // Oldest-first: the survivors are the pushes from kOverflow on, stamped
  // from kOverflow + 1 on.
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].proc, kOverflow + i);
    EXPECT_EQ(kept[i].ts, kOverflow + 1 + i);
  }
  EXPECT_EQ(tracer.dropped(0), kOverflow);
  // A second lane never received records.
  EXPECT_EQ(tracer.dropped(1), 0u);
  EXPECT_TRUE(tracer.Snapshot(1).empty());
}

TEST(TraceRing, DisabledTracerRecordsNothing) {
  Clock clock;
  Metrics metrics;
  Tracer tracer(&clock, &metrics);
  tracer.Enable(2, false);
  const TraceEventId ev = tracer.InternEvent("tick");
  tracer.Instant(ev);
  tracer.CloseSpan(tracer.Begin(), ev);
  EXPECT_TRUE(tracer.Snapshot(0).empty());
  EXPECT_EQ(tracer.dropped(0), 0u);
}

// ---------------------------------------------------------------------------
// Unit-level: log2 histogram boundaries and percentiles.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Metrics::BucketOf(0), 0u);
  EXPECT_EQ(Metrics::BucketOf(1), 1u);
  EXPECT_EQ(Metrics::BucketOf(2), 2u);
  EXPECT_EQ(Metrics::BucketOf(3), 2u);
  EXPECT_EQ(Metrics::BucketOf(4), 3u);
  EXPECT_EQ(Metrics::BucketOf(7), 3u);
  EXPECT_EQ(Metrics::BucketOf(8), 4u);
  EXPECT_EQ(Metrics::BucketOf((1ull << 20) - 1), 20u);
  EXPECT_EQ(Metrics::BucketOf(1ull << 20), 21u);
  EXPECT_EQ(Metrics::BucketOf(UINT64_MAX), 64u);
  // Upper bounds are what percentile readback reports.
  EXPECT_EQ(Metrics::BucketUpper(0), 0u);
  EXPECT_EQ(Metrics::BucketUpper(3), 7u);
  EXPECT_EQ(Metrics::BucketUpper(64), UINT64_MAX);
}

TEST(Histogram, PercentileReadsBucketUpperAtRank) {
  Metrics metrics;
  const HistId h = metrics.InternHistogram("test.latency");
  for (uint64_t v : {1ull, 2ull, 4ull, 8ull}) {
    metrics.Observe(h, v);
  }
  EXPECT_EQ(metrics.HistCount("test.latency"), 4u);
  // rank(p) = max(1, ceil(p * 4)); the answer is the upper bound of the
  // bucket holding the rank-th smallest observation.
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.50), 3u);   // rank 2 -> bucket of 2
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.25), 1u);   // rank 1 -> bucket of 1
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.95), 15u);  // rank 4 -> bucket of 8
  EXPECT_EQ(metrics.HistPercentile("test.latency", 0.99), 15u);
}

TEST(Histogram, StaysOutOfTheCounterStore) {
  Metrics metrics;
  const HistId h = metrics.InternHistogram("test.hidden");
  metrics.Observe(h, 42);
  // Histograms live in their own store: the counter dump is untouched, so
  // pre-tracer tests comparing counters() exactly keep passing.
  EXPECT_TRUE(metrics.counters().empty());
  ASSERT_EQ(metrics.histogram_names().size(), 1u);
  EXPECT_EQ(metrics.histogram_names()[0], "test.hidden");
  // Unknown names read as empty.
  EXPECT_EQ(metrics.HistCount("test.absent"), 0u);
  EXPECT_EQ(metrics.HistPercentile("test.absent", 0.5), 0u);
}

}  // namespace
}  // namespace mks
