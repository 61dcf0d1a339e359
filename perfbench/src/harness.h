// Shared machinery of the repository benchmark: the pinned kernel
// configuration, the outside-in layer probe (call counts, virtual cycles,
// host seconds, spans), counter deltas over the measured region, virtual-time
// helpers for the simulated CPU pool, and the per-episode result record.
//
// The benchmark drives the kernel only through public entry points and reads
// only the counters the layers already export; nothing here changes how the
// simulator behaves, so a traced episode is bit-identical in virtual time to
// an untraced one.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/answering/service.h"
#include "src/kernel/kernel.h"

namespace perfbench {

using mks::Cycles;

inline constexpr uint16_t kCpus = 16;
inline constexpr Cycles kConnectCost = 400;

// Every workload boots this configuration: 16 CPUs, connect_cost 400, the
// machine shape, and the best setting earlier measurements found for each
// mechanism knob.  Every other field keeps its default, so a mechanism that
// becomes the default reaches the benchmark without editing it.
mks::KernelConfig PinnedKernelConfig(bool profile);
mks::AnsweringConfig PinnedAnsweringConfig();

// The layers the benchmark calls into, named after the src/ modules.
enum class Layer : uint8_t { kNet, kAnswering, kFs, kGates, kNaming, kUproc };
inline constexpr size_t kLayerCount = 6;
const char* LayerName(Layer layer);

double HostSeconds(std::chrono::steady_clock::time_point since);

// Host seconds a fixed reference computation takes now.
double ReferenceSeconds();

// ReferenceSeconds() on the host the benchmark was defined on (one vCPU of
// an Intel Xeon at 2.1 GHz, typical of a quiet period).  Host figures are
// scaled to that host.
inline constexpr double kReferenceSeconds = 0.0018;

// Host-speed samples of one measured region, one per batch of work.
struct HostSamples {
  std::vector<double> units_per_s;      // scaled to the reference host
  std::vector<double> mcycles_per_s;    // simulated Mcycles per second, scaled likewise
  std::vector<double> raw_units_per_s;  // as measured
  std::vector<double> slowdown;         // ReferenceSeconds() / kReferenceSeconds
};

// Host speed of a measured region, sampled in batches of work.  A shared
// host drifts in speed by tens of percent over seconds (co-tenants, SMT
// siblings) and stalls briefly on preemption.  Timing the reference
// computation right after each batch and scaling the batch's rate by it
// cancels the drift; taking the median over many short batches drops the
// stalls.  Batch boundaries fall at fixed amounts of work, so every episode
// of a seed samples alike.
class HostRate {
 public:
  HostRate(const mks::Clock* clock, double batch_units) : clock_(clock), batch_(batch_units) {}

  // Starts the first batch.
  void Begin();
  // Adds completed work; closes the batch once it holds `batch_units`.
  void Add(double units) {
    units_ += units;
    if (units_ >= batch_) {
      Close();
    }
  }

  const HostSamples& samples() const { return samples_; }

 private:
  void Close();

  const mks::Clock* clock_;
  double batch_;
  double units_ = 0;
  Cycles cycles0_ = 0;
  std::chrono::steady_clock::time_point t0_;
  HostSamples samples_;
};

// Times each call into a layer from outside: virtual cycles (the global
// Clock delta around the call) and host seconds, plus one span per call
// under the benchmark's current operation span.  With tracing off a call is
// forwarded untouched.
class Probe {
 public:
  struct Totals {
    uint64_t calls = 0;
    Cycles cycles = 0;
    double host_s = 0;
  };

  Probe(bool tracing, const mks::Clock* clock) : tracing_(tracing), clock_(clock) {}

  bool tracing() const { return tracing_; }

  template <class F>
  auto Call(Layer layer, const char* op, F&& f) -> decltype(f()) {
    if (!tracing_) {
      return f();
    }
    const size_t span = Open(static_cast<int>(layer), op);
    auto result = f();
    Close(span);
    return result;
  }

  // A benchmark-side parent span: one session step, walk, write or round.
  void BeginOp(const char* name, uint64_t id);
  void EndOp();

  const Totals& layer(Layer l) const { return layers_[static_cast<size_t>(l)]; }
  // Per entry point, keyed "<layer>.<op>".
  const std::map<std::string, Totals>& ops() const { return ops_; }
  double layer_host_s() const;
  size_t span_count() const { return spans_.size(); }

  // Chrome trace-event JSON of the first kMaxWrittenSpans spans kept in
  // memory (a long episode keeps hundreds of thousands).
  static constexpr size_t kMaxWrittenSpans = 100000;
  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    int layer = -1;  // -1: a benchmark operation span
    int64_t parent = -1;
    uint64_t op_id = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    Cycles cycles = 0;
  };

  size_t Open(int layer, const char* name);
  void Close(size_t span);
  int64_t NowNs() const;

  bool tracing_;
  const mks::Clock* clock_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int64_t current_op_ = -1;
  uint64_t current_op_id_ = 0;
  std::array<Totals, kLayerCount> layers_{};
  std::map<std::string, Totals> ops_;
};

// Snapshot of the exported kernel counters, the naming locks and the
// profiler's domain totals at the start of the measured region; Delta()
// reads the same set again and returns the differences by name.
class CounterSnapshot {
 public:
  explicit CounterSnapshot(mks::Kernel& kernel);
  std::map<std::string, double> Delta(mks::Kernel& kernel) const;

 private:
  static std::map<std::string, double> Read(mks::Kernel& kernel);
  std::map<std::string, double> base_;
};

// --- virtual time on the simulated CPU pool ---

// Brings every CPU whose local clock is behind `t` up to `t`: open-loop
// arrivals cannot be served before they are due.
void IdleUntil(mks::Kernel& kernel, Cycles t);

// Barrier into a measured region: every local clock aligned and advanced to
// the global clock, so set-up never reads as contention in measured windows.
void AlignToGlobal(mks::Kernel& kernel);

// Runs `body` as one accrual window on `cpu` and returns the window's
// virtual length (which is also the CPU's local-clock advance).
template <class F>
Cycles RunWindow(mks::Kernel& kernel, uint16_t cpu, mks::ProfDomain root, F&& body) {
  mks::KernelContext& kctx = kernel.ctx();
  kctx.current_cpu = cpu;
  kctx.trace.SetCpu(cpu);
  kctx.AnchorWindow();
  mks::Prof::Window window(&kctx.prof, cpu, root);
  const Cycles t0 = kernel.clock().now();
  body();
  const Cycles delta = kernel.clock().now() - t0;
  if (delta > 0) {
    kctx.smp.Accrue(cpu, delta);
  }
  return delta;
}

// --- results ---

// One episode: boot, set-up, the measured region, and the checks.
struct Episode {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure descriptions

  double setup_s = 0;     // host: boot, enrollment, hierarchy build, warm-up
  double measured_s = 0;  // host: the measured region alone
  HostSamples host;       // host speed of the measured region
  uint64_t units = 0;     // sessions, operations, or user references completed
  Cycles makespan = 0;    // virtual: parallel completion time of the region
  Cycles sim_cycles = 0;  // virtual: serialized cycles simulated in the region
  std::vector<Cycles> op_lat;   // primary operation latencies
  std::vector<Cycles> op2_lat;  // secondary operation latencies

  // Kernel counter deltas over the measured region, and the per-layer
  // metrics derived from them (traced episodes add the probe's).
  std::map<std::string, double> counters;
  std::map<std::string, double> layer;

  // Records one failure; `what` is kept for the report.
  void Fail(const std::string& what);
  // Counts a check; a false condition is a failure.
  void Check(bool ok, const std::string& what);

  // Hash of every virtual-time result, for determinism comparisons.
  uint64_t VirtualDigest() const;
};

// Exact nearest-rank percentile of `samples` (p in (0, 1]); 0 when empty.
Cycles Percentile(std::vector<Cycles> samples, double p);

// Fills the per-layer metrics every workload reports: probe totals, the
// kernel counter deltas, derived ratios, and bench.host_s.
void FillLayerMetrics(Episode& ep, const Probe& probe,
                      const std::map<std::string, double>& counters);

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The per-layer metric set, in report order (BENCHMARK.json lists the same).
const std::vector<MetricSpec>& PerLayerMetrics();

using Workload = Episode (*)(uint64_t seed, bool tracing, const std::string& spans_path);
Episode RunRushHour(uint64_t seed, bool tracing, const std::string& spans_path);
Episode RunNameWalk(uint64_t seed, bool tracing, const std::string& spans_path);
Episode RunPageStorm(uint64_t seed, bool tracing, const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
