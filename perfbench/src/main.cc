// The repository benchmark: command line, episode loop and report.
//
// Usage: mks_perfbench --workload rush_hour|name_walk|page_storm --seed N
//                      --seconds S --trace 0|1
//
// --trace 0 repeats untraced episodes of the workload until S seconds have
// passed (at least three) and reports the end-to-end metrics: virtual-time
// figures from the episodes (identical in every episode; the benchmark
// checks that), host rates as the median over the batches of every episode
// (see HostRate), set-up time as the median over episodes.
//
// --trace 1 runs untraced/traced episode pairs until S seconds have passed
// (at least one pair), checks that each pair agrees bit for bit in virtual
// time, and reports the per-layer metrics of the traced episode plus the
// tracing overhead (median traced minus untraced host time).  Spans are
// written to .bench_build/spans/<workload>-seed<N>.json.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed operation or check makes the run incorrect and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') {
        return false;
      }
    } else if (key == "--trace") {
      out->trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else {
      return false;
    }
  }
  return (argc - 1) % 2 == 0 && have_seed && out->seconds > 0 && out->trace >= 0;
}

Workload Find(const std::string& name) {
  if (name == "rush_hour") return RunRushHour;
  if (name == "name_walk") return RunNameWalk;
  if (name == "page_storm") return RunPageStorm;
  return nullptr;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Episode& ep, const std::vector<Metric>& metrics) {
  std::string json = correct ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(ep.attempted);
  json += ", \"failed\": " + std::to_string(ep.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void ReportFailures(const Episode& ep) {
  for (const std::string& e : ep.errors) {
    std::fprintf(stderr, "failure: %s\n", e.c_str());
  }
}

void PrintLatency(const char* label, const std::vector<Cycles>& samples) {
  std::printf("# %s latency: n=%zu p50=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64 " cycles\n",
              label, samples.size(), Percentile(samples, 0.50), Percentile(samples, 0.99),
              Percentile(samples, 1.0));
}

int RunUntraced(const Args& args, Workload run) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<Episode> episodes;
  bool correct = true;
  while (episodes.size() < 3 || (HostSeconds(start) < args.seconds && episodes.size() < 100)) {
    episodes.push_back(run(args.seed, false, ""));
    const Episode& ep = episodes.back();
    std::printf("# episode %zu: setup %.4f s, measured %.4f s, %.6g units/s as measured, "
                "host slowdown %.3f\n",
                episodes.size() - 1, ep.setup_s, ep.measured_s, Median(ep.host.raw_units_per_s),
                Median(ep.host.slowdown));
    if (ep.failed > 0) {
      ReportFailures(ep);
      correct = false;
      break;
    }
    if (ep.VirtualDigest() != episodes.front().VirtualDigest()) {
      std::fprintf(stderr, "failure: episode %zu differs from episode 0 in virtual time\n",
                   episodes.size() - 1);
      correct = false;
      break;
    }
  }
  const Episode& ep = episodes.front();
  std::vector<double> setup, ops_rate, sim_rate;
  for (const Episode& e : episodes) {
    // Set-up stays as measured: the reference tracks the measured regions'
    // speed, not that of set-up's allocation-heavy building.
    setup.push_back(e.setup_s);
    ops_rate.insert(ops_rate.end(), e.host.units_per_s.begin(), e.host.units_per_s.end());
    sim_rate.insert(sim_rate.end(), e.host.mcycles_per_s.begin(), e.host.mcycles_per_s.end());
  }
  const double attempted = static_cast<double>(std::max<uint64_t>(ep.attempted, 1));
  std::printf("# %s seed %" PRIu64 ": %zu episodes, virtual digest %016" PRIx64 "\n",
              args.workload.c_str(), args.seed, episodes.size(), ep.VirtualDigest());
  std::printf("# units %" PRIu64 " over makespan %" PRIu64 " cycles; %zu host-rate batches\n",
              ep.units, ep.makespan, ops_rate.size());
  PrintLatency("op", ep.op_lat);
  PrintLatency("op2", ep.op2_lat);
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup), "s"},
      {"host_ops_per_s", Median(ops_rate), "1/s"},
      {"host_mcycles_per_s", Median(sim_rate), "Mcycles/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_ratio", 1.0 - static_cast<double>(ep.failed) / attempted, "ratio"},
      {"ops_per_mcycle",
       ep.makespan == 0 ? 0.0 : static_cast<double>(ep.units) * 1e6 / static_cast<double>(ep.makespan),
       "1/Mcycles"},
      {"op_p50_cycles", static_cast<double>(Percentile(ep.op_lat, 0.50)), "cycles"},
      {"op_p99_cycles", static_cast<double>(Percentile(ep.op_lat, 0.99)), "cycles"},
      {"op2_p50_cycles", static_cast<double>(Percentile(ep.op2_lat, 0.50)), "cycles"},
      {"op2_p99_cycles", static_cast<double>(Percentile(ep.op2_lat, 0.99)), "cycles"},
  };
  PrintResult(correct, ep, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, Workload run) {
  const auto start = std::chrono::steady_clock::now();
  const std::string spans_path =
      ".bench_build/spans/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
  Episode traced;
  std::vector<double> overhead;
  bool correct = true;
  do {
    const Episode plain = run(args.seed, false, "");
    Episode t = run(args.seed, true, overhead.empty() ? spans_path : "");
    if (plain.failed > 0 || t.failed > 0) {
      ReportFailures(plain.failed > 0 ? plain : t);
      if (t.failed == 0) {
        t.Fail("untraced episode failed");
      }
      correct = false;
    } else if (plain.VirtualDigest() != t.VirtualDigest()) {
      std::fprintf(stderr, "failure: traced and untraced episodes differ in virtual time\n");
      t.Fail("traced/untraced virtual mismatch");
      correct = false;
    }
    // Both sides scaled to the reference host, like every host figure.
    overhead.push_back(t.measured_s / Median(t.host.slowdown) -
                       plain.measured_s / Median(plain.host.slowdown));
    if (overhead.size() == 1 || !correct) {
      traced = std::move(t);
    }
  } while (correct && HostSeconds(start) < args.seconds && overhead.size() < 50);
  traced.layer["trace.overhead_s"] = Median(overhead);
  std::printf("# %s seed %" PRIu64 ": %zu traced/untraced pairs, spans in %s\n",
              args.workload.c_str(), args.seed, overhead.size(), spans_path.c_str());
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    auto it = traced.layer.find(spec.name);
    metrics.push_back({spec.name, it == traced.layer.end() ? 0.0 : it->second, spec.unit});
    std::printf("# %-36s %18.6g %s\n", spec.name, metrics.back().value, spec.unit);
  }
  PrintResult(correct, traced, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload rush_hour|name_walk|page_storm --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const Workload run = Find(args.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace == 1 ? RunTraced(args, run) : RunUntraced(args, run);
}
