// Shared helpers for benchmark binaries (no gtest dependency).
#ifndef MKS_BENCH_BENCH_UTIL_H_
#define MKS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {

// Every bench arms the stall watchdog with this: a scheduler progress stamp
// (quanta run + device completions + process wakeups, src/sim/prof.h) frozen
// across this many dispatch rounds is always a modeling bug, never a long
// workload.  Arming it does not change any output — it only converts a
// livelock into a flight-recorder dump.
inline constexpr uint64_t kBenchStallRounds = 10000;

// Arms the stall watchdog on a bench's config unless the bench chose its own
// threshold.  Pass every bench KernelConfig through this at the construction
// site: `Kernel kernel{ArmWatchdog(config)};`.
inline KernelConfig ArmWatchdog(KernelConfig config) {
  if (config.profile.stall_rounds == 0) {
    config.profile.stall_rounds = kBenchStallRounds;
  }
  return config;
}

// One machine-readable result line.  Fields print in insertion order:
//   EmitJson(JsonLine("translation").Field("entries", 16).Field("cyc_per_ref", 3.2));
// -> {"bench": "translation", "entries": 16, "cyc_per_ref": 3.2000}
class JsonLine {
 public:
  explicit JsonLine(std::string_view bench) { Quoted("bench", bench); }

  JsonLine& Field(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Field(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f", value);
    return Raw(key, buf);
  }
  JsonLine& Field(std::string_view key, std::string_view value) { return Quoted(key, value); }

  const std::string& body() const { return body_; }

 private:
  JsonLine& Raw(std::string_view key, std::string_view rendered) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += rendered;
    return *this;
  }
  JsonLine& Quoted(std::string_view key, std::string_view value) {
    std::string quoted;
    quoted += '"';
    quoted += value;
    quoted += '"';
    return Raw(key, quoted);
  }

  std::string body_;
};

// Prints one result line.  Host speed is not a field here: perfbench's
// `host_mcycles_per_s` measures it.
inline void EmitJson(const JsonLine& line) { std::printf("{%s}\n", line.body().c_str()); }

// Appends p50/p95/p99 of one Metrics histogram as `<prefix>_p50` etc.  No-op
// when the histogram has no observations (tracing off), so a bench can call
// this unconditionally without perturbing its trace-off output.
inline JsonLine& FieldHistogram(JsonLine& line, const Metrics& metrics,
                                std::string_view hist, std::string_view prefix) {
  if (metrics.HistCount(hist) == 0) {
    return line;
  }
  std::string key(prefix);
  const size_t base = key.size();
  key += "_p50";
  line.Field(key, metrics.HistPercentile(hist, 0.50));
  key.replace(base, std::string::npos, "_p95");
  line.Field(key, metrics.HistPercentile(hist, 0.95));
  key.replace(base, std::string::npos, "_p99");
  line.Field(key, metrics.HistPercentile(hist, 0.99));
  return line;
}

// Total trace records dropped across every CPU ring; 0 with tracing off.
// Benches report it (when tracing) so a collector can tell a complete trace
// export from one that silently wrapped.
inline uint64_t TraceDroppedTotal(const Tracer& trace) {
  uint64_t total = 0;
  for (uint16_t cpu = 0; cpu < trace.cpu_count(); ++cpu) {
    total += trace.dropped(cpu);
  }
  return total;
}

// Appends p50/p95/p99 for EVERY interned histogram with observations, keyed
// `<name_with_dots_as_underscores>_p50` etc.  Replaces the per-bench
// copy-pasted FieldHistogram lists; histogram_names() is sorted, so the field
// order is stable run to run.
inline JsonLine& FieldAllHistograms(JsonLine& line, const Metrics& metrics) {
  for (const std::string& name : metrics.histogram_names()) {
    std::string prefix = name;
    std::replace(prefix.begin(), prefix.end(), '.', '_');
    FieldHistogram(line, metrics, name, prefix);
  }
  return line;
}

// Appends whole-machine per-domain cycle totals as `prof_<domain>` fields
// (zero domains skipped); no-op with the profiler off.
inline JsonLine& FieldProfDomains(JsonLine& line, const Prof& prof) {
  if (!prof.enabled()) {
    return line;
  }
  const std::array<Cycles, kProfDomainCount> totals = prof.DomainTotals();
  for (size_t d = 0; d < kProfDomainCount; ++d) {
    if (totals[d] == 0) {
      continue;
    }
    std::string key = "prof_";
    for (const char* p = ProfDomainName(static_cast<ProfDomain>(d)); *p != '\0'; ++p) {
      key += *p == '-' ? '_' : *p;
    }
    line.Field(key, totals[d]);
  }
  return line;
}

// Human-readable top-domain breakdown for --profile runs: domains sorted by
// attributed cycles, with their share of everything attributed.
inline void PrintProfileTable(const Prof& prof, const char* title) {
  if (!prof.enabled()) {
    return;
  }
  const std::array<Cycles, kProfDomainCount> totals = prof.DomainTotals();
  Cycles sum = 0;
  std::vector<std::pair<Cycles, size_t>> order;
  for (size_t d = 0; d < kProfDomainCount; ++d) {
    sum += totals[d];
    if (totals[d] > 0) {
      order.emplace_back(totals[d], d);
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::printf("# profile: %s (%llu attributed cycles)\n", title,
              static_cast<unsigned long long>(sum));
  for (const auto& [cycles, d] : order) {
    std::printf("#   %-16s %14llu  %5.1f%%\n",
                ProfDomainName(static_cast<ProfDomain>(d)),
                static_cast<unsigned long long>(cycles),
                100.0 * static_cast<double>(cycles) / static_cast<double>(sum));
  }
}

// Writes the profiler's collapsed-stack export (flamegraph.pl / speedscope
// input) to `path`; no-op with the profiler off.
inline void WriteFolded(const Prof& prof, const std::string& path) {
  if (!prof.enabled()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string folded = prof.CollapsedStacks();
  std::fwrite(folded.data(), 1, folded.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "profile: wrote %s\n", path.c_str());
}

inline Acl BenchWorldAcl() {
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  return acl;
}

// A booted kernel plus one user process; aborts the bench on failure.
struct BenchKernel {
  explicit BenchKernel(KernelConfig config = KernelConfig{}) : kernel(ArmWatchdog(config)) {
    if (!kernel.Boot().ok()) {
      std::fprintf(stderr, "kernel boot failed\n");
      std::abort();
    }
    Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
    auto created = kernel.processes().CreateProcess(user);
    if (!created.ok()) {
      std::fprintf(stderr, "process creation failed\n");
      std::abort();
    }
    pid = *created;
    ctx = kernel.processes().Context(pid);
  }

  Kernel kernel;
  ProcessId pid{};
  ProcContext* ctx = nullptr;
};

}  // namespace mks

#endif  // MKS_BENCH_BENCH_UTIL_H_
