#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "src/common/hash.h"

namespace perfbench {

mks::KernelConfig PinnedKernelConfig(bool profile) {
  mks::KernelConfig config;
  config.cpu_count = kCpus;
  config.connect_cost = kConnectCost;
  // Machine shape: room for every workload's hierarchy, sessions and sweeps.
  config.memory_frames = 2048;
  config.ast_slots = 2048;
  config.pack_count = 4;
  config.records_per_pack = 16384;
  config.vtoc_slots_per_pack = 8192;
  // The full anticipatory paging pipeline (pre-cleaning, batched I/O,
  // readahead).
  config.paging_pipeline = mks::PagingPipeline::Full();
  // Sharded per-CPU run queues with deterministic work stealing.
  config.sharded_runqueues = true;
  config.steal = true;
  // MCS handoff pricing for the scheduler locks.
  config.lock_policy = mks::LockPolicy::kMcs;
  // Passive reader-writer locks on the naming surface.
  config.read_policy = mks::ReadPolicy::kPassiveRw;
  // Slab-pooled process slots.
  config.slab_processes = true;
  config.profile.enabled = profile;
  // Arming the stall watchdog never changes a run's output.
  config.profile.stall_rounds = 10000;
  return config;
}

mks::AnsweringConfig PinnedAnsweringConfig() {
  mks::AnsweringConfig config;
  // Sharded MCS session tables, and the skeleton cache behind a passive
  // reader-writer lock.
  config.table_mode = mks::SessionTableMode::kSharded;
  config.table_lock_policy = mks::LockPolicy::kMcs;
  config.table_line_transfer_cost = kConnectCost;
  config.skeleton_cache = true;
  config.cache_lock = mks::SharedLockConfig{mks::ReadPolicy::kPassiveRw, kConnectCost, 0, kCpus};
  return config;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNet: return "net";
    case Layer::kAnswering: return "answering";
    case Layer::kFs: return "fs";
    case Layer::kGates: return "gates";
    case Layer::kNaming: return "naming";
    case Layer::kUproc: return "uproc";
  }
  return "?";
}

double HostSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

void HostRate::Begin() {
  units_ = 0;
  cycles0_ = clock_->now();
  t0_ = std::chrono::steady_clock::now();
}

void HostRate::Close() {
  const double dt = HostSeconds(t0_);
  const double mcycles = static_cast<double>(clock_->now() - cycles0_) / 1e6;
  const double slowdown = ReferenceSeconds() / kReferenceSeconds;
  if (dt > 0) {
    samples_.raw_units_per_s.push_back(units_ / dt);
    samples_.units_per_s.push_back(units_ / dt * slowdown);
    samples_.mcycles_per_s.push_back(mcycles / dt * slowdown);
    samples_.slowdown.push_back(slowdown);
  }
  Begin();  // the reference computation stays outside every batch
}

double ReferenceSeconds() {
  // Scattered updates over 16 MB: like the simulator's kernel tables, the
  // reference depends on memory bandwidth and cache contention, the
  // co-tenant effects that move its speed most.
  static std::vector<uint64_t> table(1u << 21);
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint32_t i = 0; i < 60000; ++i) {
    x = mks::Fnv1a64Mix(x, i);
    table[x & (table.size() - 1)] += x;
  }
  table[0] += x;
  return HostSeconds(start);
}

// --- Probe ---

int64_t Probe::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

size_t Probe::Open(int layer, const char* name) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = current_op_;
  span.op_id = current_op_id_;
  span.start_ns = NowNs();
  span.cycles = clock_->now();  // the start until Close() turns it into the delta
  spans_.push_back(span);
  return spans_.size() - 1;
}

void Probe::Close(size_t index) {
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.cycles = clock_->now() - span.cycles;
  if (span.layer < 0) {
    return;
  }
  const double host_s = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  for (Totals* t : {&layers_[static_cast<size_t>(span.layer)],
                    &ops_[std::string(LayerName(static_cast<Layer>(span.layer))) + "." +
                          span.name]}) {
    ++t->calls;
    t->cycles += span.cycles;
    t->host_s += host_s;
  }
}

void Probe::BeginOp(const char* name, uint64_t id) {
  if (!tracing_) {
    return;
  }
  current_op_id_ = id;
  current_op_ = static_cast<int64_t>(Open(-1, name));
}

void Probe::EndOp() {
  if (!tracing_ || current_op_ < 0) {
    return;
  }
  Close(static_cast<size_t>(current_op_));
  current_op_ = -1;
}

double Probe::layer_host_s() const {
  double total = 0;
  for (const Totals& t : layers_) {
    total += t.host_s;
  }
  return total;
}

bool Probe::WriteSpans(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  std::fprintf(f, "{\"otherData\": {\"spans\": %zu, \"written\": %zu},\n\"traceEvents\": [\n",
               spans_.size(), written);
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %lld, \"op\": %llu, \"cycles\": %llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 s.layer < 0 ? "bench" : LayerName(static_cast<Layer>(s.layer)),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op_id),
                 static_cast<unsigned long long>(s.cycles));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- counters ---

namespace {

// Kernel counters read as deltas over the measured region.
constexpr const char* kKernelCounters[] = {
    "net.demux_frames",
    "net.demux_drops",
    "answering.logins",
    "answering.logouts",
    "answering.phase_auth_cycles",
    "answering.phase_process_cycles",
    "answering.phase_homedir_cycles",
    "answering.phase_accounting_cycles",
    "answering.session_lock_spin_cycles",
    "answering.skel_hits",
    "answering.skel_misses",
    "seg.activations",
    "seg.ast_replacements",
    "dir.searches",
    "uproc.idle_cycles",
    "uproc.slab_reuses",
    "runq.steals",
    "runq.lock_spin_cycles",
    "runq.transfers",
    "sched.list_lock_spin_cycles",
    "sched.proc_migrations",
    "vproc.vp_migrations",
    "pfm.faults_serviced",
    "pfm.evictions",
    "pfm.inline_evictions",
    "pfm.writebacks",
    "pfm.prefetch_hits",
    "pfm.prefetch_issued",
    "disk.reads",
    "disk.writes",
    "disk.batched_records",
    "hw.assoc_hits",
    "hw.assoc_misses",
    "hw.missing_page_faults",
    "hw.locked_descriptor_faults",
    "hw.connect_signals",
    "hw.connect_cycles",
};

std::string ProfKey(mks::ProfDomain domain) {
  std::string key = "prof.";
  for (const char* p = mks::ProfDomainName(domain); *p != '\0'; ++p) {
    key += *p == '-' ? '_' : *p;
  }
  return key;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

CounterSnapshot::CounterSnapshot(mks::Kernel& kernel) : base_(Read(kernel)) {}

std::map<std::string, double> CounterSnapshot::Read(mks::Kernel& kernel) {
  std::map<std::string, double> out;
  const mks::Metrics& metrics = kernel.metrics();
  for (const char* name : kKernelCounters) {
    out[name] = static_cast<double>(metrics.Get(name));
  }
  // The naming surface: the directory hierarchy lock plus the KST lock.
  for (const mks::SimSharedLock* lock :
       {&kernel.directories().naming_lock(), &kernel.known_segments().kst_lock()}) {
    out["naming.read_grants"] += static_cast<double>(lock->read_grants());
    out["naming.contended_reads"] += static_cast<double>(lock->contended_reads());
    out["naming.read_spin_cycles"] += static_cast<double>(lock->read_spin_cycles());
    out["naming.write_grants"] += static_cast<double>(lock->write_grants());
    out["naming.write_spin_cycles"] += static_cast<double>(lock->write_spin_cycles());
    out["naming.revocation_cycles"] += static_cast<double>(lock->revocation_cycles());
    out["naming.publish_cycles"] += static_cast<double>(lock->publish_cycles());
    out["naming.grace_cycles"] += static_cast<double>(lock->grace_cycles());
  }
  const mks::Prof& prof = kernel.ctx().prof;
  if (prof.enabled()) {
    const auto totals = prof.DomainTotals();
    for (size_t d = 0; d < mks::kProfDomainCount; ++d) {
      out[ProfKey(static_cast<mks::ProfDomain>(d))] = static_cast<double>(totals[d]);
    }
  }
  return out;
}

std::map<std::string, double> CounterSnapshot::Delta(mks::Kernel& kernel) const {
  std::map<std::string, double> now = Read(kernel);
  for (auto& [name, value] : now) {
    auto it = base_.find(name);
    if (it != base_.end()) {
      value -= it->second;
    }
  }
  return now;
}

// --- virtual time ---

void IdleUntil(mks::Kernel& kernel, Cycles t) {
  mks::CpuInterleave& smp = kernel.ctx().smp;
  for (uint16_t cpu = 0; cpu < smp.count(); ++cpu) {
    const Cycles local = smp.local_now(cpu);
    if (local < t) {
      smp.Accrue(cpu, t - local);
    }
  }
}

void AlignToGlobal(mks::Kernel& kernel) {
  mks::CpuInterleave& smp = kernel.ctx().smp;
  smp.AlignAll();
  if (kernel.clock().now() > smp.Makespan()) {
    smp.AdvanceAll(kernel.clock().now() - smp.Makespan());
  }
}

// --- results ---

void Episode::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

void Episode::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail("check failed: " + what);
  }
}

uint64_t Episode::VirtualDigest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t v : {attempted, failed, units, makespan, sim_cycles,
                     static_cast<uint64_t>(op_lat.size()), static_cast<uint64_t>(op2_lat.size())}) {
    h = mks::Fnv1a64Mix(h, v);
  }
  for (Cycles c : op_lat) {
    h = mks::Fnv1a64Mix(h, c);
  }
  for (Cycles c : op2_lat) {
    h = mks::Fnv1a64Mix(h, c);
  }
  // Kernel counters are virtual too; the profiler runs only in traced
  // episodes, so its totals stay out of the digest.
  for (const auto& [name, value] : counters) {
    if (name.rfind("prof.", 0) != 0) {
      h = mks::Fnv1a64Mix(h, mks::Fnv1a64(name));
      h = mks::Fnv1a64Mix(h, static_cast<uint64_t>(value));
    }
  }
  return h;
}

Cycles Percentile(std::vector<Cycles> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> specs;
    auto add = [&](const char* name, const char* unit) { specs.push_back({name, unit}); };
    auto layer = [&](const char* calls, const char* cycles, const char* host) {
      add(calls, "count");
      add(cycles, "cycles");
      add(host, "s");
    };
    layer("net.calls", "net.cycles", "net.host_s");
    add("net.frames", "count");
    add("net.drops", "count");
    add("net.admit_wait_cycles", "cycles");
    layer("answering.calls", "answering.cycles", "answering.host_s");
    add("answering.phase_auth_cycles", "cycles");
    add("answering.phase_process_cycles", "cycles");
    add("answering.phase_homedir_cycles", "cycles");
    add("answering.phase_accounting_cycles", "cycles");
    add("answering.session_lock_spin_cycles", "cycles");
    add("answering.skel_hit_ratio", "ratio");
    layer("fs.calls", "fs.cycles", "fs.host_s");
    add("fs.gate_read_calls", "count");
    add("fs.gate_write_calls", "count");
    layer("gates.calls", "gates.cycles", "gates.host_s");
    add("gates.set_acl.calls", "count");
    add("gates.set_acl.cycles", "cycles");
    add("gates.rename.calls", "count");
    add("gates.rename.cycles", "cycles");
    add("gates.delete.calls", "count");
    add("gates.delete.cycles", "cycles");
    add("gates.create_segment.calls", "count");
    add("gates.create_segment.cycles", "cycles");
    layer("naming.calls", "naming.cycles", "naming.host_s");
    add("naming.read_grants", "count");
    add("naming.contended_reads", "count");
    add("naming.read_spin_cycles", "cycles");
    add("naming.write_grants", "count");
    add("naming.write_spin_cycles", "cycles");
    add("naming.revocation_cycles", "cycles");
    add("naming.publish_cycles", "cycles");
    add("naming.grace_cycles", "cycles");
    add("seg.activations", "count");
    add("seg.ast_replacements", "count");
    add("dir.searches", "count");
    layer("uproc.calls", "uproc.cycles", "uproc.host_s");
    add("uproc.passes", "count");
    add("uproc.idle_cycles", "cycles");
    add("uproc.slab_reuses", "count");
    add("runq.steals", "count");
    add("runq.lock_spin_cycles", "cycles");
    add("runq.transfers", "count");
    add("sched.list_lock_spin_cycles", "cycles");
    add("sched.proc_migrations", "count");
    add("vproc.vp_migrations", "count");
    add("pfm.faults_serviced", "count");
    add("pfm.evictions", "count");
    add("pfm.inline_evictions", "count");
    add("pfm.writebacks", "count");
    add("pfm.prefetch_hit_ratio", "ratio");
    add("disk.reads", "count");
    add("disk.writes", "count");
    add("disk.batched_records", "count");
    add("hw.assoc_hit_ratio", "ratio");
    add("hw.missing_page_faults", "count");
    add("hw.locked_descriptor_faults", "count");
    add("hw.connect_signals", "count");
    add("hw.connect_cycles", "cycles");
    // Static storage: the specs hold the names' c_str()s.
    static const std::array<std::string, mks::kProfDomainCount> kProfNames = [] {
      std::array<std::string, mks::kProfDomainCount> names;
      for (size_t d = 0; d < names.size(); ++d) {
        names[d] = ProfKey(static_cast<mks::ProfDomain>(d));
      }
      return names;
    }();
    for (const std::string& name : kProfNames) {
      add(name.c_str(), "cycles");
    }
    add("bench.host_s", "s");
    add("trace.spans", "count");
    add("trace.overhead_s", "s");
    return specs;
  }();
  return kSpecs;
}

void FillLayerMetrics(Episode& ep, const Probe& probe,
                      const std::map<std::string, double>& counters) {
  ep.counters = counters;
  std::map<std::string, double>& m = ep.layer;
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  for (const auto& [name, value] : counters) {
    m[name] = value;  // names already in report form pass straight through
  }
  m["net.frames"] = counter("net.demux_frames");
  m["net.drops"] = counter("net.demux_drops");
  m["answering.skel_hit_ratio"] =
      Ratio(counter("answering.skel_hits"),
            counter("answering.skel_hits") + counter("answering.skel_misses"));
  m["pfm.prefetch_hit_ratio"] = Ratio(counter("pfm.prefetch_hits"), counter("pfm.prefetch_issued"));
  m["hw.assoc_hit_ratio"] =
      Ratio(counter("hw.assoc_hits"), counter("hw.assoc_hits") + counter("hw.assoc_misses"));
  if (!probe.tracing()) {
    return;
  }
  for (size_t l = 0; l < kLayerCount; ++l) {
    const Probe::Totals& t = probe.layer(static_cast<Layer>(l));
    const std::string prefix = LayerName(static_cast<Layer>(l));
    m[prefix + ".calls"] = static_cast<double>(t.calls);
    m[prefix + ".cycles"] = static_cast<double>(t.cycles);
    m[prefix + ".host_s"] = t.host_s;
  }
  for (const char* op : {"set_acl", "rename", "delete", "create_segment"}) {
    auto it = probe.ops().find(std::string("gates.") + op);
    const Probe::Totals t = it == probe.ops().end() ? Probe::Totals{} : it->second;
    m[std::string("gates.") + op + ".calls"] = static_cast<double>(t.calls);
    m[std::string("gates.") + op + ".cycles"] = static_cast<double>(t.cycles);
  }
  auto passes = probe.ops().find("uproc.run_until_quiescent");
  m["uproc.passes"] = passes == probe.ops().end() ? 0 : static_cast<double>(passes->second.calls);
  m["bench.host_s"] = ep.measured_s - probe.layer_host_s();
  m["trace.spans"] = static_cast<double>(probe.span_count());
}

}  // namespace perfbench
