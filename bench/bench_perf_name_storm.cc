// P16 — the name storm: read-mostly synchronization policies on the naming
// surface (directory hierarchy + known segment tables) at 1–16 CPUs.
//
// The workload is the paper's traffic asymmetry made concrete: a 1000:1
// read:write mix where every read is a two-component path walk (two gate
// Searches through the directory manager) plus one KST lookup, and every
// 1000th operation is a SetAcl — a write-class gate that must exclude the
// readers.  Ops are dealt round-robin to the furthest-behind CPU, so the
// pool genuinely overlaps in virtual time and the naming lock is the only
// thing standing between the readers and linear speedup.
//
// Two read-side policies over the identical schedule (grant order never
// changes — the serialized simulation orders every section):
//
//   passive_rw — per-CPU read tokens [Liu et al., ATC 2014]: a contended
//                read costs NO line transfers; the rare writer revokes the
//                outstanding tokens at connect_cost per remote reader CPU.
//   epoch      — RCU-style epoch pins [Clements et al., ASPLOS 2012]:
//                readers are free even against an in-flight writer; the
//                writer publishes one broadcast and waits out the grace
//                period (drain + epoch_grace_cost).
//
// Headline: at 16 CPUs each read-mostly policy must scale at least half
// linearly (>= 8x) over its own 1-CPU makespan — readers taken out of the
// line-transfer economy let the naming surface grow with the pool.  A
// bit-identical double-run self-check guards determinism.
//
// Usage: bench_perf_name_storm [--smoke] [--profile]
//   --smoke: cpus {1,4}, ~10x fewer ops; skips the 16-CPU verdict but keeps
//            the double-run self-check; always exits 0.
//   --profile: enable the cycle-accounting profiler; each run prints a
//            top-domain breakdown table and emits a `name_storm_prof` JSON
//            line, and the passive_rw policy at the largest pool exports
//            bench_perf_name_storm.prof.folded (flamegraph collapsed stacks).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

constexpr ReadPolicy kPolicies[] = {ReadPolicy::kPassiveRw, ReadPolicy::kEpoch};
constexpr int kPolicyCount = static_cast<int>(std::size(kPolicies));
constexpr uint32_t kLibSegments = 32;
constexpr uint32_t kWritePeriod = 1000;  // the 1000:1 read:write mix

struct StormResult {
  Cycles total = 0;
  Cycles makespan = 0;
  uint64_t walks = 0;
  uint64_t writes = 0;
  // Summed over the directory hierarchy lock and the KST lock.
  uint64_t read_grants = 0;
  uint64_t contended_reads = 0;
  Cycles read_spin_cycles = 0;
  uint64_t write_grants = 0;
  Cycles write_spin_cycles = 0;
  uint64_t revoked_cpus = 0;
  Cycles revocation_cycles = 0;
  Cycles publish_cycles = 0;
  uint64_t grace_waits = 0;
  Cycles grace_cycles = 0;
  uint64_t gate_reads = 0;
  uint64_t gate_writes = 0;
  bool ok = false;

  void AddLock(const SimSharedLock& lock) {
    read_grants += lock.read_grants();
    contended_reads += lock.contended_reads();
    read_spin_cycles += lock.read_spin_cycles();
    write_grants += lock.write_grants();
    write_spin_cycles += lock.write_spin_cycles();
    revoked_cpus += lock.revoked_cpus();
    revocation_cycles += lock.revocation_cycles();
    publish_cycles += lock.publish_cycles();
    grace_waits += lock.grace_waits();
    grace_cycles += lock.grace_cycles();
  }

  bool operator==(const StormResult&) const = default;
};

// Drives `ops` naming operations round-robin across the pool: each op runs
// on the furthest-behind CPU in its own anchored window and its global-clock
// delta is accrued there, so sections genuinely overlap in virtual time.
StormResult RunStorm(ReadPolicy policy, uint16_t cpus, uint32_t ops, bool profile = false,
                     const char* folded_path = nullptr) {
  StormResult out;
  KernelConfig config;
  config.memory_frames = 256;
  config.records_per_pack = 8192;
  config.cpu_count = cpus;
  config.connect_cost = 400;  // prices token revocation and the epoch publish
  config.read_policy = policy;
  config.epoch_grace_cost = 600;
  config.profile.enabled = profile;
  config.profile.stall_rounds = kBenchStallRounds;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  KernelContext& kctx = kernel.ctx();
  PathWalker walker(&kernel.gates());
  const Acl acl = BenchWorldAcl();
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};

  // One process per CPU; each initiates one probe segment for KST lookups.
  std::vector<ProcContext*> procs;
  std::vector<ProcessId> pids;
  std::vector<Segno> probes;
  for (uint16_t c = 0; c < cpus; ++c) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      return out;
    }
    pids.push_back(*pid);
    procs.push_back(kernel.processes().Context(*pid));
  }
  for (uint32_t s = 0; s < kLibSegments; ++s) {
    auto entry =
        walker.CreateSegment(*procs[0], ">lib>s" + std::to_string(s), acl, Label::SystemLow());
    if (!entry.ok()) {
      return out;
    }
  }
  auto lib = walker.Walk(*procs[0], ">lib");
  if (!lib.ok()) {
    return out;
  }
  for (uint16_t c = 0; c < cpus; ++c) {
    auto segno = walker.Initiate(*procs[c], ">lib>s" + std::to_string(c % kLibSegments));
    if (!segno.ok()) {
      return out;
    }
    probes.push_back(*segno);
  }

  // Barrier into the measured region: every local clock aligned AND advanced
  // to the global clock, so release points recorded during (unanchored,
  // single-stream) boot and setup can never read as contention against the
  // measured windows.  At 1 CPU this makes read spin structurally zero.
  kctx.AlignToGlobal();
  const Cycles m0 = kctx.smp.Makespan();
  const Cycles before = kernel.clock().now();
  for (uint32_t i = 0; i < ops; ++i) {
    const uint16_t cpu = kctx.smp.NextCpu();
    // Each op is one accrual window, closed at the end of the iteration.
    // Everything inside goes through the gate layer, so the root is the gate
    // domain.
    KernelContext::Window window(&kctx, cpu, ProfDomain::kGate);
    if (i % kWritePeriod == kWritePeriod - 1) {
      const std::string name = "s" + std::to_string(i % kLibSegments);
      if (!kernel.gates().SetAcl(*procs[cpu], *lib, name, acl).ok()) {
        return out;
      }
      ++out.writes;
    } else {
      const std::string path = ">lib>s" + std::to_string(i % kLibSegments);
      if (!walker.Walk(*procs[cpu], path).ok()) {
        return out;
      }
      if (kernel.known_segments().Lookup(pids[cpu], probes[cpu]) == nullptr) {
        return out;
      }
      ++out.walks;
    }
  }
  out.total = kernel.clock().now() - before;
  out.makespan = kctx.smp.Makespan() - m0;
  out.AddLock(kernel.directories().naming_lock());
  out.AddLock(kernel.known_segments().kst_lock());
  out.gate_reads = walker.gate_mix().read_calls;
  out.gate_writes = walker.gate_mix().write_calls;
  if (profile) {
    char title[96];
    std::snprintf(title, sizeof title, "%s @ %u cpus", ReadPolicyName(policy), cpus);
    PrintProfileTable(kctx.prof, title);
    JsonLine pline("name_storm_prof");
    pline.Field("policy", ReadPolicyName(policy)).Field("cpus", uint64_t{cpus});
    EmitJson(FieldProfDomains(pline, kctx.prof));
    if (folded_path != nullptr) {
      WriteFolded(kctx.prof, folded_path);
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
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    }
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 2, 4, 8, 16};
  const uint32_t ops = smoke ? 4000 : 40000;
  const uint16_t max_cpus = cpu_counts.back();

  std::printf("=== P16: name storm — read-mostly policies on the naming surface ===\n\n");
  std::printf("%u ops, 1 write per %u (SetAcl), read = 2-component walk + KST lookup\n\n",
              ops, kWritePeriod);
  double speedup_at_max[kPolicyCount] = {};
  std::printf("%11s %5s %12s %12s %9s %12s %11s %11s %11s\n", "policy", "cpus", "makespan",
              "total", "speedup", "walks/Mcyc", "read spin", "revoke cyc", "grace cyc");
  for (int pi = 0; pi < kPolicyCount; ++pi) {
    const ReadPolicy policy = kPolicies[pi];
    Cycles m1 = 0;
    for (uint16_t cpus : cpu_counts) {
      const bool want_folded =
          profile && policy == ReadPolicy::kPassiveRw && cpus == max_cpus;
      const StormResult r =
          RunStorm(policy, cpus, ops, profile,
                   want_folded ? "bench_perf_name_storm.prof.folded" : nullptr);
      if (!r.ok) {
        std::fprintf(stderr, "run failed (%s, %u cpus)\n", ReadPolicyName(policy), cpus);
        return 1;
      }
      if (cpus == 1) {
        m1 = r.makespan;
      }
      const double speedup = static_cast<double>(m1) / r.makespan;
      const double walks_per_mcyc =
          r.makespan == 0 ? 0 : static_cast<double>(r.walks) * 1e6 / r.makespan;
      std::printf("%11s %5u %12llu %12llu %8.2fx %12.1f %11llu %11llu %11llu\n",
                  ReadPolicyName(policy), cpus, (unsigned long long)r.makespan,
                  (unsigned long long)r.total, speedup, walks_per_mcyc,
                  (unsigned long long)r.read_spin_cycles,
                  (unsigned long long)r.revocation_cycles, (unsigned long long)r.grace_cycles);
      JsonLine line("name_storm");
      line.Field("policy", ReadPolicyName(policy))
          .Field("cpus", uint64_t{cpus})
          .Field("makespan", r.makespan)
          .Field("total_cycles", r.total)
          .Field("speedup_vs_1cpu", speedup)
          .Field("walks", r.walks)
          .Field("writes", r.writes)
          .Field("walks_per_mcycle", walks_per_mcyc)
          .Field("read_grants", r.read_grants)
          .Field("contended_reads", r.contended_reads)
          .Field("read_spin_cycles", r.read_spin_cycles)
          .Field("write_grants", r.write_grants)
          .Field("write_spin_cycles", r.write_spin_cycles)
          .Field("revoked_cpus", r.revoked_cpus)
          .Field("revocation_cycles", r.revocation_cycles)
          .Field("publish_cycles", r.publish_cycles)
          .Field("grace_waits", r.grace_waits)
          .Field("grace_cycles", r.grace_cycles)
          .Field("gate_read_calls", r.gate_reads)
          .Field("gate_write_calls", r.gate_writes);
      EmitJson(line);
      if (cpus == max_cpus) {
        speedup_at_max[pi] = speedup;
      }
    }
    std::printf("\n");
  }

  // Determinism self-check: the heaviest configuration of each read-mostly
  // policy, twice, must match on every counter bit-for-bit.
  {
    const StormResult a = RunStorm(ReadPolicy::kPassiveRw, max_cpus, ops);
    const StormResult b = RunStorm(ReadPolicy::kPassiveRw, max_cpus, ops);
    const StormResult c = RunStorm(ReadPolicy::kEpoch, max_cpus, ops);
    const StormResult d = RunStorm(ReadPolicy::kEpoch, max_cpus, ops);
    if (!a.ok || !b.ok || !c.ok || !d.ok || a != b || c != d) {
      std::fprintf(stderr, "DETERMINISM FAILURE: double-run results differ\n");
      return 1;
    }
    std::printf("double-run self-check: bit-identical (passive_rw and epoch at %u CPUs)\n",
                max_cpus);
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  // Half of linear: 8x at 16 CPUs.
  const double min_speedup = max_cpus / 2.0;
  const bool scales = speedup_at_max[0] >= min_speedup && speedup_at_max[1] >= min_speedup;
  std::printf("\nat %u CPUs: passive_rw %.4fx / epoch %.4fx over 1 CPU (need >= %.0fx each): %s\n",
              max_cpus, speedup_at_max[0], speedup_at_max[1], min_speedup,
              scales ? "both scale" : "NO");
  std::printf("taking lookups out of the line-transfer economy makes the naming surface\n"
              "scale with the pool -> %s\n",
              scales ? "REPRODUCED" : "MISMATCH");
  return scales ? 0 : 1;
}
