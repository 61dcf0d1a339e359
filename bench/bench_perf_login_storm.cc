// P18 — the login storm: parallel session establishment across the CPU pool.
//
// The paper's answering-service extraction was measured at toy scale; the
// ROADMAP's north star is "millions of users".  This bench drives thousands
// of login/logout sessions through the answering service at 1–16 CPUs with
// churn (staggered logout/re-login), and measures what it takes to make
// session establishment scale:
//
//   seed    — the serial seed table (no lock).  Not concurrency-safe, so it
//             runs at 1 CPU only: the per-session reference cost the verdict
//             measures against.
//   sharded — lock-per-shard session and accounting tables (PR 7 lock
//             policies price the handoffs); locks held only for table ops.
//   full    — sharded + per-project home-directory skeleton cache behind a
//             read-mostly lock (PR 8 passive reader-writer) + slab-pooled
//             process slots (KST and state segment reused across sessions) +
//             passive reader-writer on the kernel naming surface.  Passive-rw
//             beats epoch here: after warm-up the mix is read-mostly, and an
//             epoch publish would bill every residual write a full-pool
//             broadcast.
//
// Following the P3 precedent, an unmeasured warm-up pass logs every user in
// and out once before the barrier: home directories exist and (with the slab
// knob) a process slot is parked per user, so the measured storm is what the
// issue asks about — repeat logins at scale, not first-boot directory
// creation.  Tracing is enabled only after warm-up and the instrument
// counters are snapshotted, so histograms and deltas cover exactly the
// measured storm.
//
// Per-phase cycle accounting (auth, process-create, home-dir, accounting)
// rides the always-on phase counters; login latency p50/p95/p99 comes from
// the PR 4 tracer's span histograms; `prof_*` domain attribution from the
// PR 9 profiler under the new `session-setup` domain.
//
// Verdict: at 16 CPUs, full must reach at least half of linear scaling
// (>= 8x) over the seed's 1-CPU session throughput, with a bit-identical
// double-run self-check.
//
// Usage: bench_perf_login_storm [--smoke] [--profile] [--users N] [--churn N]
//   --smoke: cpus {1,4}, ~8x fewer users; skips the 16-CPU verdict but keeps
//            the double-run self-check; always exits 0.
//   --profile: enable the cycle-accounting profiler; each run prints a
//            top-domain table and emits a `login_storm_prof` JSON line, and
//            the sharded mode at the largest pool exports
//            bench_perf_login_storm.prof.folded.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/answering/service.h"

namespace mks {
namespace {

enum class StormMode : uint8_t { kSeed, kSharded, kFull };

const char* ModeName(StormMode mode) {
  switch (mode) {
    case StormMode::kSeed: return "seed";
    case StormMode::kSharded: return "sharded";
    case StormMode::kFull: return "full";
  }
  return "?";
}

constexpr int kProjects = 8;

std::string PersonOf(int u) { return "User" + std::to_string(u); }
std::string ProjectOf(int u) { return "Proj" + std::to_string(u % kProjects); }

struct StormResult {
  Cycles makespan = 0;
  Cycles total = 0;
  uint64_t sessions = 0;
  uint64_t logins = 0;
  uint64_t logouts = 0;
  // Per-phase cycle split (always-on counters in the answering service).
  uint64_t phase_auth = 0;
  uint64_t phase_process = 0;
  uint64_t phase_homedir = 0;
  uint64_t phase_accounting = 0;
  // Contention and reuse instruments.
  uint64_t table_spin_cycles = 0;
  uint64_t slab_reuses = 0;
  uint64_t kst_resets = 0;
  uint64_t skel_hits = 0;
  uint64_t skel_misses = 0;
  // Login-latency percentiles from the tracer's span histogram.
  uint64_t login_p50 = 0;
  uint64_t login_p95 = 0;
  uint64_t login_p99 = 0;
  bool ok = false;

  bool operator==(const StormResult&) const = default;
};

// Drives the storm: login all users, `churn` staggered logout/re-login
// rounds, then logout all.  Each session operation runs on the
// furthest-behind CPU in its own anchored window, so transactions genuinely
// overlap in virtual time and the session-table guard is what decides
// whether the pool helps.
StormResult RunStorm(StormMode mode, uint16_t cpus, int users, int churn, bool profile = false,
                     const char* folded_path = nullptr) {
  StormResult out;
  KernelConfig config;
  config.cpu_count = cpus;
  // Sized for thousands of live sessions: every session owns a state
  // segment's VTOC entry and every user a home directory.
  config.memory_frames = 1024;
  config.ast_slots = 512;
  config.pack_count = 4;
  config.vtoc_slots_per_pack = 4096;
  config.records_per_pack = 16384;
  config.connect_cost = 400;  // prices lock handoffs and naming broadcasts
  // Tracing starts off and is enabled after the warm-up pass, so the
  // latency histograms hold exactly the measured storm's spans.
  config.profile.enabled = profile;
  config.profile.stall_rounds = kBenchStallRounds;
  if (mode == StormMode::kFull) {
    config.slab_processes = true;
    // Passive reader-writer on the naming surface: the storm's directory
    // walks and KST scans read for free, and the (wave-1-only) directory
    // creations revoke just the tokens remote CPUs actually hold — the
    // right PR 8 policy for a read-mostly-after-warmup mix, where epoch
    // publishes would bill every write a full-pool broadcast.
    config.read_policy = ReadPolicy::kPassiveRw;
  }
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  KernelContext& kctx = kernel.ctx();

  AnsweringConfig acfg;
  switch (mode) {
    case StormMode::kSeed:
      break;  // the serial seed table
    case StormMode::kSharded:
    case StormMode::kFull:
      acfg.table_mode = SessionTableMode::kSharded;
      acfg.table_lock_policy = LockPolicy::kMcs;
      acfg.table_line_transfer_cost = config.connect_cost;
      break;
  }
  if (mode == StormMode::kFull) {
    acfg.skeleton_cache = true;
    acfg.cache_lock =
        SharedLockConfig{ReadPolicy::kPassiveRw, config.connect_cost, 0, cpus};
  }
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return out;
  }
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain, acfg);
  for (int u = 0; u < users; ++u) {
    if (!auth.Enroll(Principal{PersonOf(u), ProjectOf(u)}, "pw" + std::to_string(u),
                     Label(2, 0))
             .ok()) {
      return out;
    }
  }

  std::vector<ProcessId> pid_of(static_cast<size_t>(users));
  // One session operation = one anchored accrual window on the
  // furthest-behind CPU, rooted in the session-setup profiler domain.
  auto drive = [&](auto&& op) -> bool {
    KernelContext::Window window(&kctx, kctx.smp.NextCpu(), ProfDomain::kSessionSetup);
    return op();
  };
  auto login = [&](int u) {
    auto pid = service.Login(Principal{PersonOf(u), ProjectOf(u)}, "pw" + std::to_string(u),
                             Label(0, 0));
    if (!pid.ok()) {
      return false;
    }
    pid_of[static_cast<size_t>(u)] = *pid;
    return true;
  };
  auto logout = [&](int u) { return service.Logout(pid_of[static_cast<size_t>(u)]).ok(); };

  // Warm-up (unmeasured, untraced, serial): every user's first session
  // creates the home directory, and with the slab knob parks a process slot.
  // Login-all before logout-all so the slab holds one slot per user — the
  // measured storm front then sees the steady state, not a cold pool.
  for (int u = 0; u < users; ++u) {
    if (!login(u)) {
      return out;
    }
  }
  for (int u = 0; u < users; ++u) {
    if (!logout(u)) {
      return out;
    }
  }
  // Measurement starts here: spans recorded from now on, counters read as
  // deltas against this snapshot.
  kctx.trace.Enable(cpus, true);
  const Metrics& metrics = kernel.metrics();
  struct Snap {
    uint64_t logins, logouts, phase_auth, phase_process, phase_homedir, phase_accounting,
        table_spin, slab_reuses, kst_resets, skel_hits, skel_misses;
  };
  const Snap warm{metrics.Get("answering.logins"),
                  metrics.Get("answering.logouts"),
                  metrics.Get("answering.phase_auth_cycles"),
                  metrics.Get("answering.phase_process_cycles"),
                  metrics.Get("answering.phase_homedir_cycles"),
                  metrics.Get("answering.phase_accounting_cycles"),
                  metrics.Get("answering.session_lock_spin_cycles"),
                  metrics.Get("uproc.slab_reuses"),
                  metrics.Get("ksm.kst_resets"),
                  metrics.Get("answering.skel_hits"),
                  metrics.Get("answering.skel_misses")};

  // Barrier into the measured region: boot, enrollment, and warm-up never
  // read as contention against the measured windows.
  kctx.AlignToGlobal();
  const Cycles m0 = kctx.smp.Makespan();
  const Cycles before = kernel.clock().now();

  // Phase 1: the storm front — every user logs in.
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return login(u); })) {
      return out;
    }
  }
  // Phase 2: churn — staggered logout/re-login waves.  The stride spreads
  // each wave across the user population instead of replaying login order,
  // so re-logins from different projects interleave across the pool.
  const int stride = users >= 7 ? 7 : 1;
  for (int round = 0; round < churn; ++round) {
    for (int k = 0; k < users; ++k) {
      const int u = (k * stride + round) % users;
      if (!drive([&] { return logout(u); }) || !drive([&] { return login(u); })) {
        return out;
      }
    }
  }
  // Phase 3: drain — every user logs out.
  for (int u = 0; u < users; ++u) {
    if (!drive([&] { return logout(u); })) {
      return out;
    }
  }

  out.total = kernel.clock().now() - before;
  out.makespan = kctx.smp.Makespan() - m0;
  out.sessions = static_cast<uint64_t>(users) * (1 + static_cast<uint64_t>(churn));
  out.logins = metrics.Get("answering.logins") - warm.logins;
  out.logouts = metrics.Get("answering.logouts") - warm.logouts;
  out.phase_auth = metrics.Get("answering.phase_auth_cycles") - warm.phase_auth;
  out.phase_process = metrics.Get("answering.phase_process_cycles") - warm.phase_process;
  out.phase_homedir = metrics.Get("answering.phase_homedir_cycles") - warm.phase_homedir;
  out.phase_accounting =
      metrics.Get("answering.phase_accounting_cycles") - warm.phase_accounting;
  out.table_spin_cycles = metrics.Get("answering.session_lock_spin_cycles") - warm.table_spin;
  out.slab_reuses = metrics.Get("uproc.slab_reuses") - warm.slab_reuses;
  out.kst_resets = metrics.Get("ksm.kst_resets") - warm.kst_resets;
  out.skel_hits = metrics.Get("answering.skel_hits") - warm.skel_hits;
  out.skel_misses = metrics.Get("answering.skel_misses") - warm.skel_misses;
  out.login_p50 = metrics.HistPercentile("answering.login_cycles", 0.50);
  out.login_p95 = metrics.HistPercentile("answering.login_cycles", 0.95);
  out.login_p99 = metrics.HistPercentile("answering.login_cycles", 0.99);
  if (out.logins != out.logouts || out.logins != out.sessions ||
      service.active_sessions() != 0) {
    return out;  // a storm that did not balance is a broken run
  }
  if (!kernel.AuditIntegrity().empty() || !kernel.Shutdown().ok()) {
    return out;
  }
  if (profile) {
    char title[96];
    std::snprintf(title, sizeof title, "%s @ %u cpus", ModeName(mode), cpus);
    PrintProfileTable(kctx.prof, title);
    JsonLine pline("login_storm_prof");
    pline.Field("mode", ModeName(mode)).Field("cpus", uint64_t{cpus});
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
  int users = 0;
  int churn = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--users") == 0 && i + 1 < argc) {
      users = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      churn = std::atoi(argv[++i]);
    }
  }
  if (users <= 0) {
    users = smoke ? 128 : 1000;
  }
  if (churn <= 0) {
    churn = smoke ? 1 : 2;
  }
  const std::vector<uint16_t> cpu_counts =
      smoke ? std::vector<uint16_t>{1, 4} : std::vector<uint16_t>{1, 4, 16};
  const uint16_t max_cpus = cpu_counts.back();
  const uint64_t sessions = static_cast<uint64_t>(users) * (1 + static_cast<uint64_t>(churn));

  std::printf("=== P18: login storm — parallel session establishment ===\n\n");
  std::printf("%d users x (1 + %d churn rounds) = %llu sessions per run\n\n", users, churn,
              (unsigned long long)sessions);
  std::printf("%8s %5s %14s %14s %9s %12s %12s %12s %12s\n", "mode", "cpus", "makespan",
              "sess/Mcyc", "speedup", "lock spin", "slab reuse", "skel hits", "login p99");

  auto report = [&](StormMode mode, uint16_t cpus, const StormResult& r, double baseline) {
    const double per_mcyc =
        r.makespan == 0 ? 0 : static_cast<double>(r.sessions) * 1e6 / r.makespan;
    const double speedup = baseline == 0 ? 1.0 : per_mcyc / baseline;
    std::printf("%8s %5u %14llu %14.2f %8.2fx %12llu %12llu %12llu %12llu\n", ModeName(mode),
                cpus, (unsigned long long)r.makespan, per_mcyc, speedup,
                (unsigned long long)r.table_spin_cycles, (unsigned long long)r.slab_reuses,
                (unsigned long long)r.skel_hits, (unsigned long long)r.login_p99);
    JsonLine line("login_storm");
    line.Field("mode", ModeName(mode))
        .Field("cpus", uint64_t{cpus})
        .Field("users", static_cast<uint64_t>(users))
        .Field("sessions", r.sessions)
        .Field("makespan", r.makespan)
        .Field("total_cycles", r.total)
        .Field("sessions_per_mcycle", per_mcyc)
        .Field("phase_auth_cycles", r.phase_auth)
        .Field("phase_process_cycles", r.phase_process)
        .Field("phase_homedir_cycles", r.phase_homedir)
        .Field("phase_accounting_cycles", r.phase_accounting)
        .Field("session_lock_spin_cycles", r.table_spin_cycles)
        .Field("slab_reuses", r.slab_reuses)
        .Field("kst_resets", r.kst_resets)
        .Field("skel_hits", r.skel_hits)
        .Field("skel_misses", r.skel_misses)
        .Field("login_p50", r.login_p50)
        .Field("login_p95", r.login_p95)
        .Field("login_p99", r.login_p99);
    EmitJson(line);
    return per_mcyc;
  };

  // The serial seed table: the 1-CPU reference cost per session.
  const StormResult seed = RunStorm(StormMode::kSeed, 1, users, churn);
  if (!seed.ok) {
    std::fprintf(stderr, "run failed (seed, 1 cpu)\n");
    return 1;
  }
  const double seed_rate = report(StormMode::kSeed, 1, seed, 0.0);

  double full_at_max = 0;
  for (StormMode mode : {StormMode::kSharded, StormMode::kFull}) {
    for (uint16_t cpus : cpu_counts) {
      const bool want_folded = profile && mode == StormMode::kSharded && cpus == max_cpus;
      const StormResult r =
          RunStorm(mode, cpus, users, churn, profile,
                   want_folded ? "bench_perf_login_storm.prof.folded" : nullptr);
      if (!r.ok) {
        std::fprintf(stderr, "run failed (%s, %u cpus)\n", ModeName(mode), cpus);
        return 1;
      }
      const double rate = report(mode, cpus, r, seed_rate);
      if (mode == StormMode::kFull && cpus == max_cpus) {
        full_at_max = rate;
      }
    }
    std::printf("\n");
  }

  // Determinism self-check: the full configuration at the largest pool,
  // twice, must match on every counter and percentile bit-for-bit.
  {
    const StormResult a = RunStorm(StormMode::kFull, max_cpus, users, churn);
    const StormResult b = RunStorm(StormMode::kFull, max_cpus, users, churn);
    if (!a.ok || !b.ok || a != b) {
      std::fprintf(stderr, "DETERMINISM FAILURE: double-run results differ\n");
      return 1;
    }
    std::printf("double-run self-check: bit-identical (full at %u CPUs)\n", max_cpus);
  }

  if (smoke) {
    std::printf("smoke run complete\n");
    return 0;
  }
  // Half of linear: 8x at 16 CPUs.
  const double min_ratio = max_cpus / 2.0;
  const double ratio = seed_rate == 0 ? 0 : full_at_max / seed_rate;
  const bool scales = ratio >= min_ratio;
  std::printf("\nat %u CPUs: full %.2f sessions/Mcyc vs the 1-CPU seed's %.2f -> %.2fx: %s\n",
              max_cpus, full_at_max, seed_rate, ratio,
              scales ? ">= half-linear, sharded+pooled scales" : "NO");
  std::printf("sharding the session table and pooling process slots turns login into a\n"
              "parallel hot path -> %s\n",
              scales ? "REPRODUCED" : "MISMATCH");
  return scales ? 0 : 1;
}
