// Shared helpers for kernel-level tests.
#ifndef MKS_TESTS_KERNEL_FIXTURE_H_
#define MKS_TESTS_KERNEL_FIXTURE_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {

inline Subject TestSubject(const std::string& person = "Jones", uint8_t level = 0,
                           uint32_t compartments = 0) {
  return Subject{Principal{person, "Projx"}, Label(level, compartments), /*ring=*/4};
}

inline Acl WorldAcl() {
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  return acl;
}

inline Acl OwnerOnlyAcl(const std::string& person) {
  Acl acl;
  acl.Add(AclEntry{person, "Projx", AccessModes::RWE()});
  return acl;
}

// A booted kernel plus one logged-in test process.
struct KernelFixture {
  explicit KernelFixture(KernelConfig config = KernelConfig{}) : kernel(config) {
    boot_status = kernel.Boot();
    if (boot_status.ok()) {
      auto created = kernel.processes().CreateProcess(TestSubject());
      if (created.ok()) {
        pid = *created;
        ctx = kernel.processes().Context(pid);
      }
    }
  }

  // Creates (dirs as needed) + initiates a segment; dies on failure.
  Segno MustCreate(const std::string& path) {
    PathWalker walker(&kernel.gates());
    auto entry = walker.CreateSegment(*ctx, path, WorldAcl(), Label::SystemLow());
    EXPECT_TRUE(entry.ok()) << path << ": " << entry.status();
    auto segno = kernel.gates().Initiate(*ctx, *entry);
    EXPECT_TRUE(segno.ok()) << path << ": " << segno.status();
    return *segno;
  }

  Kernel kernel;
  Status boot_status;
  ProcessId pid{};
  ProcContext* ctx = nullptr;
};

// Asynchronous paging driven by hand, as the scheduler's level-1 window
// would: moves the clock to each posted read's due time, lands it and runs
// the page-I/O daemon, until no read is posted.
inline void LandPostedReads(Kernel& kernel) {
  PageFrameManager& pfm = kernel.page_frames();
  while (pfm.pending_io() > 0) {
    if (const std::optional<Cycles> due = pfm.NextReadDue(); due && *due > kernel.clock().now()) {
      kernel.clock().Advance(*due - kernel.clock().now());
    }
    pfm.LandReads(kernel.clock().now());
    pfm.PageIoDaemonStep();
  }
}

// A read that lands posted reads and retries while the reference is blocked
// (a few times: each retry can only post one more read).
inline Result<Word> ReadLanding(Kernel& kernel, ProcContext& ctx, Segno segno, uint32_t offset) {
  Result<Word> value = kernel.gates().Read(ctx, segno, offset);
  for (int retry = 0; retry < 4 && value.status().code() == Code::kBlocked; ++retry) {
    LandPostedReads(kernel);
    value = kernel.gates().Read(ctx, segno, offset);
  }
  return value;
}

// Everything observable after one RunMixed.
struct MixedRun {
  std::map<std::string, uint64_t, std::less<>> counters;
  std::vector<std::string> audit;
  Cycles clock = 0;
  std::vector<Word> values;  // each process's last write, read back
  bool all_done = false;
  // The global ready-list lock.
  uint64_t lock_contended = 0;
  uint64_t lock_handoffs = 0;
  Cycles lock_handoff_cycles = 0;
  // Profiler readback (zero unless config.profile.enabled).
  std::array<Cycles, kProfDomainCount> domains{};
  bool ledger_balanced = false;
  bool ok = false;
};

// The mixed workload the SMP tests share: boots a kernel under `config`, and
// six processes each run `ops` ops — every third a compute, the rest writes
// over ten pages of a private segment, so six working sets overflow a
// 48-frame pool and eviction (and, when enabled, the paging pipeline)
// engages.  `quantum` 0 keeps the scheduler's default.
inline MixedRun RunMixed(const KernelConfig& config, uint32_t ops, uint32_t quantum = 0) {
  constexpr uint32_t kProcesses = 6;
  MixedRun out;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return out;
  }
  if (quantum != 0) {
    kernel.processes().set_quantum(quantum);
  }
  PathWalker walker(&kernel.gates());
  std::vector<ProcessId> pids;
  std::vector<Segno> segnos;
  for (uint32_t i = 0; i < kProcesses; ++i) {
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
    for (uint32_t n = 0; n < ops; ++n) {
      if (n % 3 == 0) {
        program.push_back(UserOp::Compute(25));
      } else {
        program.push_back(UserOp::Write(*segno, (n % 10) * kPageWords + n, n * 7 + i));
      }
    }
    if (!kernel.processes().SetProgram(*pid, std::move(program)).ok()) {
      return out;
    }
    pids.push_back(*pid);
    segnos.push_back(*segno);
  }
  if (!kernel.processes().RunUntilQuiescent(1000000).ok()) {
    return out;
  }
  // The profiler is read before the read-backs below add gate work.
  const Prof& prof = kernel.ctx().prof;
  out.domains = prof.DomainTotals();
  out.ledger_balanced = true;
  for (uint16_t cpu = 0; cpu < prof.cpu_count(); ++cpu) {
    out.ledger_balanced = out.ledger_balanced && prof.attributed(cpu) == prof.accrued(cpu);
  }
  const uint32_t last = ops - 1;  // a write when ops % 3 != 1
  for (uint32_t i = 0; i < kProcesses; ++i) {
    auto word = kernel.gates().Read(*kernel.processes().Context(pids[i]), segnos[i],
                                    (last % 10) * kPageWords + last);
    if (!word.ok()) {
      return out;
    }
    out.values.push_back(*word);
  }
  out.all_done = kernel.processes().AllDone();
  out.audit = kernel.AuditIntegrity();
  out.counters = kernel.metrics().counters();
  out.clock = kernel.clock().now();
  const SimSpinLock& lock = kernel.processes().list_lock();
  out.lock_contended = lock.contended();
  out.lock_handoffs = lock.handoffs();
  out.lock_handoff_cycles = lock.handoff_cycles();
  out.ok = true;
  return out;
}

}  // namespace mks

#endif  // MKS_TESTS_KERNEL_FIXTURE_H_
