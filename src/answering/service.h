// The answering service: login, session management, and accounting.
//
// Historically 10,000 lines of trusted in-kernel code regulating every login
// and all system accounting; Montgomery's redesign moved all but the
// authentication sliver (src/answering/auth.h) into an unprivileged
// user-domain process.  The `domain` knob reproduces both configurations for
// the performance comparison: the user-domain version performs its work
// through kernel gates and structured code, which is where the measured
// "about 3% slower" comes from.
//
// The login-storm refactor makes session establishment a parallel hot path.
// Three independently-gated mechanisms, all default-off and byte-identical
// to the serial service when off:
//
//   * session-table modes — kSerial is the seed table (no lock, single
//     logical thread of control); kSharded hashes sessions and accounting
//     totals across lock-per-shard tables, holding each lock only for the
//     table operation itself.
//   * skeleton cache — per-project home-directory skeletons (>udd>Project
//     and >udd>Project>person) are remembered behind a read-mostly
//     SimSharedLock, so repeat logins skip the directory-creation walk.
//   * slab process slots — a kernel-side knob (KernelConfig::slab_processes)
//     the storm bench pairs with these; not owned here.
#ifndef MKS_ANSWERING_SERVICE_H_
#define MKS_ANSWERING_SERVICE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/answering/auth.h"
#include "src/fs/path_walker.h"
#include "src/kernel/shared_section.h"

namespace mks {

enum class ServiceDomain : uint8_t {
  kInKernel,    // the 1973 configuration: trusted, ring-0, optimized code
  kUserDomain,  // the redesign: unprivileged, gate calls, structured code
};

// How the session and accounting tables are guarded against concurrent
// logins (see the file comment).
enum class SessionTableMode : uint8_t { kSerial, kSharded };

struct AnsweringConfig {
  // kSharded keeps one table shard per CPU.
  SessionTableMode table_mode = SessionTableMode::kSerial;
  // Handoff-traffic policy for the table locks, same pricing scheme as the
  // scheduler locks: kTestAndSet charges only the gap; kMcs adds one
  // table_line_transfer_cost line per contended grant.
  LockPolicy table_lock_policy = LockPolicy::kTestAndSet;
  Cycles table_line_transfer_cost = 0;
  // Remember home-directory skeletons across logins.
  bool skeleton_cache = false;
  // Read-mostly policy for the skeleton cache's lock; the default
  // (ReadPolicy::kOff) leaves its sections inert.  Its cpu_count is ignored:
  // the service sizes the lock to the kernel's CPU pool.
  SharedLockConfig cache_lock;
};

struct SessionBill {
  Cycles cpu_cycles = 0;
  uint64_t ops = 0;
  Cycles connect_time = 0;
};

class AnsweringService {
 public:
  AnsweringService(Kernel* kernel, Authenticator* auth,
                   ServiceDomain domain = ServiceDomain::kUserDomain,
                   const AnsweringConfig& config = AnsweringConfig{});

  // Authenticates, creates the user process, and ensures the home directory
  // (>udd>Project>person) exists.
  Result<ProcessId> Login(const Principal& who, const std::string& password, Label label);
  Status Logout(ProcessId pid);

  Result<SessionBill> BillFor(ProcessId pid) const;
  // Aggregate accounting report: one line per principal.
  std::string AccountingReport() const;

  size_t active_sessions() const { return active_; }
  ServiceDomain domain() const { return domain_; }

  // Instrument readback for benches and tests.
  const SimSpinLock& shard_lock(size_t i) const { return shards_[i]->lock; }
  const SimSharedLock& skeleton_lock() const { return skel_lock_; }

 private:
  struct Session {
    Principal who;
    ProcessId pid{};
    Cycles login_time = 0;
    EntryId home{};
  };

  // One table shard: its lock, the sessions hashed to it (by pid), and the
  // accounting totals hashed to it (by principal).  kSerial runs with
  // exactly one shard, which keeps AccountingReport's merge an identity.
  struct Shard {
    SimSpinLock lock;
    std::map<ProcessId, Session> sessions;
    std::map<std::string, SessionBill> totals;
  };

  // A tenure on `shard`'s lock, taken at the executing CPU's LocalNow(),
  // with its spin counted; the shard is released when the tenure ends.
  // kSerial mode never locks and never charges: empty.
  std::optional<LockTenure> LockShard(Shard& shard);

  Shard& ShardForPid(ProcessId pid);
  Shard& ShardForWho(const std::string& who);

  // The modelled cost of one session-table operation (only charged in
  // kSharded; kSerial stays byte-identical to the seed).
  void ChargeTableWork() const;

  // Charges the bookkeeping work of one dialog step in the configured domain.
  void ChargeDialogStep(int gate_calls) const;
  // The service's own (system-low) context; home-directory skeletons are
  // built by the service, not by the (possibly high-labelled) session, which
  // the *-property would forbid from writing into low directories.
  Status EnsureDaemon();
  // The home-directory walk, with the skeleton cache in front of it when
  // enabled: a remembered home skips the walk entirely; a remembered project
  // directory skips the >udd>Project portion.
  Result<EntryId> EnsureHome(const Principal& who, const Acl& home_acl, Label session_label);

  Kernel* kernel_;
  Authenticator* auth_;
  MetricId id_logins_;
  MetricId id_logouts_;
  MetricId id_table_spin_cycles_;
  MetricId id_skel_hits_;
  MetricId id_skel_misses_;
  // Per-phase cycle accounting (always on; counters only, never charges).
  MetricId id_phase_auth_;
  MetricId id_phase_process_;
  MetricId id_phase_homedir_;
  MetricId id_phase_accounting_;
  TraceEventId ev_login_;
  TraceEventId ev_logout_;
  HistId hist_login_;
  ServiceDomain domain_;
  AnsweringConfig cfg_;
  PathWalker walker_;
  bool daemon_ready_ = false;
  ProcContext daemon_ctx_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t active_ = 0;
  // The skeleton cache: project path -> directory, and project>person ->
  // home, behind one read-mostly lock.
  mutable SimSharedLock skel_lock_;
  ReadMostlyInstruments skel_rmi_;
  std::unordered_map<std::string, EntryId> skel_projects_;
  std::unordered_map<std::string, EntryId> skel_homes_;
};

}  // namespace mks

#endif  // MKS_ANSWERING_SERVICE_H_
