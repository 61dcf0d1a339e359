#include "src/answering/service.h"

#include <sstream>

#include "src/common/hash.h"

namespace mks {

AnsweringService::AnsweringService(Kernel* kernel, Authenticator* auth, ServiceDomain domain,
                                   const AnsweringConfig& config)
    : kernel_(kernel),
      auth_(auth),
      id_logins_(kernel->metrics().Intern("answering.logins")),
      id_logouts_(kernel->metrics().Intern("answering.logouts")),
      id_table_spin_cycles_(kernel->metrics().Intern("answering.session_lock_spin_cycles")),
      id_skel_hits_(kernel->metrics().Intern("answering.skel_hits")),
      id_skel_misses_(kernel->metrics().Intern("answering.skel_misses")),
      id_phase_auth_(kernel->metrics().Intern("answering.phase_auth_cycles")),
      id_phase_process_(kernel->metrics().Intern("answering.phase_process_cycles")),
      id_phase_homedir_(kernel->metrics().Intern("answering.phase_homedir_cycles")),
      id_phase_accounting_(kernel->metrics().Intern("answering.phase_accounting_cycles")),
      ev_login_(kernel->ctx().trace.InternEvent("answering.login")),
      ev_logout_(kernel->ctx().trace.InternEvent("answering.logout")),
      hist_login_(kernel->metrics().InternHistogram("answering.login_cycles")),
      hist_logout_(kernel->metrics().InternHistogram("answering.logout_cycles")),
      domain_(domain),
      cfg_(config),
      walker_(&kernel->gates()) {
  const uint16_t cpus = kernel->ctx().smp.count();
  const size_t shard_count = cfg_.table_mode == SessionTableMode::kSharded ? cpus : 1;
  for (size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->lock.Configure({cfg_.table_lock_policy, cfg_.table_line_transfer_cost});
    shards_.push_back(std::move(shard));
  }
  skel_rmi_.Init(&kernel->ctx(), "answering.skel", ProfDomain::kSessionSetup,
                 ProfDomain::kSessionSetup);
  // Any CPU of the pool may run a login, so the cache lock's per-CPU read
  // state spans the pool whatever the config says.
  SharedLockConfig cache_lock = cfg_.cache_lock;
  cache_lock.cpu_count = cpus;
  skel_lock_.Configure(cache_lock);
}

void AnsweringService::ChargeDialogStep(int gate_calls) const {
  CostModel& cost = kernel_->ctx().cost;
  // The same logical work either way: parsing the dialog, consulting the
  // user registry, writing the log.  The user-domain version pays gate
  // crossings and the structured-code factor; the in-kernel version ran as
  // trusted optimized code with direct access to kernel tables.
  constexpr Cycles kDialogWork = 220;
  if (domain_ == ServiceDomain::kUserDomain) {
    cost.Charge(CodeStyle::kStructured, kDialogWork / 2);
    cost.Charge(CodeStyle::kOptimized, kDialogWork / 2);
    cost.Charge(CodeStyle::kOptimized, static_cast<Cycles>(gate_calls) * Costs::kGateCall);
  } else {
    cost.Charge(CodeStyle::kOptimized, kDialogWork);
  }
}

void AnsweringService::ChargeTableWork() const {
  // Hash, probe, and update one session-table entry: registry bookkeeping
  // the serial service folded into its dialog work.
  constexpr Cycles kSessionTableWork = 120;
  CostModel& cost = kernel_->ctx().cost;
  if (domain_ == ServiceDomain::kUserDomain) {
    cost.Charge(CodeStyle::kStructured, kSessionTableWork);
  } else {
    cost.Charge(CodeStyle::kOptimized, kSessionTableWork);
  }
}

AnsweringService::LockWindow AnsweringService::LockTable(SimSpinLock& lock) {
  // Same accounting as every scheduler-lock site: acquire at the executing
  // CPU's local virtual time and charge the wait through ChargeLockWait.
  LockWindow window;
  KernelContext& kctx = kernel_->ctx();
  window.lnow = kctx.LocalNow();
  window.spin = lock.Acquire(window.lnow);
  if (window.spin > 0) {
    ChargeLockWait(&kctx.prof, &kctx.cost, window.spin, lock.last_acquire_handoff());
    kctx.metrics.Inc(id_table_spin_cycles_, window.spin);
  }
  window.locked = true;
  return window;
}

void AnsweringService::UnlockTable(SimSpinLock& lock, const LockWindow& window, Cycles held) {
  if (!window.locked) {
    return;
  }
  lock.Release(window.lnow + window.spin + held);
}

AnsweringService::Shard& AnsweringService::ShardForPid(ProcessId pid) {
  return *shards_[pid.value % shards_.size()];
}

AnsweringService::Shard& AnsweringService::ShardForWho(const std::string& who) {
  return *shards_[Fnv1a64(who) % shards_.size()];
}

Status AnsweringService::EnsureDaemon() {
  if (daemon_ready_) {
    return Status::Ok();
  }
  Subject daemon{Principal{"Answering", "SysDaemon"}, Label::SystemLow(), /*ring=*/4};
  MKS_ASSIGN_OR_RETURN(ProcessId pid, kernel_->processes().CreateProcess(daemon));
  daemon_ctx_ = *kernel_->processes().Context(pid);
  daemon_ready_ = true;
  return Status::Ok();
}

Result<EntryId> AnsweringService::EnsureHome(const Principal& who, const Acl& home_acl,
                                             Label session_label) {
  KernelContext& kctx = kernel_->ctx();
  const std::string home_key = who.project + ">" + who.person;
  EntryId project_dir{};
  bool have_project = false;
  if (cfg_.skeleton_cache) {
    // One read section probes both cache levels: a remembered home answers
    // outright; a remembered project directory skips the >udd>Project walk.
    SharedSection section(&skel_lock_, &kctx, SharedSection::Kind::kRead, skel_rmi_);
    auto home_it = skel_homes_.find(home_key);
    if (home_it != skel_homes_.end()) {
      kctx.metrics.Inc(id_skel_hits_);
      return home_it->second;
    }
    auto project_it = skel_projects_.find(who.project);
    if (project_it != skel_projects_.end()) {
      project_dir = project_it->second;
      have_project = true;
    }
  }
  if (!have_project) {
    MKS_ASSIGN_OR_RETURN(project_dir,
                         walker_.CreateDirectories(daemon_ctx_, ">udd>" + who.project,
                                                   home_acl, Label::SystemLow()));
  }
  EntryId home{};
  auto existing = kernel_->gates().Search(daemon_ctx_, project_dir, who.person);
  if (existing.ok()) {
    home = *existing;
  } else {
    MKS_ASSIGN_OR_RETURN(home, kernel_->gates().CreateDirectory(daemon_ctx_, project_dir,
                                                                who.person, home_acl,
                                                                session_label));
  }
  if (cfg_.skeleton_cache) {
    SharedSection section(&skel_lock_, &kctx, SharedSection::Kind::kWrite, skel_rmi_);
    skel_projects_.emplace(who.project, project_dir);
    skel_homes_.emplace(home_key, home);
    kctx.metrics.Inc(id_skel_misses_);
  }
  return home;
}

Result<ProcessId> AnsweringService::Login(const Principal& who, const std::string& password,
                                          Label label) {
  KernelContext& kctx = kernel_->ctx();
  Prof::Scope setup(&kctx.prof, ProfDomain::kSessionSetup);
  const Cycles t0 = kctx.clock.now();
  // The bulk of the answering service — dialog parsing, the user registry,
  // device tables, the message-of-the-day, the log — is IDENTICAL code in
  // both configurations; only the privilege-sensitive sliver differs.  That
  // is why the measured slowdown of the extraction is small.
  constexpr Cycles kCommonLoginWork = 12000;
  kctx.cost.Charge(CodeStyle::kOptimized, kCommonLoginWork);
  ChargeDialogStep(/*gate_calls=*/2);  // greeting + registry consultation
  MKS_RETURN_IF_ERROR(EnsureDaemon());
  MKS_ASSIGN_OR_RETURN(Subject subject, auth_->Authenticate(who, password, label));
  const Cycles t_auth = kctx.clock.now();
  kctx.metrics.Inc(id_phase_auth_, t_auth - t0);

  // Create the user process (a protected operation in both configurations).
  MKS_ASSIGN_OR_RETURN(ProcessId pid, kernel_->processes().CreateProcess(subject));
  const Cycles t_proc = kctx.clock.now();
  kctx.metrics.Inc(id_phase_process_, t_proc - t_auth);

  // Ensure the home directory exists: >udd>Project>person.  The skeleton is
  // system-low and built by the service; the home itself carries the session
  // label (an upgraded directory when the session runs high).
  ChargeDialogStep(/*gate_calls=*/3);
  Acl home_acl;
  home_acl.Add(AclEntry{who.person, who.project, AccessModes::RWE()});
  home_acl.Add(AclEntry{"*", "SysDaemon", AccessModes::RW()});
  auto home = EnsureHome(who, home_acl, subject.label);
  if (!home.ok()) {
    (void)kernel_->processes().DestroyProcess(pid);
    return home.status();
  }
  const Cycles t_home = kctx.clock.now();
  kctx.metrics.Inc(id_phase_homedir_, t_home - t_proc);

  Session session;
  session.who = who;
  session.pid = pid;
  session.login_time = kctx.clock.now();
  session.home = *home;
  Shard& shard = ShardForPid(pid);
  if (cfg_.table_mode == SessionTableMode::kSharded) {
    LockWindow window = LockTable(shard.lock);
    const Cycles held0 = kctx.clock.now();
    ChargeTableWork();
    shard.sessions.emplace(pid, session);
    UnlockTable(shard.lock, window, kctx.clock.now() - held0);
  } else {
    shard.sessions.emplace(pid, session);
  }
  ++active_;
  kctx.metrics.Inc(id_phase_accounting_, kctx.clock.now() - t_home);
  kctx.metrics.Inc(id_logins_);
  kctx.trace.CloseSpan(t0, ev_login_, pid.value, kctx.current_cpu, hist_login_);
  return pid;
}

Status AnsweringService::Logout(ProcessId pid) {
  KernelContext& kctx = kernel_->ctx();
  Prof::Scope setup(&kctx.prof, ProfDomain::kSessionSetup);
  const Cycles t_start = kctx.clock.now();
  Shard& shard = ShardForPid(pid);
  // Look up the session (modelled under the shard lock in sharded mode; the
  // iterator itself stays valid — virtual CPUs interleave, they do not
  // preempt host execution).
  LockWindow lookup{};
  Cycles lookup_t0 = 0;
  if (cfg_.table_mode == SessionTableMode::kSharded) {
    lookup = LockTable(shard.lock);
    lookup_t0 = kctx.clock.now();
  }
  auto it = shard.sessions.find(pid);
  if (it == shard.sessions.end()) {
    if (lookup.locked) {
      UnlockTable(shard.lock, lookup, kctx.clock.now() - lookup_t0);
    }
    return Status(Code::kNotFound, "no session");
  }
  if (lookup.locked) {
    ChargeTableWork();
    UnlockTable(shard.lock, lookup, kctx.clock.now() - lookup_t0);
  }
  constexpr Cycles kCommonLogoutWork = 2000;
  kctx.cost.Charge(CodeStyle::kOptimized, kCommonLogoutWork);
  ChargeDialogStep(/*gate_calls=*/1);
  const Cycles t_bill = kctx.clock.now();
  const std::string who = it->second.who.ToString();
  const ProcessStats& stats = kernel_->processes().stats(pid);
  Shard& bill_shard = ShardForWho(who);
  {
    LockWindow window{};
    Cycles held0 = 0;
    if (cfg_.table_mode == SessionTableMode::kSharded) {
      window = LockTable(bill_shard.lock);
      held0 = kctx.clock.now();
    }
    SessionBill& bill = bill_shard.totals[who];
    bill.cpu_cycles += stats.cpu_cycles;
    bill.ops += stats.ops_executed;
    bill.connect_time += kctx.clock.now() - it->second.login_time;
    if (window.locked) {
      UnlockTable(bill_shard.lock, window, kctx.clock.now() - held0);
    }
  }
  const Cycles t_destroy = kctx.clock.now();
  kctx.metrics.Inc(id_phase_accounting_, t_destroy - t_bill);
  MKS_RETURN_IF_ERROR(kernel_->processes().DestroyProcess(pid));
  kctx.metrics.Inc(id_phase_process_, kctx.clock.now() - t_destroy);
  // Remove the session (its own tenure in sharded mode: lookup and removal
  // bracket the un-serializable middle of the transaction).
  LockWindow erase_w{};
  Cycles erase_t0 = 0;
  if (cfg_.table_mode == SessionTableMode::kSharded) {
    erase_w = LockTable(shard.lock);
    erase_t0 = kctx.clock.now();
    ChargeTableWork();
  }
  shard.sessions.erase(it);
  if (erase_w.locked) {
    UnlockTable(shard.lock, erase_w, kctx.clock.now() - erase_t0);
  }
  --active_;
  kctx.metrics.Inc(id_logouts_);
  kctx.trace.CloseSpan(t_start, ev_logout_, pid.value, kctx.current_cpu, hist_logout_);
  return Status::Ok();
}

Result<SessionBill> AnsweringService::BillFor(ProcessId pid) const {
  const Shard& shard = *shards_[pid.value % shards_.size()];
  auto it = shard.sessions.find(pid);
  if (it == shard.sessions.end()) {
    return Status(Code::kNotFound, "no session");
  }
  const ProcessStats& stats = kernel_->processes().stats(pid);
  SessionBill bill;
  bill.cpu_cycles = stats.cpu_cycles;
  bill.ops = stats.ops_executed;
  bill.connect_time = kernel_->clock().now() - it->second.login_time;
  return bill;
}

std::string AnsweringService::AccountingReport() const {
  // Merge the per-shard totals; with one shard (the serial configuration)
  // this is an identity copy, so the report is byte-for-byte the seed
  // table's.
  std::map<std::string, SessionBill> merged;
  for (const auto& shard : shards_) {
    for (const auto& [who, bill] : shard->totals) {
      SessionBill& sum = merged[who];
      sum.cpu_cycles += bill.cpu_cycles;
      sum.ops += bill.ops;
      sum.connect_time += bill.connect_time;
    }
  }
  std::ostringstream out;
  out << "principal                cpu_cycles        ops   connect\n";
  for (const auto& [who, bill] : merged) {
    out << who;
    for (size_t pad = who.size(); pad < 24; ++pad) {
      out << ' ';
    }
    out << bill.cpu_cycles << "  " << bill.ops << "  " << bill.connect_time << "\n";
  }
  return out.str();
}

}  // namespace mks
