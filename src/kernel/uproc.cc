#include "src/kernel/uproc.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/common/hash.h"

namespace mks {

UserProcessManager::UserProcessManager(KernelContext* ctx, CoreSegmentManager* core_segs,
                                       VirtualProcessorManager* vpm, PageFrameManager* pfm,
                                       SegmentManager* segs, KnownSegmentManager* ksm,
                                       KernelGates* gates)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kUserProcess)),
      core_segs_(core_segs),
      vpm_(vpm),
      pfm_(pfm),
      segs_(segs),
      ksm_(ksm),
      gates_(gates),
      id_idle_cycles_(ctx->metrics.Intern("uproc.idle_cycles")),
      id_list_transfers_(ctx->metrics.Intern("sched.list_transfers")),
      id_list_transfer_cycles_(ctx->metrics.Intern("sched.list_transfer_cycles")),
      id_list_lock_spin_cycles_(ctx->metrics.Intern("sched.list_lock_spin_cycles")),
      id_proc_migrations_(ctx->metrics.Intern("sched.proc_migrations")),
      id_slab_reuses_(ctx->metrics.Intern("uproc.slab_reuses")),
      ev_quantum_(ctx->trace.InternEvent("uproc.quantum")),
      ev_level1_(ctx->trace.InternEvent("uproc.level1")),
      ev_park_(ctx->trace.InternEvent("uproc.park")),
      ev_wake_(ctx->trace.InternEvent("uproc.wake")),
      hist_quantum_(ctx->metrics.InternHistogram("uproc.quantum_cycles")) {}

void UserProcessManager::ConfigureDispatch(const DispatchConfig& config) {
  dcfg_ = config;
  // One policy knob covers every scheduler lock; MCS prices its one line per
  // contended grant at connect_cost.
  const LockPolicyConfig lock_policy{dcfg_.lock_policy, dcfg_.connect_cost};
  list_lock_.Configure(lock_policy);
  if (dcfg_.sharded_runqueues) {
    rq_ = std::make_unique<RunQueueSet>(ctx_->smp.count(), dcfg_.steal, dcfg_.connect_cost,
                                        &ctx_->cost, &ctx_->metrics, &ctx_->trace,
                                        lock_policy, &ctx_->prof);
  }
}

Status UserProcessManager::Init() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto seg = core_segs_->Allocate("upward_message_queue", 1);
  if (!seg.ok()) {
    return seg.status();
  }
  queue_ = std::make_unique<RealMemoryQueue>(core_segs_->RawSpan(*seg));
  vpm_->SetUpwardQueue(queue_.get());
  return Status::Ok();
}

Result<ProcessId> UserProcessManager::CreateProcess(const Subject& subject) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (slab_ && !free_slots_.empty()) {
    // Slab fast path: the parked slot already owns a KST and a state
    // segment; only the slot bookkeeping is rebuilt — one call's worth of
    // work instead of the full KST/VTOC/initiate chain.
    const FreeSlot slot = free_slots_.back();
    free_slots_.pop_back();
    ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall);
    Process proc;
    proc.pid = slot.pid;
    proc.ctx.pid = slot.pid;
    proc.ctx.subject = subject;
    proc.state_segno = slot.state_segno;
    procs_.emplace(slot.pid, std::move(proc));
    ctx_->metrics.Inc(id_slab_reuses_);
    return slot.pid;
  }
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 4);
  const ProcessId pid(next_pid_++);
  MKS_RETURN_IF_ERROR(ksm_->CreateKst(pid));

  Process proc;
  proc.pid = pid;
  proc.ctx.pid = pid;
  proc.ctx.subject = subject;

  // The process state record lives in an ordinary (pageable) segment outside
  // the naming hierarchy, initiated ring-0-only in the process's own address
  // space.
  const SegmentUid state_uid(
      Fnv1a64Mix(ctx_->secret ^ 0x70726f63ULL, ++state_uid_counter_) | 1);
  MKS_ASSIGN_OR_RETURN(PackId pack, ctx_->volumes.ChoosePack());
  MKS_ASSIGN_OR_RETURN(VtocIndex vtoc,
                       ctx_->volumes.pack(pack)->AllocateVtoc(state_uid, false));
  SegmentHome home{state_uid, pack, vtoc, kNoQuotaCell, false};
  MKS_ASSIGN_OR_RETURN(Segno segno,
                       ksm_->Initiate(pid, home, AccessModes::RW(), /*ring_bracket=*/0));
  proc.state_segno = segno;

  procs_.emplace(pid, std::move(proc));
  return pid;
}

Status UserProcessManager::DestroyProcess(ProcessId pid) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no such process");
  }
  if (it->second.bound) {
    vpm_->ReleaseUserVp(it->second.vp);
  }
  WithdrawWait(it->second);
  if (it->second.queued && rq_ != nullptr) {
    rq_->Remove(pid.value);
  }
  if (slab_) {
    // Slab park: clear every binding except the state segment's, keep the
    // KST allocation and the state segment's storage, and stash the slot
    // for the next CreateProcess.
    const Segno state_segno = it->second.state_segno;
    MKS_RETURN_IF_ERROR(ksm_->ResetKst(pid, state_segno));
    procs_.erase(it);
    free_slots_.push_back(FreeSlot{pid, state_segno});
    return Status::Ok();
  }
  const Segno state_segno = it->second.state_segno;
  procs_.erase(it);
  return ReleaseSlot(pid, state_segno);
}

Status UserProcessManager::ReleaseSlot(ProcessId pid, Segno state_segno) {
  // Free the state segment's storage: sever its uses, deactivate, and
  // release the VTOC entry.
  const KstEntry* entry = ksm_->Lookup(pid, state_segno);
  if (entry != nullptr) {
    const SegmentHome home = entry->home;
    MKS_RETURN_IF_ERROR(ksm_->DestroyKst(pid));
    const uint32_t ast = segs_->FindIndex(home.uid);
    if (ast != kNoAst) {
      MKS_RETURN_IF_ERROR(segs_->Deactivate(ast));
    }
    ctx_->volumes.pack(home.pack)->FreeVtoc(home.vtoc);
  } else {
    MKS_RETURN_IF_ERROR(ksm_->DestroyKst(pid));
  }
  return Status::Ok();
}

Status UserProcessManager::DrainSlabs() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  while (!free_slots_.empty()) {
    const FreeSlot slot = free_slots_.back();
    free_slots_.pop_back();
    MKS_RETURN_IF_ERROR(ReleaseSlot(slot.pid, slot.state_segno));
  }
  return Status::Ok();
}

Status UserProcessManager::SetProgram(ProcessId pid, std::vector<UserOp> program) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return Status(Code::kNotFound, "no such process");
  }
  WithdrawWait(it->second);
  it->second.program = std::move(program);
  it->second.pc = 0;
  it->second.state = ProcState::kReady;
  if (rq_ != nullptr && !it->second.queued) {
    it->second.queued = true;
    // Set-up runs outside windows, so this reads the CPU's accrued clock,
    // not LocalNow(): the work driven since its last window was accrued to
    // no CPU, and counting it here would read as run-queue spin (ROADMAP
    // item 3).
    rq_->Enqueue(pid.value, ctx_->current_cpu, RunQueueSet::kNoCpu,
                 ctx_->smp.local_now(ctx_->current_cpu));
  }
  return Status::Ok();
}

std::vector<ProcessId> UserProcessManager::LivePids() const {
  std::vector<ProcessId> pids;
  pids.reserve(procs_.size());
  for (const auto& [pid, proc] : procs_) {
    pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end(),
            [](ProcessId a, ProcessId b) { return a.value < b.value; });
  return pids;
}

ProcContext* UserProcessManager::Context(ProcessId pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second.ctx;
}

ProcState UserProcessManager::state(ProcessId pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? ProcState::kAborted : it->second.state;
}

const ProcessStats& UserProcessManager::stats(ProcessId pid) const {
  static const ProcessStats kEmpty;
  auto it = procs_.find(pid);
  return it == procs_.end() ? kEmpty : it->second.stats;
}

Status UserProcessManager::SwapStateIn(Process& proc) {
  // Touch the state record: it may have been paged out, in which case this
  // faults like any other reference.  The dispatcher runs in ring 0; the
  // state segment's bracket keeps the user program itself away from it.
  ProcContext ring0 = proc.ctx;
  ring0.subject.ring = 0;
  auto word = gates_->Read(ring0, proc.state_segno, 0);
  proc.ctx.pending_wait = ring0.pending_wait;
  if (!word.ok()) {
    return word.status();
  }
  return Status::Ok();
}

void UserProcessManager::SwapStateOut(Process& proc) {
  // Record the program counter in the state segment.  A block here is
  // tolerable: the authoritative pc is re-written at the next save.
  ProcContext ring0 = proc.ctx;
  ring0.subject.ring = 0;
  (void)gates_->Write(ring0, proc.state_segno, 0, proc.pc);
  (void)gates_->Write(ring0, proc.state_segno, 1, static_cast<Word>(proc.state));
}

Status UserProcessManager::ExecOneOp(Process& proc) {
  const UserOp& op = proc.program[proc.pc];
  switch (op.kind) {
    case UserOp::Kind::kRead: {
      auto value = gates_->Read(proc.ctx, op.segno, op.offset);
      return value.status();
    }
    case UserOp::Kind::kWrite:
      return gates_->Write(proc.ctx, op.segno, op.offset, op.value);
    case UserOp::Kind::kCompute:
      ctx_->cost.Charge(CodeStyle::kOptimized, op.compute);
      return Status::Ok();
    case UserOp::Kind::kAdvance:
      return gates_->AdvanceEventcount(proc.ctx, op.ec);
    case UserOp::Kind::kAwait:
      return gates_->AwaitEventcount(proc.ctx, op.ec, op.value);
  }
  return Status(Code::kInternal, "bad op");
}

void UserProcessManager::Park(Process& proc) {
  // Register as the awaited count's waiter: the advance that reaches the
  // target posts this process's wakeup on the real-memory queue.
  const WaitSpec& wait = proc.ctx.pending_wait;
  const bool satisfied =
      ctx_->eventcounts.AwaitOrEnqueue(wait.ec, wait.target, EcWaiter::Process(proc.pid));
  assert(wait.valid && !satisfied);
  (void)satisfied;
  proc.state = ProcState::kBlocked;
  ++proc.stats.blocks;
  ctx_->trace.Instant(ev_park_, proc.pid.value, 0);
  if (proc.bound) {
    SwapStateOut(proc);
    vpm_->ReleaseUserVp(proc.vp);
    proc.bound = false;
  }
}

void UserProcessManager::WithdrawWait(Process& proc) {
  if (proc.state == ProcState::kBlocked) {
    ctx_->eventcounts.CancelWait(proc.ctx.pending_wait.ec, EcWaiter::Process(proc.pid));
  }
}

void UserProcessManager::Finish(Process& proc, ProcState state, Status why) {
  proc.state = state;
  proc.stats.last_error = why;
  if (proc.bound) {
    vpm_->ReleaseUserVp(proc.vp);
    proc.bound = false;
  }
}

void UserProcessManager::TouchReadyList() {
  // The global ready list modelled as one shared cache line under one lock —
  // the traffic-controller picture.  Spin is real charged work (as in the
  // baseline's global lock), and a touch from a CPU other than the last
  // toucher bounces the line: one connect transfer.  The lock is held for
  // the dispatch decision and queue manipulation (kDispatchHold), which is
  // what serializes dispatch-rate-bound workloads.
  constexpr Cycles kDispatchHold = 440;  // ~ (kVpSwitch + kProcessSwitch) structured
  LockTenure tenure(&list_lock_, ctx_->LocalNow(), &ctx_->prof, &ctx_->cost);
  ctx_->metrics.Inc(id_list_lock_spin_cycles_, tenure.spin());
  if (tenure.TouchLine(&list_owner_, ctx_->current_cpu, dcfg_.connect_cost)) {
    ctx_->metrics.Inc(id_list_transfers_);
    ctx_->metrics.Inc(id_list_transfer_cycles_, dcfg_.connect_cost);
  }
  tenure.Release(kDispatchHold);
}

void UserProcessManager::EnqueueReady(Process& proc) {
  if (rq_ != nullptr) {
    if (proc.queued) {
      return;
    }
    proc.queued = true;
    rq_->Enqueue(proc.pid.value, ctx_->current_cpu,
                 proc.last_cpu == kNoCpu ? RunQueueSet::kNoCpu : proc.last_cpu,
                 ctx_->LocalNow());
  } else if (sched_costs_on()) {
    // Global-list mode with interconnect costs: readying a process is a
    // write to the shared ready list.
    TouchReadyList();
  }
}

UserProcessManager::DispatchOutcome UserProcessManager::RunQuantumOn(Process& proc,
                                                                     uint16_t cpu,
                                                                     Cycles dispatch_start,
                                                                     bool affine_vp) {
  auto vp = affine_vp ? vpm_->AcquireIdleUserVp(cpu) : vpm_->AcquireIdleUserVp();
  if (!vp.ok()) {
    return DispatchOutcome::kNoVp;  // pool exhausted this pass
  }
  proc.vp = *vp;
  proc.bound = true;
  proc.state = ProcState::kRunning;
  ++proc.stats.dispatches;
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcessSwitch);
  // Running on a different CPU than last time drags the process's cached
  // working state across the interconnect (free at connect cost 0).
  if (sched_costs_on() && proc.last_cpu != kNoCpu && proc.last_cpu != cpu) {
    ctx_->cost.Charge(CodeStyle::kOptimized, dcfg_.connect_cost);
    ctx_->metrics.Inc(id_proc_migrations_);
  }
  proc.last_cpu = cpu;

  // The quantum proper: state swap-in, the op loop, and the requeue tail.
  // Deeper domains (gate, fault-service, naming sections) nest inside; the
  // vp/process-switch charges above stay on the window's dispatch root.
  Prof::Scope quantum_scope(&ctx_->prof, ProfDomain::kUprocQuantum);

  Status in = SwapStateIn(proc);
  if (in.code() == Code::kBlocked) {
    Park(proc);
  } else if (!in.ok()) {
    Finish(proc, ProcState::kAborted, in);
  } else {
    RunOps(proc);
  }
  if (ctx_->clock.now() > dispatch_start) {
    ctx_->trace.CloseSpan(dispatch_start, ev_quantum_, proc.pid.value, cpu, hist_quantum_);
  }
  return DispatchOutcome::kRan;
}

void UserProcessManager::RunOps(Process& proc) {
  const VpId vp_used = proc.vp;
  const Cycles start = ctx_->clock.now();
  for (uint32_t n = 0; n < quantum_ && proc.pc < proc.program.size(); ++n) {
    // User code runs in the user domain; its references enter the kernel
    // afresh through the fault dispatcher.
    CallTracker::SignalScope user_domain(&ctx_->tracker);
    Status st = ExecOneOp(proc);
    if (st.ok()) {
      ++proc.pc;
      ++proc.stats.ops_executed;
      continue;
    }
    if (st.code() == Code::kBlocked) {
      break;  // pending_wait already recorded in the context
    }
    Finish(proc, ProcState::kAborted, st);
    break;
  }
  proc.stats.cpu_cycles += ctx_->clock.now() - start;
  vpm_->AccrueBusy(vp_used, ctx_->clock.now() - start);

  if (proc.state != ProcState::kRunning) {
    return;  // aborted above
  }
  if (proc.pc >= proc.program.size()) {
    Finish(proc, ProcState::kDone, Status::Ok());
  } else if (proc.ctx.pending_wait.valid &&
             ctx_->eventcounts.Read(proc.ctx.pending_wait.ec) < proc.ctx.pending_wait.target) {
    Park(proc);
  } else {
    // Quantum expired (or the wait already resolved): back to ready.
    proc.state = ProcState::kReady;
    SwapStateOut(proc);
    vpm_->ReleaseUserVp(proc.vp);
    proc.bound = false;
  }
}

bool UserProcessManager::DispatchGlobal() {
  // The legacy path: scan the one ready list, giving each ready process a
  // quantum on the least-behind CPU.  With interconnect costs on, every
  // dispatch locks and bounces the shared list line first.
  bool did_work = false;
  for (auto& [pid, proc] : procs_) {
    if (proc.state != ProcState::kReady) {
      continue;
    }
    // Quantum interleaving: this dispatch runs on the CPU whose local clock
    // is furthest behind, and everything it charges — the vp acquisition,
    // the switch, the state swap-in, the ops, their fault services — accrues
    // to that CPU.
    const uint16_t cpu = ctx_->smp.NextCpu();
    KernelContext::Window window(ctx_, cpu, ProfDomain::kDispatch);
    if (sched_costs_on()) {
      TouchReadyList();
    }
    if (RunQuantumOn(proc, cpu, window.start(), /*affine_vp=*/false) ==
        DispatchOutcome::kNoVp) {
      break;  // pool exhausted this pass; the window accrues the list touch
    }
    did_work = true;
    ++sched_progress_;
  }
  return did_work;
}

bool UserProcessManager::DispatchSharded() {
  // Sharded dispatch: the least-behind CPU (ties: lowest index), recomputed
  // after every quantum so the interleave matches the legacy dispatch
  // discipline, pops its own queue and runs one quantum; repeat while work
  // is queued.  With stealing on it always obtains work — its own
  // queue's front, or the first non-empty victim's.  With stealing off a CPU
  // runs only its own queue, so an empty one hands the quantum to the
  // least-behind CPU whose queue holds work.  Queue charges land inside the
  // quantum window, so lock spin, line transfers, and steals all accrue to
  // the dispatching CPU.
  bool did_work = false;
  while (rq_->AnyQueued()) {
    uint16_t cpu = ctx_->smp.NextCpu();
    if (!dcfg_.steal && rq_->depth(cpu) == 0) {
      cpu = LeastBehindWithWork();
    }
    if (DispatchFromQueue(cpu) != DispatchOutcome::kRan) {
      // Pool exhausted (the next pass retries with vps released), or the
      // popped item was stale.
      break;
    }
    did_work = true;
  }
  return did_work;
}

uint16_t UserProcessManager::LeastBehindWithWork() const {
  uint16_t best = kNoCpu;
  for (uint16_t k = 0; k < rq_->count(); ++k) {
    if (rq_->depth(k) != 0 &&
        (best == kNoCpu || ctx_->smp.local_now(k) < ctx_->smp.local_now(best))) {
      best = k;
    }
  }
  return best;
}

UserProcessManager::DispatchOutcome UserProcessManager::DispatchFromQueue(uint16_t cpu) {
  KernelContext::Window window(ctx_, cpu, ProfDomain::kDispatch);
  const RunQueueSet::Popped pop = rq_->Dequeue(cpu, ctx_->LocalNow());
  auto it = pop.ok ? procs_.find(ProcessId(pop.id)) : procs_.end();
  if (it != procs_.end()) {
    it->second.queued = false;
  }
  // Nothing to pop, destroyed while queued (Remove is the normal path), or
  // no longer ready.
  if (it == procs_.end() || it->second.state != ProcState::kReady) {
    return DispatchOutcome::kNoWork;
  }
  Process& proc = it->second;
  if (RunQuantumOn(proc, cpu, window.start(), /*affine_vp=*/true) == DispatchOutcome::kNoVp) {
    // Pool exhausted: put the item back at the front of this CPU's own
    // queue — after a steal, too, not the victim's.
    proc.queued = true;
    rq_->PushFront(pop.id, cpu);
    return DispatchOutcome::kNoVp;
  }
  ++sched_progress_;
  if (proc.state == ProcState::kReady) {
    // Quantum expired: requeue with this CPU as the locality hint.
    EnqueueReady(proc);
  }
  return DispatchOutcome::kRan;
}

bool UserProcessManager::RunIdleTimeWork() {
  const bool ran = vpm_->HasReadyTask(KernelTaskClass::kIdleTime);
  if (ran) {
    KernelContext::Window window(ctx_, ctx_->smp.NextCpu(), ProfDomain::kDispatch);
    vpm_->RunKernelTasks(KernelTaskClass::kIdleTime);
  }
  if (!pfm_->pipeline().enabled) {
    return ran;
  }
  // Idle rounds: the least-behind CPU writes one record-sorted round of one
  // pack's cleanable pages while it trails the furthest clock — time it
  // would otherwise spend waiting at the next barrier.  A round may overrun
  // that clock; none starts at it.  Where no CPU trails (one CPU, or a
  // balanced pool), the fault path launders instead.  The candidate test
  // comes first and charges nothing, so a pass with nothing to clean opens
  // no window.
  for (;;) {
    const uint16_t cpu = ctx_->smp.NextCpu();
    if (ctx_->smp.local_now(cpu) >= ctx_->smp.Makespan()) {
      break;
    }
    const std::optional<PackId> pack = pfm_->NextIdleRoundPack();
    if (!pack.has_value()) {
      break;
    }
    KernelContext::Window window(ctx_, cpu, ProfDomain::kDispatch);
    pfm_->IdleRound(*pack);
  }
  return ran;
}

bool UserProcessManager::SchedulerPass() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  bool did_work = false;

  // Level-1 activity first, on the bootload CPU as on the real machine:
  // landing posted disk reads (which readies the page-I/O daemon), the
  // level-1 tasks whose work eventcounts advanced, and the wakeups that
  // advances posted.  Wake-path queue touches charge at the bootload CPU's
  // LocalNow().
  {
    KernelContext::Window level1(ctx_, 0, ProfDomain::kDispatch);
    sched_progress_ += pfm_->LandReads(ctx_->clock.now());
    if (vpm_->RunKernelTasks(KernelTaskClass::kLevel1)) {
      did_work = true;
    }

    // Drain the real-memory queue: wake each process whose awaited count
    // reached its target.  Once the queue is empty, wakeups it had no room
    // for take the room, so its bound delays a wakeup but never loses one.
    // A wakeup posted before its process was destroyed, its pid reused, or
    // its program replaced finds the process not parked on a satisfied
    // wait, and wakes nothing.
    if (queue_ != nullptr) {
      do {
        while (auto msg = queue_->Pop()) {
          auto it = procs_.find(msg->dest);
          if (it == procs_.end()) {
            continue;
          }
          Process& proc = it->second;
          const WaitSpec& wait = proc.ctx.pending_wait;
          if (proc.state != ProcState::kBlocked ||
              ctx_->eventcounts.Read(wait.ec) < wait.target) {
            continue;
          }
          proc.state = ProcState::kReady;
          ctx_->trace.Instant(ev_wake_, proc.pid.value);
          EnqueueReady(proc);
          did_work = true;
          ++sched_progress_;
        }
      } while (vpm_->PostDeferredWakeups());
    }

    if (ctx_->clock.now() > level1.start()) {
      ctx_->trace.CloseSpan(level1.start(), ev_level1_, 0, 0);
    }
  }

  // Dispatch ready processes onto idle virtual processors and run quanta.
  if (rq_ != nullptr ? DispatchSharded() : DispatchGlobal()) {
    did_work = true;
  }
  if (RunIdleTimeWork()) {
    did_work = true;
  }
  return did_work;
}

Status UserProcessManager::RunUntilQuiescent(uint64_t max_passes) {
  for (uint64_t pass = 0; pass < max_passes; ++pass) {
    if (AllDone()) {
      return Status::Ok();
    }
    const bool did_work = SchedulerPass();
    // Stall watchdog: a scheduler that keeps claiming work while no quantum
    // runs, no completion lands, and no process wakes is livelocked (e.g. a
    // kernel task that re-posts its own work on every run, so every pass
    // dispatches it).  Dump the flight recorder instead of silently burning
    // the pass budget.
    if (ctx_->prof.NoteDispatchRound(sched_progress_)) {
      DumpStallAndAbort(pass);
    }
    if (!did_work) {
      if (const std::optional<Cycles> due = pfm_->NextReadDue()) {
        // Every process is blocked on the device: the machine idles forward.
        if (*due > ctx_->clock.now()) {
          const Cycles idle = *due - ctx_->clock.now();
          ctx_->metrics.Inc(id_idle_cycles_, idle);
          ctx_->clock.Advance(idle);
          // The whole pool idles forward together waiting on the device.
          ctx_->smp.AdvanceAll(idle);
        }
        // The next pass's level-1 window lands the reads, so the daemon the
        // landing readies runs, and charges, inside that window.
        continue;
      }
      if (AllDone()) {
        return Status::Ok();
      }
      return Status(Code::kFailedPrecondition, "scheduler quiesced with runnable work pending");
    }
  }
  // No message: callers step the scheduler a pass at a time and end most
  // steps here, so this return must not allocate.
  return AllDone() ? Status::Ok() : Status(Code::kResourceExhausted);
}

void UserProcessManager::DumpStallAndAbort(uint64_t pass) {
  std::fprintf(stderr,
               "==== STALL WATCHDOG: no scheduler progress for %llu rounds "
               "(progress stamp %llu, virtual clock %llu, scheduler pass %llu) ====\n",
               static_cast<unsigned long long>(ctx_->prof.stalled_rounds()),
               static_cast<unsigned long long>(sched_progress_),
               static_cast<unsigned long long>(ctx_->clock.now()),
               static_cast<unsigned long long>(pass));

  std::fprintf(stderr, "---- profiler domain trees ----\n");
  ctx_->prof.DumpTree(stderr);

  std::fprintf(stderr, "---- scheduler locks ----\n");
  std::fprintf(stderr, "ready-list lock: %s, line owner cpu %d\n",
               list_lock_.held() ? "HELD" : "free",
               list_owner_ == LockTenure::kNoOwner ? -1 : static_cast<int>(list_owner_));
  if (rq_ != nullptr) {
    for (uint16_t k = 0; k < rq_->count(); ++k) {
      const uint16_t owner = rq_->line_owner(k);
      std::fprintf(stderr, "run queue %u: depth %zu, lock %s, line owner cpu %d\n",
                   k, rq_->depth(k), rq_->shard_lock(k).held() ? "HELD" : "free",
                   owner == LockTenure::kNoOwner ? -1 : static_cast<int>(owner));
    }
  }

  std::fprintf(stderr, "---- processes ----\n");
  static constexpr const char* kStateNames[] = {"ready", "running", "blocked",
                                                "done", "aborted"};
  for (const auto& [pid, proc] : procs_) {
    std::fprintf(stderr,
                 "pid %u: %s, pc %zu/%zu, last cpu %d, queued %d, "
                 "dispatches %llu\n",
                 pid.value, kStateNames[static_cast<size_t>(proc.state)],
                 proc.pc, proc.program.size(),
                 proc.last_cpu == kNoCpu ? -1 : static_cast<int>(proc.last_cpu),
                 proc.queued ? 1 : 0,
                 static_cast<unsigned long long>(proc.stats.dispatches));
  }

  std::fprintf(stderr, "---- tracer ring tails ----\n");
  if (ctx_->trace.enabled()) {
    constexpr size_t kTail = 12;
    for (uint16_t cpu = 0; cpu < ctx_->trace.cpu_count(); ++cpu) {
      const std::vector<TraceRecord> records = ctx_->trace.Snapshot(cpu);
      std::fprintf(stderr, "cpu %u (%zu records, %llu dropped):\n", cpu,
                   records.size(),
                   static_cast<unsigned long long>(ctx_->trace.dropped(cpu)));
      const size_t first = records.size() > kTail ? records.size() - kTail : 0;
      for (size_t i = first; i < records.size(); ++i) {
        const TraceRecord& r = records[i];
        const std::string_view name = ctx_->trace.EventName(r.event);
        std::fprintf(stderr, "  @%llu +%llu %.*s proc=%u\n",
                     static_cast<unsigned long long>(r.ts),
                     static_cast<unsigned long long>(r.dur),
                     static_cast<int>(name.size()), name.data(), r.proc);
      }
    }
  } else {
    std::fprintf(stderr,
                 "tracer disabled (set KernelConfig::trace.enabled for ring tails)\n");
  }

  std::fflush(stderr);
  std::abort();
}

bool UserProcessManager::AllDone() const {
  for (const auto& [pid, proc] : procs_) {
    if (proc.state != ProcState::kDone && proc.state != ProcState::kAborted) {
      return false;
    }
  }
  return true;
}

}  // namespace mks
