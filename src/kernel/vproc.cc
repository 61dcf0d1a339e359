#include "src/kernel/vproc.h"

#include <cassert>

namespace mks {

namespace {
// State-record layout in the core segment: a full processor state (register
// frame, descriptor-base values, a small kernel stack) per vp.  The size is
// what makes "every vp state permanently in the fastest memory" a real cost.
constexpr uint32_t kStateRecordWords = 256;
// The upward message class of a wakeup: an awaited eventcount (the payload)
// reached its target.
constexpr uint64_t kEventcountReached = 1;
}  // namespace

VirtualProcessorManager::VirtualProcessorManager(KernelContext* ctx,
                                                 CoreSegmentManager* core_segs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kVproc)),
      core_segs_(core_segs),
      id_dispatches_(ctx->metrics.Intern("vproc.dispatches")),
      id_vp_migrations_(ctx->metrics.Intern("vproc.vp_migrations")),
      ev_ec_advance_(ctx->trace.InternEvent("ec.advance")),
      ev_vp_dispatch_(ctx->trace.InternEvent("vp.dispatch")),
      ev_kernel_task_(ctx->trace.InternEvent("vp.kernel_task")) {}

Status VirtualProcessorManager::Init(uint16_t vp_count) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  const uint32_t words = vp_count * kStateRecordWords;
  const uint32_t pages = (words + kPageWords - 1) / kPageWords;
  auto seg = core_segs_->Allocate("vp_states", pages == 0 ? 1 : pages);
  if (!seg.ok()) {
    return seg.status();
  }
  state_seg_ = *seg;
  vps_.assign(vp_count, Vp{});
  for (uint16_t i = 0; i < vp_count; ++i) {
    StoreState(VpId(i));
  }
  return Status::Ok();
}

void VirtualProcessorManager::StoreState(VpId vp) {
  // The state record lives in permanently-resident core; writing it can
  // never fault.  This is the property that breaks the interpreter loop.
  const Vp& v = vps_[vp.value];
  const uint32_t base = vp.value * kStateRecordWords;
  (void)core_segs_->WriteWord(state_seg_, base, static_cast<Word>(v.state));
  (void)core_segs_->WriteWord(state_seg_, base + 1, v.kernel_bound ? 1 : 0);
}

Result<VpId> VirtualProcessorManager::BindKernelTask(std::string name, EventcountId work,
                                                     KernelTask task,
                                                     KernelTaskClass task_class) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    Vp& v = vps_[i];
    if (!v.kernel_bound && v.state == VpState::kIdle) {
      v.kernel_bound = true;
      v.task_class = task_class;
      v.work = work;
      v.name = std::move(name);
      v.task = std::move(task);
      // Nothing is posted yet: the vp waits for the count's next advance.
      (void)Await(VpId(i), work, ctx_->eventcounts.Read(work) + 1);
      return VpId(i);
    }
  }
  return Status(Code::kResourceExhausted, "virtual processor pool exhausted");
}

bool VirtualProcessorManager::HasReadyTask(KernelTaskClass task_class) const {
  for (const Vp& v : vps_) {
    if (v.kernel_bound && v.state == VpState::kReady && v.task_class == task_class) {
      return true;
    }
  }
  return false;
}

std::vector<VpId> VirtualProcessorManager::UserPool() const {
  std::vector<VpId> pool;
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    if (!vps_[i].kernel_bound) {
      pool.push_back(VpId(i));
    }
  }
  return pool;
}

void VirtualProcessorManager::ChargeDispatch(Vp& v) {
  // Vp switch and state-record migration are dispatch overhead, whatever the
  // caller is doing; keep them off the quantum/fault domains.
  Prof::Scope sw(&ctx_->prof, ProfDomain::kDispatch);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kVpSwitch);
  // Loading a state record last resident in another CPU's cache pays one
  // interconnect transfer, at the pool's connect price.  Free at connect
  // cost 0 (the legacy model) and structurally free with one CPU (last_cpu
  // can never differ).
  const Cycles connect_cost = ctx_->cpus.connect_cost();
  if (connect_cost > 0 && v.last_cpu != ctx_->current_cpu) {
    ctx_->cost.Charge(CodeStyle::kOptimized, connect_cost);
    ctx_->metrics.Inc(id_vp_migrations_);
  }
  v.last_cpu = ctx_->current_cpu;
}

Result<VpId> VirtualProcessorManager::TakeUserVp(uint16_t i) {
  Vp& v = vps_[i];
  acquire_cursor_ = static_cast<uint16_t>((i + 1) % vps_.size());
  v.state = VpState::kRunning;
  StoreState(VpId(i));
  ChargeDispatch(v);
  ctx_->metrics.Inc(id_dispatches_);
  ctx_->trace.Instant(ev_vp_dispatch_, i, 0);
  return VpId(i);
}

Result<VpId> VirtualProcessorManager::AcquireIdleUserVp() {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  const uint16_t n = static_cast<uint16_t>(vps_.size());
  for (uint16_t step = 0; step < n; ++step) {
    const uint16_t i = static_cast<uint16_t>((acquire_cursor_ + step) % n);
    Vp& v = vps_[i];
    if (!v.kernel_bound && v.state == VpState::kIdle) {
      return TakeUserVp(i);
    }
  }
  return Status(Code::kResourceExhausted, "no idle virtual processor");
}

Result<VpId> VirtualProcessorManager::AcquireIdleUserVp(uint16_t prefer_cpu) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  const uint16_t n = static_cast<uint16_t>(vps_.size());
  // First choice: an idle vp already warm on the preferred CPU, scanned in
  // fixed index order for determinism.
  for (uint16_t i = 0; i < n; ++i) {
    Vp& v = vps_[i];
    if (!v.kernel_bound && v.state == VpState::kIdle && v.last_cpu == prefer_cpu) {
      return TakeUserVp(i);
    }
  }
  // Otherwise the rotating cursor, as the non-affine path does.
  for (uint16_t step = 0; step < n; ++step) {
    const uint16_t i = static_cast<uint16_t>((acquire_cursor_ + step) % n);
    Vp& v = vps_[i];
    if (!v.kernel_bound && v.state == VpState::kIdle) {
      return TakeUserVp(i);
    }
  }
  return Status(Code::kResourceExhausted, "no idle virtual processor");
}

void VirtualProcessorManager::ReleaseUserVp(VpId vp) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Vp& v = vps_[vp.value];
  assert(!v.kernel_bound);
  v.state = VpState::kIdle;
  StoreState(vp);
}

bool VirtualProcessorManager::Await(VpId vp, EventcountId ec, uint64_t target) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  if (ctx_->eventcounts.AwaitOrEnqueue(ec, target, EcWaiter::Vp(vp))) {
    return true;
  }
  vps_[vp.value].state = VpState::kWaiting;
  StoreState(vp);
  return false;
}

void VirtualProcessorManager::Advance(EventcountId ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  ctx_->eventcounts.Advance(ec, &woken_);
  for (const EcWaiter& w : woken_) {
    if (w.kind == EcWaiter::Kind::kProcess) {
      PostWakeup(UpwardMessage{ProcessId(w.id), kEventcountReached, ec.value});
      continue;
    }
    // Only kernel vps await: a user vp is held for one quantum and released
    // at its end.
    Vp& v = vps_[w.id];
    assert(v.kernel_bound);
    v.state = VpState::kReady;
    StoreState(VpId(static_cast<uint16_t>(w.id)));
  }
  ctx_->trace.Instant(ev_ec_advance_, ec.value, static_cast<uint32_t>(woken_.size()));
}

void VirtualProcessorManager::PostWakeup(const UpwardMessage& wakeup) {
  assert(upward_queue_ != nullptr);
  // Behind an earlier deferred wakeup, or into a full queue: defer, so the
  // queue's bound can delay a wakeup but never lose one.
  if (!deferred_wakeups_.empty() || !upward_queue_->Push(wakeup).ok()) {
    deferred_wakeups_.push_back(wakeup);
  }
}

bool VirtualProcessorManager::PostDeferredWakeups() {
  size_t posted = 0;
  while (posted < deferred_wakeups_.size() &&
         upward_queue_->Push(deferred_wakeups_[posted]).ok()) {
    ++posted;
  }
  deferred_wakeups_.erase(deferred_wakeups_.begin(),
                          deferred_wakeups_.begin() + static_cast<ptrdiff_t>(posted));
  return posted > 0;
}

void VirtualProcessorManager::RunKernelVp(uint16_t i) {
  Vp& v = vps_[i];
  v.state = VpState::kRunning;
  ChargeDispatch(v);
  // Work posted while the task runs readies it again: the re-await starts
  // from the count read before the run.
  const uint64_t seen = ctx_->eventcounts.Read(v.work);
  const Cycles task_begin = ctx_->trace.Begin();
  {
    // The task enters its module afresh, as a fault does: the vp manager
    // acts on nothing the task returns, so no call edge runs from it.
    CallTracker::SignalScope task_entry(&ctx_->tracker);
    v.task();
  }
  ctx_->trace.CloseSpan(task_begin, ev_kernel_task_, i);
  v.state = VpState::kReady;
  (void)Await(VpId(i), v.work, seen + 1);
  StoreState(VpId(i));
}

bool VirtualProcessorManager::RunKernelTasks(std::optional<KernelTaskClass> only) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  bool ran = false;
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    const Vp& v = vps_[i];
    if (v.kernel_bound && v.state == VpState::kReady &&
        (!only.has_value() || v.task_class == *only)) {
      RunKernelVp(i);
      ran = true;
    }
  }
  return ran;
}

bool VirtualProcessorManager::RunKernelTask(std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    const Vp& v = vps_[i];
    if (v.kernel_bound && v.name == name && v.state == VpState::kReady) {
      RunKernelVp(i);
      return true;
    }
  }
  return false;
}

VpState VirtualProcessorManager::state(VpId vp) const { return vps_[vp.value].state; }

const std::string& VirtualProcessorManager::task_name(VpId vp) const {
  return vps_[vp.value].name;
}

bool VirtualProcessorManager::IsKernelVp(VpId vp) const { return vps_[vp.value].kernel_bound; }

}  // namespace mks
