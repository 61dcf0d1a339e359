#include "src/kernel/vproc.h"

#include <cassert>

namespace mks {

namespace {
// State-record layout in the core segment: a full processor state (register
// frame, descriptor-base values, a small kernel stack) per vp.  The size is
// what makes "every vp state permanently in the fastest memory" a real cost.
constexpr uint32_t kStateRecordWords = 256;
}  // namespace

VirtualProcessorManager::VirtualProcessorManager(KernelContext* ctx,
                                                 CoreSegmentManager* core_segs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kVproc)),
      core_segs_(core_segs),
      id_pool_size_(ctx->metrics.Intern("vproc.pool_size")),
      id_dispatches_(ctx->metrics.Intern("vproc.dispatches")),
      id_vp_migrations_(ctx->metrics.Intern("vproc.vp_migrations")),
      id_vp_migration_cycles_(ctx->metrics.Intern("vproc.vp_migration_cycles")),
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
  ctx_->metrics.Inc(id_pool_size_, vp_count);
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

Result<VpId> VirtualProcessorManager::BindKernelTask(std::string name, KernelTask task,
                                                     KernelTaskClass task_class) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    Vp& v = vps_[i];
    if (!v.kernel_bound && v.state == VpState::kIdle) {
      v.kernel_bound = true;
      v.task_class = task_class;
      ++bound_tasks_[static_cast<size_t>(task_class)];
      v.name = std::move(name);
      v.task = std::move(task);
      v.state = VpState::kReady;
      StoreState(VpId(i));
      return VpId(i);
    }
  }
  return Status(Code::kResourceExhausted, "virtual processor pool exhausted");
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
  // interconnect transfer.  Free at connect cost 0 (the legacy model) and
  // structurally free with one CPU (last_cpu can never differ).
  if (connect_cost_ > 0 && v.last_cpu != ctx_->current_cpu) {
    ctx_->cost.Charge(CodeStyle::kOptimized, connect_cost_);
    ctx_->metrics.Inc(id_vp_migrations_);
    ctx_->metrics.Inc(id_vp_migration_cycles_, connect_cost_);
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
  if (ctx_->eventcounts.AwaitOrEnqueue(ec, target, vp)) {
    return true;
  }
  vps_[vp.value].state = VpState::kWaiting;
  StoreState(vp);
  return false;
}

void VirtualProcessorManager::Advance(EventcountId ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  uint32_t woken = 0;
  for (VpId vp : ctx_->eventcounts.Advance(ec)) {
    Vp& v = vps_[vp.value];
    v.state = v.kernel_bound ? VpState::kReady : VpState::kIdle;
    StoreState(vp);
    ++woken;
  }
  ctx_->trace.Instant(ev_ec_advance_, ec.value, woken);
}

bool VirtualProcessorManager::RunKernelVp(uint16_t i) {
  Vp& v = vps_[i];
  v.state = VpState::kRunning;
  ChargeDispatch(v);
  const Cycles task_begin = ctx_->trace.Begin();
  const bool did_work = v.task();
  ctx_->trace.CloseSpan(task_begin, ev_kernel_task_, i, did_work ? 1 : 0);
  if (v.state == VpState::kRunning) {
    v.state = VpState::kReady;
  }
  StoreState(VpId(i));
  return did_work;
}

bool VirtualProcessorManager::RunKernelTasks(std::optional<KernelTaskClass> only) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  bool any_work = false;
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    const Vp& v = vps_[i];
    if (v.kernel_bound && v.state == VpState::kReady &&
        (!only.has_value() || v.task_class == *only)) {
      any_work = RunKernelVp(i) || any_work;
    }
  }
  return any_work;
}

bool VirtualProcessorManager::RunKernelTask(std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  for (uint16_t i = 0; i < vps_.size(); ++i) {
    const Vp& v = vps_[i];
    if (v.kernel_bound && v.name == name && v.state == VpState::kReady) {
      return RunKernelVp(i);
    }
  }
  return false;
}

VpState VirtualProcessorManager::state(VpId vp) const { return vps_[vp.value].state; }

const std::string& VirtualProcessorManager::task_name(VpId vp) const {
  return vps_[vp.value].name;
}

bool VirtualProcessorManager::IsKernelVp(VpId vp) const { return vps_[vp.value].kernel_bound; }

void VirtualProcessorManager::AccrueBusy(VpId vp, Cycles cycles) {
  vps_[vp.value].busy += cycles;
}

Cycles VirtualProcessorManager::MaxBusy() const {
  Cycles max_busy = 0;
  for (const Vp& vp : vps_) {
    max_busy = vp.busy > max_busy ? vp.busy : max_busy;
  }
  return max_busy;
}

}  // namespace mks
