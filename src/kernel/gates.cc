#include "src/kernel/gates.h"

namespace mks {

KernelGates::KernelGates(KernelContext* ctx, VirtualProcessorManager* vpm,
                         PageFrameManager* pfm, SegmentManager* segs,
                         AddressSpaceManager* spaces, KnownSegmentManager* ksm,
                         DirectoryManager* dirs)
    : ctx_(ctx),
      self_(ctx->tracker.Register(module_names::kGates)),
      vpm_(vpm),
      pfm_(pfm),
      segs_(segs),
      spaces_(spaces),
      ksm_(ksm),
      dirs_(dirs),
      id_upward_signals_(ctx->metrics.Intern("gates.upward_signals")),
      id_locked_descriptor_waits_(ctx->metrics.Intern("gates.locked_descriptor_waits")),
      ev_gate_call_(ctx->trace.InternEvent("gate.call")),
      ev_reference_(ctx->trace.InternEvent("gate.reference")),
      ev_locked_park_(ctx->trace.InternEvent("fault.locked_park")),
      hist_reference_(ctx->metrics.InternHistogram("gate.reference_cycles")) {}

Result<EntryId> KernelGates::Search(ProcContext& ctx, EntryId dir, std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kSearch);
  return dirs_->Search(ctx.subject, dir, name);
}

Result<EntryId> KernelGates::CreateSegment(ProcContext& ctx, EntryId dir, std::string name,
                                           Acl acl, Label label) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kCreateSegment);
  return dirs_->CreateSegmentEntry(ctx.subject, dir, std::move(name), std::move(acl), label);
}

Result<EntryId> KernelGates::CreateDirectory(ProcContext& ctx, EntryId dir, std::string name,
                                             Acl acl, Label label) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kCreateDirectory);
  return dirs_->CreateDirectoryEntry(ctx.subject, dir, std::move(name), std::move(acl), label);
}

Status KernelGates::Delete(ProcContext& ctx, EntryId dir, std::string_view name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kDelete);
  return dirs_->DeleteEntry(ctx.subject, dir, name);
}

Status KernelGates::Rename(ProcContext& ctx, EntryId dir, std::string_view old_name,
                           std::string new_name) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kRename);
  return dirs_->RenameEntry(ctx.subject, dir, old_name, std::move(new_name));
}

Status KernelGates::SetAcl(ProcContext& ctx, EntryId dir, std::string_view name, Acl acl) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kSetAcl);
  return dirs_->SetAcl(ctx.subject, dir, name, std::move(acl));
}

Status KernelGates::ListNames(ProcContext& ctx, EntryId dir, std::vector<std::string>* out) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kListNames);
  return dirs_->ListNames(ctx.subject, dir, out);
}

Status KernelGates::SetQuota(ProcContext& ctx, EntryId dir, uint64_t limit) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kSetQuota);
  return dirs_->SetQuota(ctx.subject, dir, limit);
}

Status KernelGates::RemoveQuota(ProcContext& ctx, EntryId dir) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kRemoveQuota);
  return dirs_->RemoveQuota(ctx.subject, dir);
}

Result<QuotaStatus> KernelGates::GetQuota(ProcContext& ctx, EntryId dir) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kGetQuota);
  return dirs_->GetQuota(ctx.subject, dir);
}

Result<Segno> KernelGates::Initiate(ProcContext& ctx, EntryId target) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kInitiate);
  MKS_ASSIGN_OR_RETURN(EntryInfo info, dirs_->ResolveForInitiate(ctx.subject, target));
  // Ring bracket: a user segment is usable from the subject's ring.
  return ksm_->Initiate(ctx.pid, info.home, info.modes, ctx.subject.ring);
}

Status KernelGates::Terminate(ProcContext& ctx, Segno segno) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kTerminate);
  return ksm_->Terminate(ctx.pid, segno);
}

Result<EventcountId> KernelGates::CreateEventcount(ProcContext& ctx, Label label) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kCreateEventcount);
  if (!label.Dominates(ctx.subject.label)) {
    return Status(Code::kNoAccess, "*-property: eventcount must dominate creator");
  }
  const EventcountId ec = ctx_->eventcounts.Create("user_ec");
  if (ec.value >= user_eventcounts_.size()) {
    user_eventcounts_.resize(ec.value + 1);
  }
  user_eventcounts_[ec.value] = UserEventcount{true, label};
  return ec;
}

Status KernelGates::AdvanceEventcount(ProcContext& ctx, EventcountId ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kAdvanceEventcount);
  if (ec.value >= user_eventcounts_.size() || !user_eventcounts_[ec.value].valid) {
    return Status(Code::kNotFound, "no such eventcount");
  }
  MKS_RETURN_IF_ERROR(ctx_->monitor.CheckFlow(ctx.subject, user_eventcounts_[ec.value].label,
                                              FlowDirection::kModify));
  vpm_->Advance(ec);
  return Status::Ok();
}

Result<uint64_t> KernelGates::ReadEventcount(ProcContext& ctx, EventcountId ec) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kReadEventcount);
  if (ec.value >= user_eventcounts_.size() || !user_eventcounts_[ec.value].valid) {
    return Status(Code::kNotFound, "no such eventcount");
  }
  MKS_RETURN_IF_ERROR(ctx_->monitor.CheckFlow(ctx.subject, user_eventcounts_[ec.value].label,
                                              FlowDirection::kObserve));
  return ctx_->eventcounts.Read(ec);
}

Status KernelGates::AwaitEventcount(ProcContext& ctx, EventcountId ec, uint64_t target) {
  CallTracker::Scope scope(&ctx_->tracker, self_);
  Prof::Scope gate(&ctx_->prof, ProfDomain::kGate);
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  TraceGate(ctx, GateOp::kAwaitEventcount);
  if (ec.value >= user_eventcounts_.size() || !user_eventcounts_[ec.value].valid) {
    return Status(Code::kNotFound, "no such eventcount");
  }
  MKS_RETURN_IF_ERROR(ctx_->monitor.CheckFlow(ctx.subject, user_eventcounts_[ec.value].label,
                                              FlowDirection::kObserve));
  if (ctx_->eventcounts.Read(ec) >= target) {
    return Status::Ok();
  }
  ctx.pending_wait.valid = true;
  ctx.pending_wait.ec = ec;
  ctx.pending_wait.target = target;
  return Status(Code::kBlocked, "awaiting eventcount");
}

Result<Word> KernelGates::Read(ProcContext& ctx, Segno segno, uint32_t offset) {
  Word value = 0;
  MKS_RETURN_IF_ERROR(Reference(ctx, segno, offset, AccessMode::kRead, &value, 0));
  return value;
}

Status KernelGates::Write(ProcContext& ctx, Segno segno, uint32_t offset, Word value) {
  return Reference(ctx, segno, offset, AccessMode::kWrite, nullptr, value);
}

Status KernelGates::Reference(ProcContext& ctx, Segno segno, uint32_t offset, AccessMode mode,
                              Word* out, Word in) {
  // Span over the whole fault loop; the duration is the latency the user
  // program observes for this reference (fast path: a few cycles).
  Tracer::Span span(&ctx_->trace, ev_reference_, ctx.pid.value, segno.value,
                    hist_reference_);
  ctx.pending_wait = WaitSpec{};
  spaces_->BindToProcessor(&ctx_->cpu(), ctx.pid);
  for (int iteration = 0; iteration < kMaxFaultIterations; ++iteration) {
    const AccessResult access = ctx_->cpu().Access(segno, offset, mode, ctx.subject.ring);
    if (access.ok) {
      if (mode == AccessMode::kRead) {
        *out = ctx_->memory.ReadWord(access.abs_addr);
      } else {
        ctx_->memory.WriteWord(access.abs_addr, in);
      }
      return Status::Ok();
    }
    // A hardware exception enters the supervisor afresh: no caller stack is
    // carried across the fault boundary.
    CallTracker::SignalScope fresh_entry(&ctx_->tracker);
    // Everything from here to retry is fault service; the paging and naming
    // layers open their own domains underneath.
    Prof::Scope fault(&ctx_->prof, ProfDomain::kFaultService);
    switch (access.fault.kind) {
      case FaultKind::kMissingSegment: {
        MKS_RETURN_IF_ERROR(ksm_->HandleSegmentFault(ctx.pid, segno));
        break;
      }
      case FaultKind::kMissingPage: {
        WaitSpec wait;
        Status serviced = ksm_->HandleMissingPage(ctx.pid, access.fault, &wait);
        if (serviced.code() == Code::kBlocked) {
          ctx.pending_wait = wait;
          return serviced;
        }
        MKS_RETURN_IF_ERROR(serviced);
        break;
      }
      case FaultKind::kQuotaException: {
        MoveSignal signal;
        WaitSpec wait;
        Status grown =
            ksm_->HandleQuotaException(ctx.pid, segno, access.fault.page, &signal, &wait);
        if (signal.valid) {
          // The upward software signal: the dispatcher — with nothing pending
          // below — transfers the new home to the directory manager.
          ctx_->metrics.Inc(id_upward_signals_);
          MKS_RETURN_IF_ERROR(
              dirs_->CompleteSegmentMove(signal.uid, signal.new_pack, signal.new_vtoc));
        }
        MKS_RETURN_IF_ERROR(grown);
        break;
      }
      case FaultKind::kLockedDescriptor: {
        // Another processor's fault service holds the descriptor: await the
        // segment's page-arrival event.
        const KstEntry* entry = ksm_->Lookup(ctx.pid, segno);
        if (entry == nullptr) {
          return Status(Code::kInvalidSegno, "locked descriptor on unknown segment");
        }
        AstEntry* ast = segs_->Find(entry->home.uid);
        if (ast == nullptr) {
          return Status(Code::kInternal, "locked descriptor for inactive segment");
        }
        ctx.pending_wait.valid = true;
        ctx.pending_wait.ec = ast->page_ec;
        ctx.pending_wait.target = ctx_->eventcounts.Read(ast->page_ec) + 1;
        ctx_->metrics.Inc(id_locked_descriptor_waits_);
        ctx_->trace.Instant(ev_locked_park_, ctx.pid.value, segno.value);
        return Status(Code::kBlocked, "descriptor locked");
      }
      case FaultKind::kOutOfBounds:
        return Status(Code::kOutOfBounds, "beyond maximum segment length");
      case FaultKind::kAccessViolation:
        return Status(Code::kNoAccess, "hardware access violation");
      case FaultKind::kRingViolation:
        return Status(Code::kRingViolation, "ring bracket violation");
      case FaultKind::kNone:
        return Status(Code::kInternal, "faultless failure");
    }
  }
  return Status(Code::kInternal, "reference did not settle");
}

}  // namespace mks
