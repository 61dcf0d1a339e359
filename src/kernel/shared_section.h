// RAII read/write sections over a SimSharedLock, coupled to the kernel's
// virtual-time substrate.
//
// A manager wraps each classified public entry point in a SharedSection: the
// constructor acquires at the executing CPU's LocalNow() (the open window's
// local time, KernelContext::Window) and charges any spin, revocation
// traffic and grace wait through ChargeLockWait; the destructor releases at
// acquire-time plus everything the section charged to the global clock, the
// rule LockTenure applies to spin locks.  The lock counts its own grants and
// waits; the section adds the work done inside and trace events.
//
// Sections nest (DeleteEntry -> RemoveQuota, HandleQuotaException ->
// RelocateUid): only the outermost section acquires; inner ones are inert.
// With the lock un-modeled (ReadPolicy::kOff) the whole wrapper is inert —
// no charge, no counter, no trace record — preserving byte-identity.
#ifndef MKS_KERNEL_SHARED_SECTION_H_
#define MKS_KERNEL_SHARED_SECTION_H_

#include <string>

#include "src/kernel/context.h"
#include "src/sync/shared_lock.h"

namespace mks {

// The per-manager instrument bundle, interned once at manager construction
// (interning is unconditional and inert — the same discipline every manager
// follows).  Grants, spin, revocations, publishes and grace waits are the
// lock's own counters (SimSharedLock's accessors); the bundle adds the work
// done inside sections and the trace events.
struct ReadMostlyInstruments {
  // `read_domain`/`write_domain` classify the manager's sections for the
  // cycle profiler.  The KST rides the directory domains: it is the
  // per-process face of the naming surface, and P16-style analysis wants
  // "naming, read side" as one number.
  void Init(KernelContext* ctx, const char* prefix,
            ProfDomain read = ProfDomain::kDirectoryRead,
            ProfDomain write = ProfDomain::kDirectoryWrite) {
    read_domain = read;
    write_domain = write;
    const std::string p(prefix);
    id_read_section_cycles = ctx->metrics.Intern(p + ".read_section_cycles");
    id_write_section_cycles = ctx->metrics.Intern(p + ".write_section_cycles");
    ev_read_grant = ctx->trace.InternEvent(p + ".read_grant");
    ev_revoke = ctx->trace.InternEvent(p + ".revoke");
    ev_grace = ctx->trace.InternEvent(p + ".grace_wait");
  }

  ProfDomain read_domain = ProfDomain::kDirectoryRead;
  ProfDomain write_domain = ProfDomain::kDirectoryWrite;
  MetricId id_read_section_cycles = 0;
  MetricId id_write_section_cycles = 0;
  TraceEventId ev_read_grant = 0;
  TraceEventId ev_revoke = 0;
  TraceEventId ev_grace = 0;
};

class SharedSection {
 public:
  enum class Kind : uint8_t { kRead, kWrite };

  SharedSection(SimSharedLock* lock, KernelContext* ctx, Kind kind,
                const ReadMostlyInstruments& ins)
      : ctx_(ctx), ins_(ins), kind_(kind),
        prof_scope_(&ctx->prof, kind == Kind::kRead ? ins.read_domain
                                                    : ins.write_domain) {
    if (!lock->modeled()) {
      return;
    }
    lock_ = lock;
    if (lock->EnterSection() > 0) {
      nested_ = true;
      return;
    }
    cpu_ = ctx->current_cpu;
    lnow_ = ctx->LocalNow();
    if (kind == Kind::kRead) {
      spin_ = lock->AcquireRead(lnow_, cpu_);
      // A reader moves no line: its whole wait is the gap.
      ChargeLockWait(&ctx->prof, &ctx->cost, spin_, 0);
      ctx->trace.Instant(ins.ev_read_grant, cpu_, static_cast<uint32_t>(spin_));
    } else {
      const SimSharedLock::WriteGrant grant = lock->AcquireWrite(lnow_, cpu_);
      spin_ = grant.total;
      // The revocation/publish/grace traffic is the writer's handoff.
      ChargeLockWait(&ctx->prof, &ctx->cost, grant.total,
                     grant.revocation_cycles + grant.publish_cycles + grant.grace_cycles);
      if (grant.revoked_cpus > 0) {
        ctx->trace.Instant(ins.ev_revoke, cpu_, grant.revoked_cpus);
      }
      if (grant.grace_cycles > 0) {
        ctx->trace.Instant(ins.ev_grace, cpu_, static_cast<uint32_t>(grant.grace_cycles));
      }
    }
    t0_ = ctx->clock.now();
  }

  ~SharedSection() {
    if (lock_ == nullptr) {
      return;
    }
    lock_->ExitSection();
    if (nested_) {
      return;
    }
    // The section held the lock for exactly the global-clock progress its
    // body charged; release at acquire + spin + that work.
    const Cycles work = ctx_->clock.now() - t0_;
    const Cycles end = lnow_ + spin_ + work;
    if (kind_ == Kind::kRead) {
      lock_->ReleaseRead(end, cpu_);
      ctx_->metrics.Inc(ins_.id_read_section_cycles, work);
    } else {
      lock_->ReleaseWrite(end);
      ctx_->metrics.Inc(ins_.id_write_section_cycles, work);
    }
  }

  SharedSection(const SharedSection&) = delete;
  SharedSection& operator=(const SharedSection&) = delete;

 private:
  KernelContext* ctx_;
  const ReadMostlyInstruments& ins_;
  Kind kind_;
  // Spans the whole section (acquire, body, release), so everything charged
  // inside lands under the manager's read/write domain.
  Prof::Scope prof_scope_;
  SimSharedLock* lock_ = nullptr;  // null: un-modeled, fully inert
  bool nested_ = false;
  uint16_t cpu_ = 0;
  Cycles lnow_ = 0;
  Cycles spin_ = 0;
  Cycles t0_ = 0;
};

}  // namespace mks

#endif  // MKS_KERNEL_SHARED_SECTION_H_
