// RAII read/write sections over a SimSharedLock, coupled to the kernel's
// virtual-time substrate.
//
// A manager wraps each classified public entry point in a SharedSection: the
// constructor acquires at the executing CPU's local virtual time (charging
// any spin, revocation traffic, and grace waits to the cost model and
// attributing them to metrics and trace events), and the destructor releases
// at acquire-time plus everything the section charged to the global clock —
// so the critical section's virtual length is exactly the work done inside
// it, the same accounting SimSpinLock call sites use.
//
// Local virtual time mid-computation comes from KernelContext::LocalNow():
// the dispatcher anchors each work window (local clock and global clock at
// window start), and LocalNow adds the global-clock progress since.  With the
// default anchor (0, 0) local time IS global time — correct for directly
// driven single-CPU use, where the clock is globally monotone.
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

// The per-manager instrument bundle: metric and trace handles for read-side
// vs write-side attribution, interned once at manager construction (interning
// is unconditional and inert — the same discipline every manager follows).
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
    id_read_sections = ctx->metrics.Intern(p + ".read_sections");
    id_read_section_cycles = ctx->metrics.Intern(p + ".read_section_cycles");
    id_read_spin_cycles = ctx->metrics.Intern(p + ".read_spin_cycles");
    id_write_sections = ctx->metrics.Intern(p + ".write_sections");
    id_write_section_cycles = ctx->metrics.Intern(p + ".write_section_cycles");
    id_write_spin_cycles = ctx->metrics.Intern(p + ".write_spin_cycles");
    id_revoked_cpus = ctx->metrics.Intern(p + ".reader_cpus_revoked");
    id_revocation_cycles = ctx->metrics.Intern(p + ".revocation_cycles");
    id_publish_cycles = ctx->metrics.Intern(p + ".publish_cycles");
    id_grace_waits = ctx->metrics.Intern(p + ".grace_waits");
    id_grace_cycles = ctx->metrics.Intern(p + ".grace_cycles");
    ev_read_grant = ctx->trace.InternEvent(p + ".read_grant");
    ev_revoke = ctx->trace.InternEvent(p + ".revoke");
    ev_grace = ctx->trace.InternEvent(p + ".grace_wait");
  }

  ProfDomain read_domain = ProfDomain::kDirectoryRead;
  ProfDomain write_domain = ProfDomain::kDirectoryWrite;
  MetricId id_read_sections = 0;
  MetricId id_read_section_cycles = 0;
  MetricId id_read_spin_cycles = 0;
  MetricId id_write_sections = 0;
  MetricId id_write_section_cycles = 0;
  MetricId id_write_spin_cycles = 0;
  MetricId id_revoked_cpus = 0;
  MetricId id_revocation_cycles = 0;
  MetricId id_publish_cycles = 0;
  MetricId id_grace_waits = 0;
  MetricId id_grace_cycles = 0;
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
      ctx->metrics.Inc(ins.id_read_sections);
      if (spin_ > 0) {
        // A reader moves no line: its whole wait is the gap.
        ChargeLockWait(&ctx->prof, &ctx->cost, spin_, 0);
        ctx->metrics.Inc(ins.id_read_spin_cycles, spin_);
      }
      ctx->trace.Instant(ins.ev_read_grant, cpu_, static_cast<uint32_t>(spin_));
    } else {
      const SimSharedLock::WriteGrant grant = lock->AcquireWrite(lnow_, cpu_);
      spin_ = grant.total;
      ctx->metrics.Inc(ins.id_write_sections);
      if (grant.total > 0) {
        // The revocation/publish/grace traffic is the writer's handoff.
        ChargeLockWait(&ctx->prof, &ctx->cost, grant.total,
                       grant.revocation_cycles + grant.publish_cycles + grant.grace_cycles);
        ctx->metrics.Inc(ins.id_write_spin_cycles, grant.total);
      }
      if (grant.revoked_cpus > 0) {
        ctx->metrics.Inc(ins.id_revoked_cpus, grant.revoked_cpus);
        ctx->metrics.Inc(ins.id_revocation_cycles, grant.revocation_cycles);
        ctx->trace.Instant(ins.ev_revoke, cpu_, grant.revoked_cpus);
      }
      if (grant.publish_cycles > 0) {
        ctx->metrics.Inc(ins.id_publish_cycles, grant.publish_cycles);
      }
      if (grant.grace_cycles > 0) {
        ctx->metrics.Inc(ins.id_grace_waits);
        ctx->metrics.Inc(ins.id_grace_cycles, grant.grace_cycles);
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
