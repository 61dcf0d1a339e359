// RAII read/write sections over a SimSharedLock, coupled to the kernel's
// virtual-time substrate.
//
// A manager wraps each classified public entry point in a SharedSection,
// which holds the lock through a LockTenure: it acquires at the executing
// CPU's LocalNow() (the open window's local time, KernelContext::Window),
// charges any spin, revocation traffic and grace wait, and releases by the
// rule every modelled lock follows.  The lock counts its own grants and
// waits; the section adds the work done inside and trace events.
//
// Sections nest (DeleteEntry -> RemoveQuota, HandleQuotaException ->
// RelocateUid): only the outermost section acquires; inner ones are inert.
// With the lock un-modeled (ReadPolicy::kOff) the whole wrapper is inert —
// no charge, no counter, no trace record — preserving byte-identity.
#ifndef MKS_KERNEL_SHARED_SECTION_H_
#define MKS_KERNEL_SHARED_SECTION_H_

#include <optional>
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
      return;  // nested: only the outermost section holds the lock
    }
    const uint16_t cpu = ctx->current_cpu;
    if (kind == Kind::kRead) {
      tenure_.emplace(lock, cpu, ctx->LocalNow(), &ctx->prof, &ctx->cost);
      ctx->trace.Instant(ins.ev_read_grant, cpu, static_cast<uint32_t>(tenure_->spin()));
    } else {
      SimSharedLock::WriteGrant grant;
      tenure_.emplace(lock, cpu, ctx->LocalNow(), &ctx->prof, &ctx->cost, &grant);
      if (grant.revoked_cpus > 0) {
        ctx->trace.Instant(ins.ev_revoke, cpu, grant.revoked_cpus);
      }
      if (grant.grace_cycles > 0) {
        ctx->trace.Instant(ins.ev_grace, cpu, static_cast<uint32_t>(grant.grace_cycles));
      }
    }
  }

  ~SharedSection() {
    if (lock_ == nullptr) {
      return;
    }
    lock_->ExitSection();
    if (tenure_.has_value()) {
      // The body's work: what the section charged after its grant.
      const Cycles work = tenure_->held() - tenure_->spin();
      tenure_->Release();
      ctx_->metrics.Inc(
          kind_ == Kind::kRead ? ins_.id_read_section_cycles : ins_.id_write_section_cycles, work);
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
  std::optional<LockTenure> tenure_;  // the outermost section's hold
};

}  // namespace mks

#endif  // MKS_KERNEL_SHARED_SECTION_H_
