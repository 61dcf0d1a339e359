// The gate keeper: the ring-0 interface of the kernel, and the fault
// dispatcher.
//
// Every operation a user-domain program may request of the kernel enters
// here; the reference monitor is consulted inside the managers, and the
// fault dispatcher below turns hardware exceptions into the downward call
// chains of the new design.  Two paper mechanisms live here:
//
//  * the fault loop — a memory reference retries after each serviced
//    exception (missing segment, missing page, quota), up to a bound;
//  * the upward-signal trampoline — when the quota chain reports that a
//    segment was moved to a new pack, the dispatcher (not the modules below)
//    transfers control to the directory manager to rewrite the entry, with
//    no kernel activation records pending underneath.
//
// A memory reference that must wait (asynchronous paging) returns kBlocked
// and records what to await in the caller's ProcContext; the user process
// manager parks the process and the real-memory message queue wakes it.
#ifndef MKS_KERNEL_GATES_H_
#define MKS_KERNEL_GATES_H_

#include <string>
#include <vector>

#include "src/kernel/directory.h"

namespace mks {

// Per-request context: who is asking, and (after a kBlocked return) what the
// caller must await before retrying.
struct ProcContext {
  ProcessId pid{};  // ProcessId{0} denotes kernel-internal references
  Subject subject;
  WaitSpec pending_wait;
};

// `arg` values of the gate.call trace instant — which gate was crossed.
enum class GateOp : uint32_t {
  kSearch = 0,
  kCreateSegment,
  kCreateDirectory,
  kDelete,
  kRename,
  kSetAcl,
  kListNames,
  kSetQuota,
  kRemoveQuota,
  kGetQuota,
  kInitiate,
  kTerminate,
  kCreateEventcount,
  kAdvanceEventcount,
  kReadEventcount,
  kAwaitEventcount,
};

// Read/write classification of the gate surface, which the user-ring walker's
// attribution uses: a read-class gate observes naming or eventcount state;
// everything else mutates it.
// (Await is an observe — the mandatory-policy direction the gates enforce —
// and touches no naming structure.)
constexpr bool GateOpIsRead(GateOp op) {
  switch (op) {
    case GateOp::kSearch:
    case GateOp::kListNames:
    case GateOp::kGetQuota:
    case GateOp::kReadEventcount:
    case GateOp::kAwaitEventcount:
      return true;
    default:
      return false;
  }
}

class KernelGates {
 public:
  KernelGates(KernelContext* ctx, VirtualProcessorManager* vpm, AddressSpaceManager* spaces,
              KnownSegmentManager* ksm, DirectoryManager* dirs);

  // --- naming gates ---
  EntryId RootId() const { return dirs_->RootId(); }
  Result<EntryId> Search(ProcContext& ctx, EntryId dir, std::string_view name);
  Result<EntryId> CreateSegment(ProcContext& ctx, EntryId dir, std::string name, Acl acl,
                                Label label);
  Result<EntryId> CreateDirectory(ProcContext& ctx, EntryId dir, std::string name, Acl acl,
                                  Label label);
  Status Delete(ProcContext& ctx, EntryId dir, std::string_view name);
  Status Rename(ProcContext& ctx, EntryId dir, std::string_view old_name, std::string new_name);
  Status SetAcl(ProcContext& ctx, EntryId dir, std::string_view name, Acl acl);
  Status ListNames(ProcContext& ctx, EntryId dir, std::vector<std::string>* out);
  Status SetQuota(ProcContext& ctx, EntryId dir, uint64_t limit);
  Status RemoveQuota(ProcContext& ctx, EntryId dir);
  Result<QuotaStatus> GetQuota(ProcContext& ctx, EntryId dir);

  // --- address space gates ---
  Result<Segno> Initiate(ProcContext& ctx, EntryId target);
  Status Terminate(ProcContext& ctx, Segno segno);

  // --- memory references (enter the fault dispatcher) ---
  Result<Word> Read(ProcContext& ctx, Segno segno, uint32_t offset);
  Status Write(ProcContext& ctx, Segno segno, uint32_t offset, Word value);

  // --- user-visible eventcounts [Reed and Kanodia, 1977] ---
  // Overt inter-process communication with mandatory-policy checks: an
  // advance is a modify (the eventcount's label must dominate the
  // advancer's), a read/await is an observe (the subject must dominate the
  // eventcount's label), so signalling cannot move information downward.
  Result<EventcountId> CreateEventcount(ProcContext& ctx, Label label);
  Status AdvanceEventcount(ProcContext& ctx, EventcountId ec);
  Result<uint64_t> ReadEventcount(ProcContext& ctx, EventcountId ec);
  // kBlocked (with ctx.pending_wait filled) when the target lies ahead.
  Status AwaitEventcount(ProcContext& ctx, EventcountId ec, uint64_t target);

  // Number of fault-loop iterations tolerated before declaring the reference
  // wedged (diagnostic bound, not a real-machine artifact).
  static constexpr int kMaxFaultIterations = 64;

 private:
  Status Reference(ProcContext& ctx, Segno segno, uint32_t offset, AccessMode mode, Word* out,
                   Word in);

  // The ring crossing every gate opens with, in this order: the gate's call
  // scope, its gate profiler scope, the gate-call charge, and a gate.call
  // trace instant (proc = pid, arg = op; the op's GateOpIsRead class follows
  // from the arg).  Both scopes close when the gate returns.
  class GateEntry {
   public:
    GateEntry(KernelGates* gates, const ProcContext& ctx, GateOp op);

   private:
    CallTracker::Scope scope_;
    Prof::Scope gate_;
  };

  struct UserEventcount {
    bool valid = false;
    Label label;
  };

  KernelContext* ctx_;
  ModuleId self_;
  std::vector<UserEventcount> user_eventcounts_;  // indexed by EventcountId
  VirtualProcessorManager* vpm_;
  AddressSpaceManager* spaces_;
  KnownSegmentManager* ksm_;
  DirectoryManager* dirs_;
  MetricId id_upward_signals_;
  MetricId id_locked_descriptor_waits_;
  TraceEventId ev_gate_call_;
  TraceEventId ev_reference_;
  TraceEventId ev_locked_park_;
  HistId hist_reference_;
};

}  // namespace mks

#endif  // MKS_KERNEL_GATES_H_
