// The known segment manager: per-process segment-number bindings and the
// downward dispatch of segment, page, and quota exceptions.
//
// A "known" segment is one a process has initiated: the known segment table
// (KST) maps the process's segment numbers to segment unique identifiers,
// the segment's home (pack, VTOC index), the access modes granted at
// initiation, and — the quota redesign's key datum — the *static* name of
// the governing quota cell, supplied once by the directory layer.
//
// Exceptions reported by the hardware arrive here carrying only (process,
// segment number, page number); this manager owns the translation to a
// segment identity and initiates the chain of calls DOWN the dependency
// structure.  A full-pack exception discovered at the bottom is carried back
// up as a status and converted into a MoveSignal: a non-returning upward
// signal for the directory manager, delivered by the gate layer's trampoline
// with no activation records left pending below.
#ifndef MKS_KERNEL_KNOWN_SEGMENT_H_
#define MKS_KERNEL_KNOWN_SEGMENT_H_

#include <unordered_map>
#include <vector>

#include "src/kernel/address_space.h"
#include "src/kernel/shared_section.h"

namespace mks {

// Everything the layers above must supply to make a segment known.
struct SegmentHome {
  SegmentUid uid{};
  PackId pack{};
  VtocIndex vtoc{};
  QuotaCellId quota_cell = kNoQuotaCell;  // static governing-cell name
};

struct KstEntry {
  bool valid = false;
  SegmentHome home;
  AccessModes modes;
  uint8_t ring_bracket = 4;
};

// The upward signal produced when a quota exception uncovered a full pack:
// the directory entry for `uid` must be rewritten to (new_pack, new_vtoc).
struct MoveSignal {
  bool valid = false;
  SegmentUid uid{};
  PackId new_pack{};
  VtocIndex new_vtoc{};
};

// Read/write classification of the KST surface (the read-mostly refactor):
//
//   reads  — Lookup, SegnoOf, HandleSegmentFault, HandleMissingPage: they
//            read a process's bindings and act through lower-level managers,
//            which keep their own serialization.
//   writes — CreateKst, DestroyKst, Initiate, Terminate, RelocateUid,
//            HandleQuotaException: they mutate KST entries or the table set.
//
// Each public entry point runs inside a SharedSection over one SimSharedLock
// shared by every KST; with ReadPolicy::kOff (the default) the sections are
// inert and the manager is byte-identical to its pre-lock behaviour.
class KnownSegmentManager {
 public:
  KnownSegmentManager(KernelContext* ctx, SegmentManager* segs, AddressSpaceManager* spaces);

  // Selects the read-mostly policy for the KST lock (called by Kernel).
  void ConfigureReadMostly(const SharedLockConfig& config) { rml_.Configure(config); }
  const SimSharedLock& kst_lock() const { return rml_; }

  Status CreateKst(ProcessId pid);
  Status DestroyKst(ProcessId pid);

  // Clears every binding except `keep` (the process-state segment), leaving
  // the KST itself allocated — the slab-pooling fast path for process-slot
  // reuse.  One write section; present SDWs are disconnected first so the
  // recycled slot cannot reference the prior occupant's segments.
  Status ResetKst(ProcessId pid, Segno keep);

  // Assigns the lowest free user segment number and records the binding.
  // Connection to the address space is lazy (via the segment fault path).
  Result<Segno> Initiate(ProcessId pid, const SegmentHome& home, AccessModes modes,
                         uint8_t ring_bracket);
  Status Terminate(ProcessId pid, Segno segno);

  const KstEntry* Lookup(ProcessId pid, Segno segno) const;
  // Finds the segno a process has bound to `uid`, if any.
  Result<Segno> SegnoOf(ProcessId pid, SegmentUid uid) const;

  // After a relocation, rewrites every process's KST binding for `uid` to
  // the new home — the write side of the KST surface.  Public so the
  // relocation chain (and tests) can drive it against concurrent Lookups;
  // HandleQuotaException invokes it on the full-pack path.
  void RelocateUid(SegmentUid uid, PackId pack, VtocIndex vtoc);

  // --- exception dispatch (invoked by the gate layer's fault loop) ---

  // Missing segment: activate if necessary and connect the SDW.
  Status HandleSegmentFault(ProcessId pid, Segno segno);

  // Missing page: resolve to the active segment and delegate downward, with
  // the referenced word (`fault.word`) the fault data names.
  Status HandleMissingPage(ProcessId pid, const Fault& fault, WaitSpec* wait);

  // Quota exception (a reference to a never-before-used page).  Translates
  // the segment number, finds the governing quota cell by its static name,
  // and drives the grow chain.  On a full pack: disconnects every address
  // space, directs relocation, retries the growth on the new pack, and fills
  // *signal for the upward trampoline.
  Status HandleQuotaException(ProcessId pid, Segno segno, uint32_t page, MoveSignal* signal);

 private:
  struct Kst {
    std::vector<KstEntry> entries;  // indexed by segno - kSystemSegnoLimit
  };

  KstEntry* Find(ProcessId pid, Segno segno);

  KernelContext* ctx_;
  ModuleId self_;
  SegmentManager* segs_;
  AddressSpaceManager* spaces_;
  // The KST lock and its instruments; mutable because the read side
  // (Lookup, SegnoOf) is const.
  mutable SimSharedLock rml_;
  ReadMostlyInstruments rmi_;
  MetricId id_segment_faults_;
  MetricId id_quota_exceptions_;
  MetricId id_full_pack_moves_;
  MetricId id_kst_resets_;
  std::unordered_map<ProcessId, Kst> ksts_;
};

}  // namespace mks

#endif  // MKS_KERNEL_KNOWN_SEGMENT_H_
