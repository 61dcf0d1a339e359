// The address space manager: descriptor segments as objects.
//
// Each user process executes in an address space defined by a descriptor
// segment; the hardware's *second* descriptor-base register points at a
// per-processor system descriptor segment, built once at initialization,
// whose descriptors refer only to permanently-resident core segments.  All
// segment numbers below kSystemSegnoLimit translate through the system space,
// so system modules can never acquire an address-space dependency on the
// machinery that implements user virtual memory — the cure for one whole
// family of dependency loops.
#ifndef MKS_KERNEL_ADDRESS_SPACE_H_
#define MKS_KERNEL_ADDRESS_SPACE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/aim/acl.h"
#include "src/kernel/segment.h"

namespace mks {

class AddressSpaceManager {
 public:
  AddressSpaceManager(KernelContext* ctx, CoreSegmentManager* core_segs, SegmentManager* segs);

  // User segment numbers per address space: kSystemSegnoLimit up to
  // kSystemSegnoLimit + kUserSdwCount.
  static constexpr uint16_t kUserSdwCount = 128;

  // Builds the system descriptor segment: one resident descriptor per core
  // segment, installed on the service processor.
  Status Init();

  Status CreateSpace(ProcessId pid);
  Status DestroySpace(ProcessId pid);
  DescriptorSegment* Space(ProcessId pid);

  // Connects `segno` (>= kSystemSegnoLimit) of `pid`'s space to the active
  // segment at AST index `ast` with the given modes.  Every user SDW is
  // written and cleared through DescriptorSegment::Connect and Disconnect,
  // so the page table's `connected` list, which page control's targeted
  // invalidations read, is machine state kept with the SDW.
  Status Connect(ProcessId pid, Segno segno, uint32_t ast, AccessModes modes,
                 uint8_t ring_bracket);
  Status Disconnect(ProcessId pid, Segno segno);

  // Severs every SDW referring to `uid` in every address space (the prelude
  // to segment relocation).  The affected processes will take ordinary
  // missing-segment faults and reconnect through the standard machinery.
  uint32_t DisconnectEverywhere(SegmentUid uid);

  // Installs `pid`'s descriptor segment as the processor's user space.
  void BindToProcessor(Processor* processor, ProcessId pid);

  size_t space_count() const { return spaces_.size(); }

  // Integrity audit: every present user SDW must name a live AST entry's
  // page table; each such table's connected-space list must match the SDWs
  // naming it; and each space's loaded-on mask must match the CPUs' user
  // DSBRs.
  void AuditIntegrity(std::vector<std::string>* findings) const;

 private:
  KernelContext* ctx_;
  ModuleId self_;
  CoreSegmentManager* core_segs_;
  SegmentManager* segs_;
  MetricId id_disconnect_everywhere_;
  DescriptorSegment system_ds_;
  std::vector<std::unique_ptr<PageTable>> system_page_tables_;
  std::unordered_map<ProcessId, DescriptorSegment> spaces_;
};

}  // namespace mks

#endif  // MKS_KERNEL_ADDRESS_SPACE_H_
