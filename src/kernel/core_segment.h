// The core segment manager: the bottom of the dependency lattice.
//
// Core segments are fixed-size, permanently-resident regions of primary
// memory allocated once, by system initialization, after which the only
// available operations are processor read and write.  Any kernel module may
// keep its maps, programs, and temporary storage in a core segment without
// creating a dependency loop — at the price that the number of core segments
// is fixed, their sizes cannot change, and they permanently occupy primary
// memory.  The manager is "implemented by system initialization code and by
// the processor hardware"; it depends on nothing above it.
#ifndef MKS_KERNEL_CORE_SEGMENT_H_
#define MKS_KERNEL_CORE_SEGMENT_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/kernel/context.h"

namespace mks {

class CoreSegmentManager {
 public:
  explicit CoreSegmentManager(KernelContext* ctx);

  // Initialization-time only: carves `pages` frames from the bottom of
  // primary memory.  Fails with kFailedPrecondition once sealed and with
  // kResourceExhausted when primary memory cannot spare the frames (a budget
  // keeps at least half of memory available for paging).
  Result<CoreSegId> Allocate(std::string name, uint32_t pages);

  // Ends initialization; all further Allocate calls fail.
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }

  Result<Word> ReadWord(CoreSegId seg, uint32_t offset);
  Status WriteWord(CoreSegId seg, uint32_t offset, Word value);

  // Direct span access for structures that live inside a core segment
  // (virtual-processor state records, the real-memory message queue, quota
  // cell table).  The span aliases primary memory.
  std::span<Word> RawSpan(CoreSegId seg);

  uint32_t SizeWords(CoreSegId seg) const;
  const std::string& Name(CoreSegId seg) const;
  size_t count() const { return segments_.size(); }

  // Frames [0, FirstPageableFrame) hold core segments; the page frame manager
  // owns the rest.
  uint32_t FirstPageableFrame() const { return next_frame_; }

 private:
  struct CoreSeg {
    std::string name;
    uint32_t first_frame;
    uint32_t pages;
    std::span<Word> words;  // the frames' home storage, contiguous
  };

  KernelContext* ctx_;
  ModuleId self_;
  std::vector<CoreSeg> segments_;
  uint32_t next_frame_ = 0;
  bool sealed_ = false;
};

}  // namespace mks

#endif  // MKS_KERNEL_CORE_SEGMENT_H_
