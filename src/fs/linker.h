// The dynamic linker, extracted from the kernel [Janson, 1974].
//
// Link snapping resolves a symbolic reference ("seg$entry") to a segment
// number the first time it is used, caching the result in the process's
// linkage section.  Removing it from ring zero eliminated 5% of the kernel's
// object code but 11% of the user-domain entry points into the kernel; the
// extracted version runs "somewhat slower" because a first-reference snap
// now performs its directory searches through kernel gates (ring crossings)
// instead of from inside ring zero.  Both effects are measurable here.
//
// Search rules follow the Multics convention: reference names first, then a
// list of search directories.
#ifndef MKS_FS_LINKER_H_
#define MKS_FS_LINKER_H_

#include <map>
#include <string>
#include <vector>

#include "src/fs/path_walker.h"
#include "src/fs/ref_name.h"

namespace mks {

class DynamicLinker {
 public:
  DynamicLinker(KernelContext* ctx, KernelGates* gates, PathWalker* walker,
                ReferenceNameManager* names)
      : ctx_(ctx),
        gates_(gates),
        walker_(walker),
        names_(names),
        id_snaps_(ctx->metrics.Intern("linker.snaps")) {}

  // Adds a directory to the tail of a process's search rules.
  void AddSearchDir(ProcessId pid, const std::string& dir_path);

  // Resolves `symbol` (a segment reference name) for the process: first the
  // linkage section (snapped links), then reference names, then the search
  // directories.  On success the link is snapped.
  Result<Segno> Snap(ProcContext& ctx, const std::string& symbol);

  // Drops every snapped link for the process (e.g. on a new command level).
  void ResetLinkage(ProcessId pid);

  uint64_t snaps() const { return snaps_; }
  uint64_t fast_hits() const { return fast_hits_; }

 private:
  KernelContext* ctx_;
  KernelGates* gates_;
  PathWalker* walker_;
  ReferenceNameManager* names_;
  MetricId id_snaps_;
  std::map<ProcessId, std::map<std::string, Segno>> linkage_;
  std::map<ProcessId, std::vector<std::string>> search_rules_;
  uint64_t snaps_ = 0;
  uint64_t fast_hits_ = 0;
};

}  // namespace mks

#endif  // MKS_FS_LINKER_H_
