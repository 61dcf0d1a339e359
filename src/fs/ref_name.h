// The reference name manager, extracted from the kernel [Bratt, 1975].
//
// Reference names are per-process bindings from short names to segment
// numbers, consulted by the dynamic linker's search rules.  In the old
// supervisor this table lived in ring zero and every lookup crossed the
// gate; extracted to the user ring the table is ordinary user data — the
// paper reports the extracted version "ran somewhat faster" (no ring
// crossing) and that the algorithm shrank by a factor of four once freed
// from kernel packaging.
#ifndef MKS_FS_REF_NAME_H_
#define MKS_FS_REF_NAME_H_

#include <map>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace mks {

class ReferenceNameManager {
 public:
  explicit ReferenceNameManager(KernelContext* ctx) : ctx_(ctx) {}

  Status Bind(ProcessId pid, const std::string& name, Segno segno);
  Result<Segno> Resolve(ProcessId pid, const std::string& name);
  Status Unbind(ProcessId pid, const std::string& name);
  std::vector<std::string> Names(ProcessId pid) const;

 private:
  // User-ring data: no gate crossing, just the (structured-code) search.
  KernelContext* ctx_;
  std::map<ProcessId, std::map<std::string, Segno>> tables_;
};

}  // namespace mks

#endif  // MKS_FS_REF_NAME_H_
