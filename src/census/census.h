// The kernel-size census: the paper's evaluation table as executable data.
//
// The paper's consistent measure is "the number of source lines that would
// exist had the system been coded uniformly in PL/I".  This module carries
// the component inventory of the 1973 kernel, tags each component with the
// redesign project that removes or shrinks it, and recomputes the paper's
// accounting:
//
//     Kernel size, start of project      Reductions
//       44K ring 0                         Linker            2K
//       10K Answering Service              Name Manager      1K
//       --                                 Answering Service 9K
//       54K TOTAL                          Network I/O       6K
//                                          Initialization    2K
//                                          Exclusive PL/I    8K
//                                          TOTAL            28K
//
// plus the entry-point statistics of the linker extraction (5% of object
// code, 2.5% of internal entries, 11% of user gates) and the estimate for a
// file-store-only specialization (a further 15-25%).
#ifndef MKS_CENSUS_CENSUS_H_
#define MKS_CENSUS_CENSUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mks {

enum class Language : uint8_t { kPl1, kAssembly };

// One body of code in the 1973 supervisor.
struct CensusComponent {
  std::string name;
  Language language = Language::kPl1;
  // Source lines at the start of the project.
  int source_lines = 0;
  int ring = 0;  // 0 = ring zero, 1 = outer supervisor rings / trusted process
  // Lines remaining inside the kernel after the named project (equal to
  // source_lines when no project touches it).
  int lines_after = 0;
  std::string project;  // "" when untouched
  // Would a file-storage-only specialization delete it?
  bool file_store_deletable = false;
};

struct SizeTable {
  int start_ring0 = 0;
  int start_answering = 0;
  int start_total = 0;
  std::vector<std::pair<std::string, int>> reductions;  // project -> lines saved
  int total_reduction = 0;
  int final_total = 0;
};

struct EntryPointStats {
  int internal_entries = 0;
  int user_gates = 0;
  // Effects of the linker extraction.
  double linker_object_code_share = 0.0;
  double linker_internal_entry_share = 0.0;
  double linker_user_gate_share = 0.0;
};

class KernelCensus {
 public:
  // The historical inventory, calibrated so its sums reproduce the paper's
  // numbers exactly.
  static KernelCensus Paper1973();

  const std::vector<CensusComponent>& components() const { return components_; }
  void Add(CensusComponent component) { components_.push_back(std::move(component)); }

  // PL/I-equivalent lines (assembly counts as source/2, per the observed
  // "slightly more than a factor of two" expansion).
  static int Pl1Equivalent(const CensusComponent& component);

  SizeTable ComputeTable() const;
  EntryPointStats EntryPoints() const;

  // The paper's what-if: specializing to a network-connected file store
  // deletes the deletable components; returns {low, high} percentage bounds
  // around the computed point estimate.
  struct Specialization {
    int final_total = 0;
    int after_specialization = 0;
    double percent_removed = 0.0;
  };
  Specialization FileStoreSpecialization() const;

  // Renders the table side by side with the paper's reported values.
  std::string Render() const;

 private:
  std::vector<CensusComponent> components_;
};

}  // namespace mks

#endif  // MKS_CENSUS_CENSUS_H_
