#include "src/census/census.h"

#include <sstream>

namespace mks {

KernelCensus KernelCensus::Paper1973() {
  KernelCensus census;
  // Ring zero: 28,000 PL/I + 16,000 assembly source lines = 44,000 source
  // (36,000 PL/I-equivalent, the assembly recoding to PL/I shrinking source
  // by slightly more than a factor of two).
  census.Add({"dynamic_linker", Language::kPl1, 2000, 0, 0, "Linker", false});
  census.Add({"name_manager", Language::kPl1, 1000, 0, 0, "Name Manager", false});
  census.Add({"network_io", Language::kPl1, 7000, 0, 1000, "Network I/O", false});
  census.Add({"initialization", Language::kPl1, 2000, 0, 0, "Initialization", false});
  census.Add({"segment_control", Language::kPl1, 5000, 0, 5000, "", false});
  census.Add({"directory_control", Language::kPl1, 6000, 0, 6000, "", false});
  census.Add({"address_space_control", Language::kPl1, 3000, 0, 3000, "", true});
  census.Add({"process_control", Language::kPl1, 2000, 0, 2000, "", true});
  census.Add({"page_control", Language::kAssembly, 6000, 0, 3000, "Exclusive use of PL/I",
              false});
  census.Add({"interrupt_and_fault", Language::kAssembly, 4000, 0, 2000,
              "Exclusive use of PL/I", false});
  census.Add({"core_management", Language::kAssembly, 6000, 0, 3000, "Exclusive use of PL/I",
              false});
  // The largest non-ring-zero kernel component.
  census.Add({"answering_service", Language::kPl1, 10000, 1, 1000, "Answering Service", false});
  return census;
}

int KernelCensus::Pl1Equivalent(const CensusComponent& component) {
  return component.language == Language::kAssembly ? component.source_lines / 2
                                                   : component.source_lines;
}

SizeTable KernelCensus::ComputeTable() const {
  SizeTable table;
  std::map<std::string, int> by_project;
  for (const CensusComponent& c : components_) {
    if (c.ring == 0) {
      table.start_ring0 += c.source_lines;
    } else {
      table.start_answering += c.source_lines;
    }
    if (!c.project.empty()) {
      by_project[c.project] += c.source_lines - c.lines_after;
    }
  }
  table.start_total = table.start_ring0 + table.start_answering;
  // Preserve the paper's presentation order.
  for (const char* project : {"Linker", "Name Manager", "Answering Service", "Network I/O",
                              "Initialization", "Exclusive use of PL/I"}) {
    auto it = by_project.find(project);
    if (it != by_project.end()) {
      table.reductions.emplace_back(it->first, it->second);
      table.total_reduction += it->second;
    }
  }
  table.final_total = table.start_total - table.total_reduction;
  return table;
}

EntryPointStats KernelCensus::EntryPoints() const {
  EntryPointStats stats;
  stats.internal_entries = 1200;
  stats.user_gates = 157;
  stats.linker_object_code_share = 0.05;
  stats.linker_internal_entry_share = 0.025;
  stats.linker_user_gate_share = 0.11;
  return stats;
}

KernelCensus::Specialization KernelCensus::FileStoreSpecialization() const {
  Specialization result;
  result.final_total = ComputeTable().final_total;
  int deletable = 0;
  for (const CensusComponent& c : components_) {
    if (c.file_store_deletable) {
      deletable += c.lines_after;
    }
  }
  result.after_specialization = result.final_total - deletable;
  result.percent_removed =
      100.0 * static_cast<double>(deletable) / static_cast<double>(result.final_total);
  return result;
}

namespace {
std::string Pad(const std::string& text, size_t width) {
  std::string out = text;
  while (out.size() < width) {
    out.push_back(' ');
  }
  return out;
}
std::string K(int lines) {
  std::ostringstream out;
  out << lines / 1000 << "K";
  return out.str();
}
}  // namespace

std::string KernelCensus::Render() const {
  const SizeTable table = ComputeTable();
  std::ostringstream out;
  out << "Kernel Size, Start of Project        Reductions\n";
  out << "  " << Pad(K(table.start_ring0) + " ring 0", 35);
  out << "\n  " << Pad(K(table.start_answering) + " Answering Service", 35) << "\n  "
      << Pad(K(table.start_total) + " TOTAL", 35) << "\n\n";
  for (const auto& [project, saved] : table.reductions) {
    out << "  " << Pad(project, 28) << Pad(K(saved), 6) << "\n";
  }
  out << "  " << Pad("TOTAL", 28) << K(table.total_reduction) << "\n\n";
  out << "  Final kernel size: " << K(table.final_total) << " (paper: \"cut ... roughly in half\")\n";

  const EntryPointStats eps = EntryPoints();
  out << "\nEntry points: " << eps.internal_entries << " internal, " << eps.user_gates
      << " user gates.\n";
  out << "Linker extraction: " << 100 * eps.linker_object_code_share << "% of object code, "
      << 100 * eps.linker_internal_entry_share << "% of internal entries, "
      << 100 * eps.linker_user_gate_share << "% of user gates.\n";

  const Specialization spec = FileStoreSpecialization();
  out << "File-store specialization: " << K(spec.final_total) << " -> "
      << K(spec.after_specialization) << " (" << spec.percent_removed
      << "% removed; paper estimate: 15-25%)\n";
  return out.str();
}

}  // namespace mks
