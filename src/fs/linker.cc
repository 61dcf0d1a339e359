#include "src/fs/linker.h"

namespace mks {

void DynamicLinker::AddSearchDir(ProcessId pid, const std::string& dir_path) {
  search_rules_[pid].push_back(dir_path);
}

Result<Segno> DynamicLinker::Snap(ProcContext& ctx, const std::string& symbol) {
  // Snapped already?  A user-ring table lookup, the common fast path.
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall);
  auto& links = linkage_[ctx.pid];
  auto snapped = links.find(symbol);
  if (snapped != links.end()) {
    ++fast_hits_;
    return snapped->second;
  }

  // Linkage fault: run the search rules.  Every probe is now a gate call
  // from the user ring — the cost the extraction added.
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kFaultEntry);

  // Rule 1: already-initiated reference names.
  auto by_name = names_->Resolve(ctx.pid, symbol);
  if (by_name.ok()) {
    links[symbol] = *by_name;
    ++snaps_;
    return *by_name;
  }

  // Rule 2: search directories, in order.
  auto rules = search_rules_.find(ctx.pid);
  if (rules != search_rules_.end()) {
    for (const std::string& dir_path : rules->second) {
      auto dir = walker_->Walk(ctx, dir_path);
      if (!dir.ok()) {
        continue;
      }
      auto entry = gates_->Search(ctx, *dir, symbol);
      if (!entry.ok()) {
        continue;
      }
      auto segno = gates_->Initiate(ctx, *entry);
      if (!segno.ok()) {
        continue;  // mythical or inaccessible: keep searching
      }
      (void)names_->Bind(ctx.pid, symbol, *segno);
      links[symbol] = *segno;
      ++snaps_;
      ctx_->metrics.Inc(id_snaps_);
      return *segno;
    }
  }
  return Status(Code::kNotFound, "linkage fault unresolved: " + symbol);
}

void DynamicLinker::ResetLinkage(ProcessId pid) { linkage_[pid].clear(); }

}  // namespace mks
