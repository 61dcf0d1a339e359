#include "src/fs/ref_name.h"

namespace mks {

Status ReferenceNameManager::Bind(ProcessId pid, const std::string& name, Segno segno) {
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  tables_[pid][name] = segno;
  return Status::Ok();
}

Result<Segno> ReferenceNameManager::Resolve(ProcessId pid, const std::string& name) {
  // The whole point of the extraction: a lookup is a user-ring procedure
  // call into a per-process table, not a trip through a kernel gate.
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  auto table = tables_.find(pid);
  if (table == tables_.end()) {
    return Status(Code::kNotFound, name);
  }
  auto it = table->second.find(name);
  if (it == table->second.end()) {
    return Status(Code::kNotFound, name);
  }
  return it->second;
}

Status ReferenceNameManager::Unbind(ProcessId pid, const std::string& name) {
  ctx_->cost.Charge(CodeStyle::kStructured, Costs::kProcedureCall * 2);
  auto table = tables_.find(pid);
  if (table == tables_.end() || table->second.erase(name) == 0) {
    return Status(Code::kNotFound, name);
  }
  return Status::Ok();
}

std::vector<std::string> ReferenceNameManager::Names(ProcessId pid) const {
  std::vector<std::string> names;
  auto table = tables_.find(pid);
  if (table != tables_.end()) {
    for (const auto& [name, segno] : table->second) {
      names.push_back(name);
    }
  }
  return names;
}

}  // namespace mks
