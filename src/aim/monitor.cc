#include "src/aim/monitor.h"

#include <sstream>

namespace mks {

std::string Label::ToString() const {
  std::ostringstream out;
  out << "L" << static_cast<int>(level_) << "{";
  bool first = true;
  for (int i = 0; i < kCompartments; ++i) {
    if (compartments_ & (1u << i)) {
      if (!first) {
        out << ",";
      }
      out << i;
      first = false;
    }
  }
  out << "}";
  return out.str();
}

void AuditLog::Append(AuditRecord record) {
  ++total_;
  if (record.outcome != Code::kOk) {
    ++denials_;
  }
  records_.push_back(std::move(record));
  if (records_.size() > capacity_) {
    records_.pop_front();
  }
}

Status ReferenceMonitor::CheckFlow(const Subject& subject, const Label& object_label,
                                   FlowDirection dir) {
  if (dir == FlowDirection::kObserve) {
    // Simple security: no read up.
    if (!subject.label.Dominates(object_label)) {
      return Status(Code::kNoAccess, "simple-security violation");
    }
  } else {
    // *-property: no write down.
    if (!object_label.Dominates(subject.label)) {
      return Status(Code::kNoAccess, "*-property violation");
    }
  }
  return Status::Ok();
}

Status ReferenceMonitor::CheckAccess(const Subject& subject, const Acl& acl,
                                     const Label& object_label, FlowDirection dir,
                                     bool need_read, bool need_write, bool need_execute,
                                     const std::string& operation, const std::string& target) {
  Status status = Status::Ok();
  const AccessModes modes = acl.ModesFor(subject.principal);
  if ((need_read && !modes.read) || (need_write && !modes.write) ||
      (need_execute && !modes.execute)) {
    status = Status(Code::kNoAccess, "acl denies " + operation);
  } else {
    status = CheckFlow(subject, object_label, dir);
    if (status.ok() && need_write && dir == FlowDirection::kObserve) {
      // A combined observe+modify request must satisfy both properties.
      status = CheckFlow(subject, object_label, FlowDirection::kModify);
    }
  }
  Audit(subject, operation, target, status.code());
  return status;
}

void ReferenceMonitor::Audit(const Subject& subject, const std::string& operation,
                             const std::string& target, Code outcome) {
  audit_.Append(AuditRecord{clock_->now(), subject.principal.ToString(), operation, target,
                            outcome});
}

}  // namespace mks
