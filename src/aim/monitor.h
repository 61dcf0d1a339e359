// The reference monitor: every kernel gate consults it before touching an
// object on behalf of a subject.
//
// A decision combines discretionary access (the object's ACL) with the
// mandatory AIM checks (simple security for observation, the *-property for
// modification).  Every denial is recorded in the audit log, which is what an
// integrity auditor — or the tiger-team example — reads afterwards.
#ifndef MKS_AIM_MONITOR_H_
#define MKS_AIM_MONITOR_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/aim/acl.h"
#include "src/aim/label.h"
#include "src/common/status.h"
#include "src/sim/clock.h"

namespace mks {

struct Subject {
  Principal principal;
  Label label;
  uint8_t ring = 4;  // user ring; ring 0 is the kernel
};

struct AuditRecord {
  Cycles time = 0;
  std::string subject;
  std::string operation;
  std::string target;
  Code outcome = Code::kOk;
};

class AuditLog {
 public:
  explicit AuditLog(size_t capacity = 4096) : capacity_(capacity) {}

  void Append(AuditRecord record);
  const std::deque<AuditRecord>& records() const { return records_; }
  uint64_t denial_count() const { return denials_; }
  uint64_t total_count() const { return total_; }

 private:
  size_t capacity_;
  std::deque<AuditRecord> records_;
  uint64_t denials_ = 0;
  uint64_t total_ = 0;
};

enum class FlowDirection : uint8_t {
  kObserve,  // information flows object -> subject (read, execute, list)
  kModify,   // information flows subject -> object (write, append, delete)
};

class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(Clock* clock) : clock_(clock) {}

  // Mandatory (AIM) check only.
  Status CheckFlow(const Subject& subject, const Label& object_label, FlowDirection dir);

  // Full decision: discretionary ACL modes plus the mandatory check.
  // `operation`/`target` feed the audit trail.
  Status CheckAccess(const Subject& subject, const Acl& acl, const Label& object_label,
                     FlowDirection dir, bool need_read, bool need_write, bool need_execute,
                     const std::string& operation, const std::string& target);

  // Records an access decision made elsewhere (e.g. hardware access bits).
  void Audit(const Subject& subject, const std::string& operation, const std::string& target,
             Code outcome);

  const AuditLog& audit_log() const { return audit_; }

 private:
  Clock* clock_;
  AuditLog audit_;
};

}  // namespace mks

#endif  // MKS_AIM_MONITOR_H_
