// Access control lists in the Multics style.
//
// Principals are "person.project" names; an ACL entry matches a principal
// pattern (either component may be "*") and grants some subset of
// read/write/execute (for segments) or status/modify/append (for
// directories, collapsed onto the same three mode bits).  Access to an
// object is determined entirely by the ACL of that object — the simplifying
// rule whose interaction with naming the paper analyzes at length.
#ifndef MKS_AIM_ACL_H_
#define MKS_AIM_ACL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mks {

struct Principal {
  std::string person;
  std::string project;

  std::string ToString() const { return person + "." + project; }

  friend bool operator==(const Principal& a, const Principal& b) {
    return a.person == b.person && a.project == b.project;
  }
};

struct AccessModes {
  bool read = false;
  bool write = false;
  bool execute = false;

  static AccessModes RW() { return AccessModes{true, true, false}; }
  static AccessModes RWE() { return AccessModes{true, true, true}; }
  static AccessModes R() { return AccessModes{true, false, false}; }
  static AccessModes None() { return AccessModes{}; }

  bool any() const { return read || write || execute; }
};

struct AclEntry {
  std::string person_pattern;   // exact name or "*"
  std::string project_pattern;  // exact name or "*"
  AccessModes modes;

  bool Matches(const Principal& p) const {
    const bool person_ok = person_pattern == "*" || person_pattern == p.person;
    const bool project_ok = project_pattern == "*" || project_pattern == p.project;
    return person_ok && project_ok;
  }
};

class Acl {
 public:
  void Add(AclEntry entry) { entries_.push_back(std::move(entry)); }
  size_t size() const { return entries_.size(); }
  const std::vector<AclEntry>& entries() const { return entries_; }

  // First matching entry wins, in the Multics style (more specific entries
  // are conventionally placed first by the caller).
  AccessModes ModesFor(const Principal& p) const {
    for (const AclEntry& e : entries_) {
      if (e.Matches(p)) {
        return e.modes;
      }
    }
    return AccessModes::None();
  }

 private:
  std::vector<AclEntry> entries_;
};

}  // namespace mks

#endif  // MKS_AIM_ACL_H_
