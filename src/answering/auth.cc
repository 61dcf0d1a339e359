#include "src/answering/auth.h"

#include <cstring>

namespace mks {

Status Authenticator::Init() {
  if (initialized_) {
    return Status(Code::kAlreadyExists, "authenticator initialized");
  }
  // The image store runs as a ring-0 system daemon; the segment's ring
  // bracket is 0, so no user-ring subject can ever map it.
  Subject daemon{Principal{"Initializer", "SysDaemon"}, Label::SystemLow(), /*ring=*/0};
  MKS_ASSIGN_OR_RETURN(ProcessId pid, kernel_->processes().CreateProcess(daemon));
  store_ctx_ = *kernel_->processes().Context(pid);

  Acl acl;
  acl.Add(AclEntry{"*", "SysDaemon", AccessModes::RW()});
  KernelGates& gates = kernel_->gates();
  MKS_ASSIGN_OR_RETURN(EntryId sys_dir, [&]() -> Result<EntryId> {
    auto existing = gates.Search(store_ctx_, gates.RootId(), "system");
    if (existing.ok()) {
      return existing;
    }
    return gates.CreateDirectory(store_ctx_, gates.RootId(), "system", acl,
                                 Label::SystemLow());
  }());
  MKS_ASSIGN_OR_RETURN(EntryId store, gates.CreateSegment(store_ctx_, sys_dir,
                                                          "password_images", acl,
                                                          Label::SystemHigh()));
  MKS_ASSIGN_OR_RETURN(store_segno_, gates.Initiate(store_ctx_, store));
  initialized_ = true;
  return Status::Ok();
}

Sha256::Digest Authenticator::Image(const std::string& password, uint64_t salt) const {
  Sha256 hasher;
  char salt_bytes[8];
  std::memcpy(salt_bytes, &salt, sizeof(salt));
  hasher.Update(std::string_view(salt_bytes, sizeof(salt_bytes)));
  hasher.Update(password);
  return hasher.Finish();
}

Status Authenticator::PersistDigest(const Record& record) {
  // Four digest words plus the salt, written through the paging machinery.
  KernelGates& gates = kernel_->gates();
  for (int w = 0; w < 4; ++w) {
    Word word = 0;
    for (int b = 0; b < 8; ++b) {
      word = (word << 8) | record.digest[8 * w + b];
    }
    MKS_RETURN_IF_ERROR(gates.Write(store_ctx_, store_segno_, record.store_offset + w, word));
  }
  return gates.Write(store_ctx_, store_segno_, record.store_offset + 4, record.salt);
}

Status Authenticator::Enroll(const Principal& who, const std::string& password,
                             Label clearance) {
  if (!initialized_) {
    return Status(Code::kFailedPrecondition, "authenticator not initialized");
  }
  const std::string key = who.ToString();
  if (records_.count(key) != 0) {
    return Status(Code::kAlreadyExists, key);
  }
  Record record;
  record.salt = ++salt_counter_ * 0x9e3779b97f4a7c15ULL;
  record.digest = Image(password, record.salt);
  record.clearance = clearance;
  record.store_offset = next_offset_;
  next_offset_ += 5;
  MKS_RETURN_IF_ERROR(PersistDigest(record));
  records_.emplace(key, record);
  return Status::Ok();
}

Status Authenticator::ChangePassword(const Principal& who, const std::string& old_password,
                                     const std::string& new_password) {
  auto it = records_.find(who.ToString());
  if (it == records_.end()) {
    return Status(Code::kNotFound, who.ToString());
  }
  if (Image(old_password, it->second.salt) != it->second.digest) {
    ++failed_attempts_;
    return Status(Code::kAuthenticationFailed, "bad password");
  }
  it->second.salt = ++salt_counter_ * 0x9e3779b97f4a7c15ULL;
  it->second.digest = Image(new_password, it->second.salt);
  return PersistDigest(it->second);
}

Result<Subject> Authenticator::Authenticate(const Principal& who, const std::string& password,
                                            Label requested) {
  kernel_->ctx().cost.Charge(CodeStyle::kStructured, Costs::kGateCall);
  auto it = records_.find(who.ToString());
  if (it == records_.end()) {
    ++failed_attempts_;
    // Indistinguishable from a wrong password: do the hash work anyway.
    (void)Image(password, 0);
    return Status(Code::kAuthenticationFailed, "bad user or password");
  }
  if (Image(password, it->second.salt) != it->second.digest) {
    ++failed_attempts_;
    return Status(Code::kAuthenticationFailed, "bad user or password");
  }
  // The mandatory clearance bound: a session label must be within clearance.
  if (!it->second.clearance.Dominates(requested)) {
    return Status(Code::kNoAccess, "requested label exceeds clearance");
  }
  return Subject{who, requested, /*ring=*/4};
}

}  // namespace mks
