// The kernel-resident sliver of the answering service [Montgomery, 1976].
//
// Montgomery's study showed that of the answering service's 10,000 lines,
// fewer than 1,000 need kernel protection: the password image store, the
// one-way transformation, and the clearance check that bounds the label a
// login may request.  That sliver is this class.  Password images are salted
// SHA-256 digests (standing in for the historical one-way transformation)
// persisted, four words of digest at a time, in a ring-0-only segment.
#ifndef MKS_ANSWERING_AUTH_H_
#define MKS_ANSWERING_AUTH_H_

#include <map>
#include <string>

#include "src/common/hash.h"
#include "src/kernel/kernel.h"

namespace mks {

class Authenticator {
 public:
  explicit Authenticator(Kernel* kernel) : kernel_(kernel) {}

  // One-time setup: the protected segment holding password images.
  Status Init();

  Status Enroll(const Principal& who, const std::string& password, Label clearance);
  Status ChangePassword(const Principal& who, const std::string& old_password,
                        const std::string& new_password);

  // Verifies the password and that the requested label is within the user's
  // clearance; returns the subject a login session runs as.
  Result<Subject> Authenticate(const Principal& who, const std::string& password,
                               Label requested);

  uint64_t failed_attempts() const { return failed_attempts_; }

 private:
  struct Record {
    Sha256::Digest digest;
    uint64_t salt = 0;
    Label clearance;
    uint32_t store_offset = 0;  // where the digest words live in the store
  };

  Sha256::Digest Image(const std::string& password, uint64_t salt) const;
  Status PersistDigest(const Record& record);

  Kernel* kernel_;
  ProcContext store_ctx_;  // ring-0 context owning the image store
  Segno store_segno_{};
  bool initialized_ = false;
  uint32_t next_offset_ = 0;
  std::map<std::string, Record> records_;
  uint64_t salt_counter_ = 0x5a17;
  uint64_t failed_attempts_ = 0;
};

}  // namespace mks

#endif  // MKS_ANSWERING_AUTH_H_
