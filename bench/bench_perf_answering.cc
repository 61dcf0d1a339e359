// P3 — the answering service redesign.  Paper: "The revised Answering
// Service, in its preliminary implementation, ran about 3% slower."
// The same login/logout dialog runs in both configurations; the user-domain
// version pays gate crossings and the structured-code factor on its
// bookkeeping, the in-kernel version runs as trusted optimized code.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "src/answering/service.h"

namespace mks {
namespace {

Cycles RunLoginStorm(ServiceDomain domain, int users, int sessions_per_user) {
  Kernel kernel{ArmWatchdog(KernelConfig{})};
  if (!kernel.Boot().ok()) {
    return 0;
  }
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return 0;
  }
  AnsweringService service(&kernel, &auth, domain);
  for (int u = 0; u < users; ++u) {
    (void)auth.Enroll(Principal{"User" + std::to_string(u), "Proj"}, "pw" + std::to_string(u),
                      Label(2, 0));
  }
  // Warm-up pass creates every home directory, so the measured passes see
  // the steady state (no disk-heavy directory creation noise).
  for (int u = 0; u < users; ++u) {
    auto pid = service.Login(Principal{"User" + std::to_string(u), "Proj"},
                             "pw" + std::to_string(u), Label(0, 0));
    if (pid.ok()) {
      (void)service.Logout(*pid);
    }
  }

  const Cycles before = kernel.clock().now();
  for (int s = 0; s < sessions_per_user; ++s) {
    for (int u = 0; u < users; ++u) {
      auto pid = service.Login(Principal{"User" + std::to_string(u), "Proj"},
                               "pw" + std::to_string(u), Label(0, 0));
      if (pid.ok()) {
        (void)service.Logout(*pid);
      }
    }
  }
  return kernel.clock().now() - before;
}

}  // namespace
}  // namespace mks

int main(int argc, char** argv) {
  using namespace mks;
  int kUsers = 16;
  int kSessions = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--users" && i + 1 < argc) {
      kUsers = std::atoi(argv[++i]);
    } else if (arg == "--sessions" && i + 1 < argc) {
      kSessions = std::atoi(argv[++i]);
    }
  }
  if (kUsers <= 0 || kSessions <= 0) {
    std::fprintf(stderr, "usage: %s [--users N] [--sessions N]\n", argv[0]);
    return 1;
  }
  std::printf("=== P3: Answering service, in-kernel vs user-domain ===\n\n");
  const Cycles in_kernel = RunLoginStorm(ServiceDomain::kInKernel, kUsers, kSessions);
  const Cycles user_domain = RunLoginStorm(ServiceDomain::kUserDomain, kUsers, kSessions);
  const double per_login_kernel =
      static_cast<double>(in_kernel) / (kUsers * kSessions);
  const double per_login_user =
      static_cast<double>(user_domain) / (kUsers * kSessions);
  const double slowdown = 100.0 * (per_login_user / per_login_kernel - 1.0);
  std::printf("login+logout, %d users x %d sessions:\n", kUsers, kSessions);
  std::printf("  in-kernel (1973):    %12.0f sim cycles/session\n", per_login_kernel);
  std::printf("  user-domain (redesign): %9.0f sim cycles/session\n", per_login_user);
  std::printf("  slowdown: %.1f%%   (paper: \"about 3%% slower\")\n\n", slowdown);
  const bool shape_ok = slowdown > 0.0 && slowdown < 15.0;
  EmitJson(JsonLine("answering")
               .Field("users", static_cast<uint64_t>(kUsers))
               .Field("sessions", static_cast<uint64_t>(kSessions))
               .Field("sim_cycles", in_kernel + user_domain)
               .Field("cyc_per_session_kernel", per_login_kernel)
               .Field("cyc_per_session_user", per_login_user)
               .Field("slowdown_pct", slowdown)
               .Field("reproduced", shape_ok ? "yes" : "no"));
  std::printf("shape (small positive slowdown): %s\n", shape_ok ? "REPRODUCED" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
