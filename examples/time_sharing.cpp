// A time-sharing session: several users log in through the answering
// service, run editing/compiling-flavoured workloads multiplexed over the
// fixed virtual-processor pool, link against a shared library through the
// user-ring dynamic linker, and are billed at logout.
//
//   ./build/examples/example_time_sharing
#include <cstdio>

#include "src/answering/service.h"
#include "src/fs/linker.h"

int main() {
  using namespace mks;

  KernelConfig config;
  config.memory_frames = 256;
  config.vp_count = 6;
  Kernel kernel{config};
  if (!kernel.Boot().ok()) {
    return 1;
  }
  Authenticator auth(&kernel);
  if (!auth.Init().ok()) {
    return 1;
  }
  AnsweringService service(&kernel, &auth, ServiceDomain::kUserDomain);

  // Enroll a small user community with different clearances.
  struct UserSpec {
    const char* person;
    const char* password;
    Label clearance;
  };
  const UserSpec users[] = {
      {"Saltzer", "ctss!", Label(3, 0b11)},
      {"Clark", "arpanet", Label(2, 0b01)},
      {"Schroeder", "parc", Label(2, 0b10)},
      {"Reed", "eventcount", Label(1, 0)},
  };
  for (const UserSpec& u : users) {
    (void)auth.Enroll(Principal{u.person, "CSR"}, u.password, u.clearance);
  }

  // A shared library segment everyone links against.
  {
    Subject librarian{Principal{"Librarian", "SysDaemon"}, Label::SystemLow(), 4};
    auto lib_pid = kernel.processes().CreateProcess(librarian);
    PathWalker walker(&kernel.gates());
    Acl acl;
    acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
    (void)walker.CreateSegment(*kernel.processes().Context(*lib_pid), ">lib>ed_", acl,
                               Label::SystemLow());
  }

  // Log everyone in at system-low and give them work.
  std::vector<ProcessId> sessions;
  PathWalker walker(&kernel.gates());
  ReferenceNameManager names(&kernel.ctx());
  DynamicLinker linker(&kernel.ctx(), &kernel.gates(), &walker, &names);
  for (const UserSpec& u : users) {
    auto pid = service.Login(Principal{u.person, "CSR"}, u.password, Label::SystemLow());
    if (!pid.ok()) {
      std::printf("login failed for %s: %s\n", u.person, pid.status().ToString().c_str());
      continue;
    }
    sessions.push_back(*pid);
    ProcContext* ctx = kernel.processes().Context(*pid);

    // "Edit a file": create it in the home directory and touch pages.
    Acl acl;
    acl.Add(AclEntry{u.person, "CSR", AccessModes::RWE()});
    const std::string home = std::string(">udd>CSR>") + u.person;
    auto entry = walker.CreateSegment(*ctx, home + ">draft", acl, Label::SystemLow());
    if (!entry.ok()) {
      continue;
    }
    auto segno = kernel.gates().Initiate(*ctx, *entry);

    // Link the editor through the search rules (first user snaps, later
    // users resolve from their own linkage).
    linker.AddSearchDir(*pid, ">lib");
    (void)linker.Snap(*ctx, "ed_");

    std::vector<UserOp> program;
    for (uint32_t n = 0; n < 60; ++n) {
      program.push_back(UserOp::Write(*segno, (n % 8) * kPageWords + n, n));
      program.push_back(UserOp::Compute(30));
      if (n % 10 == 9) {
        program.push_back(UserOp::Read(*segno, ((n + 3) % 8) * kPageWords));
      }
    }
    (void)kernel.processes().SetProgram(*pid, std::move(program));
  }

  std::printf("running %zu sessions over %u virtual processors...\n", sessions.size(),
              kernel.vprocs().vp_count());
  Status ran = kernel.processes().RunUntilQuiescent(1000000);
  std::printf("scheduler: %s; simulated time %llu cycles\n", ran.ToString().c_str(),
              (unsigned long long)kernel.clock().now());

  for (ProcessId pid : sessions) {
    auto bill = service.BillFor(pid);
    if (bill.ok()) {
      std::printf("  pid %-4u cpu=%-9llu ops=%-5llu connect=%llu\n", pid.value,
                  (unsigned long long)bill->cpu_cycles, (unsigned long long)bill->ops,
                  (unsigned long long)bill->connect_time);
    }
    (void)service.Logout(pid);
  }
  std::printf("\n%s\n", service.AccountingReport().c_str());
  std::printf("dispatches=%llu link_snaps=%llu page_faults=%llu\n",
              (unsigned long long)kernel.metrics().Get("vproc.dispatches"),
              (unsigned long long)kernel.metrics().Get("linker.snaps"),
              (unsigned long long)kernel.metrics().Get("pfm.faults_serviced"));
  return ran.ok() ? 0 : 1;
}
