// P7 — eventcount synchronization [Reed and Kanodia, 1977], the substrate
// that lets a low-level discoverer of an event signal upward without knowing
// the identity of the waiting processes.
//
// For each N, N user processes park on one user eventcount of a booted
// kernel, and the bench's own process advances it through the gate.  The
// advancer names no waiter, so its call costs the same simulated cycles at
// every N.  Posting a wakeup on the real-memory queue is an uncharged write
// of resident words; the per-waiter work lands at level 2, which drains the
// queue and resumes the waiters.
#include <cstdio>

#include "bench/bench_util.h"

namespace mks {
namespace {

constexpr uint64_t kWaiterCounts[] = {0, 1, 4, 16, 64};

struct AdvanceRun {
  uint64_t waiters = 0;   // processes parked on the eventcount
  Cycles advance = 0;     // the advancing gate call
  uint64_t wakeups = 0;   // sync.wakeups during that call
  Cycles resume = 0;      // the scheduler run that resumes the waiters
  uint64_t finished = 0;  // waiters that ran to kDone
};

AdvanceRun ParkAndAdvance(uint64_t waiters) {
  KernelConfig config;
  config.ast_slots = 128;  // every parked process keeps its state segment active
  BenchKernel fx{config};
  UserProcessManager& procs = fx.kernel.processes();
  auto ec = fx.kernel.gates().CreateEventcount(*fx.ctx, Label::SystemLow());
  if (!ec.ok()) {
    std::fprintf(stderr, "eventcount creation failed\n");
    std::abort();
  }
  std::vector<ProcessId> pids;
  for (uint64_t i = 0; i < waiters; ++i) {
    Subject user{Principal{"W" + std::to_string(i), "Proj"}, Label::SystemLow(), 4};
    auto pid = procs.CreateProcess(user);
    if (!pid.ok() ||
        !procs.SetProgram(*pid, {UserOp::Await(*ec, 1), UserOp::Compute(10)}).ok()) {
      std::fprintf(stderr, "waiter setup failed\n");
      std::abort();
    }
    pids.push_back(*pid);
  }
  // Nothing inside advances the count, so with waiters this run ends
  // failed_precondition, all blocked on eventcounts.
  (void)procs.RunUntilQuiescent(100000);

  AdvanceRun run;
  run.waiters = waiters;
  const uint64_t wakeups = fx.kernel.metrics().Get("sync.wakeups");
  Cycles before = fx.kernel.clock().now();
  if (!fx.kernel.gates().AdvanceEventcount(*fx.ctx, *ec).ok()) {
    std::fprintf(stderr, "advance failed\n");
    std::abort();
  }
  run.advance = fx.kernel.clock().now() - before;
  run.wakeups = fx.kernel.metrics().Get("sync.wakeups") - wakeups;
  before = fx.kernel.clock().now();
  (void)procs.RunUntilQuiescent(100000);
  run.resume = fx.kernel.clock().now() - before;
  for (ProcessId pid : pids) {
    run.finished += procs.state(pid) == ProcState::kDone ? 1 : 0;
  }
  return run;
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf(
      "P7 -- eventcounts: the discoverer of an event needs no knowledge of the\n"
      "waiting processes' identities.  Expect the advancing call to cost the same\n"
      "at every waiter count, with the per-waiter work paid when level 2 resumes\n"
      "the waiters.\n\n");
  std::vector<AdvanceRun> runs;
  for (const uint64_t waiters : kWaiterCounts) {
    runs.push_back(ParkAndAdvance(waiters));
  }
  bool reproduced = true;
  std::printf("waiters  advance cyc  wakeups  resume cyc  finished\n");
  for (const AdvanceRun& run : runs) {
    reproduced = reproduced && run.advance == runs[0].advance && run.wakeups == run.waiters &&
                 run.finished == run.waiters;
    std::printf("%7llu  %11llu  %7llu  %10llu  %8llu\n",
                static_cast<unsigned long long>(run.waiters),
                static_cast<unsigned long long>(run.advance),
                static_cast<unsigned long long>(run.wakeups),
                static_cast<unsigned long long>(run.resume),
                static_cast<unsigned long long>(run.finished));
  }
  std::printf("\n");
  for (const AdvanceRun& run : runs) {
    EmitJson(JsonLine("eventcounts")
                 .Field("waiters", run.waiters)
                 .Field("cyc_advance", run.advance)
                 .Field("wakeups", run.wakeups)
                 .Field("cyc_resume", run.resume)
                 .Field("finished", run.finished));
  }
  std::printf(
      "one advance cost at every waiter count, one wakeup per waiter, every\n"
      "waiter finished: %s\n",
      reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
