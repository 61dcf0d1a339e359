// page_storm — paging under pressure, a closed batch run in bulk-synchronous
// rounds under RunUntilQuiescent.
//
// Two processes per CPU each sweep a private segment larger than their share
// of the frames, so nearly every touch faults, and every process also writes
// one shared segment.  Each round hands every process its next sweep step
// via SetProgram, starts all CPUs together (a barrier), and runs the
// scheduler to quiescence.  A round's latency is its makespan; a CPU step's
// latency is how long one CPU took to finish its share of the round.
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/fs/path_walker.h"

namespace perfbench {
namespace {

using namespace mks;

constexpr uint32_t kProcsPerCpu = 2;
constexpr uint32_t kPrivatePages = 96;  // 32 x 96 pages against 2048 frames
constexpr uint32_t kStepRefs = 8;      // private references per process per round
constexpr uint32_t kWriteEvery = 4;    // every 4th private reference writes
constexpr uint32_t kRounds = 2000;
constexpr uint64_t kMaxPasses = 100000;
constexpr uint32_t kRateBatchRounds = 60;  // rounds per host-rate sample

struct Worker {
  ProcessId pid{};
  Segno own{};
  Segno shared{};
  uint32_t cursor = 0;  // next page of the cyclic sweep
  std::map<uint32_t, Word> expected;  // last value written to each private word
};

}  // namespace

Episode RunPageStorm(uint64_t seed, bool tracing, const std::string& spans_path) {
  Episode ep;
  const auto setup_start = std::chrono::steady_clock::now();
  Kernel kernel{PinnedKernelConfig(tracing)};
  if (!kernel.Boot().ok()) {
    ep.Fail("boot");
    return ep;
  }
  KernelContext& kctx = kernel.ctx();
  KernelGates& gates = kernel.gates();
  UserProcessManager& procs = kernel.processes();
  Probe probe(tracing, &kernel.clock());
  PathWalker walker(&gates);
  Acl world;
  world.Add(AclEntry{"*", "*", AccessModes::RW()});
  const Subject user{Principal{"Storm", "Bench"}, Label::SystemLow(), 4};
  Rng rng(seed);

  // Set-up: the segments, every private page materialized once.
  const uint32_t workers_count = kProcsPerCpu * kCpus;
  std::vector<Worker> workers(workers_count);
  std::map<uint32_t, Word> shared_expected;
  for (uint32_t w = 0; w < workers_count; ++w) {
    Worker& worker = workers[w];
    auto pid = procs.CreateProcess(user);
    if (!pid.ok()) {
      ep.Fail("worker process");
      return ep;
    }
    worker.pid = *pid;
    ProcContext& ctx = *procs.Context(*pid);
    const std::string own = ">storm>p" + std::to_string(w);
    if (w == 0 && !walker.CreateSegment(ctx, ">storm>shared", world, Label::SystemLow()).ok()) {
      ep.Fail("create shared segment");
      return ep;
    }
    if (!walker.CreateSegment(ctx, own, world, Label::SystemLow()).ok()) {
      ep.Fail("create " + own);
      return ep;
    }
    auto own_segno = walker.Initiate(ctx, own);
    auto shared_segno = walker.Initiate(ctx, ">storm>shared");
    if (!own_segno.ok() || !shared_segno.ok()) {
      ep.Fail("initiate worker segments");
      return ep;
    }
    worker.own = *own_segno;
    worker.shared = *shared_segno;
    worker.cursor = static_cast<uint32_t>(rng.NextBelow(kPrivatePages));
    for (uint32_t p = 0; p < kPrivatePages; ++p) {
      const Word value = (static_cast<Word>(w) << 32) | p;
      if (!gates.Write(ctx, worker.own, p * kPageWords, value).ok()) {
        ep.Fail("materialize " + own);
        return ep;
      }
      worker.expected[p * kPageWords] = value;
    }
  }
  AlignToGlobal(kernel);
  ep.setup_s = HostSeconds(setup_start);

  // --- the measured region ---
  const CounterSnapshot counters(kernel);
  const Cycles m0 = kctx.smp.Makespan();
  const Cycles g0 = kernel.clock().now();
  const auto measured_start = std::chrono::steady_clock::now();
  HostRate rate(&kernel.clock(), kRateBatchRounds * workers_count * (kStepRefs + 1));
  rate.Begin();
  uint64_t refs = 0;
  for (uint32_t round = 0; round < kRounds; ++round) {
    probe.BeginOp("round", round);
    for (uint32_t w = 0; w < workers_count; ++w) {
      Worker& worker = workers[w];
      std::vector<UserOp> program;
      for (uint32_t r = 0; r < kStepRefs; ++r) {
        const uint32_t page = worker.cursor;
        worker.cursor = (worker.cursor + 1) % kPrivatePages;
        const uint32_t offset =
            page * kPageWords + static_cast<uint32_t>(rng.NextBelow(kPageWords));
        if (r % kWriteEvery == kWriteEvery - 1) {
          const Word value = rng.Next();
          program.push_back(UserOp::Write(worker.own, offset, value));
          worker.expected[offset] = value;
        } else {
          program.push_back(UserOp::Read(worker.own, offset));
        }
      }
      const uint32_t shared_offset = w * 16 + round % 16;
      const Word shared_value = (static_cast<Word>(round) << 8) | w;
      program.push_back(UserOp::Write(worker.shared, shared_offset, shared_value));
      shared_expected[shared_offset] = shared_value;
      refs += program.size();
      ++ep.attempted;
      RunWindow(kernel, static_cast<uint16_t>(w % kCpus), ProfDomain::kDispatch, [&] {
        const Status st = probe.Call(Layer::kUproc, "set_program", [&] {
          return procs.SetProgram(worker.pid, std::move(program));
        });
        if (!st.ok()) {
          ep.Fail("set_program: " + st.ToString());
        }
      });
    }
    // Barrier: every CPU starts the round together.
    kctx.smp.AlignAll();
    const Cycles r0 = kctx.smp.Makespan();
    const Status st = probe.Call(Layer::kUproc, "run_until_quiescent",
                                 [&] { return procs.RunUntilQuiescent(kMaxPasses); });
    if (!st.ok()) {
      ep.Fail("round " + std::to_string(round) + ": " + st.ToString());
    }
    for (uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      if (const Cycles d = kctx.smp.local_now(cpu) - r0; d > 0) {
        ep.op_lat.push_back(d);
      }
    }
    ep.op2_lat.push_back(kctx.smp.Makespan() - r0);
    probe.EndOp();
    rate.Add(static_cast<double>(workers_count * (kStepRefs + 1)));
  }
  ep.measured_s = HostSeconds(measured_start);
  ep.host = rate.samples();
  ep.units = refs;
  ep.makespan = kctx.smp.Makespan() - m0;
  ep.sim_cycles = kernel.clock().now() - g0;
  const std::map<std::string, double> delta = counters.Delta(kernel);

  // --- checks: every process finished, every written word reads back ---
  for (const Worker& worker : workers) {
    if (procs.state(worker.pid) != ProcState::kDone) {
      ep.Fail("worker " + std::to_string(worker.pid.value) + ": " +
              procs.stats(worker.pid).last_error.ToString());
    }
    ProcContext& ctx = *procs.Context(worker.pid);
    for (const auto& [offset, value] : worker.expected) {
      auto got = gates.Read(ctx, worker.own, offset);
      if (!got.ok() || *got != value) {
        ep.Fail("read-back worker " + std::to_string(worker.pid.value) + " word " +
                std::to_string(offset) + ": " +
                (got.ok() ? "wrong value" : got.status().ToString()));
      }
    }
  }
  ProcContext& ctx0 = *procs.Context(workers[0].pid);
  for (const auto& [offset, value] : shared_expected) {
    auto got = gates.Read(ctx0, workers[0].shared, offset);
    if (!got.ok() || *got != value) {
      ep.Fail("read-back shared word " + std::to_string(offset));
    }
  }
  ep.Check(kernel.AuditIntegrity().empty(), "AuditIntegrity() is empty");
  ep.Check(kernel.Shutdown().ok(), "Shutdown() is OK");
  FillLayerMetrics(ep, probe, delta);
  if (tracing && !spans_path.empty() && !probe.WriteSpans(spans_path)) {
    ep.Fail("cannot write " + spans_path);
  }
  return ep;
}

}  // namespace perfbench
