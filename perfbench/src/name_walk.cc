// name_walk — naming at scale, a closed loop with one client per simulated
// CPU.
//
// The hierarchy holds tens of thousands of entries four directories deep,
// far more than the KST, the AST and the associative memory hold.  Each
// client issues its next operation when the previous one completes.  About
// 98% of operations are a deep PathWalker::Walk, checked against the
// expected EntryId, plus a KST lookup; the rest are naming writes: SetAcl,
// Rename, and creation or deletion of scratch segments.  Walk targets follow
// a seeded Zipf popularity over the leaves.
#include <deque>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"
#include "src/fs/path_walker.h"

namespace perfbench {
namespace {

using namespace mks;

constexpr uint32_t kFanout[] = {6, 6, 6, 4};  // directories per level
constexpr uint32_t kLeavesPerDir = 24;        // segments per deepest directory
constexpr uint32_t kOps = 400000;
constexpr double kWriteShare = 0.02;
constexpr double kZipfExponent = 1.0;
constexpr double kRateBatchOps = 5000;  // operations per host-rate sample

struct Leaf {
  EntryId dir{};
  std::string dir_path;
  std::string base;
  std::string name;  // current name (renames append a suffix)
  EntryId id{};
  uint32_t renames = 0;
};

struct Scratch {
  EntryId dir{};
  std::string name;
};

std::string Numbered(const char* prefix, uint64_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace

Episode RunNameWalk(uint64_t seed, bool tracing, const std::string& spans_path) {
  Episode ep;
  const auto setup_start = std::chrono::steady_clock::now();
  Kernel kernel{PinnedKernelConfig(tracing)};
  if (!kernel.Boot().ok()) {
    ep.Fail("boot");
    return ep;
  }
  KernelContext& kctx = kernel.ctx();
  KernelGates& gates = kernel.gates();
  Probe probe(tracing, &kernel.clock());
  PathWalker walker(&gates);
  Acl world;
  world.Add(AclEntry{"*", "*", AccessModes::RW()});
  const Subject user{Principal{"Walker", "Bench"}, Label::SystemLow(), 4};

  // Set-up: the hierarchy, built breadth-first by one process.
  auto creator = kernel.processes().CreateProcess(user);
  if (!creator.ok()) {
    ep.Fail("creator process");
    return ep;
  }
  ProcContext& bctx = *kernel.processes().Context(*creator);
  auto lib = gates.CreateDirectory(bctx, gates.RootId(), "lib", world, Label::SystemLow());
  if (!lib.ok()) {
    ep.Fail("create >lib");
    return ep;
  }
  std::vector<std::pair<EntryId, std::string>> level{{*lib, ">lib"}};
  for (size_t depth = 0; depth < std::size(kFanout); ++depth) {
    std::vector<std::pair<EntryId, std::string>> next;
    for (const auto& [dir, path] : level) {
      for (uint32_t i = 0; i < kFanout[depth]; ++i) {
        const std::string name = Numbered("d", depth) + "_" + std::to_string(i);
        auto made = gates.CreateDirectory(bctx, dir, name, world, Label::SystemLow());
        if (!made.ok()) {
          ep.Fail("create " + path + ">" + name + ": " + made.status().ToString());
          return ep;
        }
        next.emplace_back(*made, path + ">" + name);
      }
    }
    level = std::move(next);
  }
  std::vector<Leaf> leaves;
  for (const auto& [dir, path] : level) {
    for (uint32_t k = 0; k < kLeavesPerDir; ++k) {
      Leaf leaf;
      leaf.dir = dir;
      leaf.dir_path = path;
      leaf.base = Numbered("s", k);
      leaf.name = leaf.base;
      auto made = gates.CreateSegment(bctx, dir, leaf.name, world, Label::SystemLow());
      if (!made.ok()) {
        ep.Fail("create " + path + ">" + leaf.name + ": " + made.status().ToString());
        return ep;
      }
      leaf.id = *made;
      leaves.push_back(std::move(leaf));
    }
  }

  // One client process per CPU, each with one initiated probe segment for
  // its KST lookups.
  std::vector<ProcessId> pids;
  std::vector<Segno> probes;
  for (uint16_t c = 0; c < kCpus; ++c) {
    auto pid = kernel.processes().CreateProcess(user);
    if (!pid.ok()) {
      ep.Fail("client process");
      return ep;
    }
    auto segno = gates.Initiate(*kernel.processes().Context(*pid), leaves[c].id);
    if (!segno.ok()) {
      ep.Fail("client probe segment");
      return ep;
    }
    pids.push_back(*pid);
    probes.push_back(*segno);
  }

  // Generated inputs: Zipf ranks map to leaves through a seeded permutation,
  // so every seed has its own hot set with the same popularity curve.
  Rng rng(seed);
  std::vector<uint32_t> by_rank(leaves.size());
  for (uint32_t i = 0; i < by_rank.size(); ++i) {
    by_rank[i] = i;
  }
  for (size_t i = by_rank.size() - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[rng.NextBelow(i + 1)]);
  }
  AlignToGlobal(kernel);
  ep.setup_s = HostSeconds(setup_start);

  // --- the measured region ---
  const CounterSnapshot counters(kernel);
  const PathWalker::GateMix mix0 = walker.gate_mix();
  const Cycles m0 = kctx.smp.Makespan();
  const Cycles g0 = kernel.clock().now();
  const auto measured_start = std::chrono::steady_clock::now();
  HostRate rate(&kernel.clock(), kRateBatchOps);
  rate.Begin();
  std::deque<Scratch> scratch;
  uint64_t scratch_made = 0;
  for (uint32_t op = 0; op < kOps; ++op) {
    const uint16_t cpu = kctx.smp.NextCpu();  // the client that finished first
    ProcContext& ctx = *kernel.processes().Context(pids[cpu]);
    ++ep.attempted;
    if (rng.NextBool(kWriteShare)) {
      probe.BeginOp("write", op);
      Leaf& leaf = leaves[by_rank[rng.NextZipf(leaves.size(), kZipfExponent)]];
      const uint64_t kind = rng.NextBelow(4);
      const Cycles lat = RunWindow(kernel, cpu, ProfDomain::kGate, [&] {
        Status st;
        if (kind == 0) {
          st = probe.Call(Layer::kGates, "set_acl",
                          [&] { return gates.SetAcl(ctx, leaf.dir, leaf.name, world); });
        } else if (kind == 1) {
          std::string renamed = leaf.base + "_r" + std::to_string(++leaf.renames);
          st = probe.Call(Layer::kGates, "rename",
                          [&] { return gates.Rename(ctx, leaf.dir, leaf.name, renamed); });
          if (st.ok()) {
            leaf.name = std::move(renamed);
          }
        } else if (kind == 2 || scratch.empty()) {
          Scratch s{leaf.dir, Numbered("x", scratch_made++)};
          auto made = probe.Call(Layer::kGates, "create_segment", [&] {
            return gates.CreateSegment(ctx, s.dir, s.name, world, Label::SystemLow());
          });
          st = made.status();
          if (made.ok()) {
            scratch.push_back(std::move(s));
          }
        } else {
          const Scratch s = scratch.front();
          scratch.pop_front();
          st = probe.Call(Layer::kGates, "delete",
                          [&] { return gates.Delete(ctx, s.dir, s.name); });
        }
        if (!st.ok()) {
          ep.Fail("write " + leaf.dir_path + ">" + leaf.name + ": " + st.ToString());
        }
      });
      ep.op2_lat.push_back(lat);
    } else {
      probe.BeginOp("walk", op);
      const Leaf& leaf = leaves[by_rank[rng.NextZipf(leaves.size(), kZipfExponent)]];
      const std::string path = leaf.dir_path + ">" + leaf.name;
      const Cycles lat = RunWindow(kernel, cpu, ProfDomain::kGate, [&] {
        auto found = probe.Call(Layer::kFs, "walk", [&] { return walker.Walk(ctx, path); });
        if (!found.ok() || *found != leaf.id) {
          ep.Fail("walk " + path);
        }
        const KstEntry* known = probe.Call(Layer::kNaming, "kst_lookup", [&] {
          return kernel.known_segments().Lookup(pids[cpu], probes[cpu]);
        });
        if (known == nullptr) {
          ep.Fail("KST lookup");
        }
      });
      ep.op_lat.push_back(lat);
    }
    probe.EndOp();
    rate.Add(1);
  }
  ep.measured_s = HostSeconds(measured_start);
  ep.host = rate.samples();
  ep.units = kOps;
  ep.makespan = kctx.smp.Makespan() - m0;
  ep.sim_cycles = kernel.clock().now() - g0;
  const std::map<std::string, double> delta = counters.Delta(kernel);
  ep.layer["fs.gate_read_calls"] =
      static_cast<double>(walker.gate_mix().read_calls - mix0.read_calls);
  ep.layer["fs.gate_write_calls"] =
      static_cast<double>(walker.gate_mix().write_calls - mix0.write_calls);

  // --- checks ---
  ep.Check(kernel.AuditIntegrity().empty(), "AuditIntegrity() is empty");
  ep.Check(kernel.Shutdown().ok(), "Shutdown() is OK");
  FillLayerMetrics(ep, probe, delta);
  if (tracing && !spans_path.empty() && !probe.WriteSpans(spans_path)) {
    ep.Fail("cannot write " + spans_path);
  }
  return ep;
}

}  // namespace perfbench
