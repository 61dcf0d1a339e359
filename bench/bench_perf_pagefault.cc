// P9 — the missing-page race.  Baseline hardware offers no descriptor lock
// bit, so page control must take a global lock and interpretively
// retranslate the faulting virtual address against segment control's and
// address space control's tables — and occasionally discovers a conflict and
// retries.  The new hardware locks the offending descriptor at fault time:
// no retranslation, no global lock, and colliding references wait on the
// page's eventcount.
//
// The bench measures the simulated cost of the full missing-page service
// path under both designs, sweeping the baseline's conflict rate.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/baseline/supervisor.h"
#include "src/fs/path_walker.h"
#include "src/kernel/kernel.h"

namespace mks {
namespace {

constexpr uint32_t kPages = 96;   // working set larger than memory
constexpr uint32_t kRounds = 6;

// Cyclic sweep over more pages than memory holds: every touch faults.
double BaselineFaultCost(double conflict_rate, uint64_t* retries) {
  BaselineConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  config.retranslate_conflict_rate = conflict_rate;
  MonolithicSupervisor sup{config};
  if (!sup.Boot().ok()) {
    return -1;
  }
  auto uid = sup.CreatePath(">big");
  if (!uid.ok()) {
    return -1;
  }
  for (uint32_t p = 0; p < kPages; ++p) {
    (void)sup.Write(*uid, p * kPageWords, p + 1);
  }
  const Cycles before = sup.clock().now();
  for (uint32_t r = 0; r < kRounds; ++r) {
    for (uint32_t p = 0; p < kPages; ++p) {
      (void)sup.Read(*uid, p * kPageWords);
    }
  }
  *retries = sup.metrics().Get("baseline.retranslation_conflicts");
  return static_cast<double>(sup.clock().now() - before) /
         static_cast<double>(kRounds * kPages);
}

struct AssocStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;
};

double KernelFaultCost(uint64_t* locked_waits, AssocStats* assoc) {
  KernelConfig config;
  config.memory_frames = 64;
  config.records_per_pack = 8192;
  Kernel kernel{ArmWatchdog(config)};
  if (!kernel.Boot().ok()) {
    return -1;
  }
  Subject user{Principal{"Bench", "Proj"}, Label::SystemLow(), 4};
  auto pid = kernel.processes().CreateProcess(user);
  ProcContext* ctx = kernel.processes().Context(*pid);
  PathWalker walker(&kernel.gates());
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RWE()});
  auto entry = walker.CreateSegment(*ctx, ">big", acl, Label::SystemLow());
  if (!entry.ok()) {
    return -1;
  }
  auto segno = kernel.gates().Initiate(*ctx, *entry);
  for (uint32_t p = 0; p < kPages; ++p) {
    (void)kernel.gates().Write(*ctx, *segno, p * kPageWords, p + 1);
  }
  const Cycles before = kernel.clock().now();
  for (uint32_t r = 0; r < kRounds; ++r) {
    for (uint32_t p = 0; p < kPages; ++p) {
      (void)kernel.gates().Read(*ctx, *segno, p * kPageWords);
    }
  }
  *locked_waits = kernel.metrics().Get("gates.locked_descriptor_waits");
  assoc->hits = kernel.metrics().Get("hw.assoc_hits");
  assoc->misses = kernel.metrics().Get("hw.assoc_misses");
  assoc->flushes = kernel.metrics().Get("hw.assoc_flushes");
  return static_cast<double>(kernel.clock().now() - before) /
         static_cast<double>(kRounds * kPages);
}

}  // namespace
}  // namespace mks

int main() {
  using namespace mks;
  std::printf("=== P9: Missing-page service path ===\n\n");
  std::printf("(disk latency dominates both; the interesting part is the overhead)\n\n");
  std::printf("%-44s %14s %12s\n", "configuration", "cyc/reference", "conflicts");
  double baseline_clean = 0;
  for (double rate : {0.0, 0.02, 0.10, 0.25}) {
    uint64_t retries = 0;
    const double cost = BaselineFaultCost(rate, &retries);
    if (rate == 0.0) {
      baseline_clean = cost;
    }
    std::printf("baseline, global lock, conflict rate %4.0f%%   %14.0f %12llu\n", rate * 100,
                cost, (unsigned long long)retries);
    EmitJson(JsonLine("pagefault")
                 .Field("config", "baseline")
                 .Field("conflict_rate", rate)
                 .Field("cyc_per_ref", cost)
                 .Field("conflicts", retries));
  }
  uint64_t locked_waits = 0;
  AssocStats assoc;
  const double kernel_cost = KernelFaultCost(&locked_waits, &assoc);
  std::printf("%-44s %14.0f %12llu\n", "new design, descriptor lock bit", kernel_cost,
              (unsigned long long)locked_waits);
  EmitJson(JsonLine("pagefault")
               .Field("config", "kernel_lock_bit")
               .Field("cyc_per_ref", kernel_cost)
               .Field("locked_waits", locked_waits)
               .Field("assoc_hits", assoc.hits)
               .Field("assoc_misses", assoc.misses)
               .Field("assoc_flushes", assoc.flushes)
               .Field("delta_vs_clean_baseline", baseline_clean - kernel_cost)
               .Field("reproduced", locked_waits == 0 ? "yes" : "no"));
  std::printf("\nassociative memory on the kernel run: %llu hits / %llu misses / %llu flushes\n"
              "(the cyclic sweep defeats it by design: every page is evicted and\n"
              "invalidated before its next touch)\n",
              (unsigned long long)assoc.hits, (unsigned long long)assoc.misses,
              (unsigned long long)assoc.flushes);

  std::printf(
      "\nThe baseline pays the global lock + interpretive retranslation on every\n"
      "fault and re-faults on conflicts, so its per-reference cost RISES with\n"
      "the conflict rate.  The descriptor lock bit removes that machinery\n"
      "entirely (conflicts column is structurally zero); the handler's own\n"
      "instructions are costlier (PL/I factor), which is P4's finding, not a\n"
      "regression of the hardware change.\n");
  std::printf("baseline(0%%) vs kernel delta: %+0.0f cycles/reference\n",
              baseline_clean - kernel_cost);
  std::printf("\npaper: \"minor adjustments of the underlying hardware architecture can\n"
              "make a significant difference in operating system complexity\" -> the\n"
              "retranslation machinery (and its conflicts) ceases to exist: %s\n",
              locked_waits == 0 ? "REPRODUCED" : "MISMATCH");
  return locked_waits == 0 ? 0 : 1;
}
