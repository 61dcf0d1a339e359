// Shared substrate bundle for the kernel's object managers.
//
// Every manager receives a KernelContext*: the simulated clock/cost model,
// metrics, the runtime dependency tracker, the eventcount table, the
// reference monitor, primary memory, the disk volumes, and the service
// processor.  The context owns no policy; it is the "machine room" the
// managers are built over.
#ifndef MKS_KERNEL_CONTEXT_H_
#define MKS_KERNEL_CONTEXT_H_

#include <cstdint>

#include "src/aim/monitor.h"
#include "src/deps/tracker.h"
#include "src/disk/pack.h"
#include "src/hw/machine.h"
#include "src/sim/clock.h"
#include "src/sim/cpu_sched.h"
#include "src/sim/metrics.h"
#include "src/sim/prof.h"
#include "src/sim/trace.h"
#include "src/sync/eventcount.h"

namespace mks {

struct KernelContext {
  KernelContext(uint32_t memory_frames, HwFeatures features, double structured_factor,
                uint64_t secret_seed, uint16_t cpu_count = 1, Cycles connect_cost = 0)
      : cost(&clock),
        trace(&clock, &metrics),
        prof(&clock),
        eventcounts(&metrics),
        monitor(&clock, &metrics),
        memory(memory_frames, &cost, &metrics),
        volumes(&cost, &metrics, &trace),
        cpus(cpu_count, features, &cost, &metrics, &trace),
        smp(cpu_count, &metrics),
        secret(secret_seed) {
    cost.set_structured_factor(structured_factor);
    cpus.set_connect_cost(connect_cost);
    smp.set_prof(&prof);
  }

  Clock clock;
  CostModel cost;
  Metrics metrics;
  Tracer trace;  // virtual-time event rings; inert until Enable()d
  Prof prof;     // per-CPU cycle attribution + stall watchdog; inert until Enable()d
  CallTracker tracker;
  EventcountTable eventcounts;
  ReferenceMonitor monitor;
  PrimaryMemory memory;
  VolumeControl volumes;
  ProcessorPool cpus;    // the machine's service processors
  CpuInterleave smp;     // deterministic quantum interleaving + per-CPU accounting
  uint16_t current_cpu = 0;  // CPU executing the current computation
  uint64_t secret;       // per-boot secret keying Bratt mythical identifiers

  // The processor the current computation runs on.  Code that handles the
  // in-flight reference (fault dispatch, wakeup-waiting, DSBR binding) uses
  // this; descriptor mutations use the pool-wide forms on `cpus`.
  Processor& cpu() { return cpus.cpu(current_cpu); }

  // The current work window's virtual-time anchor.  Per-CPU local clocks
  // (smp) only advance when a window's charges are accrued at its end, so
  // mid-window code cannot read its own local "now" from smp alone.  The
  // dispatcher calls AnchorWindow() when it selects a CPU; LocalNow() is
  // then the CPU's local clock at window start plus the global-clock
  // progress charged since — the local time the in-flight computation has
  // actually reached.  With the default anchor (0, 0), LocalNow() equals the
  // global clock: correct for directly driven work, where one computation
  // runs at a time and the clock is globally monotone.
  Cycles window_anchor_local = 0;
  Cycles window_anchor_global = 0;
  void AnchorWindow() {
    window_anchor_local = smp.local_now(current_cpu);
    window_anchor_global = clock.now();
  }
  Cycles LocalNow() const { return window_anchor_local + (clock.now() - window_anchor_global); }
};

// Canonical module names used in both the declared lattice and the runtime
// tracker.  Matching the names exactly is what lets tests compare them.
namespace module_names {
inline constexpr const char* kCoreSegment = "core_segment_manager";
inline constexpr const char* kVproc = "virtual_processor_manager";
inline constexpr const char* kDiskVolume = "disk_volume_control";
inline constexpr const char* kQuotaCell = "quota_cell_manager";
inline constexpr const char* kPageFrame = "page_frame_manager";
inline constexpr const char* kSegment = "segment_manager";
inline constexpr const char* kAddressSpace = "address_space_manager";
inline constexpr const char* kKnownSegment = "known_segment_manager";
inline constexpr const char* kDirectory = "directory_manager";
inline constexpr const char* kUserProcess = "user_process_manager";
inline constexpr const char* kGates = "gate_keeper";
}  // namespace module_names

}  // namespace mks

#endif  // MKS_KERNEL_CONTEXT_H_
