// Shared substrate bundle for the kernel's object managers.
//
// Every manager receives a KernelContext*: the simulated clock/cost model,
// metrics, the runtime dependency tracker, the eventcount table, the
// reference monitor, primary memory, the disk volumes, and the service
// processor.  The context owns no policy; it is the "machine room" the
// managers are built over.
#ifndef MKS_KERNEL_CONTEXT_H_
#define MKS_KERNEL_CONTEXT_H_

#include <cassert>
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
        monitor(&clock),
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
  // in-flight reference (fault dispatch, DSBR binding) uses
  // this; descriptor mutations use the pool-wide forms on `cpus`.
  Processor& cpu() { return cpus.cpu(current_cpu); }

  // One accrual window: work charged to one CPU's local clock.  Opening it
  // sets current_cpu and the tracer's lane, anchors LocalNow() and opens the
  // profiler's window; closing it accrues the global clock's progress to
  // `cpu`.  Every dispatch, level-1 pass, idle-time round and directly driven
  // test or bench op is one (perfbench's RunWindow is a copy).  Windows never
  // nest: a nested one would accrue its work twice.  Closing leaves
  // current_cpu and the anchor set; work outside windows reads them (ROADMAP
  // item 3).
  class Window {
   public:
    Window(KernelContext* ctx, uint16_t cpu, ProfDomain root)
        : ctx_(ctx), cpu_(cpu), start_(ctx->EnterWindow(cpu)), prof_(&ctx->prof, cpu, root) {}
    ~Window() {
      if (const Cycles delta = ctx_->clock.now() - start_; delta > 0) {
        ctx_->smp.Accrue(cpu_, delta);
      }
      ctx_->window_open_ = false;
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    Cycles start() const { return start_; }  // where the window's trace spans begin

   private:
    KernelContext* ctx_;
    uint16_t cpu_;
    Cycles start_;
    Prof::Window prof_;
  };

  // The in-flight computation's local time: the window CPU's clock at window
  // start plus the global progress since, because local clocks advance only
  // when a window closes.  Before the first window it is the global clock,
  // which is right for directly driven work on one CPU.
  Cycles LocalNow() const { return window_anchor_local + (clock.now() - window_anchor_global); }

  // The barrier into a measured region: every CPU aligned to the makespan,
  // then idled forward to the global clock, so work done outside windows
  // (boot, set-up) never reads as contention inside them.
  void AlignToGlobal() {
    smp.AlignAll();
    if (clock.now() > smp.Makespan()) {
      smp.AdvanceAll(clock.now() - smp.Makespan());
    }
  }

  // LocalNow()'s anchor; Window sets it on open, as perfbench's RunWindow does.
  Cycles window_anchor_local = 0;
  Cycles window_anchor_global = 0;
  void AnchorWindow() {
    window_anchor_local = smp.local_now(current_cpu);
    window_anchor_global = clock.now();
  }

 private:
  Cycles EnterWindow(uint16_t cpu) {
    assert(!window_open_ && "accrual windows never nest");
    window_open_ = true;
    current_cpu = cpu;
    trace.SetCpu(cpu);
    AnchorWindow();
    return window_anchor_global;
  }
  bool window_open_ = false;
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
