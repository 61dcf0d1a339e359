// Virtual-time kernel tracer: per-CPU bounded event rings with a scoped-span
// API, plus a Chrome trace-event exporter.
//
// Every record is stamped with the *global* virtual clock — the one total
// order all simulated work already shares — rather than the per-CPU local
// clocks of CpuInterleave.  Two consequences the design leans on:
//
//  * Reproducibility.  The global clock is advanced only by deterministic
//    cycle charges, so two runs of the same workload produce byte-identical
//    traces (tests/trace_test.cc asserts exactly that at 4 CPUs).
//  * Honest lanes.  In the Chrome view each simulated CPU is a thread lane;
//    with global stamps, a lane shows activity only during that CPU's quanta,
//    so the interleaving (and any lock-spin serialization) is visible as gaps.
//
// Tracing never charges cycles and never touches the Metrics counter store:
// event names are interned in the Tracer's own table, and latency histograms
// live in Metrics' separate histogram store.  With the knob off, every
// instrumented path is byte-identical to an untraced build — all record
// entry points early-return on a single branch.
//
// Ring semantics: each CPU has a bounded circular buffer.  When full, the
// oldest record is overwritten (drop-oldest) and a per-CPU dropped counter
// advances; Snapshot() returns the surviving records oldest-first.
#ifndef MKS_SIM_TRACE_H_
#define MKS_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/metrics.h"

namespace mks {

// Stable handle for one event name; valid for the lifetime of the Tracer.
using TraceEventId = uint32_t;

// One trace record.  dur == 0 marks an instant event; dur > 0 a span whose
// start was `ts` and whose end was `ts + dur` (both on the global clock).
struct TraceRecord {
  Cycles ts = 0;
  Cycles dur = 0;
  TraceEventId event = 0;
  uint32_t proc = 0;  // vproc/uproc/pack id — whatever the site tracks
  uint32_t arg = 0;   // event-specific detail (gate op, broadcast kind, ...)
  uint16_t cpu = 0;
};

class Tracer {
 public:
  // Records retained per CPU before drop-oldest kicks in.
  static constexpr uint32_t kRingCapacity = 4096;

  Tracer(const Clock* clock, Metrics* metrics)
      : clock_(clock), metrics_(metrics) {}

  // Sizes `cpu_count` lanes and turns recording on or off.  Call once,
  // before any manager interns events; managers intern unconditionally
  // (interning is cheap and keeps their construction branch-free), but
  // records are only kept while enabled.
  void Enable(uint16_t cpu_count, bool enabled) {
    enabled_ = enabled;
    rings_.assign(cpu_count == 0 ? 1 : cpu_count, Ring{});
    if (enabled_) {
      // Preallocate every ring so Push is a store + wrap-increment, never a
      // push_back; record j (ever pushed) lives at slot j % kRingCapacity.
      for (Ring& r : rings_) {
        r.slots.assign(kRingCapacity, TraceRecord{});
      }
    }
    RefreshLane();
  }

  bool enabled() const { return enabled_; }

  // Registers an event name; construction-time only (allocates on first use).
  TraceEventId InternEvent(std::string_view name) {
    for (TraceEventId i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return i;
      }
    }
    names_.emplace_back(name);
    return static_cast<TraceEventId>(names_.size() - 1);
  }

  std::string_view EventName(TraceEventId id) const { return names_[id]; }

  // The scheduler reports which simulated CPU subsequent records belong to
  // (the sim layer cannot see KernelContext::current_cpu — layering).  The
  // lane pointer is resolved here, once per quantum, not per record.
  void SetCpu(uint16_t cpu) {
    cpu_ = cpu;
    RefreshLane();
  }

  // Point event at the current virtual time on the current CPU.
  void Instant(TraceEventId event, uint32_t proc = 0, uint32_t arg = 0) {
    if (!enabled_) {
      return;
    }
    Push(TraceRecord{clock_->now(), 0, event, proc, arg, cpu_});
  }

  // Closes a span opened at `begin` (callers capture clock->now() — or
  // Tracer::Begin() — before the work).  When `hist` is given, the duration
  // also lands in that Metrics histogram, so percentile readback works even
  // after the ring has wrapped.
  void CloseSpan(Cycles begin, TraceEventId event, uint32_t proc = 0,
                 uint32_t arg = 0, HistId hist = kNoHist) {
    if (!enabled_) {
      return;
    }
    const Cycles end = clock_->now();
    const Cycles dur = end > begin ? end - begin : 0;
    if (hist != kNoHist) {
      metrics_->Observe(hist, dur);
    }
    Push(TraceRecord{begin, dur, event, proc, arg, cpu_});
  }

  // Span start stamp; 0 when disabled so dead stamps cost one branch.
  Cycles Begin() const { return enabled_ ? clock_->now() : 0; }

  // RAII span: records on destruction with the duration since construction.
  class Span {
   public:
    Span(Tracer* tracer, TraceEventId event, uint32_t proc = 0,
         uint32_t arg = 0, HistId hist = kNoHist)
        : tracer_(tracer), begin_(tracer->Begin()), event_(event), proc_(proc),
          arg_(arg), hist_(hist) {}
    ~Span() { tracer_->CloseSpan(begin_, event_, proc_, arg_, hist_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Cycles begin_;
    TraceEventId event_;
    uint32_t proc_;
    uint32_t arg_;
    HistId hist_;
  };

  uint16_t cpu_count() const { return static_cast<uint16_t>(rings_.size()); }

  // Records surviving in `cpu`'s ring, oldest first.
  std::vector<TraceRecord> Snapshot(uint16_t cpu) const {
    std::vector<TraceRecord> out;
    if (cpu >= rings_.size()) {
      return out;
    }
    const Ring& r = rings_[cpu];
    const uint64_t kept = r.total < kRingCapacity ? r.total : kRingCapacity;
    out.reserve(kept);
    const uint64_t start = r.total - kept;
    for (uint64_t i = 0; i < kept; ++i) {
      out.push_back(r.slots[(start + i) % kRingCapacity]);
    }
    return out;
  }

  // Records overwritten by drop-oldest on `cpu`'s ring.
  uint64_t dropped(uint16_t cpu) const {
    if (cpu >= rings_.size()) {
      return 0;
    }
    const Ring& r = rings_[cpu];
    return r.total > kRingCapacity ? r.total - kRingCapacity : 0;
  }

 private:
  struct Ring {
    std::vector<TraceRecord> slots;
    uint64_t total = 0;  // records ever pushed; total - kept = dropped
    uint32_t head = 0;   // next write index == total % kRingCapacity
  };

  void RefreshLane() {
    lane_ = rings_.empty() ? nullptr : &rings_[cpu_ < rings_.size() ? cpu_ : 0];
  }

  // Only reached while enabled_ (every record entry point gates on it), so
  // the ring is preallocated and the lane pointer resolved.
  void Push(const TraceRecord& rec) {
    Ring& r = *lane_;
    r.slots[r.head] = rec;
    if (++r.head == kRingCapacity) {
      r.head = 0;
    }
    r.total++;
  }

  const Clock* clock_;
  Metrics* metrics_;
  bool enabled_ = false;
  uint16_t cpu_ = 0;
  Ring* lane_ = nullptr;  // rings_[cpu_], cached by SetCpu/Enable
  std::vector<std::string> names_;
  std::vector<Ring> rings_;
};

// Serializes a Tracer's rings as Chrome trace-event (catapult) JSON — the
// format chrome://tracing and Perfetto load.  pid 0 is the simulated
// machine; each simulated CPU is a tid with a thread_name metadata record.
// Timestamps are virtual cycles (the viewer displays them as microseconds;
// only relative spacing matters).
class TraceExporter {
 public:
  static std::string Export(const Tracer& tracer);
  static bool WriteFile(const Tracer& tracer, const std::string& path);
};

}  // namespace mks

#endif  // MKS_SIM_TRACE_H_
