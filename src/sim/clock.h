// Simulated time base and instruction-cost model.
//
// Every component of the simulated machine charges cycles to a shared Clock.
// The CostModel distinguishes "optimized" code (the baseline supervisor's
// hand-coded assembly paths) from "structured" code (the kernel's PL/I-style
// reimplementation).  The paper reports that recoding assembly in PL/I
// roughly doubled the generated instruction count [Huber, 1976]; the model
// makes that factor an explicit, benchmarkable parameter.
#ifndef MKS_SIM_CLOCK_H_
#define MKS_SIM_CLOCK_H_

#include <cstdint>

namespace mks {

using Cycles = uint64_t;

class Clock {
 public:
  Cycles now() const { return now_; }
  void Advance(Cycles n) { now_ += n; }

 private:
  Cycles now_{0};
};

enum class CodeStyle : uint8_t {
  kOptimized,   // hand-tuned assembly-language path
  kStructured,  // PL/I-style, auditable reimplementation
};

class CostModel {
 public:
  explicit CostModel(Clock* clock) : clock_(clock) {}

  // The paper's observed PL/I-vs-assembly expansion factor ("slightly more
  // than a factor of two" in generated instructions).
  static constexpr double kDefaultStructuredFactor = 2.1;

  void set_structured_factor(double f) { structured_factor_ = f; }

  // Charge `base` optimized-equivalent cycles of code written in `style`.
  void Charge(CodeStyle style, Cycles base) {
    if (style == CodeStyle::kStructured) {
      base = static_cast<Cycles>(static_cast<double>(base) * structured_factor_);
    }
    clock_->Advance(base);
  }

  // The clock the charges advance.
  Cycles now() const { return clock_->now(); }

 private:
  Clock* clock_;
  double structured_factor_{kDefaultStructuredFactor};
};

// Nominal cycle charges for common machine operations.  The absolute values
// are arbitrary; only the ratios matter for experiment shape.
struct Costs {
  static constexpr Cycles kMemoryReference = 1;
  static constexpr Cycles kAddressTranslation = 2;
  // With the associative memory modelled, a translation that misses it pays
  // two explicit descriptor fetches from core (SDW, then PTW) on top of the
  // translation logic; a hit pays only the associative search.
  static constexpr Cycles kDescriptorFetch = 1;
  static constexpr Cycles kAssocSearch = 1;
  static constexpr Cycles kFaultEntry = 30;          // trap + state save
  static constexpr Cycles kGateCall = 20;            // ring crossing
  static constexpr Cycles kProcedureCall = 5;
  static constexpr Cycles kProcessSwitch = 150;      // user process dispatch
  static constexpr Cycles kVpSwitch = 60;            // virtual processor dispatch
  static constexpr Cycles kDiskReadLatency = 30000;  // one record transfer
  static constexpr Cycles kDiskWriteLatency = 30000;
  // Batched I/O (the anticipatory paging pipeline): a dispatch round sorts
  // queued requests by record index and sweeps the arm once, so only the
  // first record pays the full seek+rotation latency; every further record
  // coalesced into the same sweep pays just its transfer time.
  static constexpr Cycles kDiskBatchedTransfer = 3000;
  static constexpr Cycles kPageScanPerWord = 1;      // zero-detection sweep
};

}  // namespace mks

#endif  // MKS_SIM_CLOCK_H_
