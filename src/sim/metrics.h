// Named counters collected during a simulation run.
//
// Managers increment counters ("pfm.evictions", "dir.searches", ...) and
// benches/tests read them back; every counter has such a reader
// (tools/check_counter_readers.py checks it).  Keeping counters centralized
// lets the benchmark harness report the same event rates the paper discusses
// without threading bookkeeping through every interface.
//
// Two APIs share one value store:
//
//  * the handle API: a manager calls Intern(name) once at construction and
//    Inc(MetricId) on the hot path — a plain array increment, no hashing, no
//    string materialization.  Every per-reference counter in the system uses
//    this form.
//  * the string API: benches and tests read counters by name.  Lookups are
//    heterogeneous (std::less<>), so a string_view never allocates a
//    temporary std::string; only the first Intern of a new name allocates.
//
// Alongside the flat counters, Metrics keeps log2-bucket histograms for
// latency distributions (fault service time, gate crossings, lock spin).
// Histograms follow the same discipline: InternHistogram at construction,
// Observe on the record path (one array increment, no hashing), and
// percentile readback by name for benches.  Histograms live in a separate
// store, so counters() — the snapshot the determinism tests compare — is
// unaffected by interning them.
#ifndef MKS_SIM_METRICS_H_
#define MKS_SIM_METRICS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mks {

// A stable handle for one counter; valid for the lifetime of the Metrics
// instance that issued it.
using MetricId = uint32_t;

// A stable handle for one histogram, same lifetime contract as MetricId.
using HistId = uint32_t;
inline constexpr HistId kNoHist = UINT32_MAX;

class Metrics {
 public:
  // Returns the handle for `name`, creating the counter (at zero) on first
  // use.  The only allocating operation; call it at manager construction,
  // never on a per-reference path.
  MetricId Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    const MetricId id = static_cast<MetricId>(values_.size());
    values_.push_back(0);
    ids_.emplace(std::string(name), id);
    return id;
  }

  // Hot path: one array increment.  Both handle forms assert the same bounds
  // contract: a stale or foreign MetricId is a caller bug, not a silent zero
  // (Get) or silent corruption (Inc).
  void Inc(MetricId id, uint64_t by = 1) {
    assert(id < values_.size());
    values_[id] += by;
  }
  uint64_t Get(MetricId id) const {
    assert(id < values_.size());
    return values_[id];
  }

  // String-keyed readback for benches and tests.
  uint64_t Get(std::string_view name) const {
    auto it = ids_.find(name);
    return it == ids_.end() ? 0 : values_[it->second];
  }

  // Snapshot of every counter by name, for reporting.
  std::map<std::string, uint64_t, std::less<>> counters() const {
    std::map<std::string, uint64_t, std::less<>> out;
    for (const auto& [name, id] : ids_) {
      out.emplace(name, values_[id]);
    }
    return out;
  }

  // --- Histograms -----------------------------------------------------------
  //
  // Log2 buckets: bucket 0 holds the value 0; bucket b >= 1 holds values in
  // [2^(b-1), 2^b - 1].  65 buckets cover the full uint64_t range.  Percentile
  // readback returns the inclusive upper bound of the bucket containing the
  // requested rank — an overestimate by at most 2x, which is plenty for the
  // order-of-magnitude latency comparisons the benches make.

  static constexpr size_t kHistBuckets = 65;

  HistId InternHistogram(std::string_view name) {
    auto it = hist_ids_.find(name);
    if (it != hist_ids_.end()) {
      return it->second;
    }
    const HistId id = static_cast<HistId>(hists_.size());
    hists_.emplace_back();
    hist_ids_.emplace(std::string(name), id);
    return id;
  }

  // Hot path: one array increment.
  void Observe(HistId id, uint64_t value) {
    Hist& h = hists_[id];
    h.buckets[BucketOf(value)]++;
    h.count++;
  }

  uint64_t HistCount(std::string_view name) const {
    const HistId id = FindHistogram(name);
    return id == kNoHist ? 0 : hists_[id].count;
  }

  // Upper bound of the bucket holding the p-th percentile observation
  // (p in [0, 1]); 0 if the histogram is empty or unknown.
  uint64_t HistPercentile(std::string_view name, double p) const {
    const HistId id = FindHistogram(name);
    if (id == kNoHist || hists_[id].count == 0) {
      return 0;
    }
    const Hist& h = hists_[id];
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(h.count))));
    uint64_t seen = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      seen += h.buckets[b];
      if (seen >= rank) {
        return BucketUpper(b);
      }
    }
    return BucketUpper(kHistBuckets - 1);
  }

  // Names of every interned histogram with at least one observation, for
  // report emitters that don't know the taxonomy.
  std::vector<std::string> histogram_names() const {
    std::vector<std::string> out;
    for (const auto& [name, id] : hist_ids_) {
      if (hists_[id].count > 0) {
        out.push_back(name);
      }
    }
    return out;
  }

  // Bucket index for a value: 0 for 0, else 1 + floor(log2(v)).
  static size_t BucketOf(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

  // Inclusive upper bound of bucket b.
  static uint64_t BucketUpper(size_t b) {
    if (b == 0) {
      return 0;
    }
    if (b >= 64) {
      return UINT64_MAX;
    }
    return (uint64_t{1} << b) - 1;
  }

 private:
  struct Hist {
    std::array<uint64_t, kHistBuckets> buckets{};
    uint64_t count = 0;
  };

  HistId FindHistogram(std::string_view name) const {
    auto it = hist_ids_.find(name);
    return it == hist_ids_.end() ? kNoHist : it->second;
  }

  std::map<std::string, MetricId, std::less<>> ids_;
  std::vector<uint64_t> values_;
  std::map<std::string, HistId, std::less<>> hist_ids_;
  std::vector<Hist> hists_;
};

}  // namespace mks

#endif  // MKS_SIM_METRICS_H_
