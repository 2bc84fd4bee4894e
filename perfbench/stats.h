// The benchmark's own arithmetic: medians, the tail-percentile rule, and
// per-span self time. Kept free of any pipeline code so selftest.cc can pin
// each rule on hand-made inputs.

#ifndef DEEPDIRECT_PERFBENCH_STATS_H_
#define DEEPDIRECT_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_buffer.h"

namespace deepdirect::perfbench {

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for an empty input).
double Median(std::vector<double> values);

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest percentile from {99.9, 99, 90, 50} that still has at least
/// `min_beyond` samples above it among `count` samples, or 0 when even the
/// median does not. A p99 needs 1000 samples, a p99.9 10000.
double HighestResolvablePercentile(size_t count, size_t min_beyond = 10);

/// Self time of each event: its duration minus the part of its interval
/// covered by its direct children. A child is a later-starting event on
/// the same thread, one nesting level deeper, inside the parent's
/// interval. Returned in nanoseconds, index-aligned with `events`.
std::vector<uint64_t> SelfTimes(const std::vector<obs::TraceEvent>& events);

/// Sums self time (seconds) per layer, where `layer_of` maps a span name
/// to its layer and returns "" for spans left out of the accounting
/// (their self time is dropped, their children still count).
template <typename LayerOf>
std::map<std::string, double> LayerSelfSeconds(
    const std::vector<obs::TraceEvent>& events, LayerOf&& layer_of) {
  const std::vector<uint64_t> self = SelfTimes(events);
  std::map<std::string, double> out;
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string layer = layer_of(events[i].name);
    if (!layer.empty()) out[layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

}  // namespace deepdirect::perfbench

#endif  // DEEPDIRECT_PERFBENCH_STATS_H_
