#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace deepdirect::perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples: ceil(p/100 · n),
// with the product's rounding error (99.9 / 100 · 10000 = 9990.000…02)
// kept from bumping an exact rank up by one.
double NearestRank(double p, size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = NearestRank(p, values.size());
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double HighestResolvablePercentile(size_t count, size_t min_beyond) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    // Samples strictly above the nearest-rank p-th value.
    const size_t rank = static_cast<size_t>(NearestRank(p, count));
    if (count > 0 && count - rank >= min_beyond) return p;
  }
  return 0.0;
}

std::vector<uint64_t> SelfTimes(const std::vector<obs::TraceEvent>& events) {
  std::vector<uint64_t> self(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    self[i] = events[i].end_ns - events[i].start_ns;
  }
  // Per thread, visit spans by start (outer before inner on equal starts)
  // and keep the chain of open enclosing spans on a stack: the top that
  // still contains a span is its direct parent.
  std::vector<size_t> order(events.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const obs::TraceEvent& x = events[a];
    const obs::TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return x.depth < y.depth;
  });
  std::vector<size_t> open;
  for (const size_t i : order) {
    const obs::TraceEvent& ev = events[i];
    if (!open.empty() && events[open.back()].tid != ev.tid) open.clear();
    while (!open.empty() && events[open.back()].end_ns <= ev.start_ns) {
      open.pop_back();
    }
    if (!open.empty() && ev.end_ns <= events[open.back()].end_ns) {
      const uint64_t child = ev.end_ns - ev.start_ns;
      uint64_t& parent = self[open.back()];
      parent -= std::min(parent, child);
    }
    open.push_back(i);
  }
  return self;
}

}  // namespace deepdirect::perfbench
