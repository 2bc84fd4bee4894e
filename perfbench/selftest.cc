// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// open-loop accounting, and span self time. `python3 perfbench/run.py
// --self-test` runs this binary, then every workload shrunk with --tiny in
// both trace modes to check each emits exactly the metrics BENCHMARK.json
// names. Runs every check; exits non-zero if any failed.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "stats.h"

namespace {

using namespace deepdirect::perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Percentile(v, 99.0) == 99.0, "nearest-rank p99 of 1..100 is 99");
  Expect(Percentile(v, 50.0) == 50.0, "nearest-rank p50 of 1..100 is 50");
  Expect(Percentile(v, 100.0) == 100.0, "p100 is the maximum");
  Expect(Median({3, 1, 2}) == 2.0, "odd median");
  Expect(Median({4, 1, 2, 3}) == 2.5, "even median");
  // The highest percentile with at least ten samples beyond it.
  Expect(HighestResolvablePercentile(10000) == 99.9, "10000 samples: p99.9");
  Expect(HighestResolvablePercentile(9999) == 99.0, "9999 samples: p99");
  Expect(HighestResolvablePercentile(1000) == 99.0, "1000 samples: p99");
  Expect(HighestResolvablePercentile(999) == 90.0, "999 samples: p90");
  Expect(HighestResolvablePercentile(20) == 50.0, "20 samples: p50");
  Expect(HighestResolvablePercentile(19) == 0.0, "19 samples: none");
}

// A stand-in server over the paced stream: it answers every line at once,
// except that it stalls for 5 ms on line 50. Open-loop accounting must
// charge the stall to every request that fell due during it.
void TestOpenLoopStall() {
  LinePool pool;
  for (int i = 0; i < 200; ++i) pool.Add("1 2\n");
  RungBuffers buffers;
  buffers.Reserve(200, 4096);
  const double interval_ns = 100000.0;  // 10k lines/s
  const uint64_t start = NowNs() + 1000000;
  PacedSource source(pool, 0, 200, start, interval_ns, buffers);
  StampingSink sink(buffers);
  std::istream in(&source);
  std::ostream out(&sink);
  std::string line;
  for (int i = 0; std::getline(in, line); ++i) {
    if (i == 50) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    out << "0.5\n";
    out.flush();
  }
  const OpenLoopSample s = Account(source, buffers, start);
  Expect(s.latency_us.size() == 200, "one latency per request");
  Expect(buffers.text.size() == 200 * 4, "every response kept");
  Expect(s.latency_us[50] >= 5000.0, "the stalled request waits the stall");
  // Line 51 fell due 100 us into the stall, line 80 3 ms into it.
  Expect(s.latency_us[51] >= 4800.0, "the next request absorbs the stall");
  Expect(s.latency_us[80] >= 1900.0, "requests due during the stall wait");
  Expect(s.queue_wait_us[51] >= 4800.0, "queue wait of a request behind it");
  Expect(s.queue_wait_us[10] == 0.0, "no queue wait before the stall");
  std::vector<double> before(s.latency_us.begin(), s.latency_us.begin() + 40);
  Expect(Median(before) < 1000.0, "requests before the stall are fast");
  Expect(s.elapsed_s >= 199 * interval_ns * 1e-9, "elapsed spans the schedule");
}

void TestSelfTime() {
  using deepdirect::obs::TraceEvent;
  // Thread 1: a [0,100] holds b [10,40] (which holds d [15,20]) and
  // c [50,60]. Thread 2: e [0,50] overlaps a in time but is not its child.
  const std::vector<TraceEvent> events = {
      {"a", 1, 0, 100, 0}, {"b", 1, 10, 40, 1}, {"c", 1, 50, 60, 1},
      {"d", 1, 15, 20, 2}, {"e", 2, 0, 50, 0},
  };
  const std::vector<uint64_t> self = SelfTimes(events);
  Expect(self[0] == 60, "a: 100 minus children b and c");
  Expect(self[1] == 25, "b: 30 minus its child d");
  Expect(self[2] == 10, "c: leaf");
  Expect(self[3] == 5, "d: leaf");
  Expect(self[4] == 50, "e: other thread, untouched");
  const auto layers = LayerSelfSeconds(events, [](const std::string& name) {
    return name == "e" ? std::string() : std::string(name == "a" ? "x" : "y");
  });
  Expect(layers.size() == 2, "two layers, e left out");
  Expect(std::abs(layers.at("x") - 60e-9) < 1e-15 &&
             std::abs(layers.at("y") - 40e-9) < 1e-15,
         "layer self times sum their spans");
  // Self times partition the top span: nothing counted twice or lost.
  Expect(self[0] + self[1] + self[2] + self[3] == 100, "self times add up");
}

}  // namespace

int main() {
  TestPercentiles();
  TestOpenLoopStall();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
