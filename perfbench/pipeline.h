// The benchmark's workloads: one DeepDirect session each, from generated
// inputs through set-up, training, tie-batch updates, export, and an
// open-loop serve session. The workloads share this one pipeline and differ
// in network size, thread count, epoch budget, trainer (in RAM or out of
// core) and how the run's seconds are split between training and serving;
// README.md records why each one exists.

#ifndef DEEPDIRECT_PERFBENCH_PIPELINE_H_
#define DEEPDIRECT_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace deepdirect::perfbench {

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;        ///< per-layer run (spans + registry on)
  std::string work_dir;      ///< scratch space for inputs and artifacts
  bool tiny = false;         ///< shrunken inputs for the self-test
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< measured with tracing off
  /// End-to-end numbers printed with the metrics but kept out of the
  /// result (too host-dependent to bound; see README.md).
  std::vector<Metric> shown;
  std::vector<Metric> per_layer;   ///< traced runs only
  std::string manifest_json;       ///< run manifest, one JSON object
  std::vector<std::string> notes;  ///< why a check failed, flags, ...
};

/// Runs one workload; an unknown name or an input/IO error yields a result
/// with correct = false and a note.
RunResult RunWorkload(const RunOptions& options);

}  // namespace deepdirect::perfbench

#endif  // DEEPDIRECT_PERFBENCH_PIPELINE_H_
