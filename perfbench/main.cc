// perfbench: runs one workload of the end-to-end DeepDirect benchmark and
// prints its metrics. See README.md; run.py builds this binary and is the
// entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir D] [--trace-out F] [--tiny]
//
// Human-readable lines start with '#'. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/trace_buffer.h"
#include "pipeline.h"

namespace {

using deepdirect::perfbench::Metric;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir D] [--trace-out F] [--tiny]\n");
  return 2;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef M_MMAP_THRESHOLD
  // A fixed threshold turns off glibc's adaptive one, under which freed
  // blocks of 128 KiB-32 MiB may stay in the heap depending on which thread
  // freed what first. With it, blocks from 1 MiB up go back to the system
  // when freed, so peak_rss_mb tracks the program's live memory: on
  // fit-oocore the adaptive threshold made it read 100 or 112-116 MB from
  // run to run, the fixed one 87 +/- 0.4 MB.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
  deepdirect::perfbench::RunOptions options;
  options.work_dir = ".bench_build/work";
  std::string trace_out;  // Chrome trace of every span, written at exit
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) return Usage();

  const auto result = deepdirect::perfbench::RunWorkload(options);

  std::printf("# manifest %s\n", result.manifest_json.c_str());
  for (const auto* metrics : {&result.end_to_end, &result.shown}) {
    for (const Metric& m : *metrics) {
      std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  std::printf("# %-34s %14.6g fraction (%llu of %llu operations failed)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (options.trace) {
    for (const Metric& m : result.per_layer) {
      std::printf("# %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& note : result.notes) {
    std::printf("# note: %s\n", note.c_str());
  }

  if (options.trace && !trace_out.empty()) {
    std::string trace =
        deepdirect::obs::TraceBuffer::Default().ToChromeTraceJson();
    trace.insert(1, "\"manifest\": " + result.manifest_json + ", ");
    std::ofstream out(trace_out);
    out << trace;
    if (!out) std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(options.trace ? result.per_layer : result.end_to_end)
                  .c_str());
  return 0;
}
