// Google-benchmark microbenchmarks for the hot primitives: alias sampling,
// connected-tie sampling, triad census, BFS, tie-index construction,
// E-Step iteration throughput (via a tiny training run), line-graph
// construction (the size-blowup argument of Sec. 4), the container CRC32
// and checkpoint overhead.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "../tests/crc32_reference.h"
#include "../tests/temp_dir.h"
#include "bench_common.h"
#include "core/deepdirect.h"
#include "core/tie_index.h"
#include "data/datasets.h"
#include "embedding/line.h"
#include "graph/algorithms.h"
#include "graph/centrality.h"
#include "graph/line_graph.h"
#include "graph/triads.h"
#include "train/checkpoint.h"
#include "util/alias_table.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace deepdirect;

// Session owned by main(); BM bodies add structured measurements through
// it (null only if a BM were invoked outside main, which cannot happen).
bench::BenchSession* g_session = nullptr;

const graph::MixedSocialNetwork& BenchNetwork() {
  static const graph::MixedSocialNetwork* net = [] {
    return new graph::MixedSocialNetwork(
        data::MakeDataset(data::DatasetId::kSlashdot, 0.5));
  }();
  return *net;
}

void BM_AliasTableSample(benchmark::State& state) {
  const auto& net = BenchNetwork();
  std::vector<double> weights(net.num_arcs());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = net.TieDegree(static_cast<graph::ArcId>(i)) + 1.0;
  }
  const util::AliasTable table(weights);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_AliasTableBuild(benchmark::State& state) {
  const auto& net = BenchNetwork();
  std::vector<double> weights(net.num_arcs());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = net.TieDegree(static_cast<graph::ArcId>(i)) + 1.0;
  }
  for (auto _ : state) {
    util::AliasTable table(weights);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_AliasTableBuild);

void BM_SampleConnectedTie(benchmark::State& state) {
  const auto& net = BenchNetwork();
  const core::TieIndex index(net);
  util::Rng rng(3);
  size_t arc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.SampleConnectedTie(arc, rng));
    arc = (arc + 1) % index.num_arcs();
  }
}
BENCHMARK(BM_SampleConnectedTie);

void BM_TieIndexBuild(benchmark::State& state) {
  const auto& net = BenchNetwork();
  for (auto _ : state) {
    core::TieIndex index(net);
    benchmark::DoNotOptimize(index.num_arcs());
  }
}
BENCHMARK(BM_TieIndexBuild);

void BM_DirectedTriadCounts(benchmark::State& state) {
  const auto& net = BenchNetwork();
  graph::ArcId arc = 0;
  for (auto _ : state) {
    const auto& a = net.arc(arc);
    benchmark::DoNotOptimize(graph::DirectedTriadCounts(net, a.src, a.dst));
    arc = (arc + 1) % static_cast<graph::ArcId>(net.num_arcs());
  }
}
BENCHMARK(BM_DirectedTriadCounts);

void BM_BfsDistances(benchmark::State& state) {
  const auto& net = BenchNetwork();
  graph::NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BfsDistances(net, source));
    source = (source + 1) % static_cast<graph::NodeId>(net.num_nodes());
  }
}
BENCHMARK(BM_BfsDistances);

void BM_SampledBetweenness(benchmark::State& state) {
  const auto& net = BenchNetwork();
  for (auto _ : state) {
    util::Rng rng(5);
    benchmark::DoNotOptimize(
        graph::BetweennessCentralitySampled(net, 16, rng));
  }
}
BENCHMARK(BM_SampledBetweenness);

void BM_LineGraphBuild(benchmark::State& state) {
  const auto& net = BenchNetwork();
  for (auto _ : state) {
    const auto line = graph::BuildLineGraph(net);
    benchmark::DoNotOptimize(line.edges.size());
  }
  state.counters["edges"] =
      static_cast<double>(graph::PredictLineGraphSize(net));
}
BENCHMARK(BM_LineGraphBuild);

void BM_DeepDirectEStepIterations(benchmark::State& state) {
  // Measures E-Step throughput: a fixed small iteration budget per run.
  const auto& net = BenchNetwork();
  core::DeepDirectConfig config;
  config.dimensions = 64;
  config.negative_samples = 5;
  for (auto _ : state) {
    // epochs chosen so one run is ~0.1 |C(G)| iterations.
    config.epochs = 0.1;
    auto model = core::DeepDirectModel::Train(net, config);
    benchmark::DoNotOptimize(model->embeddings().rows());
  }
  const core::TieIndex index(net);
  state.counters["iters_per_run"] =
      0.1 * static_cast<double>(index.NumConnectedTiePairs());
}
BENCHMARK(BM_DeepDirectEStepIterations)->Unit(benchmark::kMillisecond);

// Shared CSV for the worker-scaling rows (one row per worker count).
util::CsvWriter& ThreadsThroughputCsv() {
  static util::CsvWriter csv = [] {
    util::CsvWriter writer(bench::OpenResultCsv("micro_threads_throughput"));
    writer.WriteRow({"threads", "steps_per_sec"});
    return writer;
  }();
  return csv;
}

void BM_DeepDirectEStepThreads(benchmark::State& state) {
  // E-Step steps/sec against Hogwild worker count. Speedup is bounded by
  // the host's core count; the CSV records whatever this machine delivers.
  const auto& net = BenchNetwork();
  core::DeepDirectConfig config;
  config.dimensions = 64;
  config.negative_samples = 5;
  config.epochs = 0.1;
  config.num_threads = static_cast<size_t>(state.range(0));
  const core::TieIndex index(net);
  const double iters_per_run =
      config.epochs * static_cast<double>(index.NumConnectedTiePairs());

  util::Timer timer;
  for (auto _ : state) {
    auto model = core::DeepDirectModel::Train(net, config);
    benchmark::DoNotOptimize(model->embeddings().rows());
  }
  const double elapsed = timer.ElapsedSeconds();
  const double total_steps =
      iters_per_run * static_cast<double>(state.iterations());
  state.counters["steps_per_sec"] =
      benchmark::Counter(total_steps, benchmark::Counter::kIsRate);
  if (elapsed > 0.0) {
    ThreadsThroughputCsv().WriteRow(
        {std::to_string(state.range(0)),
         std::to_string(total_steps / elapsed)});
    if (g_session != nullptr) {
      g_session->Add("estep_steps_per_sec", "steps/sec", "higher",
                     total_steps / elapsed,
                     {{"threads", std::to_string(state.range(0))}});
    }
  }
}
BENCHMARK(BM_DeepDirectEStepThreads)
    ->Apply([](benchmark::internal::Benchmark* b) {
      // Fast mode trims the worker sweep; full mode measures the scaling
      // curve even past the host's core count.
      for (int threads : bench::BenchFast() ? std::vector<int>{1, 2}
                                            : std::vector<int>{1, 2, 4, 8}) {
        b->Arg(threads);
      }
      b->Iterations(1)->Unit(benchmark::kMillisecond);
    });

// Shared CSV for the preprocessing worker-scaling rows.
util::CsvWriter& PreprocessThreadsCsv() {
  static util::CsvWriter csv = [] {
    util::CsvWriter writer(
        bench::OpenResultCsv("preprocess_threads_throughput"));
    writer.WriteRow({"threads", "seconds", "speedup_vs_1"});
    return writer;
  }();
  return csv;
}

void BM_PreprocessThreads(benchmark::State& state) {
  // One full preprocessing sweep — graph build from the arc list, pattern
  // precompute, sampled closeness + betweenness — per iteration, against
  // the deterministic worker count. Output is bit-identical at any thread
  // count, so this measures pure scheduling/scaling overhead. Speedup is
  // bounded by the host's core count.
  const auto& net = BenchNetwork();
  const size_t threads = static_cast<size_t>(state.range(0));
  const core::TieIndex index(net);
  core::DeepDirectConfig config;
  config.num_threads = threads;
  constexpr size_t kPivots = 128;
  {
    // Warm the shared preprocessing pool so the one-time thread spawn is
    // not charged to the first timed sweep.
    util::Rng warm(1);
    graph::ClosenessCentralitySampled(net, 2, warm, threads);
  }

  double seconds = 0.0;
  for (auto _ : state) {
    // Tie ingestion (AddTie) is inherently serial input prep, not part of
    // the parallel pipeline under test — keep it off the clock.
    state.PauseTiming();
    graph::GraphBuilder builder(net.num_nodes());
    for (graph::ArcId id = 0; id < net.num_arcs(); ++id) {
      const auto& arc = net.arc(id);
      if (arc.type != graph::TieType::kDirected && arc.src > arc.dst) {
        continue;
      }
      benchmark::DoNotOptimize(builder.AddTie(arc.src, arc.dst, arc.type));
    }
    builder.SetNumThreads(threads);
    state.ResumeTiming();

    util::Timer timer;
    const auto rebuilt = std::move(builder).Build();
    benchmark::DoNotOptimize(rebuilt.num_arcs());

    const auto patterns = core::PrecomputePatterns(net, index, config);
    benchmark::DoNotOptimize(patterns.triad_pairs.size());

    util::Rng rng(7);
    benchmark::DoNotOptimize(
        graph::ClosenessCentralitySampled(net, kPivots, rng, threads));
    benchmark::DoNotOptimize(
        graph::BetweennessCentralitySampled(net, kPivots, rng, threads));
    seconds += timer.ElapsedSeconds();
  }
  const double elapsed = seconds / static_cast<double>(state.iterations());

  // Keyed on the serial run having gone first (Arg order below).
  static double serial_seconds = 0.0;
  if (threads == 1) serial_seconds = elapsed;
  const double speedup =
      (elapsed > 0.0 && serial_seconds > 0.0) ? serial_seconds / elapsed
                                              : 0.0;
  state.counters["speedup_vs_1"] = speedup;
  PreprocessThreadsCsv().WriteRow({std::to_string(state.range(0)),
                                   std::to_string(elapsed),
                                   std::to_string(speedup)});
  if (g_session != nullptr) {
    g_session->Add("preprocess_seconds", "seconds", "lower", elapsed,
                   {{"threads", std::to_string(state.range(0))}});
  }
}
BENCHMARK(BM_PreprocessThreads)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int threads : bench::BenchFast() ? std::vector<int>{1, 2}
                                            : std::vector<int>{1, 2, 4, 8}) {
        b->Arg(threads);
      }
      b->Iterations(bench::BenchFast() ? 2 : 20)
          ->Unit(benchmark::kMillisecond);
    });

void BM_LineEmbeddingEpoch(benchmark::State& state) {
  const auto& net = BenchNetwork();
  embedding::LineConfig config;
  config.dimensions = 64;
  config.samples_per_arc = 1;
  for (auto _ : state) {
    auto line = embedding::LineEmbedding::Train(net, config);
    benchmark::DoNotOptimize(line.dimensions());
  }
}
BENCHMARK(BM_LineEmbeddingEpoch)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  // Throughput of train::Crc32, which every container write and open runs
  // over the whole image, on a 24 MB buffer (about one E-step checkpoint's
  // M or N at tencent scale 4), plus an exactness check against the
  // byte-at-a-time reference loop.
  constexpr size_t kBytes = size_t{24} << 20;
  std::vector<unsigned char> buffer(kBytes);
  util::Rng rng(7);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng.Next());

  uint32_t crc = 0;
  util::Timer timer;
  for (auto _ : state) {
    crc = train::Crc32(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(crc);
  }
  const double seconds = timer.ElapsedSeconds();
  const double bytes = static_cast<double>(kBytes) *
                       static_cast<double>(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  const bool matches = crc == deepdirect::testing::ReferenceCrc32(
                                  buffer.data(), buffer.size());
  state.counters["matches_reference"] = matches ? 1.0 : 0.0;
  if (g_session != nullptr) {
    // Throughput depends on the host, so it is informational; exactness
    // is gated.
    g_session->Add("crc32_gbytes_per_sec", "GB/s", "none",
                   seconds > 0.0 ? bytes / seconds / 1e9 : 0.0, {});
    g_session->Add("crc32_matches_reference", "bool", "higher",
                   matches ? 1.0 : 0.0, {});
  }
}
BENCHMARK(BM_Crc32)
    ->Iterations(bench::BenchFast() ? 5 : 20)
    ->Unit(benchmark::kMillisecond);

// Shared CSV for the checkpoint-overhead rows (one per write cadence).
util::CsvWriter& CheckpointOverheadCsv() {
  static util::CsvWriter csv = [] {
    util::CsvWriter writer(bench::OpenResultCsv("checkpoint_overhead"));
    writer.WriteRow({"checkpoint_every_epochs", "seconds_per_run",
                     "bytes_per_checkpoint", "overhead_vs_off"});
    return writer;
  }();
  return csv;
}

void BM_CheckpointOverhead(benchmark::State& state) {
  // Wall-clock cost the checkpoint layer adds to a training run: LINE over
  // a fixed 4-epoch budget, checkpointing every Arg(0) epochs (0 = off,
  // the baseline row). The serialized state is the four embedding/context
  // matrices — the same shape every production trainer snapshots.
  const auto& net = BenchNetwork();
  embedding::LineConfig config;
  config.dimensions = 64;
  config.samples_per_arc = 5;  // 5 epochs of num_arcs steps
  const uint64_t every = static_cast<uint64_t>(state.range(0));
  // A per-process mkdtemp directory, removed at exit, so concurrent bench
  // runs never share checkpoint files.
  const std::string dir = deepdirect::testing::TempPath("bench_ckpt");
  if (every > 0) {
    config.checkpoint.dir = dir;
    config.checkpoint.policy.every_n_epochs = every;
    config.checkpoint.policy.keep_last = 1;
  }

  util::Timer timer;
  for (auto _ : state) {
    std::filesystem::remove_all(dir);
    auto line = embedding::LineEmbedding::Train(net, config);
    benchmark::DoNotOptimize(line.dimensions());
  }
  const double seconds =
      timer.ElapsedSeconds() / static_cast<double>(state.iterations());

  uintmax_t checkpoint_bytes = 0;
  if (every > 0 && std::filesystem::exists(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      checkpoint_bytes += entry.file_size();
    }
    std::filesystem::remove_all(dir);
  }
  state.counters["bytes_per_checkpoint"] =
      static_cast<double>(checkpoint_bytes);

  // The cadence-0 row runs first (benchmark args are ordered) and anchors
  // the overhead ratio for the others.
  static double baseline_seconds = 0.0;
  if (every == 0) baseline_seconds = seconds;
  const double overhead =
      baseline_seconds > 0.0 ? seconds / baseline_seconds - 1.0 : 0.0;
  state.counters["overhead_vs_off"] = overhead;
  CheckpointOverheadCsv().WriteRow(
      {std::to_string(every), std::to_string(seconds),
       std::to_string(checkpoint_bytes), std::to_string(overhead)});
  if (g_session != nullptr) {
    g_session->Add("checkpoint_run_seconds", "seconds", "lower", seconds,
                   {{"checkpoint_every_epochs", std::to_string(every)}});
    g_session->Add("checkpoint_bytes", "bytes", "none",
                   static_cast<double>(checkpoint_bytes),
                   {{"checkpoint_every_epochs", std::to_string(every)}});
  }
}
BENCHMARK(BM_CheckpointOverhead)
    ->Apply([](benchmark::internal::Benchmark* b) {
      // Cadence 0 (off) must stay first: it anchors the overhead ratio.
      for (int every : bench::BenchFast() ? std::vector<int>{0, 1}
                                          : std::vector<int>{0, 4, 2, 1}) {
        b->Arg(every);
      }
      b->Iterations(bench::BenchFast() ? 1 : 3)
          ->Unit(benchmark::kMillisecond);
    });

}  // namespace

// Expanded BENCHMARK_MAIN so the session brackets the run (DD_BENCH_*
// outputs + the BENCH_micro.json report).
int main(int argc, char** argv) {
  deepdirect::bench::BenchSession session("micro");
  g_session = &session;
  // Fast mode also caps google benchmark's auto-tuned repetition budget so
  // the convergence-timed BMs finish in smoke time; an explicit
  // --benchmark_min_time on the command line still wins.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.05";
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
      has_min_time = true;
    }
  }
  if (deepdirect::bench::BenchFast() && !has_min_time) {
    args.push_back(min_time.data());
  }
  int args_count = static_cast<int>(args.size());
  ::benchmark::Initialize(&args_count, args.data());
  if (::benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return session.Finish(1);
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return session.Finish(0);
}
