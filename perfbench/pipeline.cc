#include "pipeline.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "bench_report.h"
#include "core/applications.h"
#include "core/deepdirect.h"
#include "core/incremental.h"
#include "core/models.h"
#include "core/sharded_trainer.h"
#include "core/tie_index.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "graph/algorithms.h"
#include "graph/graph_io.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "open_loop.h"
#include "serve/servable_model.h"
#include "serve/server.h"
#include "stats.h"
#include "train/hogwild.h"
#include "train/incremental.h"
#include "train/parallel.h"
#include "train/sharded_store.h"
#include "util/alias_table.h"
#include "util/random.h"

namespace deepdirect::perfbench {

namespace {

namespace fs = std::filesystem;

// What sets one workload apart from another; see README.md for the why.
struct Spec {
  const char* name;
  double scale;      // Tencent generator scale
  double steps;      // E-step steps of the timed fit (sets τ per seed)
  bool out_of_core;  // timed fit is ShardedDeepDirectModel::Train
  // Hogwild workers, at most nproc; 0 = single-threaded (deterministic)
  // work, run as one replica per core at once.
  size_t threads;
};

constexpr Spec kSpecs[] = {
    {"fit-small", 0.25, 5e5, false, 0},
    {"fit-large", 4.0, 6e5, false, 2},
    {"fit-oocore", 1.0, 2e4, true, 2},
};

constexpr double kDirectedKept = 0.4;     // hide 60% of directed ties
constexpr double kTailFraction = 0.01;    // ties streamed in as updates
constexpr size_t kNumBatches = 3;
constexpr size_t kOocoreShards = 4;
constexpr double kOocoreBudgetShards = 3.5;  // resident budget, in shards
constexpr double kTwinEpochs = 1.0;       // fit-oocore's in-RAM twin
constexpr double kUpdateEpochsPerBatch = 0.25;
constexpr size_t kArtifactSamples = 1024;
constexpr size_t kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 0.3;
constexpr double kMinFitSeconds = 1.0;
constexpr size_t kMinRounds = 3;
constexpr size_t kMinTracedRounds = 4;
constexpr size_t kMaxRounds = 50;
constexpr size_t kOpenReps = 5;
constexpr double kMinUpdateSeconds = 0.25;

// Serving: Zipf(s=1) keys over arcs, one 64-pair line in every 64.
constexpr size_t kPoolLines = 1 << 16;
constexpr size_t kBatchEvery = 64;
constexpr size_t kBatchPairs = 64;
constexpr size_t kCacheSlots = 4096;
constexpr double kLadder[] = {50e3, 1e5, 2e5, 4e5, 8e5, 1.6e6, 3.2e6, 6.4e6};
// Low enough that even a 64-pair line is served before the next line of
// its stream falls due, so reference latency is service time, not the
// knife edge where one slow line starts a queue.
constexpr double kReferenceRate = 15e3;
// On the rung's p99; well above service times, so only queueing or a
// growing backlog, not a sub-millisecond host stall, fails a rung.
constexpr double kLatencyLimitUs = 2000.0;
constexpr double kGenLateLimitUs = 50.0;   // generator p99 lateness flag
constexpr int kBisectSteps = 4;
constexpr size_t kDrainLines = 60000;
constexpr double kRungSeconds = 0.08;
constexpr size_t kMinRungLines = 5000;
// A reference rung: two windows of 1200 requests over all streams (a p99
// needs 1000). Latency moves from rung to rung more than within one (each
// rung places its streams on cores afresh), so a serve sample runs several
// short reference rungs rather than one long one.
constexpr size_t kReferenceLines = 2400;
constexpr size_t kReferenceWindows = 2;
constexpr size_t kReferenceRungsPerSample = 3;
constexpr size_t kMaxRungLines = 240000;
constexpr size_t kRungWindows = 5;  // windows of a judged ladder rung

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return train::PerItemSeed(seed, stream);
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Runs fn(r) for every r < n at once: r = 0 on the calling thread, the
// rest on their own threads.
template <typename Fn>
void OnReplicas(size_t n, Fn&& fn) {
  std::vector<std::thread> threads;
  for (size_t r = 1; r < n; ++r) threads.emplace_back(fn, r);
  fn(size_t{0});
  for (std::thread& t : threads) t.join();
}

size_t Cores() { return std::max(1u, std::thread::hardware_concurrency()); }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// --- Tracing ---------------------------------------------------------------

void SetTracing(bool on) {
  obs::Registry::Default().set_enabled(on);
  obs::TraceBuffer::Default().set_enabled(on);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Layer of a span recorded during a fit. Train's own phase spans are read
// as the program emits them; bench.* spans wrap the calls this file makes.
std::string FitLayerOf(const std::string& name) {
  if (name == "deepdirect.preprocess" ||
      name == "deepdirect.sharded.preprocess") {
    return "core.tie_index";
  }
  if (name == "deepdirect.preprocess.patterns") return "core.patterns";
  if (name == "deepdirect.estep" || name == "deepdirect.sharded.estep" ||
      StartsWith(name, "train.deepdirect.estep") ||
      StartsWith(name, "train.deepdirect.sharded.estep")) {
    return "core.estep";
  }
  if (name == "deepdirect.dstep" || name == "deepdirect.sharded.dstep" ||
      StartsWith(name, "train.deepdirect.dstep")) {
    return "core.dstep";
  }
  if (name == "checkpoint.write") return "train.checkpoint_write";
  if (name == "deepdirect.sharded.create_store") return "train.store.create";
  if (name == "bench.export") return "core.export";
  return "unattributed";
}

// The spans recorded since `since_ns` (trace clock), minus the per-worker
// spans: those overlap the main thread's phases and stay out of the
// self-time tree.
std::vector<obs::TraceEvent> PhaseSpans(uint64_t since_ns) {
  std::vector<obs::TraceEvent> events = obs::TraceBuffer::Default().Events();
  std::erase_if(events, [&](const obs::TraceEvent& e) {
    return e.start_ns < since_ns ||
           e.name.find(".worker ") != std::string::npos;
  });
  return events;
}

// --- Inputs ----------------------------------------------------------------

struct TailSplit {
  graph::MixedSocialNetwork base;
  std::vector<train::TieBatch> batches;
};

// Splits kTailFraction of the ties off as kNumBatches update batches, the
// rest is the network the timed fit trains on (bench_incremental's split).
TailSplit SplitTail(const graph::MixedSocialNetwork& g, uint64_t seed) {
  std::vector<train::TieDelta> ties = core::ExtractTies(g);
  std::vector<size_t> order(ties.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(seed);
  rng.Shuffle(order);
  const size_t num_tail = std::max<size_t>(
      kNumBatches, static_cast<size_t>(kTailFraction * ties.size()));
  std::vector<uint8_t> in_tail(ties.size(), 0);
  for (size_t i = 0; i < num_tail; ++i) in_tail[order[i]] = 1;
  graph::GraphBuilder builder(g.num_nodes());
  for (size_t i = 0; i < ties.size(); ++i) {
    if (!in_tail[i]) (void)builder.AddTie(ties[i].u, ties[i].v, ties[i].type);
  }
  TailSplit out{std::move(builder).Build(), {}};
  out.batches.resize(kNumBatches);
  for (size_t i = 0; i < num_tail; ++i) {
    train::TieDelta tie = ties[order[i]];
    train::TieBatch& batch = out.batches[i % kNumBatches];
    tie.line = static_cast<uint32_t>(batch.ties.size() + 1);
    batch.ties.push_back(tie);
  }
  return out;
}

bool WriteBatch(const train::TieBatch& batch, const std::string& path) {
  std::ofstream out(path);
  for (const train::TieDelta& t : batch.ties) {
    const char type = t.type == graph::TieType::kDirected        ? 'd'
                      : t.type == graph::TieType::kBidirectional ? 'b'
                                                                 : 'u';
    out << t.u << ' ' << t.v << ' ' << type << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<std::tuple<uint32_t, uint32_t, int>> SortedTies(
    const graph::MixedSocialNetwork& g) {
  std::vector<std::tuple<uint32_t, uint32_t, int>> out;
  for (const train::TieDelta& t : core::ExtractTies(g)) {
    uint32_t u = t.u, v = t.v;
    if (t.type != graph::TieType::kDirected && u > v) std::swap(u, v);
    out.emplace_back(u, v, static_cast<int>(t.type));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Eq. 28 accuracy over the hidden ties `model` knows (the timed fit trains
// on the network minus the update tail); the same rule as
// core::DirectionDiscoveryAccuracy.
double AccuracyOnKnown(const graph::HiddenDirectionSplit& split,
                       const core::DirectionalityModel& model) {
  double correct = 0.0;
  size_t total = 0;
  for (const graph::ArcId id : split.hidden_true_arcs) {
    const graph::Arc& a = split.network.arc(id);
    const auto forward = model.TryDirectionality(a.src, a.dst);
    const auto backward = model.TryDirectionality(a.dst, a.src);
    if (!forward.ok() || !backward.ok()) continue;
    if (forward.value() > backward.value()) {
      correct += 1.0;
    } else if (forward.value() == backward.value()) {
      correct += 0.5;
    }
    ++total;
  }
  return total == 0 ? 0.0 : correct / static_cast<double>(total);
}

// --- Serving ---------------------------------------------------------------

std::string Render(double value) {
  if (std::isnan(value)) return "NA";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

// Request lines over the model's arcs (Zipf(s=1) over a seeded arc
// ranking), the pairs of each line, and the byte-exact expected response
// of each line rendered from ServableModel::Query.
struct Traffic {
  LinePool requests;
  LinePool expected;
  std::vector<std::vector<serve::TiePair>> pairs;
  size_t total_pairs = 0;
};

Traffic MakeTraffic(const core::TieIndex& index, uint64_t seed) {
  const size_t arcs = index.num_arcs();
  std::vector<uint32_t> rank(arcs);
  std::iota(rank.begin(), rank.end(), 0);
  util::Rng rng(seed);
  rng.Shuffle(rank);
  std::vector<double> weights(arcs);
  for (size_t r = 0; r < arcs; ++r) weights[r] = 1.0 / static_cast<double>(r + 1);
  const util::AliasTable zipf(weights);

  Traffic traffic;
  traffic.pairs.resize(kPoolLines);
  for (size_t i = 0; i < kPoolLines; ++i) {
    const size_t n = (i % kBatchEvery == kBatchEvery - 1) ? kBatchPairs : 1;
    std::string line;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t arc = rank[zipf.Sample(rng)];
      const serve::TiePair pair{index.Sources()[arc], index.Adjacency()[arc]};
      traffic.pairs[i].push_back(pair);
      if (k != 0) line += ' ';
      line += std::to_string(pair.u) + ' ' + std::to_string(pair.v);
    }
    traffic.requests.Add(line + '\n');
    traffic.total_pairs += n;
  }
  return traffic;
}

bool FillExpected(const serve::ServableModel& model, Traffic& traffic) {
  for (const auto& pairs : traffic.pairs) {
    std::string line;
    for (size_t k = 0; k < pairs.size(); ++k) {
      const auto value = model.Query(pairs[k].u, pairs[k].v);
      if (!value.ok()) return false;
      if (k != 0) line += ' ';
      line += Render(value.value());
    }
    traffic.expected.Add(line + '\n');
  }
  return true;
}

struct Rung {
  OpenLoopSample sample;
  uint64_t mismatches = 0;
  uint64_t lines = 0;
};

// One paced RunServeLoop over `count` pool lines from `first` at `rate`
// lines/s (0 = all due at once), with every response checked byte for
// byte against the expected rendering.
Rung RunRung(const serve::ServableModel& model, const Traffic& traffic,
             size_t first, size_t count, double rate, uint64_t start,
             RungBuffers& buffers) {
  buffers.Clear();
  StampingSink sink(buffers);
  PacedSource source(traffic.requests, first, count, start,
                     rate > 0.0 ? 1e9 / rate : 0.0, buffers);
  std::istream in(&source);
  std::ostream out(&sink);
  serve::RunServeLoop(model, in, out);

  Rung rung;
  rung.sample = Account(source, buffers, start);
  rung.lines = count;
  const std::string& text = buffers.text;
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t line = (first + i) % traffic.requests.size();
    const size_t begin = traffic.expected.offsets[line];
    const size_t len = traffic.expected.offsets[line + 1] - begin;
    if (pos + len > text.size() ||
        text.compare(pos, len, traffic.expected.text, begin, len) != 0) {
      ++rung.mismatches;
      const size_t eol = text.find('\n', pos);
      pos = eol == std::string::npos ? text.size() : eol + 1;
    } else {
      pos += len;
    }
  }
  if (rung.sample.latency_us.size() != count) {
    rung.mismatches += count - std::min(count, rung.sample.latency_us.size());
  }
  return rung;
}

// One paced run on each of buffers.size() concurrent streams (threads),
// each serving `count` lines at `rate` from its own offset in the pool,
// all on one schedule starting 2 ms from now.
std::vector<Rung> RunStreams(const serve::ServableModel& model,
                             const Traffic& traffic, size_t count, double rate,
                             util::Rng& rng,
                             std::vector<RungBuffers>& buffers) {
  const size_t n = buffers.size();
  std::vector<size_t> first(n);
  for (size_t& f : first) f = rng.NextIndex(traffic.requests.size());
  std::vector<Rung> rungs(n);
  const uint64_t start = NowNs() + 2000000;
  std::vector<std::thread> threads;
  for (size_t i = 1; i < n; ++i) {
    threads.emplace_back([&, i] {
      rungs[i] = RunRung(model, traffic, first[i], count, rate, start, buffers[i]);
    });
  }
  rungs[0] = RunRung(model, traffic, first[0], count, rate, start, buffers[0]);
  for (std::thread& t : threads) t.join();
  return rungs;
}

// The open-loop serve measurement, sampled between the other phases so
// that it spreads over the whole run and averages over slow swings in the
// host's speed; each measurement reports a median. A sample is a few rungs
// at the low reference rate, each followed by a saturation drain. Traced
// runs also search for the highest sustainable rate: the search walks the
// fixed rate ladder up to the first rung that misses the p99 limit or
// builds a backlog, bisects (in log space) between the last passing and
// first failing rung, and interpolates p99 onto the limit (log-log); a
// drain follows every judged rung.
class ServeMeter {
 public:
  // One serving stream per entry of `buffers`; rates are totals over all.
  ServeMeter(const serve::ServableModel& model, const Traffic& traffic,
             uint64_t seed, std::vector<RungBuffers>& buffers)
      : model_(model), traffic_(traffic), rng_(seed), buffers_(buffers) {}

  void Sample() {
    for (size_t i = 0; i < kReferenceRungsPerSample; ++i) {
      Reference();
      Drain();
    }
  }
  void SearchMaxRate() { max_rps_.push_back(Search()); }

  const std::vector<double>& p50_samples() const { return ref_p50_; }
  const std::vector<double>& rps_samples() const { return rps_; }
  double p50_us() const { return Median(ref_p50_); }
  double p99_us() const { return Median(ref_p99_); }
  double queue_wait_p99_us() const { return Median(ref_wait_); }
  double max_rps() const { return Median(max_rps_); }
  double rps() const { return Median(rps_); }
  double gen_late_p99_us() const { return Median(gen_late_p99_); }
  uint64_t lines() const { return lines_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t flagged_rungs() const { return flagged_rungs_; }
  bool reference_measured() const { return !ref_p50_.empty(); }
  bool searched() const { return !max_rps_.empty(); }

 private:
  struct Outcome {
    bool pass = false;
    double p99 = 0.0;
  };

  // The w-th of `windows` consecutive time windows of a paced run, pooled
  // over the streams (they share one schedule). Statistics per window keep
  // one host stall from spoiling a whole rung.
  std::vector<double> Window(const std::vector<Rung>& rungs, size_t w,
                             size_t windows, bool queue_wait) const {
    std::vector<double> out;
    for (const Rung& rung : rungs) {
      const std::vector<double>& v =
          queue_wait ? rung.sample.queue_wait_us : rung.sample.latency_us;
      const size_t n = v.size();
      out.insert(out.end(), v.begin() + w * n / windows,
                 v.begin() + (w + 1) * n / windows);
    }
    return out;
  }

  // One paced run of `total` lines at `rate` lines/s over all streams,
  // re-run (at most twice more) while the generator itself ran late.
  // `on_time` reports whether the last attempt kept to schedule.
  std::vector<Rung> Paced(double rate, size_t total, bool* on_time = nullptr) {
    const double streams = static_cast<double>(buffers_.size());
    std::vector<Rung> rungs;
    for (int attempt = 0; attempt < 3; ++attempt) {
      rungs = RunStreams(model_, traffic_, total / buffers_.size(),
                         rate / streams, rng_, buffers_);
      std::vector<double> late;
      for (const Rung& rung : rungs) {
        lines_ += rung.lines;
        mismatches_ += rung.mismatches;
        late.insert(late.end(), rung.sample.gen_late_us.begin(),
                    rung.sample.gen_late_us.end());
      }
      if (rate == 0.0) break;
      const double late_p99 = Percentile(late, 99.0);
      gen_late_p99_.push_back(late_p99);
      if (on_time != nullptr) *on_time = late_p99 <= kGenLateLimitUs;
      if (late_p99 <= kGenLateLimitUs) break;
      ++flagged_rungs_;
    }
    return rungs;
  }

  // A reference rung whose generator stayed late through its re-runs is
  // left out: its numbers would measure the generator, not the server.
  void Reference() {
    bool on_time = false;
    const std::vector<Rung> ref = Paced(kReferenceRate, kReferenceLines, &on_time);
    for (size_t w = 0; on_time && w < kReferenceWindows; ++w) {
      const std::vector<double> latency = Window(ref, w, kReferenceWindows, false);
      ref_p50_.push_back(Percentile(latency, 50.0));
      // Only windows with ten samples beyond their p99 report one.
      if (HighestResolvablePercentile(latency.size()) < 99.0) continue;
      ref_p99_.push_back(Percentile(latency, 99.0));
      ref_wait_.push_back(
          Percentile(Window(ref, w, kReferenceWindows, true), 99.0));
    }
  }

  void Drain() {
    const std::vector<Rung> drain = Paced(0.0, kDrainLines);
    double elapsed = 0.0;
    uint64_t lines = 0;
    for (const Rung& rung : drain) {
      elapsed = std::max(elapsed, rung.sample.elapsed_s);
      lines += rung.lines;
    }
    rps_.push_back(static_cast<double>(lines) / elapsed);
  }

  // Judges a rate by the median of its windows' p99 and by whether the
  // last tenth of the rung still waits past the limit (a growing backlog).
  // A failing rung is re-run up to twice, so one host stall does not end
  // a ladder early.
  Outcome Judge(double rate) {
    Outcome o;
    for (int attempt = 0; attempt < 3 && !o.pass; ++attempt) {
      const size_t count = std::clamp<size_t>(
          static_cast<size_t>(rate * kRungSeconds), kMinRungLines,
          kMaxRungLines);
      const std::vector<Rung> rungs = Paced(rate, count);
      std::vector<double> p99s;
      for (size_t w = 0; w < kRungWindows; ++w) {
        p99s.push_back(Percentile(Window(rungs, w, kRungWindows, false), 99.0));
      }
      std::vector<double> tail;
      for (const Rung& rung : rungs) {
        const std::vector<double>& wait = rung.sample.queue_wait_us;
        tail.insert(tail.end(), wait.end() - wait.size() / 10, wait.end());
      }
      o.p99 = Median(p99s);
      o.pass = o.p99 <= kLatencyLimitUs && Median(tail) <= kLatencyLimitUs;
      Drain();
    }
    return o;
  }

  double Search() {
    double lo = 0.0, hi = 0.0, p99_lo = 0.0, p99_hi = 0.0;
    auto step = [&](double rate) {
      const Outcome o = Judge(rate);
      (o.pass ? lo : hi) = rate;
      (o.pass ? p99_lo : p99_hi) = o.p99;
      return o.pass;
    };
    for (const double rate : kLadder) {
      if (!step(rate)) break;
    }
    if (lo == 0.0 || hi == 0.0) return lo > 0.0 ? lo : hi;
    for (int i = 0; i < kBisectSteps; ++i) step(std::sqrt(lo * hi));
    double t = 0.0;
    if (p99_hi > p99_lo && p99_lo > 0.0) {
      t = (std::log(kLatencyLimitUs) - std::log(p99_lo)) /
          (std::log(p99_hi) - std::log(p99_lo));
    }
    return lo * std::pow(hi / lo, std::clamp(t, 0.0, 1.0));
  }

  const serve::ServableModel& model_;
  const Traffic& traffic_;
  util::Rng rng_;
  std::vector<RungBuffers>& buffers_;
  // Per paced rung: the generator's p99 lateness. Per reference window:
  // latency p50/p99 and queue-wait p99. Per drain and per ladder: rates.
  std::vector<double> gen_late_p99_, ref_p50_, ref_p99_, ref_wait_, rps_,
      max_rps_;
  uint64_t lines_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t flagged_rungs_ = 0;
};

// --- Kernel and front-end micro-measurements (traced runs) ------------------

// ns for the 1 + λ fused negative-sampling updates of one E-step step, at
// the workload's l, on rows that stay in L1.
double NegSamplingNs(size_t l, size_t negatives) {
  std::vector<float> src(l, 0.01f), dst((negatives + 1) * l, 0.02f);
  std::vector<double> grad(l, 0.0);
  std::vector<double> per_step;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kSteps = 50000;
    const uint64_t start = NowNs();
    for (int s = 0; s < kSteps; ++s) {
      for (size_t k = 0; k <= negatives; ++k) {
        sink += kernels::NegSamplingUpdate<train::SerialAccess>(
            grad, src, std::span<float>(dst.data() + k * l, l),
            k == 0 ? 1.0 : 0.0, 1.0, -1e-6);
      }
    }
    per_step.push_back(static_cast<double>(NowNs() - start) / kSteps);
  }
  if (sink == 42.0) std::fputc(' ', stderr);  // keep the loop observable
  return Median(per_step);
}

struct FrontEnd {
  double querybatch_ns_per_pair = 0.0;
  double loop_ns_per_line = 0.0;
  double frontend_share = 0.0;
};

// QueryBatch alone over the pool's lines versus RunServeLoop unpaced on
// in-memory streams over the same lines; median of three passes each.
FrontEnd MeasureFrontEnd(const serve::ServableModel& model,
                         const Traffic& traffic) {
  std::vector<double> qb, loop;
  std::vector<double> values(kBatchPairs);
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t start = NowNs();
    for (const auto& pairs : traffic.pairs) {
      (void)model.QueryBatch(pairs, std::span<double>(values.data(), pairs.size()),
                             serve::MissingPolicy::kNan);
    }
    qb.push_back(static_cast<double>(NowNs() - start));
    std::istringstream in(traffic.requests.text);
    std::ostringstream out;
    start = NowNs();
    serve::RunServeLoop(model, in, out);
    loop.push_back(static_cast<double>(NowNs() - start));
  }
  FrontEnd f;
  f.querybatch_ns_per_pair = Median(qb) / static_cast<double>(traffic.total_pairs);
  f.loop_ns_per_line = Median(loop) / static_cast<double>(kPoolLines);
  f.frontend_share = 1.0 - Median(qb) / Median(loop);
  return f;
}

// --- The session -------------------------------------------------------------

class Session {
 public:
  Session(const Spec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        threads_(spec.threads == 0 ? 1 : std::min(spec.threads, Cores())) {}

  RunResult Run();

 private:
  void Fail(const std::string& note) {
    result_.correct = false;
    result_.notes.push_back(note);
  }
  bool Check(bool ok, const std::string& what) {
    ++result_.attempted;
    if (!ok) {
      ++result_.failed;
      Fail(what);
    }
    return ok;
  }
  void E2E(const char* name, const char* unit, double value) {
    result_.end_to_end.push_back({name, unit, value});
  }
  // Sample count and quartiles behind a reported median, for the '#' lines.
  void Samples(const char* name, const std::vector<double>& values) {
    if (values.empty()) return;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s from %zu samples: q1 %.6g, median %.6g, q3 %.6g", name,
                  values.size(), Percentile(values, 25.0), Median(values),
                  Percentile(values, 75.0));
    result_.notes.push_back(line);
  }
  void Layer(const std::string& name, const char* unit, double value) {
    result_.per_layer.push_back({name, unit, value});
  }
  std::string Path(const std::string& leaf) const {
    return options_.work_dir + "/" + leaf;
  }

  core::DeepDirectConfig Config(double epochs) const;
  core::DeepDirectConfig WithFinalCheckpoint(core::DeepDirectConfig config,
                                             const std::string& dir) const;
  size_t Replicas() const { return spec_.threads == 0 ? Cores() : 1; }
  bool MakeInputs();
  bool LoadAndHide();
  bool SetUp();
  bool PrepareFit();
  bool TimeSetUp();
  bool FitReps(bool traced);
  bool FitRep(bool traced);
  void RecordTracedFit(double fit_s, uint64_t since);
  void CheckArtifact();
  // Drops the sharded model and deletes its store, so the store's dirty
  // pages are discarded rather than written back while the run goes on.
  void ReleaseStore() {
    sharded_.reset();
    std::error_code ec;
    fs::remove_all(store_dir_, ec);
  }
  bool UpdateChains();
  bool UpdateChain();
  bool OpenServing();
  void Report();
  std::string Manifest() const;

  const Spec& spec_;
  const RunOptions& options_;
  const size_t threads_;
  RunResult result_;
  double scale_ = 0.0;
  double epochs_ = 0.0;

  std::string edges_path_;
  std::vector<std::string> batch_paths_;
  std::optional<graph::HiddenDirectionSplit> split_;
  std::optional<TailSplit> tail_;
  std::unique_ptr<core::DeepDirectModel> model_;  // latest in-RAM fit
  std::unique_ptr<core::ShardedDeepDirectModel> sharded_;
  size_t store_budget_mb_ = 0;
  std::string artifact_, ckpt_dir_, store_dir_;

  std::vector<double> load_hide_s_, load_s_, load_ties_per_s_, open_s_;
  std::vector<double> fit_s_, traced_fit_s_, accuracy_;
  std::map<std::string, std::vector<double>> fit_layers_;
  std::vector<double> update_s_, update_accuracy_;
  core::TieBatchStats update_totals_;

  std::optional<Traffic> traffic_;
  std::vector<RungBuffers> buffers_;  // one per serving stream
  std::optional<serve::ServableModel> servable_;
  std::optional<ServeMeter> meter_;
  serve::TieCacheStats cache_before_;
};

core::DeepDirectConfig Session::Config(double epochs) const {
  core::DeepDirectConfig config = core::MethodConfigs::FastDefaults().deepdirect;
  config.epochs = epochs;
  config.num_threads = threads_;
  config.d_step.num_threads = 1;
  config.seed = Mix(options_.seed, 5);
  return config;
}

// Writes only the final E-step state, the warm start UpdateChain() reads.
core::DeepDirectConfig Session::WithFinalCheckpoint(
    core::DeepDirectConfig config, const std::string& dir) const {
  config.checkpoint.dir = dir;
  config.checkpoint.trainer = "deepdirect.estep";
  config.checkpoint.policy.every_n_epochs = 1u << 30;  // never mid-run
  config.checkpoint.policy.write_final = true;
  return config;
}

bool Session::MakeInputs() {
  data::GeneratorConfig gen =
      data::DatasetConfig(data::DatasetId::kTencent, scale_);
  gen.seed = Mix(options_.seed, 1);
  edges_path_ = Path("network.edges");
  const auto status = data::WriteStatusNetworkEdgeList(gen, edges_path_);
  if (!status.ok()) Fail("generate: " + status.ToString());
  return status.ok();
}

// The set-up a fit workload's user pays before training: load the edge
// list, hide directions. One timed repetition (per replica).
bool Session::LoadAndHide() {
  const size_t replicas = Replicas();
  std::vector<util::Result<graph::MixedSocialNetwork>> loaded(
      replicas, util::Status::IOError("not loaded"));
  std::vector<std::optional<graph::HiddenDirectionSplit>> splits(replicas);
  std::vector<double> seconds(replicas);
  const uint64_t since = obs::TraceBuffer::NowNs();
  if (options_.trace) SetTracing(true);
  OnReplicas(replicas, [&](size_t r) {
    const uint64_t start = NowNs();
    loaded[r] = graph::LoadEdgeList(edges_path_, threads_);
    if (!loaded[r].ok()) return;
    util::Rng rng(Mix(options_.seed, 2));
    splits[r].emplace(graph::HideDirections(loaded[r].value(), kDirectedKept, rng));
    seconds[r] = Seconds(start, NowNs());
  });
  SetTracing(false);
  for (size_t r = 0; r < replicas; ++r) {
    if (!loaded[r].ok()) {
      Fail("load: " + loaded[r].status().ToString());
      return false;
    }
  }
  load_hide_s_.insert(load_hide_s_.end(), seconds.begin(), seconds.end());
  split_ = std::move(splits[0]);
  for (const obs::TraceEvent& e : PhaseSpans(since)) {
    if (e.name != "graph.load") continue;
    const double s = Seconds(e.start_ns, e.end_ns);
    load_s_.push_back(s);
    load_ties_per_s_.push_back(
        static_cast<double>(loaded[0].value().num_ties()) / s);
  }
  return true;
}

// Set-up is timed in every round (kMinSetupReps and kMinSetupSeconds at
// least), so its samples spread over the run like every other metric's.
bool Session::TimeSetUp() {
  const uint64_t start = NowNs();
  for (size_t rep = 0;
       rep < kMinSetupReps || Seconds(start, NowNs()) < kMinSetupSeconds;
       ++rep) {
    if (!LoadAndHide()) return false;
  }
  return true;
}

// The inputs the program sees after set-up: the fit network (all but the
// update tail) and the tail's batch files.
bool Session::SetUp() {
  if (!LoadAndHide()) return false;
  tail_.emplace(SplitTail(split_->network, Mix(options_.seed, 3)));
  for (size_t b = 0; b < kNumBatches; ++b) {
    batch_paths_.push_back(Path("batch-" + std::to_string(b) + ".edges"));
    if (!WriteBatch(tail_->batches[b], batch_paths_.back())) {
      Fail("cannot write " + batch_paths_.back());
      return false;
    }
  }
  // A fixed step budget, so fit work does not drift with each seed's
  // connected-pair count.
  const double steps = options_.tiny ? 0.05 * spec_.steps : spec_.steps;
  epochs_ = steps / static_cast<double>(
                        core::TieIndex(tail_->base).NumConnectedTiePairs());
  return true;
}

// fit-oocore serves and updates an in-RAM twin of its network (the sharded
// model has no export or update path); the twin is trained once, untimed.
bool Session::PrepareFit() {
  ckpt_dir_ = Path("ckpt");
  artifact_ = Path("model.dds");
  store_dir_ = Path("store");
  if (!spec_.out_of_core) return true;
  const core::DeepDirectConfig twin =
      WithFinalCheckpoint(Config(options_.tiny ? 0.2 : kTwinEpochs), ckpt_dir_);
  model_ = core::DeepDirectModel::Train(tail_->base, twin);
  const auto status = model_->ExportServable(artifact_);
  if (!Check(status.ok(), "export twin: " + status.ToString())) return false;
  const double footprint_mb = 2.0 * static_cast<double>(model_->index().num_arcs()) *
                              static_cast<double>(twin.dimensions) *
                              sizeof(float) / (1024.0 * 1024.0);
  store_budget_mb_ = std::max<size_t>(
      1, static_cast<size_t>(footprint_mb * kOocoreBudgetShards /
                             static_cast<double>(kOocoreShards)));
  return true;
}

// One timed fit, TieIndex through export (out of core: through the sealed
// store). A replicated workload trains one independent single-threaded
// replica per core at once, which must all come out bit-identical; each
// replica's time is a fit_s sample. A traced fit records spans and
// registry counters for the layers.
bool Session::FitRep(bool traced) {
  const core::DeepDirectConfig config = Config(epochs_);
  const size_t replicas = Replicas();
  const uint64_t since = obs::TraceBuffer::NowNs();
  if (traced) {
    obs::Registry::Default().Reset();
    SetTracing(true);
  }
  std::vector<double> fit_s(replicas);
  std::vector<util::Status> status(replicas);
  std::vector<std::unique_ptr<core::DeepDirectModel>> models(replicas);
  auto fit = [&](size_t r) {
    const uint64_t start = NowNs();
    obs::TraceSpan fit_span("bench.fit");
    if (spec_.out_of_core) {
      ReleaseStore();
      core::DeepDirectConfig sharded = config;
      sharded.sharding = {kOocoreShards, store_dir_, store_budget_mb_};
      auto trained = core::ShardedDeepDirectModel::Train(tail_->base, sharded);
      status[r] = trained.status();
      if (trained.ok()) sharded_ = std::move(trained).value();
    } else {
      const std::string suffix = r == 0 ? "" : "-" + std::to_string(r);
      std::error_code ec;
      fs::remove_all(ckpt_dir_ + suffix, ec);
      models[r] = core::DeepDirectModel::Train(
          tail_->base, WithFinalCheckpoint(config, ckpt_dir_ + suffix));
      obs::TraceSpan export_span("bench.export");
      status[r] = models[r]->ExportServable(artifact_ + suffix);
    }
    fit_s[r] = Seconds(start, NowNs());
  };
  OnReplicas(replicas, fit);
  SetTracing(false);
  for (size_t r = 0; r < replicas; ++r) {
    if (!Check(status[r].ok(), "fit: " + status[r].ToString())) return false;
    if (r > 0) {
      Check(models[r]->embeddings().data() == models[0]->embeddings().data() &&
                models[r]->d_step_regression().weights() ==
                    models[0]->d_step_regression().weights(),
            "single-threaded fit replicas differ");
    }
  }
  if (!spec_.out_of_core) model_ = std::move(models[0]);
  if (traced) {
    traced_fit_s_.insert(traced_fit_s_.end(), fit_s.begin(), fit_s.end());
    RecordTracedFit(Median(fit_s), since);
    return true;
  }
  fit_s_.insert(fit_s_.end(), fit_s.begin(), fit_s.end());
  accuracy_.push_back(spec_.out_of_core ? AccuracyOnKnown(*split_, *sharded_)
                                        : AccuracyOnKnown(*split_, *model_));
  return true;
}

// Fits until kMinFitSeconds have passed in this round (at least one).
bool Session::FitReps(bool traced) {
  const uint64_t start = NowNs();
  do {
    if (!FitRep(traced)) return false;
  } while (Seconds(start, NowNs()) < kMinFitSeconds);
  return true;
}

// Layer self times and counters of one traced fit, averaged over the
// replicas.
void Session::RecordTracedFit(double fit_s, uint64_t since) {
  const double replicas = static_cast<double>(Replicas());
  const auto layers = LayerSelfSeconds(PhaseSpans(since), FitLayerOf);
  auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second / replicas;
  };
  const auto snapshot = obs::Registry::Default().Snapshot();
  auto counter = [&](const std::string& name) -> double {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end()
               ? 0.0
               : static_cast<double>(it->second) / replicas;
  };
  const std::string prefix = spec_.out_of_core ? "train.deepdirect.sharded.estep"
                                               : "train.deepdirect.estep";
  const double steps = counter(prefix + ".steps");
  const double estep_s = layer("core.estep");
  auto& out = fit_layers_;
  out["core.tie_index_s"].push_back(layer("core.tie_index"));
  out["core.patterns_s"].push_back(layer("core.patterns"));
  out["core.triad_pairs"].push_back(counter("deepdirect.preprocess.triad_pairs"));
  out["core.estep_s"].push_back(estep_s);
  out["core.estep_steps"].push_back(steps);
  out["core.estep_ns_per_step"].push_back(
      steps > 0 ? estep_s * static_cast<double>(threads_) / steps * 1e9 : 0.0);
  out["core.estep_share"].push_back(estep_s / fit_s);
  out["core.dstep_s"].push_back(layer("core.dstep"));
  out["core.export_s"].push_back(layer("core.export"));
  out["train.checkpoint_write_s"].push_back(layer("train.checkpoint_write"));
  out["train.store.create_s"].push_back(layer("train.store.create"));
  out["obs.unattributed_frac"].push_back(layer("unattributed") / fit_s);
  const auto hist = snapshot.histograms.find(prefix + ".worker_steps");
  out["train.worker_step_imbalance"].push_back(
      hist != snapshot.histograms.end() && hist->second.min > 0.0
          ? hist->second.max / hist->second.min
          : 1.0);
  train::ShardedStore::Stats store;
  if (sharded_ != nullptr) store = sharded_->store().GetStats();
  out["train.store.admissions_per_kstep"].push_back(
      steps > 0 ? static_cast<double>(store.admissions) / (steps / 1000.0) : 0.0);
  out["train.store.evictions"].push_back(static_cast<double>(store.evictions));
  out["train.store.max_resident_mb"].push_back(
      static_cast<double>(store.max_resident_bytes) / (1024.0 * 1024.0));
}

// Exported artifact vs the in-memory model, bit for bit, on sampled arcs;
// out of core, the sealed store must re-open and answer d(u, v) in [0, 1].
void Session::CheckArtifact() {
  util::Rng rng(Mix(options_.seed, 6));
  if (spec_.out_of_core) {
    const auto store = train::ShardedStore::Open(store_dir_, store_budget_mb_);
    if (!Check(store.ok(), "re-open sealed store: " + store.status().ToString())) {
      return;
    }
    train::ShardedStore& s = *store.value();
    std::vector<double> features(s.dimensions());
    for (size_t i = 0; i < kArtifactSamples; ++i) {
      const size_t e = rng.NextIndex(s.num_arcs());
      const auto row = s.EmbRow(e);
      std::copy(row.begin(), row.end(), features.begin());
      const double d = sharded_->d_step_regression().Predict(features);
      Check(std::isfinite(d) && d >= 0.0 && d <= 1.0,
            "store d(u, v) out of range at arc " + std::to_string(e));
    }
    return;
  }
  const auto servable = serve::ServableModel::Open(artifact_);
  if (!Check(servable.ok(), "open artifact: " + servable.status().ToString())) {
    return;
  }
  const core::TieIndex& index = model_->index();
  for (size_t i = 0; i < kArtifactSamples; ++i) {
    const size_t e = rng.NextIndex(index.num_arcs());
    const graph::NodeId u = index.Sources()[e], v = index.Adjacency()[e];
    const auto served = servable.value().Query(u, v);
    Check(served.ok() && served.value() == model_->Directionality(u, v),
          "artifact differs from Directionality at arc " + std::to_string(e));
  }
}

// The three tail batches through LoadTieBatch + ApplyTieBatch, chained and
// warm-started from the latest fit's final E-step checkpoint; repeated
// until kMinUpdateSeconds have passed, so short chains yield more samples.
bool Session::UpdateChains() {
  const uint64_t start = NowNs();
  do {
    if (!UpdateChain()) return false;
  } while (Seconds(start, NowNs()) < kMinUpdateSeconds);
  return true;
}

bool Session::UpdateChain() {
  auto state = train::LoadEStepState(ckpt_dir_);
  if (!Check(state.ok(), "load E-step state: " + state.status().ToString())) {
    return false;
  }
  core::DeepDirectConfig config =
      Config(spec_.out_of_core ? kTwinEpochs : epochs_);
  core::IncrementalOptions incremental;
  incremental.epochs_per_batch = kUpdateEpochsPerBatch;

  struct Chain {
    double seconds = 0.0;
    util::Status status;
    std::optional<core::IncrementalUpdate> last;
    core::TieBatchStats totals;
  };
  std::vector<Chain> chains(Replicas());
  OnReplicas(chains.size(), [&](size_t r) {
    Chain& c = chains[r];
    const uint64_t start = NowNs();
    const graph::MixedSocialNetwork* network = &tail_->base;
    const train::EStepState* warm = &state.value();
    for (const std::string& path : batch_paths_) {
      auto batch = train::LoadTieBatch(path);
      if (!batch.ok()) {
        c.status = batch.status();
        return;
      }
      auto updated = core::DeepDirectModel::ApplyTieBatch(
          *network, batch.value(), *warm, config, incremental);
      if (!updated.ok()) {
        c.status = updated.status();
        return;
      }
      c.last.emplace(std::move(updated).value());
      network = &c.last->network;
      warm = &c.last->state;
      c.totals.affected_arcs += c.last->stats.affected_arcs;
      c.totals.estep_steps += c.last->stats.estep_steps;
    }
    c.seconds = Seconds(start, NowNs());
  });
  for (const Chain& c : chains) {
    if (!Check(c.status.ok(), "update: " + c.status.ToString())) return false;
    update_s_.push_back(c.seconds);
    Check(c.last->model->embeddings().data() ==
              chains[0].last->model->embeddings().data(),
          "single-threaded update replicas differ");
  }
  const core::IncrementalUpdate& last = *chains[0].last;
  update_totals_ = chains[0].totals;
  Check(SortedTies(last.network) == SortedTies(split_->network),
        "merged network's ties differ from the full tie set");
  update_accuracy_.push_back(core::DirectionDiscoveryAccuracy(*split_, *last.model));
  return true;
}

// Opens the first fit's artifact kOpenReps times, each followed by a
// warm-up drain, and readies the serve meter.
bool Session::OpenServing() {
  traffic_.emplace(MakeTraffic(model_->index(), Mix(options_.seed, 4)));
  // One stream per core but one (each stream spins while it waits for the
  // next due line; the spare core keeps the rest of the system from
  // preempting them), sized for the longest rung up front so the
  // benchmark's own share of peak_rss_mb does not depend on how far the
  // ladder climbs.
  buffers_.resize(std::max<size_t>(1, Cores() - 1));
  const size_t lines = std::max(kMaxRungLines, kDrainLines) / buffers_.size();
  for (RungBuffers& b : buffers_) {
    b.Reserve(lines, 2 * lines * traffic_->requests.text.size() /
                         traffic_->requests.size());
  }
  util::Rng warm_rng(Mix(options_.seed, 8));
  serve::ServeOptions serve_options;
  serve_options.cache_capacity = kCacheSlots;
  for (size_t rep = 0; rep < kOpenReps; ++rep) {
    servable_.reset();
    const uint64_t start = NowNs();
    auto opened = serve::ServableModel::Open(artifact_, serve_options);
    open_s_.push_back(Seconds(start, NowNs()));
    if (!Check(opened.ok(), "open: " + opened.status().ToString())) return false;
    servable_.emplace(std::move(opened).value());
    if (rep == 0 && !Check(FillExpected(*servable_, *traffic_),
                           "serve pool has unknown ties")) {
      return false;
    }
    for (const Rung& warm : RunStreams(*servable_, *traffic_,
                                       kDrainLines / buffers_.size(), 0.0,
                                       warm_rng, buffers_)) {
      result_.attempted += warm.lines;
      result_.failed += warm.mismatches;
    }
  }
  cache_before_ = servable_->CacheStats();
  meter_.emplace(*servable_, *traffic_, Mix(options_.seed, 7), buffers_);
  return true;
}

void Session::Report() {
  E2E("setup_s", "s", Median(load_hide_s_));
  E2E("fit_s", "s", Median(fit_s_));
  E2E("accuracy", "fraction", Median(accuracy_));
  E2E("update_s", "s", Median(update_s_));
  E2E("update_accuracy", "fraction", Median(update_accuracy_));
  E2E("peak_rss_mb", "MB", PeakRssMb());
  Samples("setup_s", load_hide_s_);
  Samples("fit_s", fit_s_);
  Samples("update_s", update_s_);
  if (meter_.has_value()) {
    const ServeMeter& m = *meter_;
    result_.attempted += m.lines();
    result_.failed += m.mismatches();
    if (m.mismatches() > 0) {
      Fail(std::to_string(m.mismatches()) + " served lines differ from Query");
    }
    if (!m.reference_measured()) {
      Fail("open-loop generator behind schedule at every reference rung");
    }
    if (m.flagged_rungs() > 0) {
      result_.notes.push_back(std::to_string(m.flagged_rungs()) +
                              " rung(s) re-run: generator behind schedule");
    }
    E2E("serve_p50_us", "us", m.p50_us());
    Samples("serve_p50_us", m.p50_samples());
    Samples("serve_rps", m.rps_samples());
    result_.shown.push_back({"serve_p99_us", "us", m.p99_us()});
    if (m.searched()) result_.shown.push_back({"serve_max_rps", "1/s", m.max_rps()});
    E2E("serve_rps", "1/s", m.rps());
  }
  if (!options_.trace) return;

  Layer("graph.load_s", "s", Median(load_s_));
  Layer("graph.load_ties_per_s", "1/s", Median(load_ties_per_s_));
  for (const auto& [name, values] : fit_layers_) {
    const bool count = name == "core.triad_pairs" || name == "core.estep_steps" ||
                       name == "train.store.evictions";
    const char* unit = count ? "count"
                       : name == "core.estep_ns_per_step" ? "ns"
                       : name == "train.store.max_resident_mb" ? "MB"
                       : name.ends_with("_s") ? "s"
                                              : "ratio";
    Layer(name, unit, Median(values));
  }
  Layer("obs.trace_overhead_frac", "ratio",
        Median(traced_fit_s_) / Median(fit_s_) - 1.0);
  std::error_code ec;
  Layer("core.export_mb", "MB",
        static_cast<double>(fs::file_size(artifact_, ec)) / (1024.0 * 1024.0));
  Layer("core.update_affected_arcs", "count",
        static_cast<double>(update_totals_.affected_arcs));
  Layer("core.update_steps", "count",
        static_cast<double>(update_totals_.estep_steps));
  Layer("core.update_s_per_batch", "s", Median(update_s_) / kNumBatches);
  const core::DeepDirectConfig config = Config(epochs_);
  Layer("kernels.negsamp_ns", "ns",
        NegSamplingNs(config.dimensions, config.negative_samples));
  if (meter_.has_value()) {
    const serve::TieCacheStats after = servable_->CacheStats();
    const double hits = static_cast<double>(after.hits - cache_before_.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - cache_before_.misses);
    Layer("serve.open_s", "s", Median(open_s_));
    Layer("serve.cache_hit_ratio", "fraction", lookups > 0 ? hits / lookups : 0.0);
    Layer("serve.cache_evictions", "count",
          static_cast<double>(after.evictions - cache_before_.evictions));
    Layer("serve.ref_p99_us", "us", meter_->p99_us());
    Layer("serve.max_rps", "1/s", meter_->max_rps());
    Layer("serve.queue_wait_us_p99", "us", meter_->queue_wait_p99_us());
    Layer("bench.gen_late_us_p99", "us", meter_->gen_late_p99_us());
    const FrontEnd f = MeasureFrontEnd(*servable_, *traffic_);
    Layer("serve.querybatch_ns_per_pair", "ns", f.querybatch_ns_per_pair);
    Layer("serve.loop_ns_per_line", "ns", f.loop_ns_per_line);
    Layer("serve.frontend_share", "fraction", f.frontend_share);
  }
}

std::string Session::Manifest() const {
  const bench::BenchEnvironment env = bench::BenchEnvironment::Collect();
  const size_t arcs = model_ != nullptr ? model_->index().num_arcs() : 0;
  const size_t l = Config(epochs_).dimensions;
  std::ostringstream m;
  m << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << options_.seed
    << ", \"seconds\": " << options_.seconds
    << ", \"trace\": " << (options_.trace ? "true" : "false")
    << ", \"git_sha\": \"" << JsonEscape(env.git_sha)
    << "\", \"build_type\": \"" << JsonEscape(env.build_type)
    << "\", \"compiler\": \"" << JsonEscape(env.compiler)
    << "\", \"kernels_path\": \"" << kernels::ActivePathName()
    << "\", \"threads\": " << threads_
    << ", \"nproc\": " << env.hardware_threads
    << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"scale\": " << scale_ << ", \"epochs\": " << epochs_
    << ", \"dimensions\": " << l << ", \"arcs\": " << arcs
    << ", \"mn_bytes\": " << 2 * arcs * l * sizeof(float)
    << ", \"out_of_core\": " << (spec_.out_of_core ? "true" : "false")
    << ", \"shards\": " << (spec_.out_of_core ? kOocoreShards : 0)
    << ", \"store_budget_mb\": " << store_budget_mb_
    << ", \"fit_reps\": " << fit_s_.size() + traced_fit_s_.size()
    << ", \"update_reps\": " << update_s_.size() << "}";
  return m.str();
}

// Rounds of set-up, fit, update chain and serve samples (and, traced, the
// max-rate search), interleaved so every metric samples the whole run,
// until --seconds is spent (at least kMinRounds rounds, the first only a
// warm-up; a traced run alternates untraced and traced fits and needs
// kMinTracedRounds).
RunResult Session::Run() {
  scale_ = options_.tiny ? std::min(spec_.scale, 0.25) : spec_.scale;
  std::error_code ec;
  fs::create_directories(options_.work_dir, ec);
  if (ec) {
    Fail("cannot create " + options_.work_dir + ": " + ec.message());
    return result_;
  }
  bool ok = MakeInputs() && SetUp() && PrepareFit();
  const uint64_t start = NowNs();
  const size_t min_rounds = options_.trace ? kMinTracedRounds : kMinRounds;
  double round_s = 0.0;  // the latest round's duration
  for (size_t round = 0; ok && round < kMaxRounds; ++round) {
    // No round starts that would likely end past --seconds.
    const double elapsed = Seconds(start, NowNs());
    if (round >= min_rounds && elapsed + round_s > options_.seconds) break;
    ok = TimeSetUp() && FitReps(options_.trace && round % 2 == 1);
    if (ok && round == 0) {
      CheckArtifact();
      ok = OpenServing();
    }
    ReleaseStore();
    if (!ok) break;
    meter_->Sample();
    ok = UpdateChains();
    if (!ok) break;
    meter_->Sample();
    if (options_.trace) meter_->SearchMaxRate();
    if (round == 0) {
      // Round 0 warms up (first-touch page faults, cold caches, the first
      // thread start-ups): its timings are dropped.
      for (auto* samples : {&load_hide_s_, &load_s_, &load_ties_per_s_, &fit_s_,
                            &update_s_}) {
        samples->clear();
      }
    }
    round_s = Seconds(start, NowNs()) - elapsed;
  }
  Report();
  result_.manifest_json = Manifest();
  fs::remove_all(options_.work_dir, ec);
  return result_;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  for (const Spec& spec : kSpecs) {
    if (options.workload == spec.name) return Session(spec, options).Run();
  }
  RunResult result;
  result.correct = false;
  result.notes.push_back("unknown workload '" + options.workload + "'");
  return result;
}

}  // namespace deepdirect::perfbench
