// The one driver behind DeepDirect's Algorithm 1: the P_c/P_n samplers,
// the E-step SGD run and the warm-started D-step. Three entry points call
// it and keep only what is their own: DeepDirectModel::Train (checkpoint
// and resume), ShardedDeepDirectModel::Train (store creation, ShardPlan,
// sealing, residency counters) and DeepDirectModel::ApplyTieBatch (splice,
// row remap, affected arc set).
//
// The step body is templated over a storage environment `Env`: InRamEnv
// (below) over heap matrices, StoreEnv (core/sharded_trainer.cc) over
// mmap-backed shard rows. Bit-identity between the two at num_threads = 1
// rests on this file being the single definition of the step: same kernel
// calls in the same order, same RNG draw sequence (SampleSource →
// SampleConnectedTie → per-negative SampleNoise), same classifier/warmup
// arithmetic.
//
// Env contract (duck-typed):
//   size_t num_arcs()
//   std::span<float> MRow(size_t e), NRow(size_t e)
//   size_t SampleSource(const train::SgdStep&, util::Rng&)  — P_c draw;
//       shard-affine envs may consult SgdStep::shard
//   size_t SampleNoise(util::Rng&)                          — P_n draw
//   size_t SampleConnectedTie(size_t e, util::Rng&)         — num_arcs()
//       when c(e) is empty
//   ArcClass ClassOf(e); bool IsLabeled(e); double Label(e)
//   uint32_t TieDegreeOf(e)
//   Pattern(e) → any type with fields {bool degree_active;
//       double pseudo_label; <range of .first/.second pairs> triads}

#ifndef DEEPDIRECT_CORE_ESTEP_BODY_H_
#define DEEPDIRECT_CORE_ESTEP_BODY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/deepdirect.h"
#include "core/tie_index.h"
#include "kernels/kernels.h"
#include "ml/dataset.h"
#include "ml/logistic_regression.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "train/sgd_driver.h"
#include "util/alias_table.h"
#include "util/random.h"

namespace deepdirect::core::internal {

// Bound on negative-sample redraws after a collision with the positive
// context. The noise distribution covers every closure arc, so a redraw
// almost surely escapes in one draw; the bound only guards degenerate
// networks where the positive context carries nearly all the noise mass.
inline constexpr size_t kMaxNegativeRedraws = 32;

// Per-worker E-Step sampler tallies, accumulated with plain increments in
// the step body (each worker owns one padded slot) and flushed into obs
// counters once after the run — the hot loop never touches shared metrics.
struct alignas(64) EStepTally {
  uint64_t resamples = 0;       ///< leaf-destination pair redraws
  uint64_t neg_collisions = 0;  ///< negative draw hit the positive context
  uint64_t negatives = 0;       ///< negatives actually trained on
  uint64_t labeled = 0;         ///< steps whose source arc is labeled
  uint64_t degree_pattern = 0;  ///< steps with the degree pattern active
  uint64_t triad_pattern = 0;   ///< steps with a non-empty triad set
};

inline void FlushTallies(const std::vector<EStepTally>& tallies) {
  if (!obs::Enabled()) return;
  static constexpr std::pair<uint64_t EStepTally::*, const char*> kCounters[] =
      {{&EStepTally::resamples, "deepdirect.estep.sampler.resamples"},
       {&EStepTally::neg_collisions,
        "deepdirect.estep.sampler.negative_collisions"},
       {&EStepTally::negatives, "deepdirect.estep.sampler.negatives_trained"},
       {&EStepTally::labeled, "deepdirect.estep.sampler.labeled_steps"},
       {&EStepTally::degree_pattern,
        "deepdirect.estep.sampler.degree_pattern_steps"},
       {&EStepTally::triad_pattern,
        "deepdirect.estep.sampler.triad_pattern_steps"}};
  obs::Registry& registry = obs::Registry::Default();
  for (const auto& [field, name] : kCounters) {
    uint64_t total = 0;
    for (const EStepTally& t : tallies) total += t.*field;
    registry.GetCounter(name)->Add(total);
  }
}

/// One E-step SGD step; returns the step's loss contribution (0.0 when
/// untracked). `A` is the parameter access policy (SerialAccess or
/// HogwildAccess), `config` any DeepDirect-shaped config with the E-step
/// hyperparameters.
template <typename A, typename Env, typename Config>
double EStepStep(Env& env, const train::SgdStep& ctx, const Config& config,
                 uint64_t total_iterations, bool track_loss,
                 std::vector<double>& grad_m, std::vector<double>& w_prime,
                 double& b_prime, EStepTally& tally) {
  util::Rng& r = ctx.rng;
  const double lr = ctx.lr;
  const double progress =
      static_cast<double>(ctx.step) / static_cast<double>(total_iterations);
  const size_t num_arcs = env.num_arcs();

  // Line 13: sample a connected tie pair (e, e'). A tie with a leaf
  // destination has no pair; resample instead of silently skipping the
  // step (P_c ∝ deg_tie never draws such a tie, so the loop only spins
  // under the uniform fallback — which requires |C(G)| > 0 to be reached
  // at all).
  size_t e = env.SampleSource(ctx, r);
  size_t e_prime = env.SampleConnectedTie(e, r);
  while (e_prime >= num_arcs) {
    ++tally.resamples;
    e = env.SampleSource(ctx, r);
    e_prime = env.SampleConnectedTie(e, r);
  }

  auto m_e = env.MRow(e);
  std::fill(grad_m.begin(), grad_m.end(), 0.0);

  double step_loss = 0.0;

  // --- L_topo: positive pair + λ negatives (Eqs. 23–25). The fused
  // kernel computes the score, accumulates the m_e gradient, and applies
  // the context update in one pass: g = σ(score) − y, row −= lr·g·m_e.
  {
    auto n_pos = env.NRow(e_prime);
    const double score = kernels::NegSamplingUpdate<A>(
        grad_m, m_e, n_pos, /*label=*/1.0, /*grad_scale=*/1.0,
        /*update_scale=*/-lr);
    if (track_loss) step_loss -= ml::LogSigmoid(score);
  }
  for (size_t neg = 0; neg < config.negative_samples; ++neg) {
    // A draw colliding with the positive context is redrawn (bounded),
    // not skipped: skipping would train those steps on fewer than λ
    // negatives and bias L_topo toward the positive term.
    size_t f = env.SampleNoise(r);
    size_t redraws = 0;
    while (f == e_prime && redraws < kMaxNegativeRedraws) {
      ++tally.neg_collisions;
      ++redraws;
      f = env.SampleNoise(r);
    }
    if (f == e_prime) continue;  // degenerate noise mass; give up
    ++tally.negatives;
    auto n_neg = env.NRow(f);
    const double score = kernels::NegSamplingUpdate<A>(
        grad_m, m_e, n_neg, /*label=*/0.0, /*grad_scale=*/1.0,
        /*update_scale=*/-lr);
    if (track_loss) step_loss -= ml::LogSigmoid(-score);
  }

  // --- Classifier losses: ∂L'/∂b' per Eq. 21, ramped in over the warmup
  // window so the topology loss shapes the embedding first.
  const double warmup_scale =
      config.classifier_warmup_fraction <= 0.0
          ? 1.0
          : std::min(1.0, progress / config.classifier_warmup_fraction);
  double g_b = 0.0;
  const ArcClass arc_class = env.ClassOf(e);
  const bool needs_prediction =
      warmup_scale > 0.0 &&
      (env.IsLabeled(e) || arc_class == ArcClass::kUndirected);
  if (needs_prediction) {
    const double score = kernels::DotF64F32<A>(A::Load(b_prime), w_prime, m_e);
    const double prediction = ml::Sigmoid(score);

    // Ablation hook: dividing by deg_tie(e) cancels the tie-degree
    // weighting that P_c sampling otherwise realizes (Eq. 19). The
    // warmup ramp multiplies in here as well.
    const double degree_scale =
        warmup_scale * (config.weight_by_tie_degree
                            ? 1.0
                            : 1.0 / std::max<double>(1.0, env.TieDegreeOf(e)));

    if (env.IsLabeled(e)) {
      ++tally.labeled;
      g_b += config.alpha * degree_scale * (prediction - env.Label(e));
    } else {
      const auto pattern = env.Pattern(e);
      if (pattern.degree_active) {
        ++tally.degree_pattern;
        g_b += config.beta * degree_scale *
               (prediction - pattern.pseudo_label);
      }
      if (!pattern.triads.empty()) {
        ++tally.triad_pattern;
        // y^t from current predictions over t(u, v) (Eq. 15).
        double y_t = 0.0;
        for (const auto& pair : pattern.triads) {
          // Both pair scores in one kernel call sharing the w' loads.
          double score_uw = 0.0;
          double score_vw = 0.0;
          kernels::DotPairF64F32<A>(A::Load(b_prime), w_prime,
                                    env.MRow(pair.first),
                                    env.MRow(pair.second), &score_uw,
                                    &score_vw);
          const double y_uw = ml::Sigmoid(score_uw);
          const double y_vw = ml::Sigmoid(score_vw);
          y_t += y_uw / std::max(y_uw + y_vw, 1e-12);
        }
        y_t /= static_cast<double>(pattern.triads.size());
        g_b += config.beta * degree_scale * (prediction - y_t);
      }
    }

    if (g_b != 0.0) {
      // Eq. 23 (classifier part) and Eq. 22, plus L2 decay on w'.
      kernels::ClassifierUpdate<A>(grad_m, w_prime, m_e, g_b, lr,
                                   config.classifier_l2);
      A::Store(b_prime, A::Load(b_prime) - lr * g_b);
    }
  }

  // Line 15: apply the accumulated embedding gradient (with row decay).
  kernels::ApplyGradDecay<A>(m_e, grad_m, lr, config.embedding_l2);

  return step_loss;
}

// Sampling distributions over the closure arcs: P_c ∝ deg_tie over the
// source arcs and P_n ∝ (deg_tie + 1)^{3/4} (or uniform, as an ablation)
// over all arcs. `sources` restricts P_c to a subset (the incremental
// affected set A, ascending arc ids); empty means every arc.
struct Samplers {
  Samplers(const TieIndex& idx, const DeepDirectConfig& config,
           std::span<const uint32_t> source_arcs = {})
      : sources(source_arcs),
        source_weights(SourceWeights(idx, source_arcs)),
        source(source_weights),
        noise(NoiseWeights(idx, config)) {}

  size_t SampleSource(util::Rng& r) const {
    const size_t i = source.Sample(r);
    return sources.empty() ? i : sources[i];
  }
  size_t SampleNoise(util::Rng& r) const { return noise.Sample(r); }

  std::span<const uint32_t> sources;
  /// P_c weights, one per source arc (shard-affine tables slice these).
  std::vector<double> source_weights;
  util::AliasTable source;
  util::AliasTable noise;

 private:
  static std::vector<double> SourceWeights(const TieIndex& idx,
                                           std::span<const uint32_t> arcs) {
    std::vector<double> weights(arcs.empty() ? idx.num_arcs() : arcs.size());
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] = idx.TieDegree(arcs.empty() ? i : arcs[i]);
    }
    // Degenerate but legal: a network where every destination is a leaf
    // has no connected tie pairs; fall back to uniform source sampling.
    if (std::accumulate(weights.begin(), weights.end(), 0.0) <= 0.0) {
      std::fill(weights.begin(), weights.end(), 1.0);
    }
    return weights;
  }
  static std::vector<double> NoiseWeights(const TieIndex& idx,
                                          const DeepDirectConfig& config) {
    std::vector<double> weights(idx.num_arcs());
    for (size_t e = 0; e < weights.size(); ++e) {
      weights[e] = config.uniform_negative_sampling
                       ? 1.0
                       : std::pow(idx.TieDegree(e) + 1.0, 0.75);
    }
    return weights;
  }
};

// Storage environment over the heap-resident training state (TieIndex,
// pattern arena, ml::Matrix M and N). Pattern() is only ever consulted for
// sampled sources, which is what makes an arc-masked pattern arena safe
// when the samplers are restricted to the masked arcs (PrecomputePatterns).
struct InRamEnv {
  const TieIndex& idx;
  const PatternPrecompute& patterns;
  ml::Matrix& m;
  ml::Matrix& n;
  const Samplers& samplers;

  struct PatternView {
    bool degree_active;
    double pseudo_label;
    std::span<const std::pair<uint32_t, uint32_t>> triads;
  };

  size_t num_arcs() const { return idx.num_arcs(); }
  std::span<float> MRow(size_t e) { return m.Row(e); }
  std::span<float> NRow(size_t e) { return n.Row(e); }
  size_t SampleSource(const train::SgdStep&, util::Rng& r) const {
    return samplers.SampleSource(r);
  }
  size_t SampleNoise(util::Rng& r) const { return samplers.SampleNoise(r); }
  size_t SampleConnectedTie(size_t e, util::Rng& r) const {
    return idx.SampleConnectedTie(e, r);
  }
  ArcClass ClassOf(size_t e) const { return idx.Class(e); }
  bool IsLabeled(size_t e) const { return idx.IsLabeled(e); }
  double Label(size_t e) const { return idx.Label(e); }
  uint32_t TieDegreeOf(size_t e) const { return idx.TieDegree(e); }
  PatternView Pattern(size_t e) const {
    const uint32_t s = patterns.slot[e];
    const uint32_t t_begin = patterns.triad_offsets[s];
    const uint32_t t_end = patterns.triad_offsets[s + 1];
    return {patterns.degree_active[s] != 0, patterns.degree_pseudo_label[s],
            std::span(patterns.triad_pairs).subspan(t_begin, t_end - t_begin)};
  }
};

/// SgdOptions for an E-step run of `steps` steps: the config's thread
/// count, decay schedule and progress hook, per-worker streams keyed on
/// `seed`, telemetry under `metrics_prefix`. Callers add what is their
/// own (epoch length, checkpointer, shard plan).
inline train::SgdOptions EStepOptions(const DeepDirectConfig& config,
                                      uint64_t steps, uint64_t seed,
                                      std::string metrics_prefix) {
  train::SgdOptions options;
  options.steps = steps;
  options.num_threads = config.num_threads;
  options.lr = config.Schedule();
  options.shard_seed = seed;
  options.progress = config.progress;
  options.report_every = config.report_every;
  options.metrics_prefix = std::move(metrics_prefix);
  return options;
}

/// The E-step: `options.steps` EStepStep calls against `env` through one
/// SgdDriver, each worker with its own gradient scratch and sampler tally,
/// updating (w', b') in place; the tallies reach obs once after the run.
template <typename Env>
void RunEStep(Env& env, const train::SgdOptions& options,
              const DeepDirectConfig& config, util::Rng& rng,
              std::vector<double>& w_prime, double& b_prime) {
  // Loss tracking costs a LogSigmoid per sample; pay it when the caller
  // listens (progress callback) or telemetry is being recorded. The loss
  // value never feeds back into updates, so tracking cannot perturb them.
  const bool track_loss =
      static_cast<bool>(config.progress) || obs::Enabled();
  const uint64_t total_steps = options.steps;
  train::SgdDriver driver(options);
  std::vector<std::vector<double>> grad_scratch(
      driver.num_workers(), std::vector<double>(config.dimensions, 0.0));
  std::vector<EStepTally> tallies(driver.num_workers());
  driver.Run(rng, [&](auto access, const train::SgdStep& ctx) -> double {
    using A = decltype(access);
    return EStepStep<A>(env, ctx, config, total_steps, track_loss,
                        grad_scratch[ctx.worker], w_prime, b_prime,
                        tallies[ctx.worker]);
  });
  FlushTallies(tallies);
}

/// The D-step (Sec. 4.5.2): an L2 logistic regression over the embedding
/// rows of labeled arcs, warm-started from the E-step's (w', b'), plus the
/// MLP head (Sec. 8) on the same rows when the config selects it and `mlp`
/// is given. `row(e)` yields arc e's embedding row.
template <typename RowFn>
void RunDStep(const TieIndex& idx, RowFn&& row, const DeepDirectConfig& config,
              const ml::LogisticRegressionConfig& d_config,
              const std::vector<double>& w_prime, double b_prime,
              ml::LogisticRegression& regression,
              std::optional<ml::MlpClassifier>* mlp) {
  const size_t l = config.dimensions;
  ml::Dataset data(l);
  std::vector<double> features(l);
  for (size_t e = 0; e < idx.num_arcs(); ++e) {
    if (!idx.IsLabeled(e)) continue;
    const auto r = row(e);
    for (size_t k = 0; k < l; ++k) features[k] = r[k];
    data.Add(features, idx.Label(e));
  }
  regression = ml::LogisticRegression(w_prime, b_prime);
  regression.Train(data, d_config);
  if (mlp != nullptr && config.d_step_head == DStepHead::kMlp) {
    mlp->emplace(l, config.d_step_mlp.hidden_units, config.d_step_mlp.seed);
    (*mlp)->Train(data, config.d_step_mlp);
  }
}

}  // namespace deepdirect::core::internal

#endif  // DEEPDIRECT_CORE_ESTEP_BODY_H_
