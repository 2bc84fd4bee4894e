#include "core/sharded_trainer.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "core/estep_body.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/sgd_driver.h"
#include "util/alias_table.h"
#include "util/random.h"

namespace deepdirect::core {

using graph::MixedSocialNetwork;
using graph::NodeId;

namespace {

// Storage environment adapting the mmap-backed ShardedStore to the shared
// E-step body — the out-of-core twin of internal::InRamEnv. Row spans
// point into MAP_SHARED mappings; the arithmetic against them is identical
// to the heap case by construction.
struct StoreEnv {
  train::ShardedStore& store;
  const internal::Samplers& samplers;
  // Shard-affine source sampling (Hogwild only): per-shard P_c restricted
  // to the shard's arcs. A shard whose every tie has an empty c(e) has no
  // table and falls back to the global one, or the resample loop in the
  // step body would spin forever inside the shard.
  const std::vector<std::optional<util::AliasTable>>& shard_tables;

  size_t num_arcs() const { return store.num_arcs(); }
  std::span<float> MRow(size_t e) { return store.EmbRow(e); }
  std::span<float> NRow(size_t e) { return store.ConnRow(e); }
  size_t SampleSource(const train::SgdStep& ctx, util::Rng& r) const {
    const size_t s = ctx.shard;
    if (s == train::kNoShard || shard_tables.empty() || !shard_tables[s]) {
      return samplers.SampleSource(r);
    }
    return static_cast<size_t>(store.ShardArcBegin(s)) +
           shard_tables[s]->Sample(r);
  }
  size_t SampleNoise(util::Rng& r) const { return samplers.SampleNoise(r); }
  size_t SampleConnectedTie(size_t e, util::Rng& r) const {
    return store.SampleConnectedTie(e, r);
  }
  ArcClass ClassOf(size_t e) const {
    return static_cast<ArcClass>(store.ClassByte(e));
  }
  bool IsLabeled(size_t e) const {
    const ArcClass c = ClassOf(e);
    return c == ArcClass::kLabeledPositive || c == ArcClass::kLabeledNegative;
  }
  double Label(size_t e) const {
    return ClassOf(e) == ArcClass::kLabeledPositive ? 1.0 : 0.0;
  }
  uint32_t TieDegreeOf(size_t e) const { return store.TieDegree(e); }
  train::ShardedStore::PatternView Pattern(size_t e) const {
    return store.Pattern(e);
  }
};

}  // namespace

util::Result<std::unique_ptr<ShardedDeepDirectModel>>
ShardedDeepDirectModel::Train(const MixedSocialNetwork& g,
                              const DeepDirectConfig& config) {
  DD_CHECK_GT(g.num_directed_ties(), 0u);
  DD_CHECK_GT(config.dimensions, 0u);
  DD_CHECK_GE(config.epochs, 0.0);
  if (config.sharding.num_shards == 0 || config.sharding.dir.empty()) {
    return util::Status::InvalidArgument(
        "sharded training requires sharding.num_shards > 0 and a store "
        "directory");
  }
  if (!config.checkpoint.dir.empty()) {
    return util::Status::InvalidArgument(
        "checkpointing is not supported out-of-core (the shard store is "
        "the durable E-step state)");
  }
  if (config.d_step_head == DStepHead::kMlp) {
    return util::Status::InvalidArgument(
        "the MLP D-step head is not supported out-of-core");
  }

  obs::PhaseScope train_phase("deepdirect.sharded.train");
  std::optional<obs::PhaseScope> phase;
  phase.emplace("deepdirect.sharded.preprocess");
  const TieIndex idx(g);
  const size_t l = config.dimensions;

  util::Rng rng(config.seed);

  const PatternPrecompute patterns = PrecomputePatterns(g, idx, config);

  // --- Spill everything the E-step reads into the store -------------------
  phase.emplace("deepdirect.sharded.create_store");
  static_assert(sizeof(NodeId) == sizeof(uint32_t));
  static_assert(sizeof(ArcClass) == sizeof(uint8_t));
  static_assert(sizeof(std::pair<uint32_t, uint32_t>) ==
                    sizeof(graph::shard::TriadPair),
                "TriadPair must be layout-compatible with the arena pairs");
  train::ShardedStoreInit init;
  init.offsets = idx.Offsets();
  init.adjacency = {reinterpret_cast<const uint32_t*>(idx.Adjacency().data()),
                    idx.Adjacency().size()};
  init.sources = {reinterpret_cast<const uint32_t*>(idx.Sources().data()),
                  idx.Sources().size()};
  init.classes = {reinterpret_cast<const uint8_t*>(idx.RawClasses().data()),
                  idx.RawClasses().size()};
  init.num_connected_pairs = idx.NumConnectedTiePairs();
  init.arc_hash = HashTieIndex(idx);
  init.dimensions = l;
  init.slot = patterns.slot;
  init.degree_pseudo_label = patterns.degree_pseudo_label;
  init.degree_active = patterns.degree_active;
  init.triad_offsets = patterns.triad_offsets;
  init.triad_pairs = {reinterpret_cast<const graph::shard::TriadPair*>(
                          patterns.triad_pairs.data()),
                      patterns.triad_pairs.size()};

  train::ShardedStoreOptions store_options;
  store_options.dir = config.sharding.dir;
  store_options.num_shards = std::min(config.sharding.num_shards,
                                      std::max<size_t>(1, idx.num_arcs()));
  store_options.ram_budget_mb = config.sharding.ram_budget_mb;

  // The embedding fill consumes `rng` in the ml::Matrix::FillUniform draw
  // order — the same draws at the same point in the stream as the in-RAM
  // trainer, the first leg of the bit-identity contract.
  const float init_bound = 0.5f / static_cast<float>(l);
  auto store_result = train::ShardedStore::Create(store_options, init, rng,
                                                  -init_bound, init_bound);
  if (!store_result.ok()) return store_result.status();
  std::unique_ptr<train::ShardedStore> store =
      std::move(store_result).value();

  // --- E-Step -------------------------------------------------------------
  phase.emplace("deepdirect.sharded.estep");
  std::vector<double> w_prime(l, 0.0);
  double b_prime = 0.0;

  const internal::Samplers samplers(idx, config);

  // Shard-affine sampling for Hogwild: per-shard P_c over the shard's arc
  // range, with the shard's total P_c mass as its step-apportionment
  // weight. The serial path never consults any of this (global sampling →
  // nt=1 output is independent of the shard count).
  const size_t num_shards = store->num_shards();
  std::vector<std::optional<util::AliasTable>> shard_tables;
  train::ShardPlan plan;
  if (config.num_threads != 1 && num_shards > 1) {
    plan.num_shards = num_shards;
    shard_tables.resize(num_shards);
    const auto weights = samplers.source_weights.begin();
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<double> slice(weights + store->ShardArcBegin(s),
                                      weights + store->ShardArcEnd(s));
      const double mass = std::accumulate(slice.begin(), slice.end(), 0.0);
      plan.shard_weights.push_back(mass);
      if (mass > 0.0) shard_tables[s].emplace(slice);
    }
  }

  const uint64_t iterations = static_cast<uint64_t>(
      config.epochs * static_cast<double>(idx.NumConnectedTiePairs()));
  train::SgdOptions options = internal::EStepOptions(
      config, iterations, config.seed, "train.deepdirect.sharded.estep");
  options.steps_per_epoch = idx.NumConnectedTiePairs();
  options.shard_plan = std::move(plan);

  StoreEnv env{*store, samplers, shard_tables};
  internal::RunEStep(env, options, config, rng, w_prime, b_prime);

  if (obs::Enabled()) {
    // What the E-step's working set cost the resident budget.
    const train::ShardedStore::Stats stats = store->GetStats();
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("store.admissions")->Add(stats.admissions);
    registry.GetCounter("store.evictions")->Add(stats.evictions);
    registry.GetGauge("store.max_resident_bytes")
        ->Set(static_cast<double>(stats.max_resident_bytes));
    registry.GetGauge("store.budget_bytes")
        ->Set(static_cast<double>(stats.budget_bytes));
  }

  // Seal the store: stamps CRCs and the sealed flag so the trained
  // parameters validate byte-for-byte and the directory can be reopened.
  DD_RETURN_NOT_OK(store->Seal());

  std::unique_ptr<ShardedDeepDirectModel> model(
      new ShardedDeepDirectModel(std::move(store)));
  model->e_step_weights_ = w_prime;
  model->e_step_bias_ = b_prime;

  // --- D-Step: same warm-started logistic regression as in-RAM, reading
  // labeled rows back out of the store (faulting shards in under the
  // budget — the dataset itself is only |labeled|×l doubles).
  phase.emplace("deepdirect.sharded.dstep");
  internal::RunDStep(
      idx, [&](size_t e) { return model->store_->EmbRow(e); }, config,
      config.d_step, w_prime, b_prime, model->d_step_, /*mlp=*/nullptr);

  return model;
}

double ShardedDeepDirectModel::Directionality(NodeId u, NodeId v) const {
  const size_t e = store_->TryIndexOf(u, v);
  DD_CHECK_LT(e, store_->num_arcs());
  return d_step_.PredictRow(store_->EmbRow(e));
}

util::Result<double> ShardedDeepDirectModel::TryDirectionality(
    NodeId u, NodeId v) const {
  if (u >= store_->num_nodes() ||
      store_->TryIndexOf(u, v) == store_->num_arcs()) {
    return NoTieError(u, v);
  }
  return Directionality(u, v);
}

}  // namespace deepdirect::core
