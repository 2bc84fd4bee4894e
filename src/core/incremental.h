// Streaming tie-batch updates: the core half of incremental training.
//
// A trained DeepDirect model plus its checkpointed E-step state can absorb
// a batch of newly-arrived ties without a full retrain:
//
//   1. Splice — the batch is validated against the base network (a tie
//      duplicating an existing edge is a line-numbered InvalidArgument;
//      endpoints beyond the node count extend the merged network) and the
//      merged network is rebuilt through GraphBuilder, so it is
//      bit-identical to one built from the full tie set.
//   2. Remap + warm-start — every old closure arc keeps its M/N rows
//      (arc indices shift when ties are added; rows are remapped through
//      the new TieIndex), new arcs get deterministic per-arc initial rows.
//   3. Affected-edge closure rule — the E-step retrains only arcs in
//      A = new arcs ∪ arcs with an endpoint touched by the batch. The
//      pattern data of arc (u, v) depends on deg(u), deg(v) and
//      N(u) ∩ N(v), all of which change only when u or v gains a tie, so
//      PrecomputePatterns runs scoped to A (its arc-mask overload).
//   4. Step quota — the per-batch E-step budget is
//      ceil(epochs_per_batch · Σ_{e∈A} |c(e)|): the same epochs-times-
//      pair-mass rule as full training, applied to the affected mass only
//      (the ShardPlan largest-remainder discipline scaled to one "shard").
//      Sources are sampled ∝ deg_tie over A; negatives and connected-tie
//      contexts stay global, so updates still propagate outward.
//   5. D-step — retrained over all labeled arcs, warm-started from the
//      updated (w', b'), exactly like a full run.
//
// Steps 4 and 5 run through the same driver as full training
// (core/estep_body.h): its Samplers take A as the source-arc list, and
// InRamEnv, RunEStep and RunDStep are shared unchanged. ApplyTieBatch
// itself keeps only the splice, the row remap and the affected set.
//
// Applying an empty batch is bit-identical to resuming the completed run
// from its final checkpoint: the remap is the identity, the quota is zero,
// and the D-step sees the same features and the same warm start.

#ifndef DEEPDIRECT_CORE_INCREMENTAL_H_
#define DEEPDIRECT_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/deepdirect.h"
#include "train/incremental.h"

namespace deepdirect::core {

/// Knobs of one ApplyTieBatch call.
struct IncrementalOptions {
  /// E-step passes over the affected connected-pair mass: the per-batch
  /// step quota is ceil(epochs_per_batch · Σ_{e∈A} |c(e)|). The full-
  /// retrain analogue is DeepDirectConfig::epochs over the global mass.
  double epochs_per_batch = 2.0;
};

/// What one batch cost and touched.
struct TieBatchStats {
  size_t new_ties = 0;
  size_t new_nodes = 0;
  size_t new_arcs = 0;       ///< closure arcs added (2 per tie)
  size_t affected_arcs = 0;  ///< |A|, the retrained source set
  uint64_t affected_pair_mass = 0;  ///< Σ_{e∈A} |c(e)| on the merged closure
  uint64_t estep_steps = 0;         ///< the executed quota
};

/// Result of one ApplyTieBatch call. `state` chains into the next batch
/// (and into SaveEStepState for durability); `network` is the merged graph
/// the model indexes.
struct IncrementalUpdate {
  graph::MixedSocialNetwork network;
  std::unique_ptr<DeepDirectModel> model;
  train::EStepState state;
  TieBatchStats stats;
};

/// Enumerates g's ties once each as batch-shaped deltas (line = 1-based
/// tie ordinal in CSR order). The building block for replaying a network
/// as base + tail batches in tests, benches, and the CI smoke.
std::vector<train::TieDelta> ExtractTies(const graph::MixedSocialNetwork& g);

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_INCREMENTAL_H_
