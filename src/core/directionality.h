// DirectionalityModel: the common interface of every TDL solver.
//
// A trained model realizes the directionality function d : E → [0, 1] of
// Definition 2 for the network it was trained on: Directionality(u, v) is
// the modeled probability that the tie between u and v points u → v.

#ifndef DEEPDIRECT_CORE_DIRECTIONALITY_H_
#define DEEPDIRECT_CORE_DIRECTIONALITY_H_

#include <string>

#include "graph/types.h"
#include "util/status.h"

namespace deepdirect::core {

/// The NotFound a model whose d exists only on training ties returns from
/// TryDirectionality for a pair that hosts none.
inline util::Status NoTieError(graph::NodeId u, graph::NodeId v) {
  return util::Status::NotFound("no tie between " + std::to_string(u) +
                                " and " + std::to_string(v) +
                                " in the training network");
}

/// Abstract directionality function over a fixed training network.
class DirectionalityModel {
 public:
  virtual ~DirectionalityModel() = default;

  /// d(u, v): modeled probability the tie between u and v points u → v.
  /// Both nodes must be endpoints of a tie in the training network.
  virtual double Directionality(graph::NodeId u, graph::NodeId v) const = 0;

  /// The fallible form of the unknown-tie contract: d(u, v) when the model
  /// can evaluate the pair, a structured NotFound when the pair hosts no
  /// training tie. The base default forwards to Directionality() — correct
  /// for models whose d is defined on arbitrary pairs; models whose d
  /// exists only on training ties (DeepDirect's per-arc embedding rows)
  /// override this to report NotFound instead of tripping the
  /// Directionality() precondition check. Serving layers query through
  /// this entry point exclusively.
  virtual util::Result<double> TryDirectionality(graph::NodeId u,
                                                 graph::NodeId v) const {
    return Directionality(u, v);
  }

  /// Short method name for reports ("DeepDirect", "HF", "LINE", ...).
  virtual std::string name() const = 0;
};

}  // namespace deepdirect::core

#endif  // DEEPDIRECT_CORE_DIRECTIONALITY_H_
