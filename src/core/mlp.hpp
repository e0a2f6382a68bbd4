#pragma once

// Most-Likely-Path (MLP) estimation -- paper Section 3.1, Algorithm 1.
//
// Starting from the workflow roots, the estimator walks the learned branch
// model breadth-first.  A child's likelihood factor is the sum of its
// conditional probabilities over all parents already on the MLP:
//
//     L_j = sum_i rho(C_j | P_i)                                (Equation 3)
//
// At each conditional sibling group the child with the maximum likelihood
// factor is appended to the MLP; multicast children are all appended (for
// 1:1 and XOR relationships L is upper-bounded by 1 and behaves like a
// probability; for multicast and m:n it can exceed 1, as the paper notes).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/branch_model.hpp"

namespace xanadu::core {

struct MlpOptions {
  /// Children of an Auto-mode node with probability >= this threshold are
  /// treated as multicast (always invoked) rather than conditional
  /// candidates.
  double multicast_threshold = 0.85;
  /// Maximum number of nodes on the MLP (0 = unbounded).  The speculation
  /// engine uses this to apply the deployment-aggressiveness cut.
  std::size_t max_nodes = 0;
};

/// The estimated path and what Algorithm 1 learned about each node on it.
/// The three vectors are aligned: entry i of `likelihood` and
/// `predicted_choice` describes `path[i]`.  Paths are short (the workflow's
/// depth, cut by the aggressiveness knob), so lookups by node id scan the
/// path rather than hash it.
struct MlpResult {
  /// Nodes on the most likely path, in breadth-first discovery order.  A
  /// node reached along a skip edge (A->E beside A->B->C->E) can come before
  /// one of its parents.
  std::vector<NodeId> path;
  /// Likelihood factor L_j of each path node (roots get 1.0).
  std::vector<double> likelihood;
  /// For each Xor/conditional parent on the path, the child predicted to be
  /// taken; an invalid id elsewhere.  Used for prediction-miss detection.
  std::vector<NodeId> predicted_choice;

  /// Index of `id` in `path`, or path.size() when it is not on the path.
  [[nodiscard]] std::size_t position(NodeId id) const {
    return static_cast<std::size_t>(
        std::find(path.begin(), path.end(), id) - path.begin());
  }
  [[nodiscard]] bool contains(NodeId id) const {
    return position(id) < path.size();
  }
  /// The child predicted for `parent`; an invalid id when there is none.
  [[nodiscard]] NodeId predicted(NodeId parent) const {
    const std::size_t i = position(parent);
    return i < path.size() ? predicted_choice[i] : NodeId{};
  }
};

/// Runs Algorithm 1 over a learned branch model.
[[nodiscard]] MlpResult estimate_mlp(const BranchModel& model,
                                     const MlpOptions& options = {});

/// Runs Algorithm 1 starting from explicit seed nodes instead of the model
/// roots.  Used by the miss-replanning extension to re-estimate the path
/// from the branch a request actually took.
[[nodiscard]] MlpResult estimate_mlp_from(const BranchModel& model,
                                          const std::vector<NodeId>& seeds,
                                          const MlpOptions& options = {});

}  // namespace xanadu::core
