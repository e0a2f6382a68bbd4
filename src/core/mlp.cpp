#include "core/mlp.hpp"

#include <algorithm>
#include <vector>

#include "core/path_index.hpp"

namespace xanadu::core {

namespace {

MlpResult estimate_impl(const BranchModel& model,
                        const std::vector<NodeId>& seeds,
                        const MlpOptions& options) {
  // Reused across calls: a sparse set needs no clearing (see path_index.hpp).
  thread_local PathIndex index;
  MlpResult result;
  std::size_t capacity = model.node_count() + seeds.size();
  if (options.max_nodes != 0) capacity = std::min(capacity, options.max_nodes);
  result.path.reserve(capacity);
  result.likelihood.reserve(capacity);
  result.predicted_choice.reserve(capacity);

  auto append = [&](NodeId id, double likelihood) {
    const std::size_t at = index.find(id, result.path);
    if (at != PathIndex::npos) {
      // A node reachable from several MLP parents (m:1) is appended once;
      // its likelihood keeps the accumulated sum.
      result.likelihood[at] += likelihood;
      return;
    }
    if (options.max_nodes != 0 && result.path.size() >= options.max_nodes) {
      return;
    }
    index.set(id, result.path.size());
    result.path.push_back(id);
    result.likelihood.push_back(likelihood);
    result.predicted_choice.push_back(NodeId{});
  };

  for (const NodeId seed : seeds) append(seed, 1.0);

  // The path is discovered breadth-first, so it doubles as the BFS queue:
  // nodes before `head` are expanded, the rest are the frontier.
  for (std::size_t head = 0; head < result.path.size(); ++head) {
    const ModelNode* parent = model.find(result.path[head]);
    if (parent == nullptr || parent->children.empty()) continue;

    // Which children compete in the conditional choice below: none, all of
    // them, or only those under the multicast threshold.
    enum class Conditional { None, All, Low } conditional = Conditional::None;
    switch (parent->select) {
      case SelectMode::All:
        for (const LearnedEdge& e : parent->children) {
          append(e.child, e.probability > 0.0 ? e.probability : 1.0);
        }
        break;
      case SelectMode::MaxLikelihood:
        conditional = Conditional::All;
        break;
      case SelectMode::Auto: {
        if (parent->children.size() == 1) {
          // Single known child: 1:1 edge.
          const LearnedEdge& e = parent->children.front();
          append(e.child, e.probability > 0.0 ? e.probability : 1.0);
          break;
        }
        // Children near probability 1 co-occur (multicast); the rest form a
        // conditional group -- but only when that group carries substantial
        // probability mass of its own.  A heavily biased XOR (0.9 / 0.1)
        // must NOT be read as "multicast to the favourite plus a separate
        // conditional among the losers": the favourite IS the prediction.
        const LearnedEdge* first_high = nullptr;
        std::size_t high = 0;
        std::size_t low = 0;
        double low_mass = 0.0;
        for (const LearnedEdge& e : parent->children) {
          if (e.probability >= options.multicast_threshold) {
            append(e.child, e.probability);
            if (high++ == 0) first_high = &e;
          } else {
            ++low;
            low_mass += e.probability;
          }
        }
        if (low != 0 && high != 0 && low_mass < 0.5) {
          // Biased conditional: the high-probability child already appended
          // is the predicted branch; the low-mass siblings are misses.
          if (high == 1) result.predicted_choice[head] = first_high->child;
        } else if (low != 0) {
          conditional = Conditional::Low;
        }
        break;
      }
    }
    if (conditional == Conditional::None) continue;

    // Algorithm 1: among conditional siblings append the child with the
    // maximum likelihood factor L_j (Equation 3).  With a single parent the
    // factor is just rho(C_j|P_i); likelihoods accumulated from several MLP
    // parents are handled by append().
    const LearnedEdge* best = nullptr;
    for (const LearnedEdge& e : parent->children) {
      if (conditional == Conditional::Low &&
          e.probability >= options.multicast_threshold) {
        continue;
      }
      if (best == nullptr || e.probability > best->probability ||
          (e.probability == best->probability && e.child < best->child)) {
        best = &e;
      }
    }
    // An explicit conditional with no observations yet follows the uniform
    // prior (deterministic tie-break by node id).
    if (best->probability > 0.0 ||
        parent->select == SelectMode::MaxLikelihood) {
      append(best->child, best->probability);
      result.predicted_choice[head] = best->child;
    }
  }
  return result;
}

}  // namespace

MlpResult estimate_mlp(const BranchModel& model, const MlpOptions& options) {
  return estimate_impl(model, model.roots(), options);
}

MlpResult estimate_mlp_from(const BranchModel& model,
                            const std::vector<NodeId>& seeds,
                            const MlpOptions& options) {
  return estimate_impl(model, seeds, options);
}

}  // namespace xanadu::core
