#include "core/mlp.hpp"

#include <vector>

namespace xanadu::core {

namespace {

MlpResult estimate_impl(const BranchModel& model,
                        const std::vector<NodeId>& seeds,
                        const MlpOptions& options) {
  MlpResult result;

  auto append = [&](NodeId id, double likelihood) {
    if (result.likelihood.contains(id)) {
      // A node reachable from several MLP parents (m:1) is appended once;
      // its likelihood keeps the accumulated sum.
      result.likelihood[id] += likelihood;
      return;
    }
    if (options.max_nodes != 0 && result.path.size() >= options.max_nodes) {
      return;
    }
    result.path.push_back(id);
    result.likelihood.emplace(id, likelihood);
  };

  for (const NodeId seed : seeds) append(seed, 1.0);

  // The path is discovered breadth-first, so it doubles as the BFS queue:
  // nodes before `head` are expanded, the rest are the frontier.
  std::size_t head = 0;
  while (head < result.path.size()) {
    const NodeId id = result.path[head++];
    const ModelNode* parent = model.find(id);
    if (parent == nullptr || parent->children.empty()) continue;

    // Split the children into always-taken (multicast) edges and
    // conditional candidates.
    std::vector<const LearnedEdge*> conditional;
    switch (parent->select) {
      case SelectMode::All:
        for (const LearnedEdge& e : parent->children) {
          append(e.child, e.probability > 0.0 ? e.probability : 1.0);
        }
        break;
      case SelectMode::MaxLikelihood:
        for (const LearnedEdge& e : parent->children) conditional.push_back(&e);
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
        std::vector<const LearnedEdge*> high;
        double low_mass = 0.0;
        for (const LearnedEdge& e : parent->children) {
          if (e.probability >= options.multicast_threshold) {
            high.push_back(&e);
          } else {
            conditional.push_back(&e);
            low_mass += e.probability;
          }
        }
        for (const LearnedEdge* e : high) append(e->child, e->probability);
        if (!conditional.empty() && !high.empty() && low_mass < 0.5) {
          // Biased conditional: the high-probability child already appended
          // is the predicted branch; the low-mass siblings are misses.
          if (high.size() == 1) {
            result.predicted_choice.emplace(id, high.front()->child);
          }
          conditional.clear();
        }
        break;
      }
    }

    if (conditional.empty()) continue;

    // Algorithm 1: among conditional siblings append the child with the
    // maximum likelihood factor L_j (Equation 3).  With a single parent the
    // factor is just rho(C_j|P_i); likelihoods accumulated from several MLP
    // parents are handled by append().
    const LearnedEdge* best = nullptr;
    for (const LearnedEdge* e : conditional) {
      if (best == nullptr || e->probability > best->probability ||
          (e->probability == best->probability && e->child < best->child)) {
        best = e;
      }
    }
    if (best != nullptr && best->probability > 0.0) {
      append(best->child, best->probability);
      result.predicted_choice.emplace(id, best->child);
    } else if (best != nullptr && parent->select == SelectMode::MaxLikelihood) {
      // Explicit conditional with no observations yet: follow the uniform
      // prior (deterministic tie-break by node id).
      append(best->child, best->probability);
      result.predicted_choice.emplace(id, best->child);
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
