// Equivalence property tests for the flat planning state.
//
// The branch model keeps its pending batches in id-indexed slots and the JIT
// planner finds MLP parents in one pass over the path's edges.  This file
// keeps the straightforward designs they replaced as reference
// implementations -- a hash-map model whose batches are hash sets, and a
// planner that rescans the whole path for each node's parents -- and checks,
// over seeded random DAGs and observation sequences, that the fast versions
// produce exactly the same probabilities, counts and deployment timelines.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "core/branch_model.hpp"
#include "core/jit_planner.hpp"
#include "core/mlp.hpp"
#include "core/profile.hpp"
#include "workflow/dag.hpp"

namespace xanadu::core {
namespace {

using common::RequestId;
using sim::Duration;

// ---------------------------------------------------------------------------
// Reference branch model: one hash-map node per id, one hash set per open
// (parent, request) batch, batches flushed in sorted parent order.

class ReferenceModel {
 public:
  void observe_root(NodeId root) {
    node(root);
    if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
      roots_.push_back(root);
    }
  }

  void observe_invocation(NodeId parent, NodeId child, RequestId request) {
    node(parent);
    node(child);
    auto it = pending_.find(parent);
    if (it != pending_.end() && it->second.request != request) {
      apply_batch(node(parent), it->second);
      pending_.erase(it);
      it = pending_.end();
    }
    if (it == pending_.end()) {
      it = pending_.emplace(parent, Batch{request, {}}).first;
    }
    it->second.invoked.insert(child.value());
  }

  void finalize_pending() {
    std::vector<NodeId> parents;
    for (const auto& [parent, batch] : pending_) {
      (void)batch;
      parents.push_back(parent);
    }
    std::sort(parents.begin(), parents.end());
    for (const NodeId parent : parents) {
      apply_batch(node(parent), pending_.at(parent));
    }
    pending_.clear();
  }

  [[nodiscard]] std::vector<NodeId> known_nodes() const {
    std::vector<NodeId> ids;
    for (const auto& [id, n] : nodes_) {
      (void)n;
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  [[nodiscard]] const ModelNode& at(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] const std::vector<NodeId>& roots() const { return roots_; }

 private:
  struct Batch {
    RequestId request{};
    std::unordered_set<std::uint64_t> invoked;
  };

  ModelNode& node(NodeId id) {
    auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      ModelNode mn;
      mn.id = id;
      mn.select = SelectMode::Auto;
      it = nodes_.emplace(id, std::move(mn)).first;
    }
    return it->second;
  }

  static void apply_batch(ModelNode& parent, const Batch& batch) {
    std::vector<std::uint64_t> discovered(batch.invoked.begin(),
                                          batch.invoked.end());
    std::sort(discovered.begin(), discovered.end());
    for (const std::uint64_t raw : discovered) {
      if (parent.find_child(NodeId{raw}) == nullptr) {
        parent.children.push_back(
            LearnedEdge{NodeId{raw}, 0.0, parent.request_count});
      }
    }
    for (LearnedEdge& e : parent.children) {
      const auto n = static_cast<double>(e.count);
      if (batch.invoked.contains(e.child.value())) {
        e.probability = (e.probability * n + 1.0) / (n + 1.0);
      } else {
        e.probability = (e.probability * n) / (n + 1.0);
      }
      ++e.count;
    }
    ++parent.request_count;
  }

  std::vector<NodeId> roots_;
  std::unordered_map<NodeId, ModelNode> nodes_;
  std::unordered_map<NodeId, Batch> pending_;
};

void expect_same_model(const BranchModel& model, const ReferenceModel& ref) {
  ASSERT_EQ(model.known_nodes(), ref.known_nodes());
  ASSERT_EQ(model.node_count(), ref.known_nodes().size());
  ASSERT_EQ(model.roots(), ref.roots());
  for (const NodeId id : ref.known_nodes()) {
    const ModelNode* got = model.find(id);
    const ModelNode& want = ref.at(id);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->select, want.select);
    ASSERT_EQ(got->request_count, want.request_count);
    ASSERT_EQ(got->children.size(), want.children.size()) << "node " << id.value();
    for (std::size_t i = 0; i < want.children.size(); ++i) {
      ASSERT_EQ(got->children[i].child, want.children[i].child);
      ASSERT_EQ(got->children[i].count, want.children[i].count);
      // Bit for bit: the update sequence must be the same, not just close.
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got->children[i].probability),
                std::bit_cast<std::uint64_t>(want.children[i].probability));
    }
  }
}

// ---------------------------------------------------------------------------
// Reference planner: a node's MLP parents are found by rescanning the whole
// path, and nodes are evaluated once all their parents are (repeated passes
// in path order), so skip edges are handled too.

std::vector<NodeId> reference_parents(NodeId node, const std::vector<NodeId>& path,
                                      const BranchModel& model) {
  std::vector<NodeId> parents;
  for (const NodeId candidate : path) {
    if (candidate == node) continue;
    const ModelNode* mn = model.find(candidate);
    if (mn != nullptr && mn->find_child(node) != nullptr) {
      parents.push_back(candidate);
    }
  }
  return parents;
}

JitPlan reference_plan(const std::vector<NodeId>& path, const BranchModel& model,
                       const ProfileTable& profiles, const JitOptions& options,
                       bool implicit) {
  const ProfileFallbacks& fb = options.fallbacks;
  auto cold = [&](NodeId n) {
    const FunctionProfile* p = profiles.find_function(n);
    return p == nullptr ? fb.cold_response : p->cold_response(fb);
  };
  auto startup = [&](NodeId n) {
    const FunctionProfile* p = profiles.find_function(n);
    return p == nullptr ? fb.startup : p->startup(fb);
  };
  auto warm = [&](NodeId n) {
    const FunctionProfile* p = profiles.find_function(n);
    return p == nullptr ? fb.warm_response : p->warm_response(fb);
  };

  std::map<NodeId, Deployment> planned;
  std::map<NodeId, Duration> ready;  // completion (explicit) / trigger (implicit)
  bool progress = true;
  while (progress) {
    progress = false;
    for (const NodeId node : path) {
      if (planned.contains(node)) continue;
      const std::vector<NodeId> parents = reference_parents(node, path, model);
      if (!std::all_of(parents.begin(), parents.end(),
                       [&](NodeId p) { return ready.contains(p); })) {
        continue;
      }
      Deployment d;
      d.node = node;
      if (parents.empty()) {
        ready[node] = implicit ? Duration::zero() : cold(node);
      } else {
        Duration invocation = Duration::zero();
        for (const NodeId parent : parents) {
          const Duration at =
              implicit ? ready.at(parent) + profiles.invoke_gap(parent, node, fb)
                       : ready.at(parent);
          invocation = std::max(invocation, at);
        }
        d.expected_invocation = invocation;
        d.deploy_delay = (invocation - startup(node) - options.safety_margin)
                             .clamped_non_negative();
        ready[node] = implicit ? invocation : invocation + warm(node);
      }
      planned[node] = d;
      progress = true;
    }
  }
  JitPlan plan;
  for (const NodeId node : path) plan.deployments.push_back(planned.at(node));
  return plan;
}

// ---------------------------------------------------------------------------
// Random inputs.

/// A random DAG on 1..12 nodes: edges only go from lower to higher ids, so
/// skip edges (A->E beside A->B->...->E), fan-in and fan-out all occur.
workflow::WorkflowDag random_dag(common::Rng& rng) {
  workflow::WorkflowDag dag{"random"};
  const std::size_t n = 1 + rng.uniform_int(12);
  for (std::size_t i = 0; i < n; ++i) {
    const auto mode = rng.uniform() < 0.4 ? workflow::DispatchMode::Xor
                                          : workflow::DispatchMode::All;
    dag.add_node(workflow::FunctionSpec{.name = "f" + std::to_string(i)}, mode);
  }
  for (std::size_t j = 1; j < n; ++j) {
    // At least one parent keeps the DAG mostly connected.
    const std::size_t first = rng.uniform_int(j);
    for (std::size_t i = 0; i < j; ++i) {
      if (i == first || rng.uniform() < 0.25) {
        dag.add_edge(NodeId{i}, NodeId{j}, rng.uniform(0.1, 1.0));
      }
    }
  }
  dag.validate();
  return dag;
}

/// One request's invocations along `dag`: every parent invokes all of its
/// children (multicast) or one weighted child (XOR).  Returns (parent,
/// child) pairs in invocation order.
std::vector<std::pair<NodeId, NodeId>> random_walk(const workflow::WorkflowDag& dag,
                                                   common::Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<bool> reached(dag.node_count(), false);
  for (const NodeId root : dag.roots()) reached[root.value()] = true;
  for (const workflow::Node& n : dag.nodes()) {  // ids are topological
    if (!reached[n.id.value()] || n.children.empty()) continue;
    if (n.dispatch == workflow::DispatchMode::All) {
      for (const workflow::Edge& e : n.children) {
        edges.emplace_back(n.id, e.child);
        reached[e.child.value()] = true;
      }
      continue;
    }
    double total = 0.0;
    for (const workflow::Edge& e : n.children) total += e.probability;
    double pick = rng.uniform(0.0, total);
    const workflow::Edge* chosen = &n.children.back();
    for (const workflow::Edge& e : n.children) {
      if (pick < e.probability) {
        chosen = &e;
        break;
      }
      pick -= e.probability;
    }
    edges.emplace_back(n.id, chosen->child);
    reached[chosen->child.value()] = true;
  }
  return edges;
}

void random_profiles(const workflow::WorkflowDag& dag, common::Rng& rng,
                     ProfileTable& table) {
  for (const workflow::Node& n : dag.nodes()) {
    if (rng.uniform() < 0.2) continue;  // Leave some nodes on the fallbacks.
    FunctionProfile& p = table.function(n.id);
    p.observe_cold_response(Duration::from_millis(rng.uniform(500, 6000)));
    p.observe_startup(Duration::from_millis(rng.uniform(100, 4000)));
    p.observe_warm_response(Duration::from_millis(rng.uniform(50, 3000)));
    for (const workflow::Edge& e : n.children) {
      if (rng.uniform() < 0.7) {
        table.observe_invoke_gap(n.id, e.child,
                                 Duration::from_millis(rng.uniform(10, 2500)));
      }
    }
  }
}

void expect_same_plan(const JitPlan& got, const JitPlan& want) {
  ASSERT_EQ(got.deployments.size(), want.deployments.size());
  for (std::size_t i = 0; i < want.deployments.size(); ++i) {
    EXPECT_EQ(got.deployments[i].node, want.deployments[i].node) << i;
    EXPECT_EQ(got.deployments[i].deploy_delay, want.deployments[i].deploy_delay)
        << i;
    EXPECT_EQ(got.deployments[i].expected_invocation,
              want.deployments[i].expected_invocation)
        << i;
  }
}

// ---------------------------------------------------------------------------

TEST(CoreEquivalence, BatchedModelMatchesHashSetReference) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(seed);
    common::Rng rng{seed};
    const workflow::WorkflowDag dag = random_dag(rng);
    BranchModel model;
    ReferenceModel ref;
    std::uint64_t next_request = 1;
    for (int round = 0; round < 40; ++round) {
      // One or two requests in flight, their invocations interleaved: a
      // second request reaching a parent applies the first one's batch.
      const std::size_t inflight = 1 + rng.uniform_int(2);
      std::vector<std::pair<RequestId, std::pair<NodeId, NodeId>>> ops;
      for (std::size_t r = 0; r < inflight; ++r) {
        const RequestId request{next_request++};
        for (const NodeId root : dag.roots()) {
          model.observe_root(root, request);
          ref.observe_root(root);
        }
        for (const auto& edge : random_walk(dag, rng)) {
          ops.emplace_back(request, edge);
          // The same invocation reported twice (a retried trigger) must not
          // count twice.
          if (rng.uniform() < 0.1) ops.emplace_back(request, edge);
        }
      }
      if (inflight > 1) {
        // Deterministic shuffle of the interleaving.
        for (std::size_t i = ops.size(); i > 1; --i) {
          std::swap(ops[i - 1], ops[rng.uniform_int(i)]);
        }
      }
      for (const auto& [request, edge] : ops) {
        model.observe_invocation(edge.first, edge.second, request);
        ref.observe_invocation(edge.first, edge.second, request);
        expect_same_model(model, ref);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (rng.uniform() < 0.7) {
        model.finalize_pending();
        ref.finalize_pending();
        expect_same_model(model, ref);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(CoreEquivalence, PlannerMatchesPathRescanReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    common::Rng rng{seed * 7919};
    const workflow::WorkflowDag dag = random_dag(rng);
    ProfileTable profiles;
    random_profiles(dag, rng, profiles);
    JitOptions options;
    options.safety_margin = Duration::from_millis(rng.uniform(0, 300));

    // Explicit knowledge (schema structure) and implicit knowledge (learned
    // from observations only), each refined by a few requests.
    BranchModel schema = BranchModel::from_schema(dag);
    BranchModel learned;
    for (std::uint64_t r = 1; r <= 12; ++r) {
      for (const NodeId root : dag.roots()) learned.observe_root(root, RequestId{r});
      for (const auto& [parent, child] : random_walk(dag, rng)) {
        schema.observe_invocation(parent, child, RequestId{r});
        learned.observe_invocation(parent, child, RequestId{r});
      }
    }
    schema.finalize_pending();
    learned.finalize_pending();

    for (const BranchModel* model : {&schema, &learned}) {
      std::vector<std::vector<NodeId>> paths;
      paths.push_back(estimate_mlp(*model).path);
      // Any ordering of any subset of nodes: parents may come after their
      // children anywhere, not just on skip edges.
      std::vector<NodeId> shuffled = model->known_nodes();
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.uniform_int(i)]);
      }
      shuffled.resize(rng.uniform_int(shuffled.size() + 1));
      paths.push_back(shuffled);
      for (const std::vector<NodeId>& path : paths) {
        expect_same_plan(plan_explicit(path, *model, profiles, options),
                         reference_plan(path, *model, profiles, options, false));
        expect_same_plan(plan_implicit(path, *model, profiles, options),
                         reference_plan(path, *model, profiles, options, true));
      }
    }
  }
}

}  // namespace
}  // namespace xanadu::core
