#pragma once

// Learned workflow model: the branch tree of Algorithm 3.
//
// Xanadu maintains, per workflow, a generative probabilistic model of the
// workflow's runtime branching behaviour.  Each discovered parent node
// carries a request count and a set of child branches with conditional
// probabilities rho(C|P).  On every observed child invocation the invoked
// branch's probability is reinforced and its siblings' probabilities decay
// (Algorithm 3):
//
//     child.probability   <- (p * n + 1) / (n + 1),  child.count++
//     sibling.probability <- (p * n)     / (n + 1),  sibling.count++
//
// For explicit chains the structure (and each node's dispatch mode) is known
// from the workflow schema and only the probabilities are learned; for
// implicit chains both structure and probabilities are learned from the
// parent-id request headers.
//
// Deviation from the paper's listing: observations are batched per
// (parent, request) so that a 1:m multicast parent -- whose children are all
// invoked by the same request -- reinforces every invoked child once and
// decays only the children that were NOT invoked.  Applying the listing
// verbatim per invocation would make sibling probabilities of a pure
// multicast oscillate around 1/m.  For XOR and 1:1 parents (one child per
// request) the batched update reduces exactly to the paper's update.
//
// Representation: node ids come from the workflow DAG and are dense, so the
// model is a vector indexed by node id.  Each slot holds the node and its
// open batch: the request it belongs to and the distinct children that
// request invoked, in a vector that keeps its capacity when the batch is
// applied and reopened.  Once every node and edge has been discovered,
// observing an invocation and applying a batch allocate nothing, and
// finalize_pending() applies batches in ascending parent id order without
// collecting or sorting keys.

#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "workflow/dag.hpp"

namespace xanadu::core {

using common::NodeId;
using common::RequestId;

/// How the MLP algorithm should expand a node's children.
enum class SelectMode {
  /// Append every child (known 1:1 / 1:m structure from an explicit schema).
  All,
  /// Append only the maximum-likelihood child (known XOR conditional).
  MaxLikelihood,
  /// Structure learned from observations: children whose conditional
  /// probability is near 1 co-occur (multicast) and are all appended; the
  /// rest form a conditional group from which the max is taken.
  Auto,
};

struct LearnedEdge {
  NodeId child{};
  double probability = 0.0;
  std::size_t count = 0;
};

struct ModelNode {
  NodeId id{};
  SelectMode select = SelectMode::Auto;
  std::size_t request_count = 0;
  std::vector<LearnedEdge> children;

  [[nodiscard]] const LearnedEdge* find_child(NodeId child) const;
};

/// The per-workflow branch tree.
class BranchModel {
 public:
  BranchModel() = default;

  /// Builds an explicit-chain model: structure and dispatch modes are taken
  /// from the schema; XOR branch probabilities start at a uniform prior and
  /// are refined by observations.  True probabilities are NOT copied -- the
  /// control plane cannot see them.
  [[nodiscard]] static BranchModel from_schema(const workflow::WorkflowDag& dag);

  /// Records that `request` invoked `child` with a parent-id header naming
  /// `parent` (implicit detection path; also used to refine explicit XOR
  /// probabilities).  Structure grows on first sight of a parent/child.
  void observe_invocation(NodeId parent, NodeId child, RequestId request);

  /// Records a root invocation (no parent-id header).
  void observe_root(NodeId root, RequestId request);

  /// Applies any batched-but-unapplied sibling updates.  Call at request
  /// completion (and before computing an MLP).
  void finalize_pending();

  [[nodiscard]] const std::vector<NodeId>& roots() const { return roots_; }
  [[nodiscard]] const ModelNode* find(NodeId id) const;
  [[nodiscard]] bool known(NodeId id) const { return find(id) != nullptr; }
  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  /// Total distinct nodes ever observed or declared (tree discovery metric:
  /// the paper reports full-tree discovery within 8 triggers of Figure 8's
  /// workflow), in ascending id order.
  [[nodiscard]] std::vector<NodeId> known_nodes() const;

  // -- Persistence (used by core::MetadataStore) ---------------------------

  /// Installs a node verbatim, replacing any existing entry.  Used when
  /// restoring a model from the metadata store, which bounds the ids it
  /// accepts: storage grows to the largest id.
  void restore_node(ModelNode node);
  /// Registers a root without recording an observation.
  void restore_root(NodeId root);

 private:
  /// One request's invocations out of one parent, applied as a unit.
  struct PendingBatch {
    RequestId request{};  // Invalid while no batch is open.
    std::vector<NodeId> invoked_children;  // Distinct; sorted when applied.
  };
  struct Slot {
    ModelNode node;  // node.id is invalid while the slot holds no node.
    PendingBatch pending;
  };

  Slot& slot(NodeId id, SelectMode mode_if_new);
  static void apply_batch(ModelNode& parent, PendingBatch& batch);

  std::vector<NodeId> roots_;
  std::vector<Slot> slots_;  // Indexed by node id.
  std::size_t node_count_ = 0;
  std::size_t open_batches_ = 0;
};

}  // namespace xanadu::core
