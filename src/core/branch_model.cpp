#include "core/branch_model.hpp"

#include <algorithm>

namespace xanadu::core {

using workflow::DispatchMode;
using workflow::Edge;
using workflow::Node;

const LearnedEdge* ModelNode::find_child(NodeId child) const {
  for (const LearnedEdge& e : children) {
    if (e.child == child) return &e;
  }
  return nullptr;
}

BranchModel BranchModel::from_schema(const workflow::WorkflowDag& dag) {
  BranchModel model;
  model.slots_.reserve(dag.node_count());
  for (const Node& n : dag.nodes()) {
    ModelNode& mn = model.slot(n.id, SelectMode::All).node;
    mn.select = (n.dispatch == DispatchMode::Xor && n.children.size() > 1)
                    ? SelectMode::MaxLikelihood
                    : SelectMode::All;
    mn.children.reserve(n.children.size());
    for (const Edge& e : n.children) {
      LearnedEdge le;
      le.child = e.child;
      // Uniform prior among siblings; the schema declares branch structure
      // but not runtime likelihoods.
      le.probability = mn.select == SelectMode::MaxLikelihood
                           ? 1.0 / static_cast<double>(n.children.size())
                           : 1.0;
      le.count = 0;
      mn.children.push_back(le);
    }
    if (n.parents.empty()) model.roots_.push_back(n.id);
  }
  return model;
}

BranchModel::Slot& BranchModel::slot(NodeId id, SelectMode mode_if_new) {
  if (id.value() >= slots_.size()) slots_.resize(id.value() + 1);
  Slot& s = slots_[id.value()];
  if (!s.node.id.valid()) {
    s.node.id = id;
    s.node.select = mode_if_new;
    ++node_count_;
  }
  return s;
}

const ModelNode* BranchModel::find(NodeId id) const {
  if (id.value() >= slots_.size()) return nullptr;
  const ModelNode& n = slots_[id.value()].node;
  return n.id.valid() ? &n : nullptr;
}

std::vector<NodeId> BranchModel::known_nodes() const {
  std::vector<NodeId> ids;
  ids.reserve(node_count_);
  for (const Slot& s : slots_) {
    if (s.node.id.valid()) ids.push_back(s.node.id);
  }
  return ids;
}

void BranchModel::restore_node(ModelNode node) {
  slot(node.id, node.select).node = std::move(node);
}

void BranchModel::restore_root(NodeId root) {
  if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
    roots_.push_back(root);
  }
}

void BranchModel::observe_root(NodeId root, RequestId request) {
  (void)request;
  slot(root, SelectMode::Auto);
  if (std::find(roots_.begin(), roots_.end(), root) == roots_.end()) {
    roots_.push_back(root);
  }
}

void BranchModel::observe_invocation(NodeId parent, NodeId child,
                                     RequestId request) {
  slot(child, SelectMode::Auto);  // Discover the child node.
  Slot& p = slot(parent, SelectMode::Auto);
  PendingBatch& batch = p.pending;
  if (batch.request.valid() && batch.request != request) {
    // A new request reached this parent: the previous request's batch is
    // complete, apply it.
    apply_batch(p.node, batch);
    --open_batches_;
  }
  if (!batch.request.valid()) {
    batch.request = request;
    ++open_batches_;
  }
  std::vector<NodeId>& invoked = batch.invoked_children;
  if (std::find(invoked.begin(), invoked.end(), child) == invoked.end()) {
    invoked.push_back(child);
  }
}

void BranchModel::finalize_pending() {
  // Each batch touches only its own parent, so the application order is
  // almost immaterial -- but flushing in ascending parent order keeps the
  // floating-point update sequence (and hence any persisted probabilities)
  // fixed.
  for (std::size_t i = 0; open_batches_ > 0 && i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.pending.request.valid()) continue;
    apply_batch(s.node, s.pending);
    --open_batches_;
  }
}

void BranchModel::apply_batch(ModelNode& parent, PendingBatch& batch) {
  // Ensure every invoked child has a branch entry (structure discovery).  A
  // child discovered late starts with probability 0 over the parent's past
  // requests -- rho(C|P) must be invocations-of-C over requests-to-P, not
  // over requests since C was first seen.  The discovery order is observable
  // (it fixes the edge order in parent.children, and with it MLP tie-breaks
  // and persisted documents), so the batch is sorted before appending.
  std::vector<NodeId>& invoked = batch.invoked_children;
  std::sort(invoked.begin(), invoked.end());
  for (const NodeId child : invoked) {
    if (parent.find_child(child) == nullptr) {
      parent.children.push_back(LearnedEdge{child, 0.0, parent.request_count});
    }
  }
  // Algorithm 3, batched per request: invoked branches are reinforced,
  // non-invoked siblings decay.
  for (LearnedEdge& e : parent.children) {
    const auto n = static_cast<double>(e.count);
    if (std::binary_search(invoked.begin(), invoked.end(), e.child)) {
      e.probability = (e.probability * n + 1.0) / (n + 1.0);
    } else {
      e.probability = (e.probability * n) / (n + 1.0);
    }
    ++e.count;
  }
  ++parent.request_count;
  invoked.clear();
  batch.request = RequestId{};
}

}  // namespace xanadu::core
