#pragma once

// XanaduPolicy: the speculation engine (paper Sections 3.1-3.4).
//
// The policy plugs into the platform engine's request lifecycle and
// implements Xanadu's three provisioning modes:
//
//   Off          "Xanadu Cold" -- pure on-trigger provisioning,
//   Speculative  estimate the MLP and provision every path sandbox at the
//                onset of the workflow,
//   Jit          estimate the MLP, build the Algorithm-2 timeline and
//                provision each sandbox just ahead of its expected trigger.
//
// Orthogonally, the policy learns:
//   * the branch model (Algorithm 3) -- from the workflow schema for
//     explicit chains, or purely from parent-id request headers for
//     implicit chains,
//   * per-function EMA profiles (cold/warm response, startup time) and
//     per-edge invoke gaps (Section 3.2.2).
//
// Prediction misses: when an XOR parent resolves to a child other than the
// predicted one, the policy cancels all planned-but-unfired deployments
// (Section 3.2.2) and, per the paper, discards speculatively provisioned
// sandboxes that the actual path can no longer use.  The aggressiveness
// parameter (Section 3.2.1) bounds how far down the MLP resources are
// provisioned.  MissPolicy::Replan implements the paper's future-work
// extension (Section 7): after a miss the MLP is re-estimated from the
// chosen branch and speculation resumes on the new path.

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "core/branch_model.hpp"
#include "core/jit_planner.hpp"
#include "core/metadata_store.hpp"
#include "core/mlp.hpp"
#include "core/profile.hpp"
#include "platform/engine.hpp"

namespace xanadu::core {

enum class SpeculationMode { Off, Speculative, Jit };
enum class ChainKnowledge { Explicit, Implicit };
enum class MissPolicy { Stop, Replan };

[[nodiscard]] const char* to_string(SpeculationMode mode);

struct XanaduOptions {
  SpeculationMode mode = SpeculationMode::Jit;
  ChainKnowledge knowledge = ChainKnowledge::Explicit;
  MissPolicy miss_policy = MissPolicy::Stop;
  /// Fraction of the MLP depth to pre-provision, in (0, 1].  Section 3.2.1's
  /// provider-side deployment-aggressiveness knob.
  double aggressiveness = 1.0;
  /// Section 7 extension: on a prediction miss, re-bind idle sandboxes that
  /// were speculatively deployed for the wrong branch to architecture-
  /// compatible functions on the branch actually taken, instead of
  /// discarding them.
  bool reuse_workers_on_miss = false;
  /// EMA smoothing factor for all learned metrics.
  double ema_alpha = 0.3;
  JitOptions jit;
  MlpOptions mlp;
};

class XanaduPolicy final : public platform::ProvisionPolicy {
 public:
  explicit XanaduPolicy(XanaduOptions options);

  // ProvisionPolicy hooks -------------------------------------------------
  void on_request_submitted(platform::PlatformEngine& engine,
                            platform::RequestContext& ctx) override;
  void on_node_triggered(platform::PlatformEngine& engine,
                         platform::RequestContext& ctx, NodeId node) override;
  void on_node_exec_start(platform::PlatformEngine& engine,
                          platform::RequestContext& ctx, NodeId node) override;
  void on_worker_ready(platform::PlatformEngine& engine,
                       common::WorkflowId workflow, NodeId node,
                       sim::Duration provision_latency) override;
  void on_node_completed(platform::PlatformEngine& engine,
                         platform::RequestContext& ctx, NodeId node) override;
  void on_xor_resolved(platform::PlatformEngine& engine,
                       platform::RequestContext& ctx, NodeId parent,
                       NodeId chosen) override;
  void on_node_skipped(platform::PlatformEngine& engine,
                       platform::RequestContext& ctx, NodeId node) override;
  void on_request_completed(platform::PlatformEngine& engine,
                            platform::RequestContext& ctx,
                            platform::RequestResult& result) override;

  // Introspection ----------------------------------------------------------
  [[nodiscard]] const XanaduOptions& options() const { return options_; }
  /// The learned model for a workflow (nullptr before its first request).
  [[nodiscard]] const BranchModel* model(common::WorkflowId id) const;
  [[nodiscard]] const ProfileTable* profiles(common::WorkflowId id) const;
  /// Latest MLP estimate for a workflow (empty before the first request).
  [[nodiscard]] MlpResult current_mlp(common::WorkflowId id) const;

  // -- Metadata persistence (paper Section 4: "backing everything up on the
  //    Metadata DB for persistence") ---------------------------------------

  /// Writes a workflow's learned state (branch model + profiles) to the
  /// store under `key`.  Returns false if the workflow has no state yet.
  bool persist(common::WorkflowId id, MetadataStore& store,
               const std::string& key) const;

  /// Restores a workflow's learned state from the store, replacing whatever
  /// the policy currently knows.  Returns an error when the stored document
  /// is corrupt; false-like empty optional semantics are folded into the
  /// bool: true when state was installed.
  [[nodiscard]] common::Result<bool> restore(common::WorkflowId id,
                                             const MetadataStore& store,
                                             const std::string& key);

 private:
  struct WorkflowState {
    BranchModel model;
    ProfileTable profiles;
    explicit WorkflowState(double alpha) : profiles(alpha) {}
  };

  /// Per-request speculation bookkeeping.  The containers live in the
  /// request's arena: the engine tears this state down (via
  /// on_request_completed) before it recycles the context, so the arena
  /// strictly outlives them.
  struct RequestState {
    explicit RequestState(common::Arena* arena)
        : scheduled(common::ArenaAllocator<common::EventId>(arena)),
          prewarmed_nodes(common::ArenaAllocator<std::uint64_t>(arena)) {}

    /// The request's MLP.  Its first `planned` nodes are the ones acted on:
    /// the aggressiveness cut of the estimate, then any nodes a replan
    /// added.  The rest still count as predicted (miss detection), but get
    /// no deployment.
    MlpResult mlp;
    std::size_t planned = 0;
    /// Planned-but-unfired proactive deployments (cancellable).
    common::ArenaVector<common::EventId> scheduled;
    /// Nodes with a speculative deployment issued, deduplicated.  A flat
    /// vector beats a hash set here: MLP paths are short (aggressiveness
    /// bounds them) and the arena makes growth allocation-free.
    common::ArenaVector<std::uint64_t> prewarmed_nodes;
    bool miss_detected = false;

    [[nodiscard]] bool prewarmed(std::uint64_t node) const {
      return std::find(prewarmed_nodes.begin(), prewarmed_nodes.end(), node) !=
             prewarmed_nodes.end();
    }
    void mark_prewarmed(std::uint64_t node) {
      if (!prewarmed(node)) prewarmed_nodes.push_back(node);
    }
    [[nodiscard]] std::span<const NodeId> planned_path() const {
      return {mlp.path.data(), planned};
    }
    /// Appends `id` to the acted-on nodes, ahead of the ones the
    /// aggressiveness cut left out.
    void add_planned(NodeId id, double likelihood) {
      const auto at = static_cast<std::ptrdiff_t>(planned++);
      mlp.path.insert(mlp.path.begin() + at, id);
      mlp.likelihood.insert(mlp.likelihood.begin() + at, likelihood);
      mlp.predicted_choice.insert(mlp.predicted_choice.begin() + at, NodeId{});
    }
  };

  WorkflowState& workflow_state(platform::PlatformEngine& engine,
                                platform::RequestContext& ctx);
  void launch_speculation(platform::PlatformEngine& engine,
                          platform::RequestContext& ctx, WorkflowState& wf,
                          RequestState& rs, NodeId from_node,
                          sim::Duration base_offset);
  void cancel_pending(platform::PlatformEngine& engine,
                      platform::RequestContext& ctx, RequestState& rs);
  [[nodiscard]] std::size_t aggressiveness_cut(std::size_t path_length) const;

  XanaduOptions options_;
  std::unordered_map<common::WorkflowId, WorkflowState> workflows_;
  std::unordered_map<common::RequestId, RequestState> requests_;
};

}  // namespace xanadu::core
