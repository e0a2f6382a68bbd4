#include "core/xanadu_policy.hpp"

#include <algorithm>
#include <cmath>

namespace xanadu::core {

using platform::NodeStatus;
using platform::PlatformEngine;
using platform::RequestContext;
using platform::RequestResult;

const char* to_string(SpeculationMode mode) {
  switch (mode) {
    case SpeculationMode::Off: return "cold";
    case SpeculationMode::Speculative: return "speculative";
    case SpeculationMode::Jit: return "jit";
  }
  return "unknown";
}

XanaduPolicy::XanaduPolicy(XanaduOptions options) : options_(options) {
  if (options_.aggressiveness <= 0.0 || options_.aggressiveness > 1.0) {
    throw std::invalid_argument{"XanaduPolicy: aggressiveness must be in (0, 1]"};
  }
  if (options_.ema_alpha <= 0.0 || options_.ema_alpha > 1.0) {
    throw std::invalid_argument{"XanaduPolicy: ema_alpha must be in (0, 1]"};
  }
}

const BranchModel* XanaduPolicy::model(common::WorkflowId id) const {
  auto it = workflows_.find(id);
  return it == workflows_.end() ? nullptr : &it->second.model;
}

const ProfileTable* XanaduPolicy::profiles(common::WorkflowId id) const {
  auto it = workflows_.find(id);
  return it == workflows_.end() ? nullptr : &it->second.profiles;
}

MlpResult XanaduPolicy::current_mlp(common::WorkflowId id) const {
  auto it = workflows_.find(id);
  if (it == workflows_.end()) return {};
  BranchModel snapshot = it->second.model;
  snapshot.finalize_pending();
  return estimate_mlp(snapshot, options_.mlp);
}

XanaduPolicy::WorkflowState& XanaduPolicy::workflow_state(PlatformEngine& engine,
                                                          RequestContext& ctx) {
  auto it = workflows_.find(ctx.workflow);
  if (it == workflows_.end()) {
    WorkflowState state{options_.ema_alpha};
    if (options_.knowledge == ChainKnowledge::Explicit) {
      // The externalised workflow schema is available: seed the model with
      // the declared structure (probabilities still start at priors).
      state.model = BranchModel::from_schema(engine.dag(ctx.workflow));
    }
    it = workflows_.emplace(ctx.workflow, std::move(state)).first;
  }
  return it->second;
}

std::size_t XanaduPolicy::aggressiveness_cut(std::size_t path_length) const {
  if (path_length == 0) return 0;
  const auto cut = static_cast<std::size_t>(
      std::ceil(options_.aggressiveness * static_cast<double>(path_length)));
  return std::max<std::size_t>(cut, 1);
}

void XanaduPolicy::on_request_submitted(PlatformEngine& engine,
                                        RequestContext& ctx) {
  WorkflowState& wf = workflow_state(engine, ctx);
  RequestState& rs =
      requests_.try_emplace(ctx.id, &ctx.arena).first->second;
  if (options_.mode == SpeculationMode::Off) return;

  wf.model.finalize_pending();
  rs.mlp = estimate_mlp(wf.model, options_.mlp);
  if (rs.mlp.path.empty()) return;  // Implicit chain not discovered yet.

  // Deployment aggressiveness (Section 3.2.1): only look ahead a fraction
  // of the estimated path.
  rs.planned = aggressiveness_cut(rs.mlp.path.size());
  ctx.speculation.predicted_nodes = rs.planned;

  launch_speculation(engine, ctx, wf, rs, NodeId{}, sim::Duration::zero());
}

void XanaduPolicy::launch_speculation(PlatformEngine& engine, RequestContext& ctx,
                                      WorkflowState& wf, RequestState& rs,
                                      NodeId from_node,
                                      sim::Duration base_offset) {
  // Determine the sub-path to act on: the planned MLP prefix, or (on
  // replan) the path re-estimated from `from_node`.
  std::span<const NodeId> path = rs.planned_path();
  MlpResult fresh;
  if (from_node.valid()) {
    // Re-estimate from the node the workflow actually took.
    BranchModel rooted = wf.model;  // Cheap relative to a prediction miss.
    rooted.finalize_pending();
    fresh = estimate_mlp_from(rooted, {from_node}, options_.mlp);
    path = fresh.path;

    if (options_.reuse_workers_on_miss) {
      // Section 7 extension: sandboxes deployed for the stale path are
      // recycled into the fresh path before any new provisioning starts.
      std::vector<NodeId> stale;
      for (const NodeId id : rs.planned_path()) {
        if (ctx.nodes[id.value()].status != platform::NodeStatus::Pending) {
          continue;
        }
        if (!fresh.contains(id)) stale.push_back(id);
      }
      for (const NodeId target_node : path) {
        if (stale.empty()) break;
        if (ctx.nodes[target_node.value()].status !=
            platform::NodeStatus::Pending) {
          continue;
        }
        const auto target = engine.function_id(ctx.workflow, target_node);
        if (engine.warm_count(target) > 0 ||
            engine.provisioning_in_flight(target)) {
          continue;
        }
        for (auto it = stale.begin(); it != stale.end(); ++it) {
          const auto source = engine.function_id(ctx.workflow, *it);
          // Idle sandbox first; otherwise redirect one still being built
          // (the environment is generic until its code load).
          if (engine.rebind_warm_worker(source, target) ||
              engine.redirect_provision(source, target)) {
            rs.mark_prewarmed(target_node.value());
            stale.erase(it);
            break;
          }
        }
      }
    }

    for (std::size_t i = 0; i < fresh.path.size(); ++i) {
      if (!rs.mlp.contains(fresh.path[i])) {
        rs.add_planned(fresh.path[i], fresh.likelihood[i]);
      }
    }
    // Every fresh node is on the request's MLP now; the fresh predictions
    // overwrite older ones for the same parent.
    for (std::size_t i = 0; i < fresh.path.size(); ++i) {
      if (fresh.predicted_choice[i].valid()) {
        rs.mlp.predicted_choice[rs.mlp.position(fresh.path[i])] =
            fresh.predicted_choice[i];
      }
    }
    ctx.speculation.predicted_nodes = rs.planned;
  }

  if (options_.mode == SpeculationMode::Speculative) {
    // Provision every path sandbox at the onset of the workflow.
    for (const NodeId node : path) {
      const NodeStatus status = ctx.nodes[node.value()].status;
      if (status != NodeStatus::Pending) continue;
      engine.prewarm(ctx, node);
      rs.mark_prewarmed(node.value());
    }
    return;
  }

  // JIT: build the Algorithm-2 timeline and schedule deployments.
  const JitPlan plan =
      options_.knowledge == ChainKnowledge::Explicit
          ? plan_explicit(path, wf.model, wf.profiles, options_.jit)
          : plan_implicit(path, wf.model, wf.profiles, options_.jit);
  for (const Deployment& d : plan.deployments) {
    const NodeStatus status = ctx.nodes[d.node.value()].status;
    if (status != NodeStatus::Pending) continue;
    const sim::Duration delay =
        (base_offset + d.deploy_delay).clamped_non_negative();
    rs.mark_prewarmed(d.node.value());
    if (delay == sim::Duration::zero()) {
      engine.prewarm(ctx, d.node);
    } else {
      rs.scheduled.push_back(engine.schedule_prewarm(ctx, d.node, delay));
    }
  }
}

void XanaduPolicy::on_node_triggered(PlatformEngine& engine, RequestContext& ctx,
                                     NodeId node) {
  WorkflowState& wf = workflow_state(engine, ctx);
  const platform::NodeRecord& record = ctx.nodes[node.value()];
  if (record.invoked_by.empty()) {
    wf.model.observe_root(node, ctx.id);
    return;
  }
  for (const NodeId parent : record.invoked_by) {
    wf.model.observe_invocation(parent, node, ctx.id);
    const platform::NodeRecord& parent_record = ctx.nodes[parent.value()];
    // Invoke gaps are only representative when the parent ran warm: a cold
    // parent's gap includes its own provisioning wait, which speculation
    // will remove -- learning it would make the planner deploy late forever.
    if (!parent_record.cold) {
      wf.profiles.observe_invoke_gap(
          parent, node, record.trigger_time - parent_record.trigger_time);
    }
  }
}

void XanaduPolicy::on_worker_ready(PlatformEngine& engine,
                                   common::WorkflowId workflow, NodeId node,
                                   sim::Duration provision_latency) {
  (void)engine;
  auto it = workflows_.find(workflow);
  if (it == workflows_.end()) return;
  it->second.profiles.function(node).observe_startup(provision_latency);
}

void XanaduPolicy::on_node_exec_start(PlatformEngine& engine, RequestContext& ctx,
                                      NodeId node) {
  (void)engine;
  if (options_.mode != SpeculationMode::Off) {
    auto it = requests_.find(ctx.id);
    if (it != requests_.end() && !it->second.mlp.path.empty() &&
        !it->second.mlp.contains(node)) {
      ++ctx.speculation.unpredicted_executions;
    }
  }
}

void XanaduPolicy::on_node_completed(PlatformEngine& engine, RequestContext& ctx,
                                     NodeId node) {
  WorkflowState& wf = workflow_state(engine, ctx);
  const platform::NodeRecord& record = ctx.nodes[node.value()];
  const sim::Duration response = record.exec_end - record.trigger_time;
  FunctionProfile& profile = wf.profiles.function(node);
  if (record.cold) {
    profile.observe_cold_response(response);
  } else {
    profile.observe_warm_response(response);
  }
}

void XanaduPolicy::on_xor_resolved(PlatformEngine& engine, RequestContext& ctx,
                                   NodeId parent, NodeId chosen) {
  if (options_.mode == SpeculationMode::Off) return;
  auto it = requests_.find(ctx.id);
  if (it == requests_.end()) return;
  RequestState& rs = it->second;
  const NodeId predicted = rs.mlp.predicted(parent);
  if (!predicted.valid() || predicted == chosen) return;

  // Prediction miss (Section 3.2.2): stop all planned proactive
  // provisioning immediately.
  rs.miss_detected = true;
  cancel_pending(engine, ctx, rs);

  if (options_.miss_policy == MissPolicy::Replan) {
    // Future-work extension (Section 7): re-evaluate the MLP from the
    // branch the workflow actually took and resume speculation there.
    WorkflowState& wf = workflow_state(engine, ctx);
    launch_speculation(engine, ctx, wf, rs, chosen, sim::Duration::zero());
  }
}

void XanaduPolicy::cancel_pending(PlatformEngine& engine, RequestContext& ctx,
                                  RequestState& rs) {
  for (const common::EventId event : rs.scheduled) {
    if (engine.cancel_scheduled_prewarm(event)) {
      ++ctx.speculation.cancelled_deployments;
    }
  }
  rs.scheduled.clear();
}

void XanaduPolicy::on_node_skipped(PlatformEngine& engine, RequestContext& ctx,
                                   NodeId node) {
  if (options_.mode == SpeculationMode::Off) return;
  auto it = requests_.find(ctx.id);
  if (it == requests_.end()) return;
  RequestState& rs = it->second;
  if (!rs.mlp.contains(node)) return;
  ++ctx.speculation.missed_nodes;
  if (rs.prewarmed(node.value())) {
    const auto fn = engine.function_id(ctx.workflow, node);
    if (options_.reuse_workers_on_miss) {
      // Section 7 extension: hand the mis-deployed sandbox to a pending node
      // on the (replanned) path that has no coverage yet, if the
      // architectures match.
      for (const NodeId candidate : rs.planned_path()) {
        const auto status = ctx.nodes[candidate.value()].status;
        if (status != platform::NodeStatus::Pending) continue;
        const auto target = engine.function_id(ctx.workflow, candidate);
        if (engine.warm_count(target) > 0 ||
            engine.provisioning_in_flight(target)) {
          continue;
        }
        if (engine.rebind_warm_worker(fn, target) ||
            engine.redirect_provision(fn, target)) {
          rs.mark_prewarmed(candidate.value());
          break;
        }
      }
    }
    // Whatever could not be reused is discarded: the paper's "speculatively
    // deployed resources have to be discarded".
    ctx.speculation.wasted_workers += engine.discard_warm_workers(fn);
    ctx.speculation.wasted_workers += engine.abort_unclaimed_provisions(fn);
  }
}

bool XanaduPolicy::persist(common::WorkflowId id, MetadataStore& store,
                           const std::string& key) const {
  auto it = workflows_.find(id);
  if (it == workflows_.end()) return false;
  WorkflowMetadata metadata;
  metadata.model = it->second.model;
  metadata.model.finalize_pending();
  metadata.profiles = it->second.profiles;
  store.put(key, metadata);
  return true;
}

common::Result<bool> XanaduPolicy::restore(common::WorkflowId id,
                                           const MetadataStore& store,
                                           const std::string& key) {
  auto loaded = store.get(key);
  if (!loaded.ok()) return loaded.error();
  if (!loaded.value().has_value()) return false;
  WorkflowState state{options_.ema_alpha};
  state.model = std::move(loaded.value()->model);
  state.profiles = std::move(loaded.value()->profiles);
  workflows_.insert_or_assign(id, std::move(state));
  return true;
}

void XanaduPolicy::on_request_completed(PlatformEngine& engine,
                                        RequestContext& ctx,
                                        RequestResult& result) {
  if (result.failed) {
    // Failed-over request: reuse the miss-cancellation path so planned
    // speculative deployments for the dead request stop immediately.
    auto it = requests_.find(ctx.id);
    if (it != requests_.end()) cancel_pending(engine, ctx, it->second);
  }
  WorkflowState& wf = workflow_state(engine, ctx);
  wf.model.finalize_pending();
  result.speculation = ctx.speculation;
  requests_.erase(ctx.id);
}

}  // namespace xanadu::core
