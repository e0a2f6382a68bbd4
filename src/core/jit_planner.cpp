#include "core/jit_planner.hpp"

#include <algorithm>
#include <cstdint>

#include "core/path_index.hpp"

namespace xanadu::core {

namespace {

/// Working storage of one plan, indexed by path position.  Kept per thread
/// and reused, so a warm planner allocates nothing but the returned plan.
struct Scratch {
  PathIndex index;
  /// MLP children of path[i] are children[child_begin[i] .. child_begin[i+1]).
  std::vector<std::uint32_t> child_begin;
  std::vector<std::uint32_t> children;
  /// MLP parents of path[i] not planned yet.
  std::vector<std::uint32_t> waiting;
  /// Kahn's queue: positions whose parents are all planned.
  std::vector<std::uint32_t> order;
  /// Latest parent-derived invocation time of path[i] seen so far.
  std::vector<sim::Duration> invocation;
};

JitPlan plan(std::span<const NodeId> path, const BranchModel& model,
             const ProfileTable& profiles, const JitOptions& options,
             bool implicit) {
  thread_local Scratch s;
  const ProfileFallbacks& fb = options.fallbacks;
  const std::size_t n = path.size();
  JitPlan plan;
  plan.deployments.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.deployments[i].node = path[i];
    s.index.set(path[i], i);
  }

  // MLP parents in one pass over each path node's learned edges.
  s.child_begin.resize(n + 1);
  s.children.clear();
  s.waiting.assign(n, 0);
  s.invocation.assign(n, sim::Duration::zero());
  for (std::size_t i = 0; i < n; ++i) {
    s.child_begin[i] = static_cast<std::uint32_t>(s.children.size());
    const ModelNode* mn = model.find(path[i]);
    if (mn == nullptr) continue;
    for (const LearnedEdge& e : mn->children) {
      const std::size_t j = s.index.find(e.child, path);
      if (j == PathIndex::npos || j == i) continue;
      s.children.push_back(static_cast<std::uint32_t>(j));
      ++s.waiting[j];
    }
  }
  s.child_begin[n] = static_cast<std::uint32_t>(s.children.size());

  s.order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (s.waiting[i] == 0) s.order.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t roots = s.order.size();
  for (std::size_t head = 0; head < s.order.size(); ++head) {
    const std::uint32_t i = s.order[head];
    Deployment& d = plan.deployments[i];
    const FunctionProfile* profile = profiles.find_function(d.node);
    // `ready`: the node's completion time (explicit; the listing's
    // node.maxDelay) or its trigger time (implicit), relative to request
    // arrival.
    sim::Duration ready = sim::Duration::zero();
    if (head < roots) {
      // Root nodes are invoked immediately; deploy now.  An explicit root's
      // first completion is a cold response (the provisioning races the
      // request).
      if (!implicit) {
        ready = profile == nullptr ? fb.cold_response
                                   : profile->cold_response(fb);
      }
    } else {
      // m:1 barrier: the child is invoked when its slowest parent finishes
      // (explicit) or calls it (implicit).
      const sim::Duration invocation = s.invocation[i];
      d.expected_invocation = invocation;
      const sim::Duration startup =
          profile == nullptr ? fb.startup : profile->startup(fb);
      d.deploy_delay =
          (invocation - startup - options.safety_margin).clamped_non_negative();
      ready = implicit ? invocation
                       : invocation + (profile == nullptr
                                           ? fb.warm_response
                                           : profile->warm_response(fb));
    }
    for (std::uint32_t k = s.child_begin[i]; k < s.child_begin[i + 1]; ++k) {
      const std::uint32_t j = s.children[k];
      const sim::Duration at =
          implicit ? ready + profiles.invoke_gap(d.node, path[j], fb) : ready;
      s.invocation[j] = std::max(s.invocation[j], at);
      if (--s.waiting[j] == 0) s.order.push_back(j);
    }
  }
  return plan;
}

}  // namespace

JitPlan plan_explicit(std::span<const NodeId> path, const BranchModel& model,
                      const ProfileTable& profiles, const JitOptions& options) {
  return plan(path, model, profiles, options, /*implicit=*/false);
}

JitPlan plan_implicit(std::span<const NodeId> path, const BranchModel& model,
                      const ProfileTable& profiles, const JitOptions& options) {
  // Learned trigger-to-trigger invoke gaps replace the explicit recurrence's
  // response-time estimates.
  return plan(path, model, profiles, options, /*implicit=*/true);
}

}  // namespace xanadu::core
