#include "core/profile.hpp"

#include <algorithm>

namespace xanadu::core {

ProfileTable::Slot& ProfileTable::slot(NodeId node) {
  if (node.value() >= slots_.size()) slots_.resize(node.value() + 1);
  return slots_[node.value()];
}

FunctionProfile& ProfileTable::function(NodeId node) {
  std::optional<FunctionProfile>& profile = slot(node).profile;
  if (!profile) profile.emplace(alpha_);
  return *profile;
}

const FunctionProfile* ProfileTable::find_function(NodeId node) const {
  if (node.value() >= slots_.size()) return nullptr;
  const std::optional<FunctionProfile>& profile = slots_[node.value()].profile;
  return profile ? &*profile : nullptr;
}

common::Ema& ProfileTable::gap_ema(NodeId parent, NodeId child) {
  std::vector<ChildGap>& gaps = slot(parent).gaps;
  auto it = std::lower_bound(
      gaps.begin(), gaps.end(), child,
      [](const ChildGap& g, NodeId c) { return g.child < c; });
  if (it == gaps.end() || it->child != child) {
    it = gaps.insert(it, ChildGap{child, common::Ema{alpha_}});
  }
  return it->ema;
}

void ProfileTable::observe_invoke_gap(NodeId parent, NodeId child,
                                      sim::Duration gap) {
  gap_ema(parent, child).observe(gap.millis());
}

void ProfileTable::restore_invoke_gap(NodeId parent, NodeId child,
                                      double value_ms, std::size_t count) {
  gap_ema(parent, child).restore(value_ms, count);
}

sim::Duration ProfileTable::invoke_gap(NodeId parent, NodeId child,
                                       const ProfileFallbacks& fb) const {
  if (parent.value() >= slots_.size()) return fb.invoke_gap;
  for (const ChildGap& g : slots_[parent.value()].gaps) {
    if (g.child == child) {
      return sim::Duration::from_millis(g.ema.value_or(fb.invoke_gap.millis()));
    }
  }
  return fb.invoke_gap;
}

}  // namespace xanadu::core
