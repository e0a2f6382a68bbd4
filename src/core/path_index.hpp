#pragma once

// Node id -> path position lookup for the planning hot path.
//
// A sparse set (Briggs & Torczon): `slots_[id]` holds a candidate position,
// which counts only if the path really has that id there.  Stale entries from
// an earlier path are therefore harmless, so the index is reused across calls
// without being cleared and a warm index allocates nothing.  Node ids come
// from the workflow DAG and are dense, so the slot vector stays as small as
// the largest id seen.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace xanadu::core {

class PathIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Records that `path[position] == id`.
  void set(common::NodeId id, std::size_t position) {
    if (id.value() >= slots_.size()) slots_.resize(id.value() + 1);
    slots_[id.value()] = static_cast<std::uint32_t>(position);
  }

  /// Position of `id` on `path`, or npos.  `path` must be the path whose
  /// positions were recorded with set().
  [[nodiscard]] std::size_t find(common::NodeId id,
                                 std::span<const common::NodeId> path) const {
    if (id.value() >= slots_.size()) return npos;
    const std::size_t position = slots_[id.value()];
    return position < path.size() && path[position] == id ? position : npos;
  }

 private:
  std::vector<std::uint32_t> slots_;
};

}  // namespace xanadu::core
