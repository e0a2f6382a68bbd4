#pragma once

// Metadata persistence -- the reproduction's stand-in for the CouchDB
// backend of paper Section 4 ("We use Apache CouchDB to store metrics and
// function branch-related metadata.  CouchDB supports native JSON data
// support...").
//
// The store serialises a workflow's learned state -- the Algorithm-3 branch
// model and the EMA function profiles -- to a JSON document and restores it,
// so a restarted control plane resumes speculating immediately instead of
// re-learning every workflow from scratch.  Documents are keyed by workflow
// name; the in-memory backend can be snapshotted to / loaded from a single
// JSON file.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "common/result.hpp"
#include "core/branch_model.hpp"
#include "core/profile.hpp"

namespace xanadu::core {

/// Serialisable learned state of one workflow.
struct WorkflowMetadata {
  BranchModel model;
  ProfileTable profiles{0.3};
};

/// Largest node id a stored document may name.  BranchModel and
/// ProfileTable index their storage by node id, so parsing rejects larger
/// (or negative, or fractional) ids instead of growing that storage to match;
/// real workflows are far smaller.
inline constexpr std::uint64_t kMaxStoredNodeId = (std::uint64_t{1} << 16) - 1;

/// Serialises learned state to a JSON value and back.  The format is
/// versioned; parsing rejects unknown versions and out-of-range node ids with
/// a descriptive error.
[[nodiscard]] common::JsonValue to_json(const BranchModel& model);
[[nodiscard]] common::Result<BranchModel> branch_model_from_json(
    const common::JsonValue& json);

[[nodiscard]] common::JsonValue to_json(const ProfileTable& profiles);
[[nodiscard]] common::Result<ProfileTable> profile_table_from_json(
    const common::JsonValue& json);

/// Keyed JSON document store (CouchDB stand-in).
class MetadataStore {
 public:
  /// Upserts a workflow's learned state under `key`.
  void put(const std::string& key, const WorkflowMetadata& metadata);

  /// Loads a workflow's learned state; nullopt when absent, error when the
  /// stored document is corrupt.
  [[nodiscard]] common::Result<std::optional<WorkflowMetadata>> get(
      const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return documents_.size(); }
  void erase(const std::string& key) { documents_.erase(key); }

  /// Serialises the whole store to one JSON document (and back).
  [[nodiscard]] std::string dump() const;
  [[nodiscard]] static common::Result<MetadataStore> parse(
      const std::string& text);

 private:
  std::map<std::string, common::JsonValue> documents_;
};

}  // namespace xanadu::core
