#include "core/metadata_store.hpp"

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

namespace xanadu::core {

using common::Error;
using common::JsonArray;
using common::JsonObject;
using common::JsonValue;
using common::Result;

namespace {

constexpr double kFormatVersion = 1.0;

/// The largest count a JSON number (a double) holds exactly.
constexpr std::uint64_t kMaxStoredCount = std::uint64_t{1} << 53;

/// Reads a whole number in [0, max].  The caller has checked that `json` is
/// a number.  Negative, fractional and huge values (whose conversion to an
/// integer would be undefined) all come back empty.
std::optional<std::uint64_t> whole_from_json(const JsonValue& json,
                                             std::uint64_t max) {
  const double v = json.as_number();
  if (!(v >= 0.0 && v <= static_cast<double>(max)) || v != std::floor(v)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

JsonValue ema_to_json(const common::Ema& ema) {
  JsonObject obj;
  obj.set("value", JsonValue{ema.value_or(0.0)});
  obj.set("count", JsonValue{static_cast<double>(ema.count())});
  return JsonValue{std::move(obj)};
}

Result<std::pair<double, std::size_t>> ema_from_json(const JsonValue& json,
                                                     const char* what) {
  if (!json.is_object()) {
    return Error{std::string{what} + ": expected an object"};
  }
  const JsonObject& obj = json.as_object();
  const JsonValue* value = obj.find("value");
  const JsonValue* count = obj.find("count");
  if (value == nullptr || !value->is_number() || count == nullptr ||
      !count->is_number()) {
    return Error{std::string{what} + ": malformed EMA state"};
  }
  const std::optional<std::uint64_t> n =
      whole_from_json(*count, kMaxStoredCount);
  if (!n) return Error{std::string{what} + ": EMA count out of range"};
  return std::pair{value->as_number(), static_cast<std::size_t>(*n)};
}

}  // namespace

JsonValue to_json(const BranchModel& model) {
  JsonObject doc;
  doc.set("version", JsonValue{kFormatVersion});

  JsonArray roots;
  for (const NodeId root : model.roots()) {
    roots.push_back(JsonValue{static_cast<double>(root.value())});
  }
  doc.set("roots", JsonValue{std::move(roots)});

  JsonArray nodes;
  for (const NodeId id : model.known_nodes()) {
    const ModelNode* node = model.find(id);
    JsonObject n;
    n.set("id", JsonValue{static_cast<double>(id.value())});
    n.set("select", JsonValue{static_cast<double>(static_cast<int>(node->select))});
    n.set("request_count",
          JsonValue{static_cast<double>(node->request_count)});
    JsonArray children;
    for (const LearnedEdge& e : node->children) {
      JsonObject edge;
      edge.set("child", JsonValue{static_cast<double>(e.child.value())});
      edge.set("probability", JsonValue{e.probability});
      edge.set("count", JsonValue{static_cast<double>(e.count)});
      children.push_back(JsonValue{std::move(edge)});
    }
    n.set("children", JsonValue{std::move(children)});
    nodes.push_back(JsonValue{std::move(n)});
  }
  doc.set("nodes", JsonValue{std::move(nodes)});
  return JsonValue{std::move(doc)};
}

Result<BranchModel> branch_model_from_json(const JsonValue& json) {
  if (!json.is_object()) return Error{"branch model: expected an object"};
  const JsonObject& doc = json.as_object();
  const JsonValue* version = doc.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kFormatVersion) {
    return Error{"branch model: missing or unsupported format version"};
  }
  BranchModel model;
  const JsonValue* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    return Error{"branch model: missing 'nodes' array"};
  }
  for (const JsonValue& entry : nodes->as_array()) {
    if (!entry.is_object()) return Error{"branch model: malformed node"};
    const JsonObject& n = entry.as_object();
    const JsonValue* id = n.find("id");
    const JsonValue* select = n.find("select");
    const JsonValue* request_count = n.find("request_count");
    const JsonValue* children = n.find("children");
    if (id == nullptr || !id->is_number() || select == nullptr ||
        !select->is_number() || request_count == nullptr ||
        !request_count->is_number() || children == nullptr ||
        !children->is_array()) {
      return Error{"branch model: malformed node fields"};
    }
    const std::optional<std::uint64_t> select_value = whole_from_json(
        *select, static_cast<std::uint64_t>(SelectMode::Auto));
    if (!select_value) return Error{"branch model: select mode out of range"};
    const std::optional<std::uint64_t> node_id =
        whole_from_json(*id, kMaxStoredNodeId);
    if (!node_id) return Error{"branch model: node id out of range"};
    const std::optional<std::uint64_t> requests =
        whole_from_json(*request_count, kMaxStoredCount);
    if (!requests) return Error{"branch model: request count out of range"};
    ModelNode node;
    node.id = NodeId{*node_id};
    node.select = static_cast<SelectMode>(*select_value);
    node.request_count = static_cast<std::size_t>(*requests);
    for (const JsonValue& edge_value : children->as_array()) {
      if (!edge_value.is_object()) return Error{"branch model: malformed edge"};
      const JsonObject& edge = edge_value.as_object();
      const JsonValue* child = edge.find("child");
      const JsonValue* probability = edge.find("probability");
      const JsonValue* count = edge.find("count");
      if (child == nullptr || !child->is_number() || probability == nullptr ||
          !probability->is_number() || count == nullptr ||
          !count->is_number()) {
        return Error{"branch model: malformed edge fields"};
      }
      const std::optional<std::uint64_t> child_id =
          whole_from_json(*child, kMaxStoredNodeId);
      if (!child_id) return Error{"branch model: edge child id out of range"};
      const std::optional<std::uint64_t> edge_count =
          whole_from_json(*count, kMaxStoredCount);
      if (!edge_count) return Error{"branch model: edge count out of range"};
      node.children.push_back(
          LearnedEdge{NodeId{*child_id}, probability->as_number(),
                      static_cast<std::size_t>(*edge_count)});
    }
    model.restore_node(std::move(node));
  }
  const JsonValue* roots = doc.find("roots");
  if (roots == nullptr || !roots->is_array()) {
    return Error{"branch model: missing 'roots' array"};
  }
  for (const JsonValue& root : roots->as_array()) {
    if (!root.is_number()) return Error{"branch model: malformed root"};
    const std::optional<std::uint64_t> root_id =
        whole_from_json(root, kMaxStoredNodeId);
    if (!root_id) return Error{"branch model: root id out of range"};
    model.restore_root(NodeId{*root_id});
  }
  return model;
}

JsonValue to_json(const ProfileTable& profiles) {
  JsonObject doc;
  doc.set("version", JsonValue{kFormatVersion});
  doc.set("alpha", JsonValue{profiles.alpha()});

  JsonArray functions;
  profiles.for_each_function([&](NodeId node, const FunctionProfile& profile) {
    JsonObject fn;
    fn.set("node", JsonValue{static_cast<double>(node.value())});
    fn.set("cold_response", ema_to_json(profile.cold_response_ema()));
    fn.set("startup", ema_to_json(profile.startup_ema()));
    fn.set("warm_response", ema_to_json(profile.warm_response_ema()));
    functions.push_back(JsonValue{std::move(fn)});
  });
  doc.set("functions", JsonValue{std::move(functions)});

  JsonArray gaps;
  profiles.for_each_invoke_gap(
      [&](NodeId parent, NodeId child, const common::Ema& ema) {
        JsonObject gap;
        gap.set("parent", JsonValue{static_cast<double>(parent.value())});
        gap.set("child", JsonValue{static_cast<double>(child.value())});
        gap.set("ema", ema_to_json(ema));
        gaps.push_back(JsonValue{std::move(gap)});
      });
  doc.set("invoke_gaps", JsonValue{std::move(gaps)});
  return JsonValue{std::move(doc)};
}

Result<ProfileTable> profile_table_from_json(const JsonValue& json) {
  if (!json.is_object()) return Error{"profile table: expected an object"};
  const JsonObject& doc = json.as_object();
  const JsonValue* version = doc.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kFormatVersion) {
    return Error{"profile table: missing or unsupported format version"};
  }
  const JsonValue* alpha = doc.find("alpha");
  if (alpha == nullptr || !alpha->is_number() || alpha->as_number() <= 0.0 ||
      alpha->as_number() > 1.0) {
    return Error{"profile table: malformed alpha"};
  }
  ProfileTable profiles{alpha->as_number()};

  const JsonValue* functions = doc.find("functions");
  if (functions == nullptr || !functions->is_array()) {
    return Error{"profile table: missing 'functions' array"};
  }
  for (const JsonValue& entry : functions->as_array()) {
    if (!entry.is_object()) return Error{"profile table: malformed function"};
    const JsonObject& fn = entry.as_object();
    const JsonValue* node = fn.find("node");
    if (node == nullptr || !node->is_number()) {
      return Error{"profile table: malformed function node id"};
    }
    const std::optional<std::uint64_t> node_id =
        whole_from_json(*node, kMaxStoredNodeId);
    if (!node_id) return Error{"profile table: function node id out of range"};
    FunctionProfile& profile = profiles.function(NodeId{*node_id});
    for (const auto& [field, ema] :
         {std::pair{"cold_response", &profile.cold_response_ema()},
          std::pair{"startup", &profile.startup_ema()},
          std::pair{"warm_response", &profile.warm_response_ema()}}) {
      const JsonValue* value = fn.find(field);
      if (value == nullptr) return Error{"profile table: missing EMA field"};
      auto state = ema_from_json(*value, field);
      if (!state.ok()) return state.error();
      ema->restore(state.value().first, state.value().second);
    }
  }

  const JsonValue* gaps = doc.find("invoke_gaps");
  if (gaps == nullptr || !gaps->is_array()) {
    return Error{"profile table: missing 'invoke_gaps' array"};
  }
  for (const JsonValue& entry : gaps->as_array()) {
    if (!entry.is_object()) return Error{"profile table: malformed gap"};
    const JsonObject& gap = entry.as_object();
    const JsonValue* parent = gap.find("parent");
    const JsonValue* child = gap.find("child");
    const JsonValue* ema = gap.find("ema");
    if (parent == nullptr || !parent->is_number() || child == nullptr ||
        !child->is_number() || ema == nullptr) {
      return Error{"profile table: malformed gap fields"};
    }
    const std::optional<std::uint64_t> parent_id =
        whole_from_json(*parent, kMaxStoredNodeId);
    const std::optional<std::uint64_t> child_id =
        whole_from_json(*child, kMaxStoredNodeId);
    if (!parent_id || !child_id) {
      return Error{"profile table: gap node id out of range"};
    }
    auto state = ema_from_json(*ema, "invoke_gap");
    if (!state.ok()) return state.error();
    profiles.restore_invoke_gap(NodeId{*parent_id}, NodeId{*child_id},
                                state.value().first, state.value().second);
  }
  return profiles;
}

void MetadataStore::put(const std::string& key, const WorkflowMetadata& metadata) {
  JsonObject doc;
  doc.set("model", to_json(metadata.model));
  doc.set("profiles", to_json(metadata.profiles));
  documents_.insert_or_assign(key, JsonValue{std::move(doc)});
}

common::Result<std::optional<WorkflowMetadata>> MetadataStore::get(
    const std::string& key) const {
  auto it = documents_.find(key);
  if (it == documents_.end()) {
    return std::optional<WorkflowMetadata>{};
  }
  if (!it->second.is_object()) {
    return Error{"metadata document '" + key + "' is not an object"};
  }
  const JsonObject& doc = it->second.as_object();
  const JsonValue* model_json = doc.find("model");
  const JsonValue* profiles_json = doc.find("profiles");
  if (model_json == nullptr || profiles_json == nullptr) {
    return Error{"metadata document '" + key + "' is missing sections"};
  }
  auto model = branch_model_from_json(*model_json);
  if (!model.ok()) return model.error();
  auto profiles = profile_table_from_json(*profiles_json);
  if (!profiles.ok()) return profiles.error();
  WorkflowMetadata metadata;
  metadata.model = std::move(model).value();
  metadata.profiles = std::move(profiles).value();
  return std::optional<WorkflowMetadata>{std::move(metadata)};
}

bool MetadataStore::contains(const std::string& key) const {
  return documents_.contains(key);
}

std::string MetadataStore::dump() const {
  JsonObject top;
  for (const auto& [key, doc] : documents_) top.set(key, doc);
  return JsonValue{std::move(top)}.dump();
}

common::Result<MetadataStore> MetadataStore::parse(const std::string& text) {
  auto json = common::parse_json(text);
  if (!json.ok()) return json.error();
  if (!json.value().is_object()) {
    return Error{"metadata store dump must be a JSON object"};
  }
  MetadataStore store;
  const JsonObject& top = json.value().as_object();
  for (const std::string& key : top.keys()) {
    store.documents_.emplace(key, top.at(key));
  }
  return store;
}

}  // namespace xanadu::core
