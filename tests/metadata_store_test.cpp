// Tests for the metadata store (CouchDB stand-in): JSON round-trips of the
// learned branch model and profiles, corrupt-document handling, and a full
// control-plane warm restart.

#include <gtest/gtest.h>

#include "core/dispatch_manager.hpp"
#include "core/metadata_store.hpp"
#include "workflow/builders.hpp"

namespace xanadu::core {
namespace {

using common::NodeId;
using common::RequestId;

BranchModel learned_model() {
  BranchModel model;
  model.observe_root(NodeId{0}, RequestId{1});
  model.observe_invocation(NodeId{0}, NodeId{1}, RequestId{1});
  model.observe_invocation(NodeId{0}, NodeId{2}, RequestId{2});
  model.observe_invocation(NodeId{0}, NodeId{1}, RequestId{3});
  model.observe_invocation(NodeId{1}, NodeId{3}, RequestId{3});
  model.finalize_pending();
  return model;
}

TEST(MetadataStore, BranchModelRoundTrip) {
  const BranchModel original = learned_model();
  auto restored = branch_model_from_json(to_json(original));
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const BranchModel& model = restored.value();
  EXPECT_EQ(model.node_count(), original.node_count());
  EXPECT_EQ(model.roots(), original.roots());
  for (const NodeId id : original.known_nodes()) {
    const ModelNode* a = original.find(id);
    const ModelNode* b = model.find(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->select, b->select);
    EXPECT_EQ(a->request_count, b->request_count);
    ASSERT_EQ(a->children.size(), b->children.size());
    for (std::size_t i = 0; i < a->children.size(); ++i) {
      EXPECT_EQ(a->children[i].child, b->children[i].child);
      EXPECT_DOUBLE_EQ(a->children[i].probability, b->children[i].probability);
      EXPECT_EQ(a->children[i].count, b->children[i].count);
    }
  }
}

TEST(MetadataStore, ProfileTableRoundTrip) {
  ProfileTable original{0.25};
  original.function(NodeId{0}).observe_cold_response(sim::Duration::from_millis(4200));
  original.function(NodeId{0}).observe_startup(sim::Duration::from_millis(3100));
  original.function(NodeId{1}).observe_warm_response(sim::Duration::from_millis(900));
  original.observe_invoke_gap(NodeId{0}, NodeId{1}, sim::Duration::from_millis(750));

  auto restored = profile_table_from_json(to_json(original));
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  const ProfileTable& table = restored.value();
  EXPECT_DOUBLE_EQ(table.alpha(), 0.25);
  ProfileFallbacks fb;
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{0})->cold_response(fb).millis(),
                   4200.0);
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{0})->startup(fb).millis(), 3100.0);
  EXPECT_DOUBLE_EQ(table.find_function(NodeId{1})->warm_response(fb).millis(),
                   900.0);
  EXPECT_DOUBLE_EQ(table.invoke_gap(NodeId{0}, NodeId{1}, fb).millis(), 750.0);
  // Unseen metrics still fall back.
  EXPECT_EQ(table.invoke_gap(NodeId{5}, NodeId{6}, fb), fb.invoke_gap);
}

TEST(MetadataStore, PutGetAndDumpParse) {
  MetadataStore store;
  WorkflowMetadata metadata;
  metadata.model = learned_model();
  metadata.profiles.function(NodeId{0}).observe_startup(
      sim::Duration::from_millis(2800));
  store.put("checkout", metadata);
  EXPECT_TRUE(store.contains("checkout"));
  EXPECT_EQ(store.size(), 1u);

  auto loaded = store.get("checkout");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->model.node_count(), 4u);

  // Dump the whole store to text and reload it (restart persistence).
  auto reparsed = MetadataStore::parse(store.dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  auto reloaded = reparsed.value().get("checkout");
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(reloaded.value().has_value());
  ProfileFallbacks fb;
  EXPECT_DOUBLE_EQ(
      reloaded.value()->profiles.find_function(NodeId{0})->startup(fb).millis(),
      2800.0);
}

TEST(MetadataStore, MissingKeyYieldsEmptyOptional) {
  const MetadataStore store;
  auto result = store.get("ghost");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().has_value());
}

TEST(MetadataStore, CorruptDocumentsRejected) {
  EXPECT_FALSE(branch_model_from_json(common::JsonValue{42.0}).ok());
  EXPECT_FALSE(profile_table_from_json(common::JsonValue{"x"}).ok());
  // Wrong version.
  common::JsonObject doc;
  doc.set("version", common::JsonValue{99.0});
  EXPECT_FALSE(branch_model_from_json(common::JsonValue{std::move(doc)}).ok());
  EXPECT_FALSE(MetadataStore::parse("not json").ok());
  EXPECT_FALSE(MetadataStore::parse("[1,2]").ok());
}

TEST(MetadataStore, TruncatedDumpsRejected) {
  // A real dump cut off mid-document (disk full, interrupted write) must
  // surface as a parse error, never as a half-loaded store.
  MetadataStore store;
  WorkflowMetadata metadata;
  metadata.model = learned_model();
  store.put("checkout", metadata);
  const std::string full = store.dump();
  ASSERT_GT(full.size(), 8u);
  for (const std::size_t keep :
       {full.size() / 2, full.size() - 1, std::size_t{1}}) {
    auto result = MetadataStore::parse(full.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "accepted a dump truncated to " << keep
                              << " of " << full.size() << " bytes";
  }
  // Hand-written truncations: cut inside a key, after a ':', inside a
  // nested object.
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {"model": {"version")").ok());
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {"model":)").ok());
  EXPECT_FALSE(MetadataStore::parse(R"({"checkout": {)").ok());
}

TEST(MetadataStore, OutOfRangeNodeIdsRejected) {
  // BranchModel and ProfileTable index their storage by node id, so a
  // document naming node 2^40 (or a negative or fractional id) must be
  // rejected rather than grow that storage to match.  Counts and the select
  // mode are cast from a JSON double to an integer too: a negative,
  // fractional or huge value must be rejected before the cast (-1 would
  // wrap to 2^64-1, 1e300 is undefined behaviour).
  auto model = [](const std::string& node_id, const std::string& child,
                  const std::string& root, const std::string& select = "0",
                  const std::string& requests = "1",
                  const std::string& edge_count = "1") {
    const std::string text =
        R"({"version": 1, "roots": [)" + root + R"(], "nodes": [{"id": )" +
        node_id + R"(, "select": )" + select + R"(, "request_count": )" +
        requests + R"(, "children": [{"child": )" + child +
        R"(, "probability": 1, "count": )" + edge_count + "}]}]}";
    auto json = common::parse_json(text);
    EXPECT_TRUE(json.ok()) << text;
    return branch_model_from_json(json.value());
  };
  auto profiles = [](const std::string& node_id, const std::string& parent,
                     const std::string& child,
                     const std::string& fn_count = "1",
                     const std::string& gap_count = "1") {
    const std::string ema = R"({"value": 1, "count": )" + fn_count + "}";
    const std::string gap_ema = R"({"value": 1, "count": )" + gap_count + "}";
    const std::string text =
        R"({"version": 1, "alpha": 0.3, "functions": [{"node": )" + node_id +
        R"(, "cold_response": )" + ema + R"(, "startup": )" + ema +
        R"(, "warm_response": )" + ema + R"(}], "invoke_gaps": [{"parent": )" +
        parent + R"(, "child": )" + child + R"(, "ema": )" + gap_ema + "}]}";
    auto json = common::parse_json(text);
    EXPECT_TRUE(json.ok()) << text;
    return profile_table_from_json(json.value());
  };
  const std::string max = std::to_string(kMaxStoredNodeId);
  ASSERT_TRUE(model(max, "0", max).ok());
  ASSERT_TRUE(profiles(max, max, "0").ok());
  EXPECT_EQ(model(max, "0", "0").value().node_count(), 1u);

  // The largest count a double holds exactly, and the last select mode.
  const std::string max_count = "9007199254740992";  // 2^53
  const std::string auto_mode =
      std::to_string(static_cast<int>(SelectMode::Auto));
  {
    auto restored = model("0", "1", "0", auto_mode, max_count, max_count);
    ASSERT_TRUE(restored.ok()) << restored.error().message;
    const ModelNode* node = restored.value().find(NodeId{0});
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->select, SelectMode::Auto);
    EXPECT_EQ(node->request_count, std::size_t{1} << 53);
    ASSERT_EQ(node->children.size(), 1u);
    EXPECT_EQ(node->children[0].count, std::size_t{1} << 53);
  }
  ASSERT_TRUE(profiles("0", "0", "1", max_count, max_count).ok());

  auto expect_out_of_range = [](const auto& result) {
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("out of range"), std::string::npos)
        << result.error().message;
  };
  for (const std::string& bad :
       {std::string{"1099511627776"}, std::to_string(kMaxStoredNodeId + 1),
        std::string{"-1"}, std::string{"0.5"}, std::string{"1e300"}}) {
    SCOPED_TRACE(bad);
    expect_out_of_range(model(bad, "0", "0"));
    expect_out_of_range(model("0", bad, "0"));
    expect_out_of_range(model("0", "0", bad));
    expect_out_of_range(profiles(bad, "0", "1"));
    expect_out_of_range(profiles("0", bad, "1"));
    expect_out_of_range(profiles("0", "0", bad));
  }
  for (const std::string& bad :
       {std::string{"-1"}, std::string{"0.5"}, std::string{"1e300"},
        std::string{"9007199254740994"}}) {
    SCOPED_TRACE(bad);
    expect_out_of_range(model("0", "1", "0", bad));
    expect_out_of_range(model("0", "1", "0", "0", bad));
    expect_out_of_range(model("0", "1", "0", "0", "1", bad));
    expect_out_of_range(profiles("0", "0", "1", bad));
    expect_out_of_range(profiles("0", "0", "1", "1", bad));
  }
  expect_out_of_range(model(
      "0", "1", "0", std::to_string(static_cast<int>(SelectMode::Auto) + 1)));
}

TEST(MetadataStore, DuplicateKeysRejected) {
  // Duplicate workflow keys (or duplicate fields inside a document) mean
  // the dump was corrupted or hand-merged badly; last-wins would silently
  // drop learned state.
  EXPECT_FALSE(MetadataStore::parse(R"({"wf": {}, "wf": {}})").ok());
  EXPECT_FALSE(
      MetadataStore::parse(R"({"wf": {"model": {}, "model": {}}})").ok());
  auto result = MetadataStore::parse(R"({"a": 1, "a": 2})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("duplicate object key"),
            std::string::npos)
      << result.error().message;
}

TEST(MetadataStore, WrongTypeFieldsRejected) {
  using common::JsonArray;
  using common::JsonObject;
  using common::JsonValue;

  const JsonValue good_model = to_json(learned_model());
  {
    // 'nodes' as a number instead of an array.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{3.0});
    doc.set("roots", JsonValue{JsonArray{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // A node with a string id.
    JsonObject node;
    node.set("id", JsonValue{"zero"});
    node.set("select", JsonValue{0.0});
    node.set("request_count", JsonValue{1.0});
    node.set("children", JsonValue{JsonArray{}});
    JsonArray nodes;
    nodes.push_back(JsonValue{std::move(node)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{std::move(nodes)});
    doc.set("roots", JsonValue{JsonArray{}});
    auto result = branch_model_from_json(JsonValue{std::move(doc)});
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("malformed node fields"),
              std::string::npos)
        << result.error().message;
  }
  {
    // 'roots' as an object instead of an array of numbers.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{JsonArray{}});
    doc.set("roots", JsonValue{JsonObject{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // An edge whose probability is a boolean.
    JsonObject edge;
    edge.set("child", JsonValue{1.0});
    edge.set("probability", JsonValue{true});
    edge.set("count", JsonValue{1.0});
    JsonArray children;
    children.push_back(JsonValue{std::move(edge)});
    JsonObject node;
    node.set("id", JsonValue{0.0});
    node.set("select", JsonValue{0.0});
    node.set("request_count", JsonValue{1.0});
    node.set("children", JsonValue{std::move(children)});
    JsonArray nodes;
    nodes.push_back(JsonValue{std::move(node)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("nodes", JsonValue{std::move(nodes)});
    doc.set("roots", JsonValue{JsonArray{}});
    EXPECT_FALSE(branch_model_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // Profile table: alpha as a string, then alpha out of range.
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("alpha", JsonValue{"0.25"});
    doc.set("functions", JsonValue{JsonArray{}});
    doc.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc)}).ok());
    JsonObject doc2;
    doc2.set("version", JsonValue{1.0});
    doc2.set("alpha", JsonValue{7.0});
    doc2.set("functions", JsonValue{JsonArray{}});
    doc2.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc2)}).ok());
  }
  {
    // Profile table: an EMA whose count is negative.
    JsonObject ema;
    ema.set("value", JsonValue{5.0});
    ema.set("count", JsonValue{-1.0});
    JsonObject fn;
    fn.set("node", JsonValue{0.0});
    fn.set("cold_response", JsonValue{ema});
    fn.set("startup", JsonValue{ema});
    fn.set("warm_response", JsonValue{std::move(ema)});
    JsonArray functions;
    functions.push_back(JsonValue{std::move(fn)});
    JsonObject doc;
    doc.set("version", JsonValue{1.0});
    doc.set("alpha", JsonValue{0.25});
    doc.set("functions", JsonValue{std::move(functions)});
    doc.set("invoke_gaps", JsonValue{JsonArray{}});
    EXPECT_FALSE(profile_table_from_json(JsonValue{std::move(doc)}).ok());
  }
  {
    // A store document whose 'model' section is the wrong shape fails at
    // get(), not at parse() (parse is lazy about section contents).
    auto parsed =
        MetadataStore::parse(R"({"wf": {"model": 42, "profiles": {}}})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_FALSE(parsed.value().get("wf").ok());
    // Good model, malformed profiles: still an error, not UB.
    JsonObject doc;
    doc.set("model", good_model);
    doc.set("profiles", JsonValue{"nope"});
    JsonObject top;
    top.set("wf", JsonValue{std::move(doc)});
    auto reparsed = MetadataStore::parse(JsonValue{std::move(top)}.dump());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_FALSE(reparsed.value().get("wf").ok());
  }
}

TEST(MetadataStore, ControlPlaneWarmRestart) {
  // Train a control plane, persist its state, then boot a *fresh* one from
  // the store: the first request after the restart must already benefit
  // from speculation (implicit chain, so an untrained plane would pay the
  // full cascading cold start).
  workflow::BuildOptions opts;
  opts.exec_time = sim::Duration::from_seconds(5);
  const auto dag = workflow::linear_chain(5, opts);

  MetadataStore store;
  XanaduOptions xo;
  xo.knowledge = ChainKnowledge::Implicit;
  {
    DispatchManagerOptions options;
    options.kind = PlatformKind::XanaduJit;
    options.xanadu = xo;
    DispatchManager manager{options};
    const auto wf = manager.deploy(dag);
    for (int i = 0; i < 3; ++i) {
      manager.force_cold_start();
      (void)manager.invoke(wf);
    }
    ASSERT_TRUE(manager.xanadu_policy()->persist(wf, store, "chain"));
  }

  // Fresh platform + fresh policy: restore before the first request.
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  options.xanadu = xo;
  DispatchManager manager{options};
  const auto wf = manager.deploy(dag);
  auto restored = manager.xanadu_policy()->restore(wf, store, "chain");
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_TRUE(restored.value());

  const auto result = manager.invoke(wf);
  // Without restore this first request would have 5 cold starts and no
  // predicted path; with the persisted model it speculates immediately.
  EXPECT_EQ(result.speculation.predicted_nodes, 5u);
  EXPECT_LE(result.cold_starts, 1u);

  // Restoring an absent key reports "nothing restored".
  auto missing = manager.xanadu_policy()->restore(wf, store, "ghost");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value());
}

}  // namespace
}  // namespace xanadu::core
