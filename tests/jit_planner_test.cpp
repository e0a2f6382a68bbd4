// Tests for the JIT deployment planner (Algorithm 2 and its implicit-chain
// variant).

#include <gtest/gtest.h>

#include "core/dispatch_manager.hpp"
#include "core/jit_planner.hpp"
#include "workflow/builders.hpp"

namespace xanadu::core {
namespace {

using sim::Duration;

/// Builds a profile table with fixed (single-observation) values.
void set_profile(ProfileTable& table, NodeId node, double cold_ms,
                 double startup_ms, double warm_ms) {
  FunctionProfile& p = table.function(node);
  p.observe_cold_response(Duration::from_millis(cold_ms));
  p.observe_startup(Duration::from_millis(startup_ms));
  p.observe_warm_response(Duration::from_millis(warm_ms));
}

MlpResult full_path_mlp(const BranchModel& model) {
  return estimate_mlp(model);
}

class JitPlannerTest : public ::testing::Test {
 protected:
  JitOptions no_margin() {
    JitOptions opts;
    opts.safety_margin = Duration::zero();
    return opts;
  }
};

TEST_F(JitPlannerTest, RootDeploysImmediately) {
  const auto dag = workflow::linear_chain(1);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  set_profile(table, NodeId{0}, 4000, 3000, 1000);
  const JitPlan plan =
      plan_explicit(full_path_mlp(model), model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 1u);
  EXPECT_EQ(plan.deployments[0].deploy_delay, Duration::zero());
}

TEST_F(JitPlannerTest, Algorithm2Recurrence) {
  // Three-node chain.  Profiles: cold response 4000 ms, startup 3000 ms,
  // warm response 1000 ms for every node.
  //   f1: deploy 0, maxDelay = 4000 (cold response)
  //   f2: invoked at 4000, deploy at 4000 - 3000 = 1000, maxDelay = 5000
  //   f3: invoked at 5000, deploy at 5000 - 3000 = 2000, maxDelay = 6000
  const auto dag = workflow::linear_chain(3);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  for (std::size_t i = 0; i < 3; ++i) {
    set_profile(table, NodeId{i}, 4000, 3000, 1000);
  }
  const JitPlan plan =
      plan_explicit(full_path_mlp(model), model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 3u);
  EXPECT_NEAR(plan.deployments[0].deploy_delay.millis(), 0.0, 1e-6);
  EXPECT_NEAR(plan.deployments[1].deploy_delay.millis(), 1000.0, 1e-6);
  EXPECT_NEAR(plan.deployments[2].deploy_delay.millis(), 2000.0, 1e-6);
  EXPECT_NEAR(plan.deployments[1].expected_invocation.millis(), 4000.0, 1e-6);
  EXPECT_NEAR(plan.deployments[2].expected_invocation.millis(), 5000.0, 1e-6);
}

TEST_F(JitPlannerTest, SafetyMarginShiftsDeploymentsEarlier) {
  const auto dag = workflow::linear_chain(2);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  set_profile(table, NodeId{0}, 4000, 3000, 1000);
  set_profile(table, NodeId{1}, 4000, 3000, 1000);
  JitOptions opts;
  opts.safety_margin = Duration::from_millis(250);
  const JitPlan plan = plan_explicit(full_path_mlp(model), model, table, opts);
  EXPECT_NEAR(plan.deployments[1].deploy_delay.millis(), 750.0, 1e-6);
}

TEST_F(JitPlannerTest, DelayClampsAtZeroWhenStartupDominates) {
  // Child startup (3000 ms) exceeds the parent's completion time (500 ms):
  // deploying "just in time" would require starting in the past, so it
  // deploys immediately.
  const auto dag = workflow::linear_chain(2);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  set_profile(table, NodeId{0}, 500, 200, 300);
  set_profile(table, NodeId{1}, 4000, 3000, 1000);
  const JitPlan plan =
      plan_explicit(full_path_mlp(model), model, table, no_margin());
  EXPECT_EQ(plan.deployments[1].deploy_delay, Duration::zero());
}

TEST_F(JitPlannerTest, BarrierUsesSlowestParent) {
  // fan_in(2): two roots (cold responses 1000 and 6000 ms) and a sink.
  const auto dag = workflow::fan_in(2);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  set_profile(table, NodeId{0}, 1000, 500, 400);
  set_profile(table, NodeId{1}, 6000, 500, 4000);
  set_profile(table, NodeId{2}, 4000, 3000, 1000);
  const JitPlan plan =
      plan_explicit(full_path_mlp(model), model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 3u);
  // Sink invoked at max(1000, 6000) = 6000; deploy at 6000 - 3000.
  const Deployment& sink = plan.deployments[2];
  EXPECT_NEAR(sink.expected_invocation.millis(), 6000.0, 1e-6);
  EXPECT_NEAR(sink.deploy_delay.millis(), 3000.0, 1e-6);
}

TEST_F(JitPlannerTest, FallbacksUsedWithoutObservations) {
  const auto dag = workflow::linear_chain(2);
  const BranchModel model = BranchModel::from_schema(dag);
  const ProfileTable table;  // Empty: no observations at all.
  JitOptions opts = no_margin();
  opts.fallbacks.cold_response = Duration::from_millis(5000);
  opts.fallbacks.startup = Duration::from_millis(2000);
  const JitPlan plan = plan_explicit(full_path_mlp(model), model, table, opts);
  EXPECT_NEAR(plan.deployments[1].deploy_delay.millis(), 3000.0, 1e-6);
}

TEST_F(JitPlannerTest, ImplicitVariantUsesInvokeGaps) {
  // Implicit chain: invoke gaps of 2000 ms per hop; startup 1500 ms.
  const auto dag = workflow::linear_chain(3);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  for (std::size_t i = 0; i < 3; ++i) {
    set_profile(table, NodeId{i}, 9999, 1500, 9999);  // responses unused
  }
  table.observe_invoke_gap(NodeId{0}, NodeId{1}, Duration::from_millis(2000));
  table.observe_invoke_gap(NodeId{1}, NodeId{2}, Duration::from_millis(2000));
  const JitPlan plan =
      plan_implicit(full_path_mlp(model), model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 3u);
  EXPECT_NEAR(plan.deployments[0].deploy_delay.millis(), 0.0, 1e-6);
  // f2 invoked at 2000; deploy at 2000 - 1500 = 500.
  EXPECT_NEAR(plan.deployments[1].deploy_delay.millis(), 500.0, 1e-6);
  // f3 invoked at 4000; deploy at 4000 - 1500 = 2500.
  EXPECT_NEAR(plan.deployments[2].deploy_delay.millis(), 2500.0, 1e-6);
}

TEST_F(JitPlannerTest, ImplicitVariantFallsBackOnUnseenGaps) {
  const auto dag = workflow::linear_chain(2);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  set_profile(table, NodeId{1}, 9999, 400, 9999);
  JitOptions opts = no_margin();
  opts.fallbacks.invoke_gap = Duration::from_millis(1200);
  const JitPlan plan = plan_implicit(full_path_mlp(model), model, table, opts);
  EXPECT_NEAR(plan.deployments[1].deploy_delay.millis(), 800.0, 1e-6);
}

TEST_F(JitPlannerTest, EmptyMlpYieldsEmptyPlan) {
  const BranchModel model;
  const ProfileTable table;
  const MlpResult mlp;
  EXPECT_TRUE(plan_explicit(mlp, model, table).deployments.empty());
  EXPECT_TRUE(plan_implicit(mlp, model, table).deployments.empty());
}

TEST_F(JitPlannerTest, DeploymentsSpreadAcrossChainLifetime) {
  // The JIT property behind Figure 13: deployment times increase with depth
  // instead of clustering at t = 0 (Xanadu Speculative's behaviour).
  const auto dag = workflow::linear_chain(10);
  const BranchModel model = BranchModel::from_schema(dag);
  ProfileTable table;
  for (std::size_t i = 0; i < 10; ++i) {
    set_profile(table, NodeId{i}, 8000, 3000, 5000);
  }
  const JitPlan plan =
      plan_explicit(full_path_mlp(model), model, table, no_margin());
  for (std::size_t i = 2; i < plan.deployments.size(); ++i) {
    EXPECT_GT(plan.deployments[i].deploy_delay,
              plan.deployments[i - 1].deploy_delay);
  }
  // Tail deployments happen tens of seconds into the workflow.
  EXPECT_GT(plan.deployments.back().deploy_delay.seconds(), 30.0);
}

/// A->B->C->E plus the skip edge A->E.  The MLP is breadth-first, so it is
/// [A, B, E, C]: E comes before its parent C.
workflow::WorkflowDag skip_edge_dag() {
  workflow::WorkflowDag dag{"skip_edge"};
  const NodeId a = dag.add_node(workflow::FunctionSpec{.name = "a"});
  const NodeId b = dag.add_node(workflow::FunctionSpec{.name = "b"});
  const NodeId c = dag.add_node(workflow::FunctionSpec{.name = "c"});
  const NodeId e = dag.add_node(workflow::FunctionSpec{.name = "e"});
  dag.add_edge(a, b);
  dag.add_edge(a, e);
  dag.add_edge(b, c);
  dag.add_edge(c, e);
  dag.validate();
  return dag;
}

TEST_F(JitPlannerTest, SkipEdgeExplicitWaitsForTheLaterParent) {
  const BranchModel model = BranchModel::from_schema(skip_edge_dag());
  const MlpResult mlp = estimate_mlp(model);
  ASSERT_EQ(mlp.path, (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{3},
                                           NodeId{2}}));
  ProfileTable table;
  for (std::size_t i = 0; i < 4; ++i) {
    set_profile(table, NodeId{i}, 4000, 3000, 1000);
  }
  const JitPlan plan = plan_explicit(mlp, model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 4u);
  // Path order: A completes at 4000 (cold), B at 5000, C at 6000.  E is
  // invoked when the later of A and C finishes: max(4000, 6000) = 6000.
  const std::vector<NodeId> order{NodeId{0}, NodeId{1}, NodeId{3}, NodeId{2}};
  const double invoked[] = {0.0, 4000.0, 6000.0, 5000.0};
  const double deployed[] = {0.0, 1000.0, 3000.0, 2000.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.deployments[i].node, order[i]);
    EXPECT_NEAR(plan.deployments[i].expected_invocation.millis(), invoked[i],
                1e-6);
    EXPECT_NEAR(plan.deployments[i].deploy_delay.millis(), deployed[i], 1e-6);
  }
}

TEST_F(JitPlannerTest, SkipEdgeImplicitTakesTheLatestParentGap) {
  const BranchModel model = BranchModel::from_schema(skip_edge_dag());
  ProfileTable table;
  for (std::size_t i = 0; i < 4; ++i) {
    set_profile(table, NodeId{i}, 9999, 500, 9999);  // responses unused
  }
  table.observe_invoke_gap(NodeId{0}, NodeId{1}, Duration::from_millis(1000));
  table.observe_invoke_gap(NodeId{1}, NodeId{2}, Duration::from_millis(1000));
  table.observe_invoke_gap(NodeId{2}, NodeId{3}, Duration::from_millis(1000));
  table.observe_invoke_gap(NodeId{0}, NodeId{3}, Duration::from_millis(500));
  const JitPlan plan =
      plan_implicit(estimate_mlp(model), model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 4u);
  // B at 1000, C at 2000, E at max(0 + 500, 2000 + 1000) = 3000.
  const double invoked[] = {0.0, 1000.0, 3000.0, 2000.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(plan.deployments[i].expected_invocation.millis(), invoked[i],
                1e-6);
    EXPECT_NEAR(plan.deployments[i].deploy_delay.millis(),
                i == 0 ? 0.0 : invoked[i] - 500.0, 1e-6);
  }
}

TEST(JitPlannerEndToEnd, SkipEdgeWorkflowCompletesUnderXanaduJit) {
  DispatchManagerOptions options;
  options.kind = PlatformKind::XanaduJit;
  DispatchManager manager{options};
  const auto wf = manager.deploy(skip_edge_dag());
  for (int i = 0; i < 3; ++i) {
    const platform::RequestResult result = manager.invoke(wf);
    EXPECT_FALSE(result.failed) << "request " << i;
    EXPECT_EQ(result.executed_nodes, 4u) << "request " << i;
  }
}

TEST_F(JitPlannerTest, CyclicRestoredModelPlansWithoutThrowing) {
  // Only a corrupt restored model can hold a cycle: its nodes are never
  // released by the topological walk and deploy at once.
  BranchModel model;
  model.restore_node(ModelNode{NodeId{0}, SelectMode::All, 0,
                               {LearnedEdge{NodeId{1}, 1.0, 0}}});
  model.restore_node(ModelNode{NodeId{1}, SelectMode::All, 0,
                               {LearnedEdge{NodeId{2}, 1.0, 0}}});
  model.restore_node(ModelNode{NodeId{2}, SelectMode::All, 0,
                               {LearnedEdge{NodeId{1}, 1.0, 0}}});
  const std::vector<NodeId> path{NodeId{0}, NodeId{1}, NodeId{2}};
  const ProfileTable table;
  const JitPlan plan = plan_explicit(path, model, table, no_margin());
  ASSERT_EQ(plan.deployments.size(), 3u);
  EXPECT_EQ(plan.deployments[1].deploy_delay, Duration::zero());
  EXPECT_EQ(plan.deployments[2].deploy_delay, Duration::zero());
}

}  // namespace
}  // namespace xanadu::core
