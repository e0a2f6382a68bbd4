// Tests for the platform engine: DAG execution semantics (1:1, multicast,
// XOR cast, barrier), warm-pool reuse, keep-alive reclamation, prewarming,
// the OpenWhisk-style live-worker cap, and C_D accounting.

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "platform/engine.hpp"
#include "sim/audit.hpp"
#include "sim/simulator.hpp"
#include "workflow/builders.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using workflow::BuildOptions;
using workflow::DispatchMode;
using workflow::SandboxKind;
using workflow::WorkflowDag;

/// Events cancelled over `sim`'s lifetime, read from the slab's generation
/// counters (each slot's generation counts its releases, fires plus
/// cancels).  Drains the simulator first, so every slot is free and one
/// schedule per slot visits each exactly once.
std::uint64_t lifetime_cancels(sim::Simulator& sim) {
  sim.run();
  const std::size_t slots = sim.slab_capacity();
  std::vector<common::EventId> probes;
  for (std::size_t i = 0; i < slots; ++i) {
    probes.push_back(sim.schedule_after(sim::Duration::zero(), [] {}));
  }
  std::uint64_t releases = 0;
  for (const common::EventId id : probes) {
    releases += id.value() >> 32;
    sim.cancel(id);
  }
  return releases - sim.events_fired();
}

/// Test fixture with a deterministic (jitter-free) calibration so latencies
/// are exactly computable.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { reset(exact_calibration()); }

  /// Jitter- and handoff-free calibration: every latency in a test is an
  /// exact arithmetic consequence of the profile constants.
  static PlatformCalibration exact_calibration() {
    PlatformCalibration calib;
    calib.overhead_jitter = sim::Duration::zero();
    calib.worker_handoff = sim::Duration::zero();
    return calib;
  }

  void reset(PlatformCalibration calib, ProvisionPolicy* policy = nullptr) {
    calib.overhead_jitter = sim::Duration::zero();
    calib_ = calib;
    sim_ = std::make_unique<sim::Simulator>();
    cluster_ = std::make_unique<cluster::Cluster>(cluster::ClusterOptions{},
                                                  common::Rng{7});
    // Jitter-free container profile: 3000 ms cold, no concurrency penalty
    // unless a test opts in.
    auto profile = cluster::default_profile(SandboxKind::Container);
    profile.cold_start_jitter = sim::Duration::zero();
    profile.concurrency_penalty = 0.0;
    cluster_->catalog().set_profile(SandboxKind::Container, profile);
    engine_ = std::make_unique<PlatformEngine>(*sim_, *cluster_, calib_,
                                               policy, common::Rng{11});
  }

  BuildOptions exact_options(double exec_ms = 1000.0) {
    BuildOptions opts;
    opts.exec_time = sim::Duration::from_millis(exec_ms);
    opts.edge_delay = sim::Duration::zero();
    return opts;
  }

  PlatformCalibration calib_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<PlatformEngine> engine_;
};

TEST_F(EngineTest, SingleFunctionColdStartTiming) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  // dispatch (25 ms) + cold start (3000 ms) + exec (1000 ms).
  EXPECT_NEAR(result.end_to_end.millis(), 4025.0, 1.0);
  EXPECT_NEAR(result.critical_path_exec.millis(), 1000.0, 0.5);
  EXPECT_NEAR(result.overhead.millis(), 3025.0, 1.0);
  EXPECT_EQ(result.cold_starts, 1u);
  EXPECT_EQ(result.executed_nodes, 1u);
  EXPECT_EQ(result.workers_provisioned, 1u);
  ASSERT_EQ(result.node_records.size(), 1u);
  EXPECT_TRUE(result.node_records[0].cold);
}

TEST_F(EngineTest, WarmStartReusesWorker) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  (void)engine_->run_one(wf);
  const RequestResult warm = engine_->run_one(wf);
  // dispatch (25 ms) + exec only.
  EXPECT_NEAR(warm.overhead.millis(), 25.0, 1.0);
  EXPECT_EQ(warm.cold_starts, 0u);
  EXPECT_EQ(warm.workers_provisioned, 0u);
  EXPECT_FALSE(warm.node_records[0].cold);
}

TEST_F(EngineTest, LinearChainColdOverheadGrowsLinearly) {
  std::vector<double> overheads;
  for (const std::size_t len : {1u, 2u, 3u, 4u}) {
    reset(calib_);
    const auto wf = engine_->register_workflow(
        workflow::linear_chain(len, exact_options(500)));
    overheads.push_back(engine_->run_one(wf).overhead.millis());
  }
  // Each extra hop adds one full cold start + dispatch: ~3025 ms.
  for (std::size_t i = 1; i < overheads.size(); ++i) {
    EXPECT_NEAR(overheads[i] - overheads[i - 1], 3025.0, 5.0);
  }
}

TEST_F(EngineTest, KeepAliveReclaimsWorkers) {
  PlatformCalibration calib = exact_calibration();
  calib.keep_alive = sim::Duration::from_minutes(10);
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  (void)engine_->run_one(wf);
  EXPECT_EQ(cluster_->live_worker_count(), 1u);  // Still warm.
  // Idle past the keep-alive window: the worker is reclaimed.
  sim_->run_until(sim_->now() + sim::Duration::from_minutes(11));
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
  // Next request is cold again.
  const RequestResult again = engine_->run_one(wf);
  EXPECT_EQ(again.cold_starts, 1u);
}

TEST_F(EngineTest, RequestWithinKeepAliveIsWarm) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  RequestResult first;
  engine_->submit(wf, [&](const RequestResult& r) { first = r; });
  // Run just past request completion, well within keep-alive.
  sim_->run_until(sim_->now() + 10_s);
  EXPECT_EQ(cluster_->live_worker_count(), 1u);
  RequestResult second;
  engine_->submit(wf, [&](const RequestResult& r) { second = r; });
  sim_->run_until(sim_->now() + 10_s);
  EXPECT_EQ(second.cold_starts, 0u);
}

TEST_F(EngineTest, ReusedWorkerIsReclaimedExactlyAtLastParkPlusKeepAlive) {
  // One worker parked, reused twice, then left idle.  Its single timer,
  // armed at the first park, fires three times: pooled before its deadline
  // (re-arm), busy (drop; the next park arms a new one), and expired
  // (reclaim).  Reclamation and idle cost must match a timer per park.
  PlatformCalibration calib = exact_calibration();
  calib.keep_alive = 3_s;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  std::vector<RequestResult> results;
  for (const sim::Duration at : {0_s, 4500_ms, 8_s}) {
    sim_->run_until(sim::TimePoint{} + at);
    engine_->submit(wf, [&](const RequestResult& r) { results.push_back(r); });
  }
  sim_->run_until(sim::TimePoint{} + 10_s);
  ASSERT_EQ(results.size(), 3u);
  std::vector<sim::TimePoint> acquired;
  std::vector<sim::TimePoint> parked;
  for (const RequestResult& r : results) {
    acquired.push_back(r.node_records[0].exec_start);
    parked.push_back(r.node_records[0].exec_end);
  }
  EXPECT_EQ(results[1].cold_starts + results[2].cold_starts, 0u);
  const common::WorkerId worker = results[0].node_records[0].worker;
  EXPECT_EQ(results[2].node_records[0].worker, worker);
  // The timeline reaches each branch of the timer: the first fire finds the
  // worker pooled early, the re-armed fire finds it busy.
  const sim::Duration keep_alive = calib.keep_alive;
  ASSERT_LT(parked[0] + keep_alive, acquired[2]);
  ASSERT_LT(acquired[2], parked[1] + keep_alive);
  ASSERT_LT(parked[1] + keep_alive, parked[2]);
  EXPECT_EQ(engine_->keep_alive_event_count(), 1u);

  const double memory_mb = cluster_->find_worker(worker)->total_memory_mb();
  const sim::TimePoint reclaim_at = parked[2] + keep_alive;
  sim_->run_until(reclaim_at - 1_us);
  EXPECT_EQ(cluster_->live_worker_count(), 1u);
  sim_->run_until(reclaim_at);
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
  EXPECT_EQ(engine_->keep_alive_event_count(), 0u);
  EXPECT_EQ(sim_->pending(), 0u);

  // Idle spans: none before the first execution (no handoff), the two gaps
  // between park and reuse, and the full keep-alive after the last park.
  const double idle_seconds = (acquired[1] - parked[0]).seconds() +
                              (acquired[2] - parked[1]).seconds() +
                              keep_alive.seconds();
  const double idle_cpu =
      cluster_->catalog().profile(SandboxKind::Container).idle_cpu_fraction;
  EXPECT_DOUBLE_EQ(cluster_->ledger().idle_memory_mb_seconds,
                   idle_seconds * memory_mb);
  EXPECT_DOUBLE_EQ(cluster_->ledger().idle_cpu_core_seconds,
                   idle_seconds * idle_cpu);
}

TEST_F(EngineTest, CrashingABusyWorkerCancelsItsArmedKeepAlive) {
  // A reused worker is busy while still holding the timer of its earlier
  // park.  When an injected crash kills it mid-execution, the timer must go
  // with it: afterwards every timer belongs to a pooled worker again.
  PlatformCalibration calib = exact_calibration();
  calib.faults.worker_crash_rate = 0.5;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const auto fn = engine_->function_id(wf, common::NodeId{0});
  bool crashed_reused_worker = false;
  common::WorkerId pooled_worker{};
  for (int i = 0; i < 40; ++i) {
    const bool reuse = pooled_worker.valid() && engine_->warm_count(fn) == 1;
    const RequestResult r = engine_->run_one(wf);
    if (reuse && cluster_->find_worker(pooled_worker) == nullptr) {
      crashed_reused_worker = true;
    }
    EXPECT_EQ(engine_->keep_alive_event_count(), engine_->warm_count(fn))
        << "after request " << i;
    // The worker that completed the node is the one pooled now.
    pooled_worker = r.failed ? common::WorkerId{} : r.node_records[0].worker;
  }
  ASSERT_GT(engine_->fault_plan().counters().worker_crashes, 0u);
  ASSERT_TRUE(crashed_reused_worker);

  sim_->run();
  EXPECT_EQ(engine_->keep_alive_event_count(), 0u);
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
}

TEST_F(EngineTest, WarmChainReplayLeavesNoTombstonesAndOneTimerPerWorker) {
  // Warm reuse cancels nothing: the replay leaves no cancelled event in the
  // queue and cancels none over its lifetime, and each worker holds at most one keep-alive timer even while
  // timers keep re-arming (the keep-alive is shorter than the replay).
  PlatformCalibration calib = exact_calibration();
  calib.keep_alive = 20_s;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(4, exact_options(100)));
  std::size_t cold_starts = 0;
  for (int i = 0; i < 200; ++i) {
    cold_starts += engine_->run_one(wf).cold_starts;
    EXPECT_LE(engine_->keep_alive_event_count(),
              cluster_->live_worker_count());
  }
  EXPECT_GT(sim_->now() - sim::TimePoint{}, 4 * calib.keep_alive);
  EXPECT_EQ(cold_starts, 4u);
  EXPECT_EQ(cluster_->live_worker_count(), 4u);
  EXPECT_EQ(engine_->keep_alive_event_count(), 4u);
  EXPECT_EQ(sim_->tombstone_count(), 0u);
  EXPECT_EQ(lifetime_cancels(*sim_), 0u);
  EXPECT_EQ(cluster_->live_worker_count(), 0u);  // Drained: all reclaimed.
}

TEST_F(EngineTest, MulticastRunsAllChildrenInParallel) {
  const auto wf =
      engine_->register_workflow(workflow::fan_out(4, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  EXPECT_EQ(result.executed_nodes, 5u);
  EXPECT_EQ(result.skipped_nodes, 0u);
  // Children run in parallel: critical path is 2 functions deep.
  EXPECT_NEAR(result.critical_path_exec.millis(), 2000.0, 1.0);
  // End-to-end ~ 2 cold hops (children provision concurrently).
  EXPECT_LT(result.end_to_end.millis(), 2 * 3025.0 + 2000.0 + 100.0);
}

TEST_F(EngineTest, BarrierWaitsForSlowestParent) {
  // Two roots with different exec times joined by a sink.
  WorkflowDag dag{"barrier"};
  workflow::FunctionSpec fast;
  fast.name = "fast";
  fast.exec_time = 500_ms;
  workflow::FunctionSpec slow = fast;
  slow.name = "slow";
  slow.exec_time = 4000_ms;
  workflow::FunctionSpec sink = fast;
  sink.name = "sink";
  sink.exec_time = 100_ms;
  const auto a = dag.add_node(fast);
  const auto b = dag.add_node(slow);
  const auto c = dag.add_node(sink);
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const auto wf = engine_->register_workflow(std::move(dag));
  const RequestResult result = engine_->run_one(wf);
  ASSERT_EQ(result.executed_nodes, 3u);
  const NodeRecord& sink_record = result.node_records[c.value()];
  const NodeRecord& slow_record = result.node_records[b.value()];
  // The sink triggers exactly when the slow parent completes.
  EXPECT_EQ(sink_record.trigger_time, slow_record.exec_end);
  // Critical path goes through the slow branch.
  EXPECT_NEAR(result.critical_path_exec.millis(), 4100.0, 1.0);
  // Both parents invoked the sink (m:1 headers).
  EXPECT_EQ(sink_record.invoked_by.size(), 2u);
}

TEST_F(EngineTest, XorCastExecutesExactlyOneBranch) {
  workflow::XorCastOptions opts;
  opts.levels = 2;
  opts.fan = 3;
  opts.base = exact_options(500);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  const RequestResult result = engine_->run_one(wf);
  // Root + one child at each of 2 levels executed; the rest skipped.
  EXPECT_EQ(result.executed_nodes, 3u);
  EXPECT_EQ(result.skipped_nodes, 4u);
}

TEST_F(EngineTest, XorCastFollowsProbabilitiesStatistically) {
  workflow::XorCastOptions opts;
  opts.levels = 1;
  opts.fan = 2;
  opts.main_probability = 0.7;
  opts.favoured_index = 0;
  opts.base = exact_options(10);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  int favoured = 0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    engine_->flush_all_warm_workers();
    const RequestResult r = engine_->run_one(wf);
    if (r.node_records[1].status == NodeStatus::Completed) ++favoured;
  }
  EXPECT_NEAR(favoured / static_cast<double>(trials), 0.7, 0.07);
}

TEST_F(EngineTest, SkippedBranchesDoNotProvisionWorkers) {
  workflow::XorCastOptions opts;
  opts.levels = 3;
  opts.fan = 2;
  opts.base = exact_options(200);
  const auto wf = engine_->register_workflow(workflow::xor_cast_dag(opts));
  const RequestResult result = engine_->run_one(wf);
  // Only executed nodes provision workers (skipped XOR siblings never do).
  EXPECT_EQ(result.workers_provisioned, result.executed_nodes);
  EXPECT_GT(result.skipped_nodes, 0u);
}

TEST_F(EngineTest, PrewarmAllPolicyEliminatesChainedColdStarts) {
  PrewarmAllPolicy policy;
  reset(exact_calibration(), &policy);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(5, exact_options(5000)));
  const RequestResult result = engine_->run_one(wf);
  // First function still cold (its provision races the trigger), but all
  // later ones find ready workers: overhead ~ one cold start + dispatches.
  EXPECT_LT(result.overhead.millis(), 3500.0);
  EXPECT_EQ(result.workers_provisioned, 5u);
  // Every node after the first was warm by its trigger time.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(result.node_records[i].provision_wait, sim::Duration::zero());
  }
}

TEST_F(EngineTest, DispatchAttachesToInFlightProvision) {
  PrewarmAllPolicy policy;
  reset(exact_calibration(), &policy);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  // The prewarm fires at submit (t = 0); the dispatch arrives at t = 25 ms
  // while that provision is still in flight.  It must attach to it instead
  // of starting a second provision.
  const RequestResult result = engine_->run_one(wf);
  EXPECT_EQ(result.workers_provisioned, 1u);
  const NodeRecord& record = result.node_records[0];
  EXPECT_TRUE(record.cold);
  EXPECT_GT(record.provision_wait, sim::Duration::zero());
  // Execution starts when the prewarm (started at 0) is ready -- ~3000 ms --
  // not at dispatch + full cold start (~3025 ms).
  EXPECT_NEAR(record.exec_start.millis(), 3000.0, 1.0);
}

TEST_F(EngineTest, SecondWaiterRedispatchesWhenProvisionClaimed) {
  // Two requests race for the same single-function workflow: the second
  // attaches to the first's in-flight provision, loses it, and provisions
  // its own worker.
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  RequestResult first, second;
  engine_->submit(wf, [&](const RequestResult& r) { first = r; });
  sim_->schedule_after(1_s, [&] {
    engine_->submit(wf, [&](const RequestResult& r) { second = r; });
  });
  sim_->run_until(sim_->now() + 20_s);
  // First request: exec at ~3025 (dispatch 25 + provision 3000).
  EXPECT_NEAR(first.node_records[0].exec_start.millis(), 3025.0, 1.0);
  // Second request dispatched at ~1025, waited for the first provision
  // (claimed by request 1 at 3025), then provisioned its own worker:
  // exec at ~3025 + 3000.
  EXPECT_NEAR(second.node_records[0].exec_start.millis(), 6025.0, 2.0);
  EXPECT_EQ(second.workers_provisioned, 1u);
}

TEST_F(EngineTest, LiveWorkerCapEvictsAndPaysPenalty) {
  PlatformCalibration calib = exact_calibration();
  calib.max_live_workers = 2;
  calib.eviction_penalty = 700_ms;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(3, exact_options(500)));
  const RequestResult result = engine_->run_one(wf);
  // Third provision must evict the first node's (now warm) worker.
  EXPECT_LE(cluster_->live_worker_count(), 3u);
  const NodeRecord& third = result.node_records[2];
  // Its provisioning wait includes the eviction penalty.
  EXPECT_GT(third.provision_wait.millis(), 3000.0 + 650.0);
}

TEST_F(EngineTest, DiscardWarmWorkersDestroysIdleSandboxes) {
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(100)));
  RequestResult r;
  engine_->submit(wf, [&](const RequestResult& result) { r = result; });
  sim_->run_until(sim_->now() + 10_s);
  const auto fn = engine_->function_id(wf, common::NodeId{0});
  EXPECT_EQ(engine_->warm_count(fn), 1u);
  EXPECT_EQ(engine_->discard_warm_workers(fn), 1u);
  EXPECT_EQ(engine_->warm_count(fn), 0u);
  EXPECT_EQ(cluster_->live_worker_count(), 0u);
}

TEST_F(EngineTest, WorkerHandoffDelaysFirstUseAndChargesPreUseIdle) {
  PlatformCalibration calib = exact_calibration();
  calib.worker_handoff = 80_ms;
  reset(calib);
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(1, exact_options(1000)));
  const RequestResult result = engine_->run_one(wf);
  // dispatch (25) + provision (3000) + handoff (80) + exec (1000).
  EXPECT_NEAR(result.end_to_end.millis(), 4105.0, 1.0);
  // The worker idled for the handoff interval before first use.
  const auto& ledger = cluster_->ledger();
  const double mem = 512.0 + cluster_->catalog()
                                 .profile(workflow::SandboxKind::Container)
                                 .memory_overhead_mb;
  EXPECT_NEAR(ledger.pre_use_memory_mb_seconds, mem * 0.08, mem * 0.001);
}

TEST_F(EngineTest, OverheadEquationMatchesDefinition) {
  // C_D = R_F - sum(r_i) for a linear chain (Equation 1).
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(3, exact_options(700)));
  const RequestResult result = engine_->run_one(wf);
  EXPECT_NEAR(result.critical_path_exec.millis(), 3 * 700.0, 1.0);
  EXPECT_NEAR(result.overhead.millis(),
              result.end_to_end.millis() - 2100.0, 0.5);
}

TEST_F(EngineTest, UnknownWorkflowRejected) {
  EXPECT_THROW(engine_->submit(common::WorkflowId{42}, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)engine_->dag(common::WorkflowId{42}), std::invalid_argument);
}

TEST_F(EngineTest, RunOneRejectsConcurrentRequests) {
  // run_one owns the whole request lifecycle: calling it while another
  // request is in flight would interleave the two and silently corrupt the
  // first request's timing.  The contract is an invariant, not a doc note.
  const auto wf = engine_->register_workflow(
      workflow::linear_chain(2, exact_options()));
  engine_->submit(wf, [](const RequestResult&) {});
  EXPECT_THROW((void)engine_->run_one(wf), sim::audit::InvariantViolation);
  // The in-flight request is untouched by the rejected call.
  sim_->run();
  EXPECT_EQ(engine_->recovery_stats().requests_failed, 0u);
}

TEST_F(EngineTest, ExecJitterVariesRuntime) {
  BuildOptions opts = exact_options(1000);
  opts.exec_jitter = 100_ms;
  const auto wf = engine_->register_workflow(workflow::linear_chain(1, opts));
  double min_exec = 1e18, max_exec = 0;
  for (int i = 0; i < 20; ++i) {
    engine_->flush_all_warm_workers();
    const RequestResult r = engine_->run_one(wf);
    min_exec = std::min(min_exec, r.node_records[0].exec_duration.millis());
    max_exec = std::max(max_exec, r.node_records[0].exec_duration.millis());
  }
  EXPECT_LT(min_exec, max_exec);
  EXPECT_NEAR((min_exec + max_exec) / 2.0, 1000.0, 200.0);
}

}  // namespace
}  // namespace xanadu::platform
