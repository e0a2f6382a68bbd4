// Virtual-time race detector tests.
//
// Two halves.  First, the detector itself is pinned against hand-built
// fixtures: an intentionally racy pair of same-timestamp events whose
// effects do not commute MUST be flagged (with the guilty tie group, its
// labels, and the divergent probe named in the report), while commuting
// ties and sampled large groups must come back clean.  Second, the engine
// sweep: full DispatchManager runs over the paper's case-study workloads
// and a random conditional tree, on both a baseline and a Xanadu preset,
// are checked tie-race-free -- and the grouped drain the detector rides on
// is proven byte-identical to the normal drain (same trace digest), which
// is what keeps the GoldenDigestGuard constants valid while recording.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "metrics/trace.hpp"
#include "sim/probe.hpp"
#include "sim/race_detector.hpp"
#include "sim/simulator.hpp"
#include "platform/calibration.hpp"
#include "workflow/builders.hpp"
#include "workflow/random_tree.hpp"
#include "workload/case_studies.hpp"

namespace xanadu {
namespace {

using core::DispatchManager;
using core::DispatchManagerOptions;
using core::PlatformKind;
using platform::RequestResult;
using sim::ProbeRegistry;
using sim::RaceCheckOptions;
using sim::RaceReport;
using sim::RunObservation;
using sim::Simulator;
using sim::TiePermutation;
using sim::TieRecorder;

// ---------------------------------------------------------------------------
// Detector fixtures: hand-built simulators with known (non-)commutativity.
// ---------------------------------------------------------------------------

/// Two events tied at t=1ms whose composition depends on order:
/// x *= 2 then x += 3 gives 13; x += 3 then x *= 2 gives 16.
RunObservation racy_fixture(const TiePermutation* permutation) {
  Simulator sim;
  std::uint64_t x = 5;
  ProbeRegistry probes;
  probes.add("fixture.value", [&x] { return x; });
  TieRecorder recorder;
  sim.set_tie_recorder(&recorder);
  sim.set_probe_registry(&probes);
  sim.set_tie_permutation(permutation);
  const sim::TimePoint t = sim::TimePoint{} + sim::Duration::from_millis(1);
  sim.schedule_at(t, [&x] { x *= 2; }, "racy.double");
  sim.schedule_at(t, [&x] { x += 3; }, "racy.add");
  sim.run();
  RunObservation obs;
  obs.digest = common::fnv1a_u64(x);
  obs.ties = std::move(recorder);
  return obs;
}

TEST(race_detector, SeededRaceIsDetectedAndLocalised) {
  const RaceReport report = sim::check_tie_races(racy_fixture);
  ASSERT_FALSE(report.race_free()) << report.to_string();
  EXPECT_EQ(report.groups_examined, 1u);
  // A 2-group has exactly one non-identity order.
  EXPECT_EQ(report.permutations_run, 1u);
  ASSERT_EQ(report.races.size(), 1u);

  const sim::TieRace& race = report.races.front();
  EXPECT_EQ(race.group_index, 0u);
  EXPECT_EQ(race.when, sim::TimePoint{} + sim::Duration::from_millis(1));
  ASSERT_EQ(race.labels.size(), 2u);
  EXPECT_EQ(race.labels[0], "racy.double");
  EXPECT_EQ(race.labels[1], "racy.add");
  EXPECT_EQ(race.divergent_order, (std::vector<std::uint32_t>{1, 0}));
  EXPECT_NE(race.baseline_digest, race.permuted_digest);
  EXPECT_EQ(race.first_divergent_probe, "fixture.value");

  // The human-readable report names the guilty events.
  const std::string text = report.to_string();
  EXPECT_NE(text.find("racy.double"), std::string::npos);
  EXPECT_NE(text.find("racy.add"), std::string::npos);
  EXPECT_NE(text.find("fixture.value"), std::string::npos);
}

/// Three events tied at t=1ms that all commute (independent additions).
RunObservation commuting_fixture(const TiePermutation* permutation) {
  Simulator sim;
  std::uint64_t a = 0, b = 0, c = 0;
  TieRecorder recorder;
  sim.set_tie_recorder(&recorder);
  sim.set_tie_permutation(permutation);
  const sim::TimePoint t = sim::TimePoint{} + sim::Duration::from_millis(1);
  sim.schedule_at(t, [&a] { a += 1; }, "calm.a");
  sim.schedule_at(t, [&b] { b += 2; }, "calm.b");
  sim.schedule_at(t, [&c] { c += 3; }, "calm.c");
  sim.run();
  RunObservation obs;
  obs.digest = common::fnv1a_u64(a, common::fnv1a_u64(b, common::fnv1a_u64(c)));
  obs.ties = std::move(recorder);
  return obs;
}

TEST(race_detector, CommutingTieGroupIsRaceFree) {
  const RaceReport report = sim::check_tie_races(commuting_fixture);
  EXPECT_TRUE(report.race_free()) << report.to_string();
  EXPECT_EQ(report.groups_examined, 1u);
  // All 3! - 1 = 5 non-identity orders of the 3-group were replayed.
  EXPECT_EQ(report.permutations_run, 5u);
  EXPECT_FALSE(report.truncated);
}

/// Six commuting events tied at t=1ms: above the exhaustive limit, so the
/// detector falls back to seeded sampling.
RunObservation wide_fixture(const TiePermutation* permutation) {
  Simulator sim;
  std::uint64_t sum = 0;
  TieRecorder recorder;
  sim.set_tie_recorder(&recorder);
  sim.set_tie_permutation(permutation);
  const sim::TimePoint t = sim::TimePoint{} + sim::Duration::from_millis(1);
  for (std::uint64_t i = 0; i < 6; ++i) {
    sim.schedule_at(t, [&sum, i] { sum += i; }, "wide.add");
  }
  sim.run();
  RunObservation obs;
  obs.digest = common::fnv1a_u64(sum);
  obs.ties = std::move(recorder);
  return obs;
}

TEST(race_detector, LargeGroupsAreSampledDeterministically) {
  RaceCheckOptions options;
  options.exhaustive_group_limit = 4;
  options.sampled_permutations = 6;
  const RaceReport first = sim::check_tie_races(wide_fixture, options);
  EXPECT_TRUE(first.race_free()) << first.to_string();
  EXPECT_EQ(first.groups_examined, 1u);
  EXPECT_EQ(first.permutations_run, 6u);  // sampled, not 6! - 1
  // Same seed, same samples: the check itself replays deterministically.
  const RaceReport second = sim::check_tie_races(wide_fixture, options);
  EXPECT_EQ(second.permutations_run, first.permutations_run);
  EXPECT_EQ(second.race_free(), first.race_free());
}

TEST(race_detector, MaxReplaysTruncatesTheSearch) {
  RaceCheckOptions options;
  options.max_replays = 2;
  const RaceReport report = sim::check_tie_races(commuting_fixture, options);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.permutations_run, 2u);
}

TEST(race_detector, DistinctTimestampsFormNoGroups) {
  auto runner = [](const TiePermutation* permutation) {
    Simulator sim;
    std::uint64_t x = 0;
    TieRecorder recorder;
    sim.set_tie_recorder(&recorder);
    sim.set_tie_permutation(permutation);
    sim.schedule_after(sim::Duration::from_millis(1), [&x] { x += 1; });
    sim.schedule_after(sim::Duration::from_millis(2), [&x] { x *= 2; });
    sim.run();
    RunObservation obs;
    obs.digest = common::fnv1a_u64(x);
    obs.ties = std::move(recorder);
    return obs;
  };
  const RaceReport report = sim::check_tie_races(runner);
  EXPECT_TRUE(report.race_free());
  EXPECT_EQ(report.groups_examined, 0u);
  EXPECT_EQ(report.permutations_run, 0u);
}

// ---------------------------------------------------------------------------
// Engine sweep: presets x workloads, plus grouped-drain digest equivalence.
// ---------------------------------------------------------------------------

workflow::WorkflowDag sweep_workload(const std::string& name) {
  if (name == "ecommerce") return workload::ecommerce_checkout();
  if (name == "image_pipeline") return workload::image_pipeline();
  // Deterministic conditional tree: fixed generator seed, 7 nodes.
  common::Rng rng{2024};
  workflow::RandomTreeOptions opts;
  opts.node_count = 7;
  return workflow::random_binary_tree(opts, rng);
}

/// Full-engine scenario: deploy `workload` on a fresh DispatchManager of
/// `kind`, submit `requests` concurrent invocations at t=0 (concurrency is
/// what produces same-timestamp tie groups -- e.g. the per-node scheduled
/// prewarms of several requests landing on one instant), run to completion,
/// and digest the trace.  When `record` is false the run uses the normal
/// (ungrouped) drain with no hooks attached.
RunObservation engine_run(PlatformKind kind, const std::string& workload,
                          int requests, bool record,
                          const TiePermutation* permutation) {
  DispatchManagerOptions options;
  options.kind = kind;
  options.seed = 42;
  DispatchManager manager{options};
  TieRecorder recorder;
  if (record || permutation != nullptr) {
    manager.simulator().set_tie_recorder(&recorder);
    manager.simulator().set_probe_registry(&manager.probes());
    manager.simulator().set_tie_permutation(permutation);
  }
  const workflow::WorkflowDag dag = sweep_workload(workload);
  const auto wf = manager.deploy(sweep_workload(workload));
  std::vector<RequestResult> results;
  results.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    (void)manager.submit(wf, [&results](const RequestResult& result) {
      results.push_back(result);
    });
  }
  manager.simulator().run();
  RunObservation obs;
  // Divergence digest: the trace digest alone misses races whose effects
  // cancel out in the emitted rows (two tied events swapping which worker
  // each claims), so fold in the engine's state digest -- exact warm-pool
  // membership plus resource-ledger balances.
  obs.digest = common::fnv1a_u64(manager.engine().state_digest(),
                                 metrics::trace_digest(results, dag));
  obs.ties = std::move(recorder);
  return obs;
}

TEST(race_detector, GroupedDrainMatchesNormalDrainDigest) {
  // The recorder must be a pure observer: attaching it switches the drain
  // into grouped mode, and the grouped drain must replay the exact same
  // timeline (this is what keeps GoldenDigestGuard valid under recording).
  for (const PlatformKind kind :
       {PlatformKind::XanaduJit, PlatformKind::XanaduSpeculative,
        PlatformKind::KnativeLike}) {
    for (const std::string workload :
         {"ecommerce", "image_pipeline", "random_tree"}) {
      const RunObservation normal =
          engine_run(kind, workload, 4, /*record=*/false, nullptr);
      const RunObservation grouped =
          engine_run(kind, workload, 4, /*record=*/true, nullptr);
      EXPECT_EQ(normal.digest, grouped.digest)
          << core::to_string(kind) << " / " << workload;
    }
  }
}

TEST(race_detector, EngineSweepIsTieRaceFree) {
  // The acceptance sweep: every preset x workload combination must expose no
  // order-dependent tie group.  Every non-singleton group the baseline run
  // records is replayed under permuted orders via full scenario re-runs.
  // The jit preset ties under the concurrent submissions engine_run issues
  // (several requests' scheduled prewarms landing on one instant), which is
  // what keeps this sweep from passing vacuously.
  std::size_t total_groups = 0;
  for (const PlatformKind kind :
       {PlatformKind::XanaduJit, PlatformKind::XanaduSpeculative,
        PlatformKind::KnativeLike}) {
    for (const std::string workload :
         {"ecommerce", "image_pipeline", "random_tree"}) {
      auto runner = [kind, &workload](const TiePermutation* permutation) {
        return engine_run(kind, workload, 3, /*record=*/true, permutation);
      };
      RaceCheckOptions options;
      options.sampled_permutations = 4;  // bound tie-heavy groups
      const RaceReport report = sim::check_tie_races(runner, options);
      EXPECT_TRUE(report.race_free())
          << core::to_string(kind) << " / " << workload << "\n"
          << report.to_string();
      EXPECT_FALSE(report.truncated)
          << core::to_string(kind) << " / " << workload;
      total_groups += report.groups_examined;
    }
  }
  // The sweep must actually exercise the detector: if an engine change ever
  // removes every tie group, this trips so the scenario gets re-armed
  // rather than the check passing vacuously.
  EXPECT_GT(total_groups, 0u);
}

TEST(race_detector, SpeculativeBatchIsOrderIndependentAfterKeyedStreams) {
  // The race this detector once pinned, now fixed: under onset-time
  // speculation the whole chain's provisions start on one instant, so their
  // deferred latency-sampling events ("pipeline.daemon_command") form a tie
  // group -- and each one used to draw cold-start jitter from the cluster's
  // shared Rng stream, letting the firing order decide which draw landed on
  // which worker.  Cluster::sample_provision_latency now forks a
  // per-provision stream with the stable key (function, worker), making
  // each provision's jitter a pure function of ids.  tools/flow_lint.py
  // (rule shared-rng-draw) keeps the bug class from recurring statically;
  // this test keeps it from recurring dynamically -- and proves the tie
  // group itself still forms, so the check is not passing vacuously.
  auto runner = [](const TiePermutation* permutation) {
    return engine_run(PlatformKind::XanaduSpeculative, "ecommerce", 3,
                      /*record=*/true, permutation);
  };
  const RunObservation baseline = runner(nullptr);
  bool daemon_batch_seen = false;
  for (const sim::TieGroup& group : baseline.ties.groups) {
    for (const sim::TieEvent& event : group.events) {
      if (event.label == "pipeline.daemon_command") daemon_batch_seen = true;
    }
  }
  EXPECT_TRUE(daemon_batch_seen)
      << "speculative scenario no longer ties its daemon-command batch; "
         "re-arm the scenario so this check stays discriminating";
  const RaceReport report = sim::check_tie_races(runner);
  EXPECT_TRUE(report.race_free()) << report.to_string();
}

TEST(race_detector, TiedKeepAliveExpiriesCommute) {
  // Lazy keep-alive re-arms a timer when it fires early, so a re-armed
  // timer carries a later seq than one armed at the worker's last park
  // would: same-deadline expiries can fire in a different order than their
  // parks.  Three jitter-free fan-out children parked on one instant give
  // their workers one shared deadline, and each of their timers was re-armed
  // (the first request parked them at distinct cold-start times).  Reclaim
  // order must not matter.  Other tie groups of this jitter-free scenario
  // are not this test's subject.
  auto runner = [](const TiePermutation* permutation) {
    DispatchManagerOptions options;
    options.kind = PlatformKind::KnativeLike;
    options.seed = 42;
    platform::PlatformCalibration calibration =
        platform::knative_like_calibration();
    calibration.overhead_jitter = sim::Duration::zero();
    options.calibration = calibration;
    DispatchManager manager{options};
    TieRecorder recorder;
    manager.simulator().set_tie_recorder(&recorder);
    manager.simulator().set_probe_registry(&manager.probes());
    manager.simulator().set_tie_permutation(permutation);
    workflow::BuildOptions build;
    build.exec_time = sim::Duration::from_millis(200);
    const workflow::WorkflowDag dag = workflow::fan_out(3, build);
    const auto wf = manager.deploy(workflow::fan_out(3, build));
    std::vector<RequestResult> results;
    for (int i = 0; i < 3; ++i) results.push_back(manager.invoke(wf));
    manager.simulator().run();
    RunObservation obs;
    obs.digest = common::fnv1a_u64(manager.engine().state_digest(),
                                   metrics::trace_digest(results, dag));
    obs.ties = std::move(recorder);
    return obs;
  };
  std::vector<std::size_t> keep_alive_groups;
  for (const sim::TieGroup& group : runner(nullptr).ties.groups) {
    std::size_t timers = 0;
    for (const sim::TieEvent& event : group.events) {
      if (event.label == "warm_pool.keep_alive") ++timers;
    }
    if (timers > 1) keep_alive_groups.push_back(group.index);
  }
  ASSERT_FALSE(keep_alive_groups.empty())
      << "no keep-alive expiries tie; re-arm the scenario so this check "
         "stays discriminating";
  const RaceReport report = sim::check_tie_races(runner);
  EXPECT_FALSE(report.truncated);
  for (const sim::TieRace& race : report.races) {
    for (const std::size_t group : keep_alive_groups) {
      EXPECT_NE(race.group_index, group) << report.to_string();
    }
  }
}

}  // namespace
}  // namespace xanadu
