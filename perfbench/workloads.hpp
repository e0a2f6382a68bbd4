#pragma once

// The benchmark's three workloads and what both runners share: set-up
// (manager, deployment, profile training, arrivals), the behaviour pins a
// run must reproduce, and the build provenance stamped on every result.
//
// Set-up mirrors the repository's scale benches on purpose: replay_knative
// is scale_throughput's knative_* macro preset and mix_spec_bus is
// scale_multitenant's three-tenant mix, so numbers line up with
// BENCH_scale.json / BENCH_multitenant.json.  See NOTES.md for why each
// workload is in the benchmark.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/dispatch_manager.hpp"
#include "platform/calibration.hpp"
#include "workflow/builders.hpp"
#include "workflow/random_tree.hpp"
#include "workload/arrivals.hpp"
#include "workload/case_studies.hpp"
#include "workload/runner.hpp"
#include "workload/traffic_mix.hpp"

namespace perfbench {

using namespace xanadu;

// Host time only: nothing measured here feeds back into virtual time.
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

enum class Workload { ReplayKnative, MixSpecBus, ColdChainJit };

inline std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "replay_knative") return Workload::ReplayKnative;
  if (name == "mix_spec_bus") return Workload::MixSpecBus;
  if (name == "cold_chain_jit") return Workload::ColdChainJit;
  return std::nullopt;
}

inline const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::ReplayKnative: return "replay_knative";
    case Workload::MixSpecBus: return "mix_spec_bus";
    case Workload::ColdChainJit: return "cold_chain_jit";
  }
  return "?";
}

/// Request volume of one repetition.  Fixed per workload, never derived from
/// the time budget, so every repetition of a seed replays the same program
/// and must reproduce the same trace digest.  `scale` shrinks it for the
/// smoke mode.
struct Volume {
  std::size_t knative_requests = 30'000;
  /// Mix arrivals are Poisson over a horizon (250 ms aggregate mean gap):
  /// 60 virtual minutes is ~14.4k requests.
  double mix_horizon_minutes = 60.0;
  std::size_t cold_trials = 4'000;

  [[nodiscard]] Volume scaled(double factor) const {
    Volume v = *this;
    v.knative_requests = std::max<std::size_t>(
        200, static_cast<std::size_t>(knative_requests * factor));
    v.mix_horizon_minutes = std::max(1.0, mix_horizon_minutes * factor);
    v.cold_trials =
        std::max<std::size_t>(20, static_cast<std::size_t>(cold_trials * factor));
    return v;
  }
};

/// Everything set-up produces; the measured part is the replay that follows.
struct Deployment {
  std::unique_ptr<core::DispatchManager> manager;
  std::vector<common::WorkflowId> workflows;
  /// Replay workloads: the arrival schedule (one source for replay_knative).
  workload::TrafficMix mix;
  workload::RunOptions options;
  /// Requests the measured part submits.
  std::size_t requests = 0;
};

inline workflow::BuildOptions chain_options(double exec_ms) {
  workflow::BuildOptions opts;
  opts.exec_time = sim::Duration::from_millis(exec_ms);
  opts.edge_delay = sim::Duration::from_millis(5);
  return opts;
}

/// Trains JIT/speculative profiles exactly as bench::train_profiles does.
inline void train_profiles(core::DispatchManager& manager,
                           common::WorkflowId workflow, std::size_t runs) {
  if (manager.kind() == core::PlatformKind::XanaduJit ||
      manager.kind() == core::PlatformKind::XanaduSpeculative) {
    (void)workload::run_cold_trials(manager, workflow, runs);
  }
}

/// Poisson schedule with an exact arrival count (scale_throughput's
/// poisson_exact, reproduced so the knative_10k digest cross-check replays
/// the committed preset bit for bit).
inline workload::ArrivalSchedule poisson_exact(std::size_t count,
                                               sim::Duration mean_gap,
                                               common::Rng& rng) {
  workload::ArrivalSchedule schedule;
  schedule.reserve(count);
  sim::Duration t = sim::Duration::zero();
  for (std::size_t i = 0; i < count; ++i) {
    t += sim::Duration::from_micros(static_cast<std::int64_t>(
        std::ceil(rng.exponential(static_cast<double>(mean_gap.micros())))));
    schedule.push_back(t);
  }
  return schedule;
}

/// replay_knative: scale_throughput's knative_<N> macro preset -- a 4-node
/// linear chain, Poisson arrivals with a 20 ms mean gap, every arrival
/// prescheduled (arrival_window = 0), results streamed and not retained.
inline Deployment setup_knative(std::uint64_t seed, std::size_t requests) {
  Deployment d;
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::KnativeLike;
  options.seed = seed;
  d.manager = std::make_unique<core::DispatchManager>(options);
  d.workflows.push_back(
      d.manager->deploy(workflow::linear_chain(4, chain_options(5.0))));
  train_profiles(*d.manager, d.workflows[0], 2);
  common::Rng arrivals_rng{seed ^ 0x5ca1ab1eULL};
  d.mix.add_source(d.workflows[0], "",
                   poisson_exact(requests, sim::Duration::from_millis(20),
                                 arrivals_rng));
  d.options.retain_results = false;
  d.requests = requests;
  return d;
}

/// Arrivals pending at once on mix_spec_bus: the chained arrival path keeps
/// the heap shallow, unlike replay_knative's prescheduled stream.
inline constexpr std::size_t kMixArrivalWindow = 256;

/// mix_spec_bus: one XanaduSpeculative manager on 4 hosts with the control
/// bus on, serving scale_multitenant's three tenants at weights 3:5:2.
inline Deployment setup_mix(std::uint64_t seed, double horizon_minutes) {
  Deployment d;
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduSpeculative;
  options.seed = seed;
  options.cluster.host_count = 4;
  platform::PlatformCalibration calibration =
      core::preset_calibration(options.kind);
  calibration.control_bus.enabled = true;
  options.calibration = calibration;
  d.manager = std::make_unique<core::DispatchManager>(options);

  workflow::RandomTreeOptions tree_opts;
  tree_opts.node_count = 7;
  common::Rng tree_rng{0x7ee5eedULL};
  std::vector<workflow::WorkflowDag> dags;
  dags.push_back(workload::ecommerce_checkout());
  dags.push_back(workload::image_pipeline());
  dags.push_back(workflow::random_binary_tree(tree_opts, tree_rng));
  for (workflow::WorkflowDag& dag : dags) {
    d.workflows.push_back(d.manager->deploy(std::move(dag)));
    train_profiles(*d.manager, d.workflows.back(), 2);
  }
  common::Rng arrivals_rng{seed ^ 0x0ddba11ULL};
  d.mix = workload::poisson_mix({{d.workflows[0], "ecommerce", 3.0},
                                 {d.workflows[1], "image-pipeline", 5.0},
                                 {d.workflows[2], "random-tree", 2.0}},
                                sim::Duration::from_millis(250),
                                sim::Duration::from_minutes(horizon_minutes),
                                arrivals_rng);
  d.options.retain_results = false;
  d.options.arrival_window = kMixArrivalWindow;
  d.requests = d.mix.total_requests();
  return d;
}

/// Length of cold_chain_jit's linear chain.
inline constexpr std::size_t kColdChainLength = 16;

/// cold_chain_jit: the paper's cold-trial protocol (Section 5.1) on a
/// 16-node linear chain under XanaduJit, after 2 profile-training trials.
inline Deployment setup_cold(std::uint64_t seed, std::size_t trials) {
  Deployment d;
  core::DispatchManagerOptions options;
  options.kind = core::PlatformKind::XanaduJit;
  options.seed = seed;
  d.manager = std::make_unique<core::DispatchManager>(options);
  d.workflows.push_back(d.manager->deploy(
      workflow::linear_chain(kColdChainLength, chain_options(5.0))));
  train_profiles(*d.manager, d.workflows[0], 2);
  d.requests = trials;
  return d;
}

inline Deployment setup(Workload workload, std::uint64_t seed,
                        const Volume& volume) {
  switch (workload) {
    case Workload::ReplayKnative:
      return setup_knative(seed, volume.knative_requests);
    case Workload::MixSpecBus:
      return setup_mix(seed, volume.mix_horizon_minutes);
    case Workload::ColdChainJit:
      return setup_cold(seed, volume.cold_trials);
  }
  std::abort();
}

/// Spacing between cold trials (run_cold_trials' default).
inline constexpr sim::Duration kColdSpacing = sim::Duration::from_seconds(1);

/// Virtual-time behaviour of a run.  A change that only makes the simulator
/// faster must leave every field bit-identical, and the traced runner must
/// reproduce the untraced runner's values exactly.
struct Pins {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double missed_nodes_per_req = 0.0;
  double cold_starts_per_req = 0.0;
  double workers_per_req = 0.0;
  double spec_useful_ratio = 0.0;

  friend bool operator==(const Pins&, const Pins&) = default;
};

inline Pins make_pins(const workload::RunOutcome& outcome,
                      std::uint64_t submitted, std::uint64_t events) {
  Pins pins;
  pins.digest = outcome.trace_digest;
  pins.events = events;
  pins.submitted = submitted;
  pins.completed = outcome.completed_count();
  pins.failed = outcome.failed_count();
  pins.missed_nodes_per_req = outcome.mean_missed_nodes();
  pins.cold_starts_per_req = outcome.mean_cold_starts();
  pins.workers_per_req = outcome.mean_workers_per_request();
  const cluster::ResourceLedger& ledger = outcome.ledger_delta;
  pins.spec_useful_ratio =
      ledger.workers_provisioned == 0
          ? 1.0
          : 1.0 - static_cast<double>(ledger.workers_wasted) /
                      static_cast<double>(ledger.workers_provisioned);
  return pins;
}

inline std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

inline common::JsonValue to_json(const Pins& pins) {
  common::JsonObject o;
  o.set("digest", hex(pins.digest));
  o.set("events", static_cast<double>(pins.events));
  o.set("submitted", static_cast<double>(pins.submitted));
  o.set("completed", static_cast<double>(pins.completed));
  o.set("failed", static_cast<double>(pins.failed));
  o.set("missed_nodes_per_req", pins.missed_nodes_per_req);
  o.set("cold_starts_per_req", pins.cold_starts_per_req);
  o.set("workers_per_req", pins.workers_per_req);
  o.set("spec_useful_ratio", pins.spec_useful_ratio);
  return common::JsonValue{std::move(o)};
}

/// Exits non-zero with a message: a failed check must never yield a result.
[[noreturn]] inline void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  std::exit(1);
}

/// Request conservation: every submitted request completed, none failed.
inline void check_conservation(const Pins& pins) {
  if (pins.completed != pins.submitted) {
    fail("completed " + std::to_string(pins.completed) + " != submitted " +
         std::to_string(pins.submitted));
  }
  if (pins.failed != 0) {
    fail(std::to_string(pins.failed) + " requests failed");
  }
  if (pins.submitted == 0) fail("no requests submitted");
}

/// Median (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline common::JsonValue to_json(const std::vector<double>& values) {
  common::JsonArray array;
  array.reserve(values.size());
  for (const double v : values) array.emplace_back(v);
  return common::JsonValue{std::move(array)};
}

/// Build and host provenance, stamped on every result.
inline common::JsonValue provenance(Workload workload, std::uint64_t seed) {
  common::JsonObject o;
  o.set("workload", to_string(workload));
  o.set("seed", static_cast<double>(seed));
  o.set("build_type", PERFBENCH_BUILD_TYPE);
  o.set("compiler", PERFBENCH_COMPILER);
  o.set("flags", PERFBENCH_FLAGS);
  o.set("hardware_concurrency",
        static_cast<double>(std::thread::hardware_concurrency()));
  return common::JsonValue{std::move(o)};
}

/// Common command line of both runners.
struct Args {
  Workload workload = Workload::ReplayKnative;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Repetitions run at least, even past the time budget.
  std::size_t min_reps = 3;
  /// Volume scale factor (the smoke mode uses a small one).
  double scale = 1.0;
  /// replay_knative only: exact request count (0 = the volume's).
  std::size_t requests = 0;
  /// Traced runner: where the spans of the first repetition go.
  std::string spans_path;
};

inline Args parse_args(int argc, char** argv, const char* usage) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) fail(std::string{"missing value for "} + argv[i] + "\n" + usage);
    const char* value = argv[++i];
    const auto number = [&flag, value] {
      char* end = nullptr;
      const double parsed = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(parsed >= 0.0)) {
        fail("bad value for " + std::string{flag} + ": " + value);
      }
      return parsed;
    };
    if (flag == "--workload") {
      const auto parsed = parse_workload(value);
      if (!parsed) fail(std::string{"unknown workload "} + value);
      args.workload = *parsed;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(number());
    } else if (flag == "--seconds") {
      args.seconds = number();
    } else if (flag == "--min-reps") {
      args.min_reps = static_cast<std::size_t>(number());
    } else if (flag == "--scale") {
      args.scale = number();
    } else if (flag == "--requests") {
      args.requests = static_cast<std::size_t>(number());
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      fail("unknown flag " + std::string{flag} + "\n" + usage);
    }
  }
  if (!have_workload) fail(std::string{"--workload is required\n"} + usage);
  if (!(args.scale > 0.0) || args.min_reps == 0) fail("bad --scale/--min-reps");
  if (args.requests != 0 && args.workload != Workload::ReplayKnative) {
    fail("--requests applies to replay_knative only");
  }
  return args;
}

}  // namespace perfbench
