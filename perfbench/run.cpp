// Untraced runner: the end-to-end metrics of one workload.
//
// Repeats set-up + replay of one seed until the time budget is spent (at
// least --min-reps measured times), through the same public runners the
// repository's scale benches call -- workload::run_schedule,
// run_mixed_schedule and run_cold_trials -- with nothing traced.  The first
// repetition is a warm-up: it is checked but not timed, so page faults on
// fresh memory and cold caches do not land in the medians.  Every
// repetition must conserve requests and reproduce the first repetition's
// trace digest and behaviour pins exactly.  Prints one JSON report on
// stdout.
//
// Usage:
//   perfbench_run --workload <replay_knative|mix_spec_bus|cold_chain_jit>
//                 --seed N [--seconds S] [--min-reps K] [--scale F]
//                 [--requests N]   (replay_knative only: exact request count)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench_run --workload W --seed N [--seconds S] [--min-reps K] "
    "[--scale F] [--requests N]";

workload::RunOutcome replay(Workload workload, Deployment& d) {
  core::DispatchManager& manager = *d.manager;
  switch (workload) {
    case Workload::ReplayKnative:
      return workload::run_schedule(manager, d.workflows[0],
                                    d.mix.sources()[0].schedule, d.options);
    case Workload::MixSpecBus:
      return workload::run_mixed_schedule(manager, d.mix, d.options).aggregate;
    case Workload::ColdChainJit:
      return workload::run_cold_trials(manager, d.workflows[0], d.requests,
                                       kColdSpacing);
  }
  std::abort();
}

/// Peak resident set size of this process image in MiB: VmHWM from
/// /proc/self/status.  getrusage's ru_maxrss would be wrong here -- Linux
/// carries the high-water mark across exec, so a runner started from a
/// larger parent (the Python harness) would report the parent's peak.
double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  fail("VmHWM missing from /proc/self/status");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv, kUsage);
  Volume volume = Volume{}.scaled(args.scale);
  if (args.requests != 0) volume.knative_requests = args.requests;

  std::vector<double> setup_s;
  std::vector<double> replay_s;
  std::vector<double> requests_per_s;
  Pins first;
  std::uint64_t submitted_total = 0;
  std::uint64_t failed_total = 0;
  const Clock::time_point budget_start = Clock::now();
  for (std::size_t rep = 0;
       rep <= args.min_reps || seconds_since(budget_start) < args.seconds;
       ++rep) {
    const Clock::time_point setup_start = Clock::now();
    Deployment d = setup(args.workload, args.seed, volume);
    setup_s.push_back(seconds_since(setup_start));

    sim::Simulator& sim = d.manager->simulator();
    const std::uint64_t events_before = sim.events_fired();
    const Clock::time_point replay_start = Clock::now();
    const workload::RunOutcome outcome = replay(args.workload, d);
    const double wall = seconds_since(replay_start);

    const Pins pins =
        make_pins(outcome, d.requests, sim.events_fired() - events_before);
    submitted_total += pins.submitted;
    failed_total += pins.failed;
    check_conservation(pins);
    if (rep == 0) {
      first = pins;
      setup_s.clear();  // warm-up
      continue;
    }
    if (!(pins == first)) {
      fail("repetition " + std::to_string(rep) + " diverged from the first (" +
           hex(pins.digest) + " vs " + hex(first.digest) + ")");
    }
    replay_s.push_back(wall);
    requests_per_s.push_back(static_cast<double>(pins.submitted) / wall);
  }

  common::JsonObject report;
  report.set("runner", "untraced");
  report.set("provenance", provenance(args.workload, args.seed));
  report.set("reps", static_cast<double>(replay_s.size()));
  report.set("requests_per_rep", static_cast<double>(first.submitted));
  report.set("pins", to_json(first));
  report.set("events_per_req", static_cast<double>(first.events) /
                                   static_cast<double>(first.submitted));
  // Requests over the whole measured replay time.  On a shared host the
  // speed changes in regimes lasting seconds; the aggregate weighs each
  // regime by its duration and varies less across runs than a median of
  // repetitions does (see NOTES.md).
  double replay_total = 0.0;
  for (const double wall : replay_s) replay_total += wall;
  report.set("requests_per_s", static_cast<double>(first.submitted) *
                                   static_cast<double>(replay_s.size()) /
                                   replay_total);
  report.set("requests_per_s_reps", to_json(requests_per_s));
  report.set("replay_s", median(replay_s));
  report.set("replay_s_reps", to_json(replay_s));
  report.set("setup_s", median(setup_s));
  report.set("setup_s_reps", to_json(setup_s));
  report.set("peak_rss_mib", peak_rss_mib());
  report.set("submitted", static_cast<double>(submitted_total));
  report.set("failed", static_cast<double>(failed_total));
  report.set("failed_frac", static_cast<double>(failed_total) /
                                static_cast<double>(submitted_total));
  std::printf("%s\n", common::JsonValue{std::move(report)}.dump().c_str());
  return 0;
}
