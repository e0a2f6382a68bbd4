#pragma once

// Multi-tenant traffic: N deployed workflows, each with its own arrival
// process, merged into one deterministic interleaved schedule (the paper's
// Dispatch Manager serves many chains concurrently -- Section 4, Figure 11).
//
// A TrafficMix is a list of TrafficSources; merged() produces the global
// submission order, totally ordered by (arrival time, source index, arrival
// index) so replaying the same mix is bit-identical regardless of how the
// sources were generated.  run_mixed_schedule() drives a DispatchManager
// with the merged schedule and returns per-source RunOutcome breakdowns on
// top of the aggregate; run_schedule() is the single-tenant special case and
// delegates here.

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/time.hpp"
#include "workload/arrivals.hpp"
#include "workload/runner.hpp"

namespace xanadu::workload {

/// One deployed workflow plus its (sorted) arrival offsets.
struct TrafficSource {
  common::WorkflowId workflow{};
  /// Display name for reports ("ecommerce", "image-pipeline", ...).
  std::string name;
  ArrivalSchedule schedule;
};

/// One entry of the merged schedule: which source's request arrives when.
struct MixedArrival {
  sim::Duration at = sim::Duration::zero();
  /// Index into TrafficMix::sources().
  std::size_t source = 0;
  /// Per-source arrival index (position within the source's schedule).
  std::size_t index = 0;
};

class TrafficMix {
 public:
  /// Appends a source.  Schedules must be sorted (validated at run time).
  void add_source(common::WorkflowId workflow, std::string name,
                  ArrivalSchedule schedule);

  [[nodiscard]] const std::vector<TrafficSource>& sources() const {
    return sources_;
  }
  [[nodiscard]] std::size_t total_requests() const;

  /// The deterministic global submission order: every source's arrivals,
  /// totally ordered by (at, source index, arrival index).  Ties between
  /// sources resolve in add_source order.
  [[nodiscard]] std::vector<MixedArrival> merged() const;

 private:
  std::vector<TrafficSource> sources_;
};

/// Weighted share of a Poisson mix.
struct WeightedPoissonSpec {
  common::WorkflowId workflow{};
  std::string name;
  /// Relative share of the aggregate arrival rate; must be positive.
  double weight = 1.0;
};

/// Builds a mix whose aggregate arrival process is Poisson with `mean_gap`,
/// split across the specs by weight (each source is an independent Poisson
/// thinning: its own mean gap is mean_gap * total_weight / weight).  Each
/// source draws from a fork of `rng`, in spec order, so adding a source
/// never perturbs the arrival times of the sources before it.
[[nodiscard]] TrafficMix poisson_mix(const std::vector<WeightedPoissonSpec>& specs,
                                     sim::Duration mean_gap,
                                     sim::Duration horizon, common::Rng& rng);

/// Result of a mixed run: the aggregate outcome over every request, plus one
/// RunOutcome per source (results in that source's arrival order).  The
/// cluster is shared, so per-source ledger deltas are not separable: only
/// aggregate.ledger_delta is populated; per_source[i].ledger_delta stays
/// default-constructed.
struct MixedOutcome {
  RunOutcome aggregate;
  std::vector<RunOutcome> per_source;
  /// Source display names, index-aligned with per_source.
  std::vector<std::string> source_names;
};

/// Submits every arrival of the mix (relative to the current virtual time)
/// and runs the simulation until all requests complete, under the same
/// RunOptions semantics as run_schedule (force-cold, drain, flush,
/// allow_incomplete + stall_horizon past the last merged arrival).
[[nodiscard]] MixedOutcome run_mixed_schedule(core::DispatchManager& manager,
                                              const TrafficMix& mix,
                                              const RunOptions& options = {});

}  // namespace xanadu::workload
