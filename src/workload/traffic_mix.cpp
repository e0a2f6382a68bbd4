#include "workload/traffic_mix.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/audit.hpp"

namespace xanadu::workload {

void TrafficMix::add_source(common::WorkflowId workflow, std::string name,
                            ArrivalSchedule schedule) {
  TrafficSource source;
  source.workflow = workflow;
  source.name = std::move(name);
  source.schedule = std::move(schedule);
  sources_.push_back(std::move(source));
}

std::size_t TrafficMix::total_requests() const {
  std::size_t total = 0;
  for (const TrafficSource& source : sources_) total += source.schedule.size();
  return total;
}

std::vector<MixedArrival> TrafficMix::merged() const {
  std::vector<MixedArrival> merged;
  merged.reserve(total_requests());
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    for (std::size_t i = 0; i < sources_[s].schedule.size(); ++i) {
      merged.push_back(MixedArrival{sources_[s].schedule[i], s, i});
    }
  }
  // Total order: simultaneous arrivals resolve by source registration order,
  // then arrival index, so the merge is independent of how it was built.
  std::sort(merged.begin(), merged.end(),
            [](const MixedArrival& a, const MixedArrival& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.source != b.source) return a.source < b.source;
              return a.index < b.index;
            });
  return merged;
}

TrafficMix poisson_mix(const std::vector<WeightedPoissonSpec>& specs,
                       sim::Duration mean_gap, sim::Duration horizon,
                       common::Rng& rng) {
  double total_weight = 0.0;
  for (const WeightedPoissonSpec& spec : specs) {
    if (!(spec.weight > 0.0)) {
      throw std::invalid_argument{"poisson_mix: weights must be positive"};
    }
    total_weight += spec.weight;
  }
  TrafficMix mix;
  for (const WeightedPoissonSpec& spec : specs) {
    // Thinning a Poisson process by the weight share stretches the per-source
    // mean gap by the inverse share; the superposition keeps `mean_gap`.
    const double share = spec.weight / total_weight;
    const sim::Duration source_gap =
        sim::Duration::from_millis(mean_gap.millis() / share);
    common::Rng source_rng = rng.fork();
    mix.add_source(spec.workflow, spec.name,
                   poisson(source_gap, horizon, source_rng));
  }
  return mix;
}

namespace {

// Drives the merged arrival schedule and folds every completion into the
// streaming consumer in submission-slot order.  Lives on the stack of
// run_mixed_schedule (which outlives the simulation loop); event callbacks
// capture [this, slot] -- 16 bytes, inside sim::EventFn's inline buffer.
//
// Completions arrive out of submission order (a short chain submitted late
// can finish before a long chain submitted early), but the streamed digest
// must hash rows in slot order to stay byte-identical with the batch render
// of the retained vector.  With retention on, the fold reads straight out of
// aggregate.results behind a done-bitmap frontier; with retention off, a
// small ordered reorder window buffers the out-of-order tail.
class MixDriver {
 public:
  MixDriver(core::DispatchManager& manager, const TrafficMix& mix,
            const RunOptions& options, MixedOutcome& outcome,
            metrics::StreamingTrace& stream)
      : manager_(manager),
        mix_(mix),
        options_(options),
        outcome_(outcome),
        stream_(stream),
        sim_(manager.simulator()),
        base_(sim_.now()),
        single_(mix.sources().size() == 1),
        total_(mix.total_requests()) {
    // Single-source fast path: the merged order of a lone sorted source is
    // the source order itself -- skip materializing a MixedArrival per
    // request (24 bytes x 10M on the macro path).
    if (!single_) merged_ = mix.merged();
    if (options_.retain_results) {
      outcome_.aggregate.results.resize(total_);
      done_.assign(total_, 0);
    }
  }

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t folded() const { return next_fold_; }
  [[nodiscard]] sim::Duration last_arrival() const {
    if (total_ == 0) return sim::Duration::zero();
    return single_ ? mix_.sources().front().schedule.back()
                   : merged_.back().at;
  }

  void start() {
    if (options_.arrival_window > 0) {
      window_ = std::min(options_.arrival_window, total_);
      for (std::size_t slot = 0; slot < window_; ++slot) schedule_slot(slot);
      return;
    }
    // Prescheduled mode: slot i carries seq first_seq_ + i, the seq it had
    // when every slot was scheduled up front in slot order, so pop order and
    // digests are those of the full preschedule.  Only the next arrival time
    // is queued: a later slot cannot be the heap minimum while an earlier
    // one is pending.
    first_seq_ = sim_.reserve_seqs(total_);
    schedule_next_instant();
  }

 private:
  [[nodiscard]] MixedArrival arrival(std::size_t slot) const {
    if (single_) {
      return MixedArrival{mix_.sources().front().schedule[slot], 0, slot};
    }
    return merged_[slot];
  }

  void schedule_slot(std::size_t slot) {
    sim_.schedule_at(base_ + arrival(slot).at, [this, slot] { fire(slot); },
                     "workload.arrival");
  }

  // Prescheduled mode: queues every unscheduled slot sharing the next
  // arrival time under its reserved seq.  Queuing a whole instant at once
  // keeps a grouped (race-check) drain's tie groups those of the full
  // preschedule.
  void schedule_next_instant() {
    if (scheduled_ == total_) return;
    const sim::Duration at = arrival(scheduled_).at;
    do {
      const std::size_t slot = scheduled_++;
      sim_.schedule_reserved(base_ + at, first_seq_ + slot,
                             [this, slot] { fire(slot); }, "workload.arrival");
    } while (scheduled_ < total_ && arrival(scheduled_).at == at);
  }

  void fire(std::size_t slot) {
    if (options_.arrival_window > 0) {
      // Chained mode: keep at most window_ arrival events pending.  Arrivals
      // are sorted, so slot + window_ never fires before this one.
      if (slot + window_ < total_) schedule_slot(slot + window_);
    } else if (slot + 1 == scheduled_) {
      schedule_next_instant();  // The last queued slot: queue the next time.
    }
    if (options_.force_cold_each_request) manager_.force_cold_start();
    const common::WorkflowId workflow =
        mix_.sources()[arrival(slot).source].workflow;
    manager_.submit(workflow,
                    [this, slot](const platform::RequestResult& result) {
                      on_complete(slot, result);
                    });
  }

  void on_complete(std::size_t slot, const platform::RequestResult& result) {
    ++completed_;
    if (options_.retain_results) {
      outcome_.aggregate.results[slot] = result;
      done_[slot] = 1;
      while (next_fold_ < total_ && done_[next_fold_] != 0) {
        fold(next_fold_, outcome_.aggregate.results[next_fold_]);
        ++next_fold_;
      }
    } else {
      window_buffer_.emplace(slot, result);
      while (!window_buffer_.empty() &&
             window_buffer_.begin()->first == next_fold_) {
        fold(next_fold_, window_buffer_.begin()->second);
        window_buffer_.erase(window_buffer_.begin());
        ++next_fold_;
      }
    }
  }

  void fold(std::size_t slot, const platform::RequestResult& result) {
    const std::size_t source = arrival(slot).source;
    stream_.consume(source, result);
    if (options_.retain_results) {
      // Folds run in slot order, so per-source vectors fill in each source's
      // own arrival order -- the merged order restricted to one source.
      outcome_.per_source[source].results.push_back(result);
    }
  }

  core::DispatchManager& manager_;
  const TrafficMix& mix_;
  const RunOptions& options_;
  MixedOutcome& outcome_;
  metrics::StreamingTrace& stream_;
  sim::Simulator& sim_;
  sim::TimePoint base_;
  bool single_;
  std::size_t total_;
  std::size_t window_ = 0;
  /// Prescheduled mode: the first reserved seq, and slots queued so far.
  std::uint64_t first_seq_ = 0;
  std::size_t scheduled_ = 0;
  std::vector<MixedArrival> merged_;
  /// Retention on: which slots hold a result (fold frontier scan).
  std::vector<std::uint8_t> done_;
  /// Retention off: out-of-order completions awaiting their fold turn.
  std::map<std::size_t, platform::RequestResult> window_buffer_;
  std::size_t next_fold_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace

MixedOutcome run_mixed_schedule(core::DispatchManager& manager,
                                const TrafficMix& mix,
                                const RunOptions& options) {
  for (const TrafficSource& source : mix.sources()) {
    for (std::size_t i = 1; i < source.schedule.size(); ++i) {
      if (source.schedule[i] < source.schedule[i - 1]) {
        throw std::invalid_argument{
            "run_mixed_schedule: every source schedule must be sorted"};
      }
    }
  }

  MixedOutcome outcome;
  outcome.per_source.resize(mix.sources().size());
  outcome.source_names.reserve(mix.sources().size());
  for (const TrafficSource& source : mix.sources()) {
    outcome.source_names.push_back(source.name);
  }

  metrics::StreamingTrace stream(options.stream);
  for (const TrafficSource& source : mix.sources()) {
    stream.add_source(manager.engine().dag(source.workflow), source.name);
  }

  const cluster::ResourceLedger before = manager.ledger();
  sim::Simulator& sim = manager.simulator();
  const sim::TimePoint base = sim.now();

  MixDriver driver(manager, mix, options, outcome, stream);
  driver.start();

  if (options.drain_after_last && !options.allow_incomplete) {
    sim.run();
  } else {
    // Run until every request has completed, without waiting for keep-alive
    // reclamation events.  With allow_incomplete the loop is additionally
    // bounded in virtual time (see RunOptions::stall_horizon).
    const sim::TimePoint horizon =
        base + driver.last_arrival() + options.stall_horizon;
    while (driver.completed() < driver.total() && sim.pending() > 0) {
      if (options.allow_incomplete && sim.now() >= horizon) break;
      // Stride by 1 virtual second, clamped to the horizon so stranded
      // requests are failed *at* the stall horizon, never up to a full
      // stride past it.
      sim::TimePoint stride = sim.now() + sim::Duration::from_seconds(1);
      if (options.allow_incomplete && stride > horizon) stride = horizon;
      sim.run_until(stride);
    }
  }
  if (driver.completed() != driver.total() && options.allow_incomplete) {
    // Stranded by an injected fault with recovery disabled: fail the
    // leftovers cleanly so every slot holds a result (failed or completed).
    manager.engine().fail_all_pending_requests("stranded by injected fault");
  }
  if (driver.completed() != driver.total()) {
    throw std::logic_error{"run_mixed_schedule: not all requests completed"};
  }
  XANADU_INVARIANT(driver.folded() == driver.total(),
                   "run_mixed_schedule: streaming fold did not drain");
  if (options.drain_after_last && options.allow_incomplete) sim.run();
  if (options.flush_at_end) manager.force_cold_start();

  stream.finish();
  RunOutcome& aggregate = outcome.aggregate;
  aggregate.ledger_delta = manager.ledger() - before;
  aggregate.stats = stream.stats();
  aggregate.histogram = stream.histogram();
  aggregate.trace_digest = stream.digest();
  aggregate.streamed = true;
  // The cluster (and thus the ledger) is shared across sources, so only the
  // aggregate carries a ledger delta; per-source lanes carry stats + digest.
  for (std::size_t s = 0; s < outcome.per_source.size(); ++s) {
    outcome.per_source[s].stats = stream.source_stats(s);
    outcome.per_source[s].trace_digest = stream.source_digest(s);
    outcome.per_source[s].streamed = true;
  }
  return outcome;
}

}  // namespace xanadu::workload
