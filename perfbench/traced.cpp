// Traced runner: the per-layer metrics of one workload.
//
// Drives the workload itself through public calls so it can put spans
// around each layer boundary, and must reproduce the untraced runner's trace
// digest and behaviour pins bit for bit -- otherwise it would be measuring a
// different program:
//
//   replay_knative, mix_spec_bus  Simulator::schedule_at with the runner's
//       "workload.arrival" label and slot order, DispatchManager::submit,
//       one run_until per virtual second, and its own slot-ordered
//       StreamingTrace (the MixDriver protocol of workload/traffic_mix.cpp
//       with retain_results = false);
//   cold_chain_jit  force_cold_start, invoke, consume, idle_for per trial
//       (the run_cold_trials protocol of workload/runner.cpp).
//
// Spans (name, start, end, parent span, request id, allocations) are kept in
// memory and written as CSV at the end.  Allocations are counted by the
// replacement operator new below, which is linked into this binary only;
// the untraced runner that reports the end-to-end metrics never sees it.
//
// Metrics the spans cannot separate are timed standalone afterwards, on the
// live run's state: event-queue churn at the observed depth and cancel
// share, MessageBus::publish with the engine's payload, estimate_mlp /
// plan_explicit on the trained models, and StreamingTrace::consume replayed
// over retained results.  Each is reported as a standalone estimate.
//
// Usage:
//   perfbench_traced --workload W --seed N [--seconds S] [--min-reps K]
//                    [--scale F] [--spans PATH]

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/jit_planner.hpp"
#include "core/mlp.hpp"
#include "metrics/streaming.hpp"
#include "platform/message_bus.hpp"
#include "platform/worker_state.hpp"
#include "workloads.hpp"

// -- Counting allocator --------------------------------------------------------

namespace {
// Single-threaded process: plain counters suffice.
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench_traced --workload W --seed N [--seconds S] "
    "[--min-reps K] [--scale F] [--spans PATH]";

// -- Spans ---------------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span, or -1.
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  /// Allocations (count, bytes) made between open and close, children
  /// included.
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Reserving up front keeps the tracer's own growth out of the counts.
  explicit Tracer(std::size_t capacity) {
    spans_.reserve(capacity);
    stack_.reserve(64);
  }

  std::size_t open(const char* name, std::uint64_t request = 0) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    span.request = request;
    span.allocs = g_allocs;
    span.alloc_bytes = g_alloc_bytes;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    span.allocs = g_allocs - span.allocs;
    span.alloc_bytes = g_alloc_bytes - span.alloc_bytes;
    stack_.pop_back();
  }

  void set_request(std::size_t index, std::uint64_t request) {
    spans_[index].request = request;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  bool write_csv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id,name,start_ns,end_ns,parent,request,allocs,alloc_bytes\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%lld,%lld,%lld,%llu,%llu,%llu\n", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.allocs),
                   static_cast<unsigned long long>(s.alloc_bytes));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Resident set size in KiB from /proc/self/statm, without allocating.
double rss_kib() {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0.0;
  char buf[128] = {};
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

// -- Stride sampling -----------------------------------------------------------

/// State read after each stride (replays) or trial (cold_chain_jit).
struct Sample {
  std::int64_t wall_ns = 0;
  std::uint64_t completed = 0;  // cumulative
  std::uint64_t completed_in = 0;
  std::size_t heap_entries = 0;
  std::size_t tombstones = 0;
  double rss_kib = 0.0;
  std::uint64_t keep_alive_timers = 0;
  std::uint64_t pooled_workers = 0;
};

std::uint64_t probe(const std::vector<sim::ProbeSample>& samples,
                    const std::string& name) {
  for (const auto& [probe_name, value] : samples) {
    if (probe_name == name) return value;
  }
  return 0;
}

/// Takes samples without letting its own allocations (the probe snapshot)
/// count toward the run's, and reports RSS net of the memory the tracer and
/// the sampler themselves have filled.
class Sampler {
 public:
  Sampler(core::DispatchManager& manager, const Tracer& tracer)
      : manager_(manager), tracer_(tracer) {}

  void take(std::int64_t wall_ns, std::uint64_t completed) {
    const std::uint64_t allocs = g_allocs;
    const std::uint64_t bytes = g_alloc_bytes;
    sim::Simulator& sim = manager_.simulator();
    Sample s;
    s.wall_ns = wall_ns;
    s.completed = completed;
    s.completed_in = completed - last_completed_;
    last_completed_ = completed;
    s.heap_entries = sim.heap_entries();
    s.tombstones = sim.tombstone_count();
    s.rss_kib = rss_kib() - static_cast<double>(
                                tracer_.spans().size() * sizeof(Span) +
                                samples_.size() * sizeof(Sample)) /
                                1024.0;
    const std::vector<sim::ProbeSample> probes = manager_.probes().sample();
    s.keep_alive_timers = probe(probes, "warm_pool.keep_alive_timers");
    s.pooled_workers = probe(probes, "warm_pool.pooled_workers");
    samples_.push_back(s);
    own_allocs_ += g_allocs - allocs;
    own_bytes_ += g_alloc_bytes - bytes;
  }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::uint64_t own_allocs() const { return own_allocs_; }
  [[nodiscard]] std::uint64_t own_bytes() const { return own_bytes_; }

 private:
  core::DispatchManager& manager_;
  const Tracer& tracer_;
  std::vector<Sample> samples_;
  std::uint64_t last_completed_ = 0;
  std::uint64_t own_allocs_ = 0;
  std::uint64_t own_bytes_ = 0;
};

/// What one traced repetition yields.
struct TracedRun {
  workload::RunOutcome outcome;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  /// Probe snapshots taken right before and after the replay.
  std::vector<sim::ProbeSample> probes_before;
  std::vector<sim::ProbeSample> probes_after;
};

// -- Replay workloads ------------------------------------------------------------

/// The MixDriver protocol (workload/traffic_mix.cpp) with retain_results =
/// false and spans at each boundary: the same arrival events in the same
/// slot order, the same stride loop, the same reorder-window fold.
class TracedReplay {
 public:
  TracedReplay(Deployment& d, Tracer& tracer, Sampler& sampler,
               TracedRun& run)
      : manager_(*d.manager),
        mix_(d.mix),
        options_(d.options),
        tracer_(tracer),
        sampler_(sampler),
        run_(run),
        sim_(manager_.simulator()),
        base_(sim_.now()),
        single_(mix_.sources().size() == 1),
        total_(mix_.total_requests()) {
    if (!single_) merged_ = mix_.merged();
    for (const workload::TrafficSource& source : mix_.sources()) {
      stream_.add_source(manager_.engine().dag(source.workflow), source.name);
    }
  }

  void run() {
    const cluster::ResourceLedger before = manager_.ledger();
    window_ = options_.arrival_window == 0
                  ? total_
                  : std::min(options_.arrival_window, total_);
    for (std::size_t slot = 0; slot < window_; ++slot) schedule_slot(slot);
    while (completed_ < total_ && sim_.pending() > 0) {
      const std::size_t span = tracer_.open("workload.stride");
      sim_.run_until(sim_.now() + sim::Duration::from_seconds(1));
      tracer_.close(span);
      sampler_.take(tracer_.spans()[span].duration_ns(), completed_);
    }
    if (completed_ != total_) fail("traced replay: not all requests completed");
    if (next_fold_ != total_) fail("traced replay: fold did not drain");
    const std::size_t flush = tracer_.open("platform.force_cold");
    manager_.force_cold_start();
    tracer_.close(flush);
    stream_.finish();
    workload::RunOutcome& outcome = run_.outcome;
    outcome.ledger_delta = manager_.ledger() - before;
    outcome.stats = stream_.stats();
    outcome.histogram = stream_.histogram();
    outcome.trace_digest = stream_.digest();
    outcome.streamed = true;
  }

 private:
  [[nodiscard]] workload::MixedArrival arrival(std::size_t slot) const {
    if (single_) {
      return workload::MixedArrival{mix_.sources().front().schedule[slot], 0,
                                    slot};
    }
    return merged_[slot];
  }

  void schedule_slot(std::size_t slot) {
    sim_.schedule_at(base_ + arrival(slot).at, [this, slot] { fire(slot); },
                     "workload.arrival");
  }

  void fire(std::size_t slot) {
    if (options_.arrival_window > 0 && slot + window_ < total_) {
      schedule_slot(slot + window_);
    }
    const common::WorkflowId workflow =
        mix_.sources()[arrival(slot).source].workflow;
    const std::size_t span = tracer_.open("platform.submit");
    const common::RequestId id = manager_.submit(
        workflow, [this, slot](const platform::RequestResult& result) {
          on_complete(slot, result);
        });
    tracer_.close(span);
    tracer_.set_request(span, id.value());
  }

  void on_complete(std::size_t slot, const platform::RequestResult& result) {
    const std::size_t span =
        tracer_.open("workload.on_complete", result.id.value());
    ++completed_;
    window_buffer_.emplace(slot, result);
    while (!window_buffer_.empty() &&
           window_buffer_.begin()->first == next_fold_) {
      const platform::RequestResult& ready = window_buffer_.begin()->second;
      const std::size_t source = arrival(next_fold_).source;
      const std::size_t consume =
          tracer_.open("metrics.consume", ready.id.value());
      stream_.consume(source, ready);
      tracer_.close(consume);
      run_.rows += ready.node_records.size();
      window_buffer_.erase(window_buffer_.begin());
      ++next_fold_;
    }
    tracer_.close(span);
  }

  core::DispatchManager& manager_;
  const workload::TrafficMix& mix_;
  const workload::RunOptions& options_;
  Tracer& tracer_;
  Sampler& sampler_;
  TracedRun& run_;
  sim::Simulator& sim_;
  sim::TimePoint base_;
  bool single_;
  std::size_t total_;
  std::size_t window_ = 0;
  std::vector<workload::MixedArrival> merged_;
  metrics::StreamingTrace stream_;
  std::map<std::size_t, platform::RequestResult> window_buffer_;
  std::size_t next_fold_ = 0;
  std::size_t completed_ = 0;
};

// -- cold_chain_jit ----------------------------------------------------------------

/// The run_cold_trials protocol (workload/runner.cpp) with spans.
void traced_cold_trials(Deployment& d, Tracer& tracer, Sampler& sampler,
                        TracedRun& run) {
  core::DispatchManager& manager = *d.manager;
  const common::WorkflowId workflow = d.workflows[0];
  workload::RunOutcome& outcome = run.outcome;
  outcome.results.reserve(d.requests);
  metrics::StreamingTrace stream;
  stream.add_source(manager.engine().dag(workflow), "");
  const cluster::ResourceLedger before = manager.ledger();
  for (std::size_t i = 0; i < d.requests; ++i) {
    const std::size_t trial = tracer.open("workload.trial");
    const std::size_t cold = tracer.open("platform.force_cold");
    manager.force_cold_start();
    tracer.close(cold);
    const std::size_t invoke = tracer.open("platform.invoke");
    outcome.results.push_back(manager.invoke(workflow));
    tracer.close(invoke);
    const platform::RequestResult& result = outcome.results.back();
    tracer.set_request(invoke, result.id.value());
    tracer.set_request(trial, result.id.value());
    const std::size_t consume = tracer.open("metrics.consume", result.id.value());
    stream.consume(0, result);
    tracer.close(consume);
    run.rows += result.node_records.size();
    const std::size_t idle = tracer.open("platform.idle_for");
    manager.idle_for(kColdSpacing);
    tracer.close(idle);
    tracer.close(trial);
    sampler.take(tracer.spans()[trial].duration_ns(), i + 1);
  }
  const std::size_t flush = tracer.open("platform.force_cold");
  manager.force_cold_start();
  tracer.close(flush);
  outcome.ledger_delta = manager.ledger() - before;
  stream.finish();
  outcome.stats = stream.stats();
  outcome.histogram = stream.histogram();
  outcome.trace_digest = stream.digest();
  outcome.streamed = true;
}

/// One traced repetition: the deployment it ran on, its samples and spans'
/// summary.
struct Rep {
  Deployment d;
  std::unique_ptr<Sampler> sampler;
  TracedRun run;
};

/// Set-up (untraced), then the traced replay.
Rep traced_rep(Workload workload, const Args& args, const Volume& volume,
               Tracer& tracer) {
  Rep rep;
  rep.d = setup(workload, args.seed, volume);
  Deployment& d = rep.d;
  rep.sampler = std::make_unique<Sampler>(*d.manager, tracer);
  Sampler* sampler = rep.sampler.get();
  TracedRun& run = rep.run;
  run.probes_before = d.manager->probes().sample();
  sim::Simulator& sim = d.manager->simulator();
  const std::uint64_t events_before = sim.events_fired();
  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t bytes_before = g_alloc_bytes;
  const Clock::time_point start = Clock::now();
  if (workload == Workload::ColdChainJit) {
    traced_cold_trials(d, tracer, *sampler, run);
  } else {
    TracedReplay replay(d, tracer, *sampler, run);
    replay.run();
  }
  run.wall_s = seconds_since(start);
  run.events = sim.events_fired() - events_before;
  run.allocs = g_allocs - allocs_before - sampler->own_allocs();
  run.alloc_bytes = g_alloc_bytes - bytes_before - sampler->own_bytes();
  run.probes_after = d.manager->probes().sample();
  return rep;
}

// -- Standalone component timings ------------------------------------------------

/// Lifetime share of scheduled events that were cancelled, read from the
/// slab's generation counters: with nothing pending, scheduling one event
/// per slot visits every slot once, and each slot's generation counts its
/// releases (fires + cancels).  Drains the simulator first.
double cancel_share(sim::Simulator& sim) {
  sim.run();
  const std::size_t slots = sim.slab_capacity();
  const std::uint64_t fired = sim.events_fired();
  std::vector<common::EventId> ids;
  ids.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    ids.push_back(sim.schedule_after(sim::Duration::zero(), [] {}));
  }
  if (sim.slab_capacity() != slots) fail("cancel census: slab grew");
  std::uint64_t releases = 0;
  for (const common::EventId id : ids) {
    releases += id.value() >> 32;
    sim.cancel(id);
  }
  const std::uint64_t cancelled = releases - fired;
  return releases == 0 ? 0.0
                       : static_cast<double>(cancelled) /
                             static_cast<double>(releases);
}

/// Event-queue churn on a fresh Simulator at `depth` pending events: every
/// fired event schedules a successor, and a `share` of all schedules are
/// decoys cancelled a while later, so `depth * share` of the pending events
/// are decoys awaiting cancellation.  Returns host ns per queue operation
/// (schedule, cancel or fire).
double queue_ns_per_op(std::size_t depth, double share, std::uint64_t seed) {
  sim::Simulator sim;
  common::Rng rng{seed ^ 0x0c0ffeeULL};
  share = std::clamp(share, 0.0, 0.9);
  const auto decoy_lag = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(depth) * share));
  const auto chains = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(depth) * (1.0 - share)));
  const double decoys_per_fire = share / (1.0 - share);
  constexpr std::uint64_t kFires = 400'000;
  std::vector<common::EventId> decoys;
  std::size_t decoy_head = 0;
  std::uint64_t ops = 0;
  double decoy_credit = 0.0;
  const auto delay = [&rng] {
    return sim::Duration::from_micros(
        1 + static_cast<std::int64_t>(rng.uniform_int(1'000'000)));
  };
  std::uint64_t fires = 0;
  std::function<void()> fire;
  fire = [&] {
    ++ops;  // the fire itself
    if (++fires > kFires) return;
    sim.schedule_after(delay(), [&fire] { fire(); });
    ++ops;
    decoy_credit += decoys_per_fire;
    while (decoy_credit >= 1.0) {
      decoy_credit -= 1.0;
      // Far enough out to be cancelled before it would fire.
      decoys.push_back(sim.schedule_after(
          sim::Duration::from_seconds(60) + delay(), [&ops] { ++ops; }));
      ++ops;
      // Cancel the decoy scheduled `decoy_lag` decoys ago: it has sat in the
      // heap for a while, as a cancelled keep-alive timer does.
      if (decoys.size() - decoy_head > decoy_lag) {
        sim.cancel(decoys[decoy_head++]);
        ++ops;
      }
    }
  };
  for (std::size_t i = 0; i < chains; ++i) {
    sim.schedule_after(delay(), [&fire] { fire(); });
  }
  const Clock::time_point start = Clock::now();
  sim.run();
  const double wall = seconds_since(start);
  return wall * 1e9 / static_cast<double>(ops);
}

/// MessageBus::publish plus delivery, with the engine's encoded
/// "kind:worker:fn:host" payload and the live bus's subscriber count on the
/// worker-state topic.  Host ns per published message.
double bus_publish_ns(std::size_t subscribers, std::uint64_t seed) {
  sim::Simulator sim;
  platform::MessageBus bus(sim, platform::MessageBus::Options{},
                           common::Rng{seed});
  const platform::TopicId topic = bus.intern(platform::kWorkerStateTopic);
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < subscribers; ++i) {
    bus.subscribe(topic, [&delivered](const platform::BusMessage&) {
      ++delivered;
    });
  }
  constexpr std::size_t kMessages = 200'000;
  constexpr std::size_t kBatch = 1'000;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kMessages; i += kBatch) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      platform::WorkerEvent event;
      event.kind = static_cast<platform::WorkerEventKind>((i + j) % 5);
      event.worker = common::WorkerId{i + j};
      event.function = common::FunctionId{(i + j) % 16};
      event.host = common::HostId{(i + j) % 4};
      bus.publish(topic, platform::encode(event));
    }
    sim.run();
  }
  const double wall = seconds_since(start);
  if (delivered != kMessages * subscribers) fail("bus timing: lost deliveries");
  return wall * 1e9 / static_cast<double>(kMessages);
}

/// estimate_mlp and plan_explicit on the live policy's trained models,
/// weighted by each workflow's share of requests.  Host µs per call.
std::pair<double, double> mlp_plan_us(Deployment& d) {
  core::XanaduPolicy* policy = d.manager->xanadu_policy();
  if (policy == nullptr) return {0.0, 0.0};
  constexpr std::size_t kCalls = 2'000;
  double mlp_us = 0.0;
  double plan_us = 0.0;
  double weight_total = 0.0;
  for (std::size_t w = 0; w < d.workflows.size(); ++w) {
    const core::BranchModel* model = policy->model(d.workflows[w]);
    const core::ProfileTable* profiles = policy->profiles(d.workflows[w]);
    if (model == nullptr || profiles == nullptr) fail("policy has no model");
    const double weight =
        d.mix.sources().empty()
            ? 1.0
            : static_cast<double>(d.mix.sources()[w].schedule.size());
    std::size_t sink = 0;
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      sink += core::estimate_mlp(*model, policy->options().mlp).path.size();
    }
    const double one_mlp = seconds_since(start) * 1e6 / kCalls;
    const core::MlpResult mlp = core::estimate_mlp(*model, policy->options().mlp);
    start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      sink += core::plan_explicit(mlp, *model, *profiles, policy->options().jit)
                  .deployments.size();
    }
    const double one_plan = seconds_since(start) * 1e6 / kCalls;
    if (sink == 0) fail("empty most-likely path");
    mlp_us += weight * one_mlp;
    plan_us += weight * one_plan;
    weight_total += weight;
  }
  return {mlp_us / weight_total, plan_us / weight_total};
}

/// StreamingTrace::consume replayed over retained results into a fresh
/// trace.  The results come from a short untraced run of the same workload
/// with retain_results on (run_cold_trials always retains).  Host ns per
/// rendered row.
double consume_replay_ns_per_row(Workload workload, const Args& args) {
  Deployment d = setup(workload, args.seed, Volume{}.scaled(args.scale * 0.07));
  std::vector<platform::RequestResult> results;
  std::vector<std::size_t> sources;
  if (workload == Workload::ColdChainJit) {
    results = workload::run_cold_trials(*d.manager, d.workflows[0], d.requests,
                                        kColdSpacing)
                  .results;
    sources.assign(results.size(), 0);
  } else {
    d.options.retain_results = true;
    results = workload::run_mixed_schedule(*d.manager, d.mix, d.options)
                  .aggregate.results;
    for (const workload::MixedArrival& arrival : d.mix.merged()) {
      sources.push_back(arrival.source);
    }
  }
  std::uint64_t rows = 0;
  double wall = 0.0;
  while (wall < 0.2) {
    metrics::StreamingTrace stream;
    if (workload == Workload::ColdChainJit) {
      stream.add_source(d.manager->engine().dag(d.workflows[0]), "");
    }
    for (const workload::TrafficSource& source : d.mix.sources()) {
      stream.add_source(d.manager->engine().dag(source.workflow), source.name);
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < results.size(); ++i) {
      stream.consume(sources[i], results[i]);
    }
    wall += seconds_since(start);
    for (const platform::RequestResult& result : results) {
      rows += result.node_records.size();
    }
  }
  return wall * 1e9 / static_cast<double>(rows);
}

// -- Metrics ---------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    common::JsonObject metric;
    metric.set("value", value);
    metric.set("unit", unit);
    metrics_.set(name, common::JsonValue{std::move(metric)});
  }
  common::JsonValue take() { return common::JsonValue{std::move(metrics_)}; }

 private:
  common::JsonObject metrics_;
};

/// Span names, in the order the allocation breakdown reports them.
constexpr const char* kSpanNames[] = {
    "workload.stride",  "workload.trial",   "platform.submit",
    "workload.on_complete", "metrics.consume", "platform.force_cold",
    "platform.invoke",  "platform.idle_for"};

/// Mean of the first and last tenth of samples: {first, last}.
template <typename Fn>
std::pair<double, double> tenths(const std::vector<Sample>& samples, Fn value) {
  const std::size_t n = samples.size();
  const std::size_t k = std::max<std::size_t>(1, n / 10);
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < k && i < n; ++i) {
    first += value(samples[i]);
    last += value(samples[n - 1 - i]);
  }
  return {first / static_cast<double>(k), last / static_cast<double>(k)};
}

void span_metrics(Metrics& m, const Tracer& tracer, const TracedRun& run,
                  Workload workload, double requests) {
  const std::vector<Span>& spans = tracer.spans();
  std::map<std::string, std::pair<double, double>> allocs;  // count, bytes
  std::vector<double> submit_us;
  std::vector<double> force_cold_us;
  std::vector<double> stride_ms;
  double consume_ns = 0.0;
  double drain_self_ns = 0.0;
  // The span the simulator drains under: each run_until stride on the
  // replays; each synchronous invoke on cold_chain_jit.
  const std::string drain_span =
      workload == Workload::ColdChainJit ? "platform.invoke" : "workload.stride";
  const std::string stride_span =
      workload == Workload::ColdChainJit ? "workload.trial" : "workload.stride";
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    auto& [count, bytes] = allocs[name];
    count += static_cast<double>(s.allocs);
    bytes += static_cast<double>(s.alloc_bytes);
    if (name == "platform.submit") submit_us.push_back(s.duration_ns() / 1e3);
    if (name == "platform.force_cold") force_cold_us.push_back(s.duration_ns() / 1e3);
    if (name == stride_span) stride_ms.push_back(s.duration_ns() / 1e6);
    if (name == "metrics.consume") consume_ns += static_cast<double>(s.duration_ns());
    if (name == drain_span) drain_self_ns += s.duration_ns() - child_ns[i];
  }
  const double events = static_cast<double>(run.events);
  m.add("sim.events_per_req", events / requests, "count");
  m.add("sim.drain_self_ns_per_event", drain_self_ns / events, "ns");
  m.add("platform.submit_us_p50", quantile(submit_us, 0.50), "us");
  m.add("platform.submit_us_p99", quantile(submit_us, 0.99), "us");
  m.add("platform.force_cold_us", median(force_cold_us), "us");
  m.add("metrics.consume_ns_per_row",
        consume_ns / static_cast<double>(run.rows), "ns");
  m.add("metrics.rows_per_req", static_cast<double>(run.rows) / requests,
        "count");
  m.add("workload.stride_ms_p50", quantile(stride_ms, 0.50), "ms");
  m.add("workload.stride_ms_p99", quantile(stride_ms, 0.99), "ms");
  m.add("common.allocs_per_req", static_cast<double>(run.allocs) / requests,
        "count");
  m.add("common.alloc_bytes_per_req",
        static_cast<double>(run.alloc_bytes) / requests, "B");
  for (const char* name : kSpanNames) {
    const auto it = allocs.find(name);
    const double count = it == allocs.end() ? 0.0 : it->second.first;
    const double bytes = it == allocs.end() ? 0.0 : it->second.second;
    m.add(std::string{"common.allocs_per_req."} + name, count / requests,
          "count");
    m.add(std::string{"common.alloc_bytes_per_req."} + name, bytes / requests,
          "B");
  }
}

/// Adds the sampled metrics; returns the mean heap depth.
double sample_metrics(Metrics& m, const std::vector<Sample>& samples) {
  double heap_sum = 0.0;
  std::size_t heap_peak = 0;
  std::size_t tombstones_peak = 0;
  std::uint64_t keep_alive_peak = 0;
  std::uint64_t pooled_peak = 0;
  for (const Sample& s : samples) {
    heap_sum += static_cast<double>(s.heap_entries);
    heap_peak = std::max(heap_peak, s.heap_entries);
    tombstones_peak = std::max(tombstones_peak, s.tombstones);
    keep_alive_peak = std::max(keep_alive_peak, s.keep_alive_timers);
    pooled_peak = std::max(pooled_peak, s.pooled_workers);
  }
  const double heap_mean =
      samples.empty() ? 0.0 : heap_sum / static_cast<double>(samples.size());
  m.add("sim.heap_entries_mean", heap_mean, "count");
  m.add("sim.heap_entries_peak", static_cast<double>(heap_peak), "count");
  m.add("sim.tombstones_peak", static_cast<double>(tombstones_peak), "count");
  m.add("platform.keep_alive_timers_peak", static_cast<double>(keep_alive_peak),
        "count");
  m.add("platform.pooled_workers_peak", static_cast<double>(pooled_peak),
        "count");
  // Host ns per completed request, last tenth of the run over the first.
  const auto [early_ns, late_ns] =
      tenths(samples, [](const Sample& s) { return static_cast<double>(s.wall_ns); });
  const auto [early_done, late_done] = tenths(
      samples, [](const Sample& s) { return static_cast<double>(s.completed_in); });
  m.add("workload.late_over_early",
        early_done > 0.0 && late_done > 0.0 && early_ns > 0.0
            ? (late_ns / late_done) / (early_ns / early_done)
            : 0.0,
        "ratio");
  // RSS growth per thousand completed requests between the two tenths.
  const auto [rss_first, rss_last] =
      tenths(samples, [](const Sample& s) { return s.rss_kib; });
  const auto [done_first, done_last] = tenths(
      samples, [](const Sample& s) { return static_cast<double>(s.completed); });
  m.add("common.rss_kib_per_kreq",
        done_last > done_first
            ? (rss_last - rss_first) / ((done_last - done_first) / 1000.0)
            : 0.0,
        "KiB/kreq");
  return heap_mean;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv, kUsage);
  const Volume volume = Volume{}.scaled(args.scale);
  // Room for every span up front: the tracer's own growth stays out of the
  // allocation counts.
  const std::size_t span_capacity =
      8 * (volume.knative_requests + volume.cold_trials) + 200'000;

  Tracer tracer(span_capacity);
  const Clock::time_point budget_start = Clock::now();
  Rep rep = traced_rep(args.workload, args, volume, tracer);
  Deployment& d = rep.d;
  const TracedRun& first = rep.run;
  const double requests = static_cast<double>(d.requests);
  const Pins pins = make_pins(first.outcome, d.requests, first.events);
  check_conservation(pins);

  // Per-layer metrics of the first repetition.
  Metrics m;
  span_metrics(m, tracer, first, args.workload, requests);
  const double mean_depth = sample_metrics(m, rep.sampler->samples());
  m.add("core.missed_nodes_per_req", pins.missed_nodes_per_req, "count");
  m.add("core.spec_useful_ratio", pins.spec_useful_ratio, "ratio");
  m.add("cluster.cold_starts_per_req", pins.cold_starts_per_req, "count");
  m.add("cluster.workers_per_req", pins.workers_per_req, "count");

  // Probe deltas over the replay of the first repetition.
  {
    const auto delta = [&first](const char* name) {
      return static_cast<double>(probe(first.probes_after, name) -
                                 probe(first.probes_before, name));
    };
    const double published = delta("bus.published");
    m.add("platform.bus_published_per_req", published / requests, "count");
    m.add("platform.bus_delivered_per_published",
          published > 0.0 ? delta("bus.delivered") / published : 0.0, "ratio");
    m.add("platform.provisions_per_req",
          delta("pipeline.provisions_started") / requests, "count");
  }

  if (!args.spans_path.empty() && !tracer.write_csv(args.spans_path)) {
    fail("cannot write spans to " + args.spans_path);
  }

  // Standalone estimates on the live run's state.
  const auto [mlp_us, plan_us] = mlp_plan_us(d);
  m.add("core.mlp_us", mlp_us, "us");
  m.add("core.plan_us", plan_us, "us");
  m.add("metrics.consume_replay_ns_per_row",
        consume_replay_ns_per_row(args.workload, args), "ns");
  platform::MessageBus* bus = d.manager->engine().control_bus();
  m.add("platform.bus_publish_ns",
        bus == nullptr
            ? 0.0
            : bus_publish_ns(bus->subscriber_count(platform::kWorkerStateTopic),
                             args.seed),
        "ns");
  sim::Simulator& sim = d.manager->simulator();
  m.add("sim.slab_slots", static_cast<double>(sim.slab_capacity()), "count");
  const double share = cancel_share(sim);
  m.add("sim.cancel_share", share, "ratio");
  m.add("sim.queue_ns_per_op",
        queue_ns_per_op(static_cast<std::size_t>(mean_depth), share, args.seed),
        "ns");

  // Further traced repetitions, for the traced wall time only; each must
  // reproduce the first one's behaviour.  The first repetition ran on fresh
  // memory and cold caches, so like the untraced runner's warm-up it is left
  // out of the timing.
  std::vector<double> walls;
  while (walls.size() < args.min_reps || seconds_since(budget_start) < args.seconds) {
    Tracer again(span_capacity);
    const Rep next = traced_rep(args.workload, args, volume, again);
    if (!(make_pins(next.run.outcome, next.d.requests, next.run.events) == pins)) {
      fail("traced repetition diverged from the first");
    }
    walls.push_back(next.run.wall_s);
  }

  common::JsonObject report;
  report.set("runner", "traced");
  report.set("provenance", provenance(args.workload, args.seed));
  report.set("pins", to_json(pins));
  report.set("reps", static_cast<double>(walls.size()));
  report.set("replay_s", median(walls));
  report.set("replay_s_reps", to_json(walls));
  report.set("spans", static_cast<double>(tracer.spans().size()));
  report.set("standalone",
             common::JsonArray{"sim.queue_ns_per_op", "platform.bus_publish_ns",
                               "core.mlp_us", "core.plan_us",
                               "metrics.consume_replay_ns_per_row"});
  report.set("metrics", m.take());
  std::printf("%s\n", common::JsonValue{std::move(report)}.dump().c_str());
  return 0;
}
