#include "platform/warm_pool.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "sim/audit.hpp"

namespace xanadu::platform {

WarmPoolManager::WarmPoolManager(sim::Simulator& sim,
                                 cluster::Cluster& cluster,
                                 const PlatformCalibration& calib,
                                 EventPublisher publish)
    : sim_(sim), cluster_(cluster), calib_(calib), publish_(std::move(publish)) {}

std::optional<WorkerId> WarmPoolManager::acquire(FunctionId fn) {
  auto it = warm_.find(fn);
  if (it == warm_.end() || it->second.empty()) return std::nullopt;
  const WorkerId worker = it->second.front();
  it->second.pop_front();
  // The keep-alive timer stays armed: if the worker is parked again before
  // it fires, the fire re-arms at the new deadline instead of this acquire
  // cancelling one timer and the next park scheduling another.
  return worker;
}

void WarmPoolManager::park(FunctionId fn, WorkerId worker) {
  warm_[fn].push_back(worker);
  const sim::TimePoint deadline = sim_.now() + calib_.keep_alive;
  const auto [it, fresh] = keep_alive_.try_emplace(worker);
  it->second.deadline = deadline;
  if (fresh) arm_keep_alive(fn, worker, it->second);
}

void WarmPoolManager::arm_keep_alive(FunctionId fn, WorkerId worker,
                                     KeepAlive& record) {
  record.event = sim_.schedule_at(
      record.deadline, [this, fn, worker] { keep_alive_fired(fn, worker); },
      "warm_pool.keep_alive");
}

void WarmPoolManager::keep_alive_fired(FunctionId fn, WorkerId worker) {
  auto it = keep_alive_.find(worker);
  XANADU_INVARIANT(it != keep_alive_.end(),
                   "keep-alive timer fired without its record");
  const bool pooled = is_pooled(fn, worker);
  if (pooled && sim_.now() < it->second.deadline) {
    // Reused and re-parked since the timer was armed: wait out the rest.
    arm_keep_alive(fn, worker, it->second);
    return;
  }
  // Expired, or busy / handed off since: the record goes, and the next
  // park() arms a fresh timer.
  keep_alive_.erase(it);
  if (pooled) reclaim(fn, worker);
}

bool WarmPoolManager::is_pooled(FunctionId fn, WorkerId worker) const {
  auto pool = warm_.find(fn);
  return pool != warm_.end() &&
         std::find(pool->second.begin(), pool->second.end(), worker) !=
             pool->second.end();
}

void WarmPoolManager::cancel_keep_alive(WorkerId worker) {
  auto it = keep_alive_.find(worker);
  if (it != keep_alive_.end()) {
    sim_.cancel(it->second.event);
    keep_alive_.erase(it);
  }
}

void WarmPoolManager::reclaim(FunctionId fn, WorkerId worker) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return;
  auto it = std::find(pool->second.begin(), pool->second.end(), worker);
  if (it == pool->second.end()) return;  // Already reused or reclaimed.
  pool->second.erase(it);
  cancel_keep_alive(worker);
  publish_(WorkerEventKind::Dead, worker);
  cluster_.destroy_worker(worker, sim_.now());
}

std::size_t WarmPoolManager::discard_all(FunctionId fn) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return 0;
  std::size_t destroyed = 0;
  while (!pool->second.empty()) {
    const WorkerId worker = pool->second.front();
    pool->second.pop_front();
    cancel_keep_alive(worker);
    publish_(WorkerEventKind::Dead, worker);
    cluster_.destroy_worker(worker, sim_.now());
    ++destroyed;
  }
  return destroyed;
}

std::size_t WarmPoolManager::shrink_to(FunctionId fn, std::size_t target) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return 0;
  std::size_t destroyed = 0;
  while (pool->second.size() > target) {
    const WorkerId worker = pool->second.front();
    pool->second.pop_front();
    cancel_keep_alive(worker);
    publish_(WorkerEventKind::Dead, worker);
    cluster_.destroy_worker(worker, sim_.now());
    ++destroyed;
  }
  return destroyed;
}

void WarmPoolManager::flush_all() {
  // Teardown order is observable (bus events, ledger float accumulation), so
  // collect the unordered map's keys and flush in sorted order.
  std::vector<FunctionId> ids;
  ids.reserve(warm_.size());
  for (auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
    (void)pool;
    ids.push_back(fn);
  }
  std::sort(ids.begin(), ids.end());
  for (const FunctionId fn : ids) {
    discard_all(fn);
  }
  // Workers mid-rebind belong to no pool (popped at rebind start), so the
  // sweep above cannot see them.  A flush means "no warm sandbox survives":
  // cancel each pending completion and destroy the sandbox now, in sorted
  // worker-id order so teardown stays replay-deterministic.
  std::vector<WorkerId> rebinding;
  rebinding.reserve(rebinding_.size());
  for (const auto& [worker, inflight] : rebinding_) {  // lint:allow(unordered-iteration)
    (void)inflight;
    rebinding.push_back(worker);
  }
  std::sort(rebinding.begin(), rebinding.end());
  for (const WorkerId worker : rebinding) {
    const InflightRebind inflight = rebinding_.at(worker);
    sim_.cancel(inflight.completion);
    rebinding_.erase(worker);
    auto it = inbound_rebinds_.find(inflight.target);
    if (it != inbound_rebinds_.end() && it->second > 0) --it->second;
    if (cluster_.find_worker(worker) != nullptr) {
      publish_(WorkerEventKind::Dead, worker);
      cluster_.destroy_worker(worker, sim_.now());
    }
  }
}

bool WarmPoolManager::remove_if_pooled(FunctionId fn, WorkerId worker) {
  auto pool = warm_.find(fn);
  if (pool == warm_.end()) return false;
  auto it = std::find(pool->second.begin(), pool->second.end(), worker);
  if (it == pool->second.end()) return false;
  pool->second.erase(it);
  return true;
}

bool WarmPoolManager::evict_oldest() {
  // Evict the warm worker that has been idle the longest, platform-wide.
  // The scan reduces over an unordered map, but the (idle_since, worker id)
  // ordering is total, so the victim is independent of iteration order.
  FunctionId victim_fn{};
  WorkerId victim{};
  sim::TimePoint oldest{};
  bool found = false;
  for (auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
    for (const WorkerId id : pool) {
      const cluster::Worker* worker = cluster_.find_worker(id);
      XANADU_INVARIANT(worker != nullptr, "warm pool references a dead worker");
      if (!found || worker->idle_since() < oldest ||
          (worker->idle_since() == oldest && id < victim)) {
        oldest = worker->idle_since();
        victim = id;
        victim_fn = fn;
        found = true;
      }
    }
  }
  if (!found) return false;
  reclaim(victim_fn, victim);
  return true;
}

bool WarmPoolManager::rebind(FunctionId from, FunctionId to) {
  auto pool = warm_.find(from);
  if (pool == warm_.end() || pool->second.empty()) return false;
  const WorkerId worker_id = pool->second.front();
  pool->second.pop_front();
  cancel_keep_alive(worker_id);
  cluster::Worker* worker = cluster_.find_worker(worker_id);
  XANADU_INVARIANT(worker != nullptr, "rebind_warm_worker: worker vanished");
  worker->rebind(to);
  ++inbound_rebinds_[to];
  // Code reload: the sandbox stays idle for the rebind latency, then joins
  // the target function's warm pool.  The completion event is tracked in
  // rebinding_ so flush_all() can cancel it and tear the sandbox down -- an
  // untracked event would let the worker re-park itself after a flush.
  const EventId completion = sim_.schedule_after(
      calib_.rebind_latency,
      [this, to, worker_id] {
        rebinding_.erase(worker_id);
        auto it = inbound_rebinds_.find(to);
        if (it != inbound_rebinds_.end() && it->second > 0) --it->second;
        if (cluster_.find_worker(worker_id) != nullptr) {
          park(to, worker_id);
        }
      },
      "warm_pool.rebind_done");
  rebinding_.emplace(worker_id, InflightRebind{to, completion});
  return true;
}

std::size_t WarmPoolManager::warm_count(FunctionId fn) const {
  auto it = warm_.find(fn);
  return it == warm_.end() ? 0 : it->second.size();
}

std::size_t WarmPoolManager::inbound_rebinds(FunctionId fn) const {
  auto it = inbound_rebinds_.find(fn);
  return it == inbound_rebinds_.end() ? 0 : it->second;
}

void WarmPoolManager::register_probes(sim::ProbeRegistry& probes) const {
  // Sums over unordered maps are order-insensitive reductions, so the
  // iteration order cannot leak into the sampled values.
  probes.add("warm_pool.pooled_workers", [this] {
    std::uint64_t total = 0;
    // lint:allow(unordered-iteration) order-insensitive sum
    for (const auto& [fn, pool] : warm_) total += pool.size();
    return total;
  });
  probes.add("warm_pool.keep_alive_timers",
             [this] { return static_cast<std::uint64_t>(keep_alive_.size()); });
  probes.add("warm_pool.inbound_rebinds", [this] {
    std::uint64_t total = 0;
    // lint:allow(unordered-iteration) order-insensitive sum
    for (const auto& [fn, count] : inbound_rebinds_) total += count;
    return total;
  });
}

std::uint64_t WarmPoolManager::membership_digest() const {
  std::vector<FunctionId> fns;
  fns.reserve(warm_.size());
  // Sorted below: the fold must not depend on the map's iteration order.
  for (const auto& [fn, pool] : warm_) {  // lint:allow(unordered-iteration)
    if (!pool.empty()) fns.push_back(fn);
  }
  std::sort(fns.begin(), fns.end());
  std::uint64_t digest = common::kFnvOffsetBasis;
  for (const FunctionId fn : fns) {
    digest = common::fnv1a_u64(fn.value(), digest);
    for (const WorkerId worker : warm_.at(fn)) {
      digest = common::fnv1a_u64(worker.value(), digest);
    }
  }
  return digest;
}

}  // namespace xanadu::platform
