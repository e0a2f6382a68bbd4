#pragma once

// WarmPoolManager: warm-worker bookkeeping for the platform engine.
//
// Owns the per-function deques of idle (warm) workers, their keep-alive
// reclamation timers (armed lazily, see park()), the platform-wide eviction scan backing the
// OpenWhisk-style live-worker cap, and the warm-worker rebind path (paper
// Section 7 reuse extension).  The manager is purely mechanical: WHEN a
// worker is provisioned or reused is the engine's (and its policy's)
// business; THAT a parked worker is reclaimed after keep_alive, or evicted
// oldest-first under a live-worker cap, is decided here.
//
// Narrow interface by design: the manager borrows the simulator, the
// cluster, and the calibration constants, plus one callback for publishing
// worker lifecycle events on the control bus.  It never touches requests,
// policies, or provisioning state.

#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "common/ids.hpp"
#include "platform/calibration.hpp"
#include "platform/worker_state.hpp"
#include "sim/simulator.hpp"

namespace xanadu::platform {

using common::EventId;
using common::FunctionId;
using common::WorkerId;

class WarmPoolManager {
 public:
  /// Publishes a worker lifecycle event on the control bus (no-op when the
  /// bus is disabled).  Wired by the engine.
  using EventPublisher = std::function<void(WorkerEventKind, WorkerId)>;

  /// Borrows the simulator, cluster and calibration; all must outlive the
  /// manager.
  WarmPoolManager(sim::Simulator& sim, cluster::Cluster& cluster,
                  const PlatformCalibration& calib, EventPublisher publish);

  WarmPoolManager(const WarmPoolManager&) = delete;
  WarmPoolManager& operator=(const WarmPoolManager&) = delete;

  /// Pops the oldest warm worker of `fn`, or nullopt when the pool is
  /// empty.  The worker keeps its keep-alive timer (see park()).
  [[nodiscard]] std::optional<WorkerId> acquire(FunctionId fn);

  /// Parks `worker` warm at the back of `fn`'s pool and moves its keep-alive
  /// deadline to now + keep_alive.  A timer is armed only when the worker
  /// holds none: a worker reused before its timer fires keeps the old one,
  /// which on firing re-arms at the current deadline if the worker is pooled
  /// again, reclaims it if the deadline has passed, and otherwise (worker
  /// busy) drops out, leaving the next park() to arm a new timer.  The
  /// reclaim time is exactly last park + keep_alive, as with a timer per
  /// park, without the schedule/cancel pair on every warm reuse.
  void park(FunctionId fn, WorkerId worker);

  /// Cancels `worker`'s keep-alive timer and drops its record.  Every path
  /// that kills a worker calls it, busy workers included: a busy worker may
  /// still hold the timer armed at an earlier park().
  void cancel_keep_alive(WorkerId worker);

  /// Reclaims a pooled worker (keep-alive expiry or eviction): removes it
  /// from the pool and destroys the sandbox.  No-op when the worker has
  /// already been reused or reclaimed.
  void reclaim(FunctionId fn, WorkerId worker);

  /// Tears down all warm workers of `fn` immediately; returns the number of
  /// workers destroyed.
  std::size_t discard_all(FunctionId fn);

  /// Reclaims pooled workers of `fn`, oldest first, until at most `target`
  /// remain warm.  Returns the number destroyed.  Used by provisioning
  /// policies that maintain a bounded pool (eviction half of a
  /// provision/evict schedule).
  std::size_t shrink_to(FunctionId fn, std::size_t target);

  /// Tears down every warm worker on the platform, in sorted function-id
  /// order (teardown order is observable through bus events and ledger
  /// accumulation).  Workers mid-rebind are torn down too, in sorted
  /// worker-id order after the pools: a rebinding sandbox belongs to no pool
  /// while its code reloads, and before the fix it escaped the flush only to
  /// re-park itself (fresh keep-alive timer, accruing idle ledger cost) when
  /// the rebind latency elapsed.
  void flush_all();

  /// Drops `worker` from `fn`'s pool without destroying the sandbox (the
  /// caller owns the teardown -- host-outage kills).  Returns true when the
  /// worker was actually pooled.
  bool remove_if_pooled(FunctionId fn, WorkerId worker);

  /// Evicts the platform-wide oldest-idle warm worker (live-worker cap).
  /// Returns false when every live worker is busy or provisioning.
  bool evict_oldest();

  /// Moves one idle warm worker of `from` into `to`'s pool after the rebind
  /// (code reload) latency.  The engine has already checked that the two
  /// functions share a sandbox architecture.  Returns false when `from` has
  /// no idle worker.
  bool rebind(FunctionId from, FunctionId to);

  /// Registers this subsystem's race-detector probes ("warm_pool.*"):
  /// pooled-worker totals, armed keep-alive timers, in-flight rebinds.
  void register_probes(sim::ProbeRegistry& probes) const;

  /// FNV-1a digest of the pool's exact membership -- every (function,
  /// position, worker) triple, folded in sorted function-id order so the
  /// unordered map's iteration order cannot leak in.  Two runs whose races
  /// cancel out in counters (same pool sizes, different workers) still
  /// diverge here; folded into the race detector's divergence digest.
  [[nodiscard]] std::uint64_t membership_digest() const;

  [[nodiscard]] std::size_t warm_count(FunctionId fn) const;
  /// Workers mid-rebind toward `fn` (counted as provisioning coverage so the
  /// speculation engine does not double-provision).
  [[nodiscard]] std::size_t inbound_rebinds(FunctionId fn) const;
  /// Pending keep-alive timers: one per pooled worker, plus one for each
  /// busy worker still holding the timer of an earlier park().  Every timer
  /// belongs to a live worker (the keep-alive cancellation regression tests
  /// lean on this).
  [[nodiscard]] std::size_t keep_alive_event_count() const {
    return keep_alive_.size();
  }

 private:
  /// One worker whose sandbox is reloading code toward `target`.  Tracked so
  /// flush_all() can cancel the completion event and destroy the sandbox
  /// instead of letting it re-park after the flush.
  struct InflightRebind {
    FunctionId target{};
    EventId completion{};
  };

  /// A worker's armed keep-alive timer and the deadline it enforces.  The
  /// deadline moves on every park(); the timer only when it fires early.
  struct KeepAlive {
    EventId event{};
    sim::TimePoint deadline{};
  };

  void arm_keep_alive(FunctionId fn, WorkerId worker, KeepAlive& record);
  void keep_alive_fired(FunctionId fn, WorkerId worker);
  [[nodiscard]] bool is_pooled(FunctionId fn, WorkerId worker) const;

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  const PlatformCalibration& calib_;
  EventPublisher publish_;

  /// Warm idle workers per function, oldest first.
  std::unordered_map<FunctionId, std::deque<WorkerId>> warm_;
  std::unordered_map<WorkerId, KeepAlive> keep_alive_;
  std::unordered_map<FunctionId, std::size_t> inbound_rebinds_;
  /// Workers currently mid-rebind, keyed by worker id.
  std::unordered_map<WorkerId, InflightRebind> rebinding_;
};

}  // namespace xanadu::platform
