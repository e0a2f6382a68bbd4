#pragma once

// Worker state management over the control bus.
//
// Paper Section 4 uses Kafka "also for state management of Xanadu workers":
// the Dispatch Daemons publish worker lifecycle transitions, and the
// Dispatch Manager's view of the fleet is whatever has arrived on the bus.
// The event vocabulary the engine publishes on the "workers" topic
// (WorkerEvent) lives with the other bus payloads in
// platform/bus_payload.hpp; this module provides WorkerStateTracker, a
// subscriber that maintains the eventually-consistent fleet view (counts per
// state and per function).
//
// The tracker deliberately lags reality by the bus latency -- tests assert
// exactly that -- mirroring the consistency model a real Kafka-backed
// control plane has.

#include <cstdint>
#include <unordered_map>

#include "common/ids.hpp"
#include "platform/bus_payload.hpp"
#include "platform/message_bus.hpp"

namespace xanadu::platform {

/// Topic the engine publishes worker events on.
inline constexpr const char* kWorkerStateTopic = "workers";

/// Returns `event` as a bus payload.  The bus carries typed payloads, so
/// there is nothing left to encode; this stays because the benchmark's
/// bus-publish timing loop (perfbench/traced.cpp) publishes through it and
/// must keep building unchanged across commits it compares.
[[nodiscard]] inline BusPayload encode(const WorkerEvent& event) { return event; }

/// Subscribes to the worker-state topic and maintains the fleet view.
class WorkerStateTracker {
 public:
  /// Subscribes to kWorkerStateTopic on construction; the bus must outlive
  /// the tracker.
  explicit WorkerStateTracker(MessageBus& bus);
  ~WorkerStateTracker();

  WorkerStateTracker(const WorkerStateTracker&) = delete;
  WorkerStateTracker& operator=(const WorkerStateTracker&) = delete;

  /// Live (non-dead) workers currently known.
  [[nodiscard]] std::size_t live_count() const;
  /// Workers known to be in a given state.
  [[nodiscard]] std::size_t count(WorkerEventKind state) const;
  /// Live workers of one function.
  [[nodiscard]] std::size_t function_count(common::FunctionId fn) const;
  /// Total events consumed.
  [[nodiscard]] std::uint64_t events_seen() const { return events_; }

 private:
  void apply(const WorkerEvent& event);

  MessageBus& bus_;
  SubscriptionId subscription_;
  struct Entry {
    WorkerEventKind state;
    common::FunctionId function;
  };
  std::unordered_map<common::WorkerId, Entry> workers_;
  std::uint64_t events_ = 0;
};

}  // namespace xanadu::platform
