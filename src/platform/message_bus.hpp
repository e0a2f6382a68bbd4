#pragma once

// In-simulation message bus -- the reproduction's stand-in for the Apache
// Kafka deployment of paper Section 4 ("We use Apache Kafka for internal
// communication between the Dispatch Manager and the Dispatch Daemon and
// also for state management of Xanadu workers").
//
// Topics carry typed payloads (platform/bus_payload.hpp): a worker
// lifecycle event or a provisioning command.  Publishing enqueues one
// delivery event after the bus latency (plus optional jitter); per topic,
// deliveries preserve publish order (Kafka partition semantics), and each
// delivery fans the message out to the topic's subscribers.  Handlers run in
// virtual time, so bus latency is part of every control-plane round-trip
// that uses it -- notably the Dispatch Manager -> Dispatch Daemon
// provisioning commands.
//
// Topic names are interned to dense TopicIds on first use: the publish hot
// path indexes a vector instead of hashing the topic string.  A published
// message waits for its delivery in a bus-owned slot that is recycled once
// delivered, and the delivery closure captures only `this` and the slot
// index, so it stays inside sim::EventFn's inline buffer: steady-state
// publishing and delivery allocate nothing.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/interner.hpp"
#include "common/rng.hpp"
#include "platform/bus_payload.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

/// Dense handle for an interned topic name.  Assigned in first-use order,
/// so ids are deterministic for a deterministic call sequence.
struct TopicTag {};
using TopicId = common::Id<TopicTag>;

struct BusMessage {
  TopicId topic;
  BusPayload payload;
  /// Monotonic per-topic sequence number (assigned by the bus).
  std::uint64_t offset = 0;
  /// Virtual time the message was published.
  sim::TimePoint published{};
};

using BusHandler = std::function<void(const BusMessage&)>;

/// Subscription handle; used to unsubscribe.
struct SubscriptionTag {};
using SubscriptionId = common::Id<SubscriptionTag>;

class MessageBus {
 public:
  struct Options {
    /// One-way delivery latency.
    sim::Duration latency = sim::Duration::from_millis(3);
    /// Stddev of delivery jitter.  Jitter never reorders messages within a
    /// topic: deliveries are serialised per topic like Kafka partitions.
    sim::Duration jitter = sim::Duration::zero();
  };

  MessageBus(sim::Simulator& simulator, Options options, common::Rng rng);

  /// Interns `topic`, creating it if unseen, and returns its dense id.
  /// Callers on hot paths can intern once and use the id overloads below.
  TopicId intern(const std::string& topic);

  /// Subscribes `handler` to `topic`.  Returns a handle for unsubscribe().
  SubscriptionId subscribe(const std::string& topic, BusHandler handler);
  SubscriptionId subscribe(TopicId topic, BusHandler handler);

  /// Removes a subscription; returns false if the id is unknown.
  bool unsubscribe(SubscriptionId id);

  /// Publishes a payload; every subscriber of the topic at delivery time
  /// receives it after the bus latency.  Returns the message's per-topic
  /// offset.
  std::uint64_t publish(const std::string& topic, const BusPayload& payload);
  std::uint64_t publish(TopicId topic, const BusPayload& payload);

  /// Wires a fault plan into the bus.  Each publish then consults the plan
  /// once: the message may be dropped (never delivered), duplicated
  /// (delivered twice, in order), or held back by the plan's extra delay.
  /// Pass nullptr to detach.  The plan must outlive the bus.
  void set_fault_plan(sim::FaultPlan* plan) { faults_ = plan; }

  [[nodiscard]] std::size_t subscriber_count(const std::string& topic) const;
  [[nodiscard]] std::size_t topic_count() const { return topics_.size(); }
  [[nodiscard]] std::uint64_t published_count() const { return published_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  /// Messages published but never scheduled for delivery (drop faults).
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }

 private:
  struct Subscription {
    SubscriptionId id;
    /// Shared so a delivery can keep the handler alive while it runs, even
    /// if the handler unsubscribes itself or a subscribe reallocates the
    /// list.
    std::shared_ptr<const BusHandler> handler;
  };

  struct Topic {
    /// Ascending id order: ids are issued monotonically and erase keeps the
    /// order, which deliver() relies on.
    std::vector<Subscription> subscriptions;
    std::uint64_t next_offset = 0;
    /// Earliest time the next delivery may fire, per subscriber ordering.
    sim::TimePoint last_delivery{};
  };

  /// A published message waiting for its delivery events: one, or two for a
  /// duplicate fault, which shares the slot.  Freed slots are reused, so the
  /// pool only grows to the peak number of messages in flight.  A delivery
  /// event that never fires (the simulator is torn down first) just leaves
  /// its slot unreclaimed.
  struct Slot {
    BusMessage message;
    std::uint32_t pending = 0;
  };

  void schedule_delivery(sim::TimePoint when, std::uint32_t slot);
  /// Runs one delivery event: releases the slot, then calls every
  /// subscriber of the message's topic present when the delivery begins,
  /// skipping any unsubscribed by an earlier handler of the same delivery.
  void deliver(std::uint32_t slot);

  sim::Simulator& sim_;
  Options options_;
  common::Rng rng_;
  sim::FaultPlan* faults_ = nullptr;
  /// Topic names live in the shared interner (common::StringInterner);
  /// common::Symbol values double as dense indices into topics_.  Touched
  /// only on intern (cold path); publish/delivery index topics_ directly.
  common::StringInterner names_;
  std::vector<Topic> topics_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  common::IdGenerator<SubscriptionId> subscription_ids_;
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace xanadu::platform
