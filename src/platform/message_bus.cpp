#include "platform/message_bus.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <type_traits>

namespace xanadu::platform {

// Slots copy messages by value, which assumes a small, trivially copyable
// payload.
static_assert(std::is_trivially_copyable_v<BusMessage>);
static_assert(sizeof(BusPayload) <= 40);

MessageBus::MessageBus(sim::Simulator& simulator, Options options,
                       common::Rng rng)
    : sim_(simulator), options_(options), rng_(rng) {
  if (options_.latency < sim::Duration::zero() ||
      options_.jitter < sim::Duration::zero()) {
    throw std::invalid_argument{"MessageBus: negative latency or jitter"};
  }
}

TopicId MessageBus::intern(const std::string& topic) {
  const common::Symbol symbol = names_.intern(topic);
  // Symbols are dense first-use ids, so a fresh one is exactly topics_.size().
  if (symbol == topics_.size()) topics_.emplace_back();
  return TopicId{symbol};
}

SubscriptionId MessageBus::subscribe(const std::string& topic,
                                     BusHandler handler) {
  return subscribe(intern(topic), std::move(handler));
}

SubscriptionId MessageBus::subscribe(TopicId topic, BusHandler handler) {
  if (!handler) throw std::invalid_argument{"MessageBus::subscribe: empty handler"};
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{"MessageBus::subscribe: unknown topic id"};
  }
  const SubscriptionId id = subscription_ids_.next();
  topics_[topic.value()].subscriptions.push_back(Subscription{
      id, std::make_shared<const BusHandler>(std::move(handler))});
  return id;
}

bool MessageBus::unsubscribe(SubscriptionId id) {
  // Linear search for a unique subscription id: at most one topic matches.
  // topics_ is a dense vector in intern order, so the walk is deterministic.
  for (Topic& state : topics_) {
    auto& subs = state.subscriptions;
    const auto it = std::find_if(subs.begin(), subs.end(),
                                 [id](const Subscription& s) { return s.id == id; });
    if (it != subs.end()) {
      subs.erase(it);
      return true;
    }
  }
  return false;
}

std::uint64_t MessageBus::publish(const std::string& topic,
                                  const BusPayload& payload) {
  return publish(intern(topic), payload);
}

std::uint64_t MessageBus::publish(TopicId topic, const BusPayload& payload) {
  if (!topic.valid() || topic.value() >= topics_.size()) {
    throw std::invalid_argument{"MessageBus::publish: unknown topic id"};
  }
  Topic& state = topics_[topic.value()];
  const std::uint64_t offset = state.next_offset++;
  ++published_;

  // One fault consult per message.  A dropped message still consumed its
  // offset (the broker accepted it; delivery is what got lost) but never
  // advances last_delivery, so later messages are not held back by it.
  sim::FaultPlan::BusFault fault = sim::FaultPlan::BusFault::None;
  if (faults_ != nullptr && faults_->active()) {
    fault = faults_->next_bus_fault();
  }
  if (fault == sim::FaultPlan::BusFault::Drop) {
    ++dropped_;
    return offset;
  }

  double delay_ms = options_.latency.millis();
  if (options_.jitter > sim::Duration::zero()) {
    // Shared bus stream is deliberate: publishes happen in a fixed serial
    // order (per-topic offsets pin it; the race sweep covers this).
    delay_ms += std::abs(  // flow-lint:allow(shared-rng-draw)
        rng_.normal(0.0, options_.jitter.millis()));
  }
  if (fault == sim::FaultPlan::BusFault::Delay) {
    delay_ms += faults_->options().bus_extra_delay.millis();
  }
  // Per-topic ordering: a delivery never overtakes its predecessor.
  sim::TimePoint when = sim_.now() + sim::Duration::from_millis(delay_ms);
  when = std::max(when, state.last_delivery);
  state.last_delivery = when;
  // Nobody to deliver to: the message keeps its offset, its draws and its
  // place in the topic's delivery order, but takes no slot and schedules no
  // event.  A subscriber added later never sees it.
  if (state.subscriptions.empty()) return offset;

  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const bool duplicate = fault == sim::FaultPlan::BusFault::Duplicate;
  slots_[slot] = Slot{BusMessage{topic, payload, offset, sim_.now()},
                      duplicate ? 2U : 1U};

  schedule_delivery(when, slot);
  if (duplicate) {
    // The duplicate lands immediately after the original (same virtual time,
    // FIFO tie-break), shares its slot and keeps its offset, like a Kafka
    // redelivery.
    schedule_delivery(when, slot);
  }
  return offset;
}

void MessageBus::schedule_delivery(sim::TimePoint when, std::uint32_t slot) {
  // Captures: this + slot index = 16 bytes, inside EventFn's inline buffer.
  // Each delivery event names its own slot, so the race detector may permute
  // same-time deliveries without handing one of them the wrong message.
  sim_.schedule_at(when, [this, slot] { deliver(slot); }, "bus.delivery");
}

void MessageBus::deliver(std::uint32_t slot) {
  // Copy out and release first: a handler may publish, which can reuse this
  // slot or grow slots_.
  const BusMessage message = slots_[slot].message;
  if (--slots_[slot].pending == 0) free_slots_.push_back(slot);

  // Handlers may (un)subscribe or intern topics re-entrantly, so the live
  // list is re-read after every call.  It stays in ascending id order, so
  // the next subscriber to call is the first one past the id just called,
  // and the walk stops at the last id present when the delivery began: late
  // subscribers wait for the next message, removed ones are never reached.
  const auto& initial = topics_[message.topic.value()].subscriptions;
  if (initial.empty()) return;
  const SubscriptionId last = initial.back().id;
  SubscriptionId next = initial.front().id;
  for (;;) {
    const auto& live = topics_[message.topic.value()].subscriptions;
    const auto it = std::lower_bound(
        live.begin(), live.end(), next,
        [](const Subscription& s, SubscriptionId id) { return s.id < id; });
    if (it == live.end() || it->id > last) return;
    next = SubscriptionId{it->id.value() + 1};
    // Own a reference for the call: the handler may unsubscribe itself.
    const std::shared_ptr<const BusHandler> handler = it->handler;
    ++delivered_;
    (*handler)(message);
  }
}

std::size_t MessageBus::subscriber_count(const std::string& topic) const {
  const auto symbol = names_.find(topic);
  return symbol ? topics_[*symbol].subscriptions.size() : 0;
}

}  // namespace xanadu::platform
