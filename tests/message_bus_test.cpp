// Tests for the control-plane message bus (Kafka stand-in) and its
// integration with the platform engine's provisioning pipeline.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/cluster.hpp"
#include "platform/engine.hpp"
#include "platform/message_bus.hpp"
#include "platform/worker_state.hpp"
#include "sim/fault_plan.hpp"
#include "workflow/builders.hpp"

namespace xanadu::platform {
namespace {

using namespace xanadu::sim::literals;
using sim::Duration;

/// A distinguishable payload: the worker id carries the sequence number.
WorkerEvent event(std::uint64_t n) {
  return WorkerEvent{WorkerEventKind::Busy, common::WorkerId{n},
                     common::FunctionId{n % 7}, common::HostId{n % 3}};
}

std::uint64_t number(const BusMessage& m) {
  return std::get<WorkerEvent>(m.payload).worker.value();
}

class MessageBusTest : public ::testing::Test {
 protected:
  MessageBusTest() { make_bus({}); }

  void make_bus(MessageBus::Options options) {
    bus_ = std::make_unique<MessageBus>(sim_, options, common::Rng{3});
  }

  sim::Simulator sim_;
  std::unique_ptr<MessageBus> bus_;
};

TEST_F(MessageBusTest, DeliversToSubscriberAfterLatency) {
  MessageBus::Options options;
  options.latency = 10_ms;
  make_bus(options);
  std::vector<BusMessage> received;
  sim::TimePoint delivered_at;
  bus_->subscribe("topic", [&](const BusMessage& m) {
    received.push_back(m);
    delivered_at = sim_.now();
  });
  bus_->publish("topic", event(42));
  sim_.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].topic, bus_->intern("topic"));
  const auto& got = std::get<WorkerEvent>(received[0].payload);
  EXPECT_EQ(got.kind, WorkerEventKind::Busy);
  EXPECT_EQ(got.worker, common::WorkerId{42});
  EXPECT_EQ(got.function, common::FunctionId{0});
  EXPECT_EQ(got.host, common::HostId{0});
  EXPECT_EQ(received[0].published.millis(), 0.0);
  EXPECT_EQ(delivered_at.millis(), 10.0);
}

TEST_F(MessageBusTest, FanOutToAllSubscribers) {
  int a = 0, b = 0;
  bus_->subscribe("t", [&](const BusMessage&) { ++a; });
  bus_->subscribe("t", [&](const BusMessage&) { ++b; });
  bus_->publish("t", event(0));
  bus_->publish("t", event(1));
  sim_.run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus_->published_count(), 2u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
}

TEST_F(MessageBusTest, TopicsAreIsolated) {
  int count = 0;
  bus_->subscribe("a", [&](const BusMessage&) { ++count; });
  bus_->publish("b", event(0));
  sim_.run();
  EXPECT_EQ(count, 0);
  EXPECT_EQ(bus_->subscriber_count("a"), 1u);
  EXPECT_EQ(bus_->subscriber_count("b"), 0u);
}

TEST_F(MessageBusTest, OffsetsAreMonotonicPerTopic) {
  EXPECT_EQ(bus_->publish("t", event(0)), 0u);
  EXPECT_EQ(bus_->publish("t", event(1)), 1u);
  EXPECT_EQ(bus_->publish("u", event(0)), 0u);  // Independent per topic.
}

TEST_F(MessageBusTest, JitterNeverReordersWithinTopic) {
  MessageBus::Options options;
  options.latency = 5_ms;
  options.jitter = 20_ms;  // Huge jitter relative to latency.
  make_bus(options);
  std::vector<std::uint64_t> offsets;
  bus_->subscribe("t", [&](const BusMessage& m) {
    EXPECT_EQ(number(m), m.offset);  // Each delivery carries its own payload.
    offsets.push_back(m.offset);
  });
  for (std::uint64_t i = 0; i < 50; ++i) bus_->publish("t", event(i));
  sim_.run();
  ASSERT_EQ(offsets.size(), 50u);
  for (std::size_t i = 0; i < offsets.size(); ++i) EXPECT_EQ(offsets[i], i);
}

TEST_F(MessageBusTest, UnsubscribeStopsFutureAndInFlightDeliveries) {
  int count = 0;
  const auto id = bus_->subscribe("t", [&](const BusMessage&) { ++count; });
  bus_->publish("t", event(0));
  EXPECT_TRUE(bus_->unsubscribe(id));
  bus_->publish("t", event(1));
  sim_.run();
  // The handler was removed before any delivery fired.
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(bus_->unsubscribe(id));
}

TEST_F(MessageBusTest, SubscribersJoiningLaterMissOldMessages) {
  bus_->publish("t", event(0));
  sim_.run();
  int count = 0;
  bus_->subscribe("t", [&](const BusMessage&) { ++count; });
  sim_.run();
  EXPECT_EQ(count, 0);
}

TEST_F(MessageBusTest, ZeroSubscriberPublishSchedulesNothingButKeepsTheTimeline) {
  // Two buses with the same seed and jitter: `heard` has subscribers on both
  // topics from the start, `unheard` leaves "t" empty for its first eight
  // messages.  Those must schedule no event yet advance the offset, the
  // counters, the jitter stream and the topic's delivery order exactly as
  // heard ones do, so every later delivery lands at the same time -- some
  // held back behind an unheard message's jittered delivery time.
  MessageBus::Options options;
  options.latency = 5_ms;
  options.jitter = 20_ms;
  MessageBus heard{sim_, options, common::Rng{9}};
  sim::Simulator other_sim;
  MessageBus unheard{other_sim, options, common::Rng{9}};

  std::vector<std::pair<std::uint64_t, sim::TimePoint>> heard_times;
  std::vector<std::pair<std::uint64_t, sim::TimePoint>> unheard_times;
  auto record = [](std::vector<std::pair<std::uint64_t, sim::TimePoint>>& out,
                   sim::Simulator& clock) {
    return [&out, &clock](const BusMessage& m) {
      out.emplace_back(number(m), clock.now());
    };
  };
  heard.subscribe("t", record(heard_times, sim_));
  heard.subscribe("u", record(heard_times, sim_));
  unheard.subscribe("u", record(unheard_times, other_sim));

  constexpr std::uint64_t kUnheard = 8;
  for (std::uint64_t i = 0; i < kUnheard; ++i) {
    EXPECT_EQ(heard.publish("t", event(i)), i);
    EXPECT_EQ(unheard.publish("t", event(i)), i);
  }
  EXPECT_EQ(other_sim.pending(), 0u);
  EXPECT_EQ(unheard.published_count(), kUnheard);

  unheard.subscribe("t", record(unheard_times, other_sim));
  for (std::uint64_t i = kUnheard; i < kUnheard + 6; ++i) {
    const char* topic = i % 2 == 0 ? "u" : "t";
    EXPECT_EQ(heard.publish(topic, event(i)), unheard.publish(topic, event(i)));
  }
  sim_.run();
  other_sim.run();

  EXPECT_EQ(unheard.published_count(), heard.published_count());
  EXPECT_EQ(unheard.dropped_count(), 0u);
  EXPECT_EQ(unheard.delivered_count() + kUnheard, heard.delivered_count());
  ASSERT_EQ(heard_times.size(), kUnheard + 6);
  // Same messages, same delivery times, minus the unheard ones.
  std::vector<std::pair<std::uint64_t, sim::TimePoint>> expected;
  for (const auto& delivery : heard_times) {
    if (delivery.first >= kUnheard) expected.push_back(delivery);
  }
  EXPECT_EQ(unheard_times, expected);
}

TEST_F(MessageBusTest, SubscriberAddedAfterAnUnheardPublishNeverReceivesIt) {
  // The empty-topic rule: whether a message is delivered is settled when it
  // is published.  A subscriber that arrives before the message's delivery
  // time would have come still never sees it, but does see the next one.
  std::vector<std::uint64_t> received;
  bus_->publish("t", event(0));
  bus_->subscribe("t", [&](const BusMessage& m) { received.push_back(m.offset); });
  EXPECT_EQ(sim_.pending(), 0u);
  bus_->publish("t", event(1));
  sim_.run();
  EXPECT_EQ(received, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(bus_->published_count(), 2u);
  EXPECT_EQ(bus_->delivered_count(), 1u);
}

TEST_F(MessageBusTest, HandlerRemovedMidDeliveryIsSkippedAndNewOneWaits) {
  std::vector<std::string> calls;
  SubscriptionId second{};
  bool added = false;
  // The first handler removes the second and subscribes a third during the
  // first delivery: the second must be skipped at once, the third must not
  // see the message already in flight, only the next one.
  bus_->subscribe("t", [&](const BusMessage& m) {
    calls.push_back("first:" + std::to_string(number(m)));
    if (!added) {
      added = true;
      EXPECT_TRUE(bus_->unsubscribe(second));
      bus_->subscribe("t", [&](const BusMessage& late) {
        calls.push_back("third:" + std::to_string(number(late)));
      });
    }
  });
  second = bus_->subscribe("t", [&](const BusMessage& m) {
    calls.push_back("second:" + std::to_string(number(m)));
  });
  bus_->publish("t", event(0));
  bus_->publish("t", event(1));
  sim_.run();
  EXPECT_EQ(calls, (std::vector<std::string>{"first:0", "first:1", "third:1"}));
  EXPECT_EQ(bus_->delivered_count(), 3u);
}

TEST_F(MessageBusTest, HandlerMayUnsubscribeItself) {
  int calls = 0;
  SubscriptionId self{};
  self = bus_->subscribe("t", [&](const BusMessage&) {
    ++calls;
    EXPECT_TRUE(bus_->unsubscribe(self));
    // Subscribing right after may reallocate the list the handler lived in.
    for (int i = 0; i < 8; ++i) bus_->subscribe("t", [](const BusMessage&) {});
    EXPECT_GE(calls, 1);  // Still safe to touch captures here.
  });
  bus_->publish("t", event(0));
  bus_->publish("t", event(1));
  sim_.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bus_->subscriber_count("t"), 8u);
}

TEST_F(MessageBusTest, HandlerPublishingOnItsOwnTopicGetsEveryPayloadInOrder) {
  // Ten messages in flight at a time; each delivery publishes the message
  // ten places later, so every delivery recycles a slot while others are
  // still pending.  Payloads must arrive intact and in publish order.
  constexpr std::uint64_t kInFlight = 10;
  constexpr std::uint64_t kTotal = 200;
  std::vector<std::uint64_t> received;
  bus_->subscribe("t", [&](const BusMessage& m) {
    const std::uint64_t n = number(m);
    EXPECT_EQ(m.offset, n);
    EXPECT_EQ(std::get<WorkerEvent>(m.payload).function,
              common::FunctionId{n % 7});
    received.push_back(n);
    if (n + kInFlight < kTotal) bus_->publish("t", event(n + kInFlight));
    EXPECT_EQ(number(m), n);  // The publish left this message alone.
  });
  for (std::uint64_t i = 0; i < kInFlight; ++i) bus_->publish("t", event(i));
  sim_.run();
  ASSERT_EQ(received.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) EXPECT_EQ(received[i], i);
}

TEST_F(MessageBusTest, DuplicateFaultDeliversSamePayloadAndOffsetTwice) {
  sim::FaultPlanOptions fault_options;
  fault_options.bus_duplicate_rate = 1.0;
  sim::FaultPlan faults{fault_options, common::Rng{5}};
  bus_->set_fault_plan(&faults);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> received;
  bus_->subscribe("t", [&](const BusMessage& m) {
    received.emplace_back(m.offset, number(m));
    // Publishing between the original and its duplicate must not disturb
    // the message the duplicate is still waiting to deliver.
    bus_->publish("echo", event(number(m) + 100));
  });
  bus_->publish("t", event(70));
  bus_->publish("t", event(71));
  sim_.run();
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(received, (std::vector<Pair>{{0, 70}, {0, 70}, {1, 71}, {1, 71}}));
  EXPECT_EQ(bus_->published_count(), 6u);
  EXPECT_EQ(bus_->delivered_count(), 4u);
  bus_->set_fault_plan(nullptr);
}

TEST_F(MessageBusTest, RejectsBadArguments) {
  EXPECT_THROW(bus_->subscribe("t", nullptr), std::invalid_argument);
  MessageBus::Options bad;
  bad.latency = Duration::from_millis(-1);
  EXPECT_THROW(MessageBus(sim_, bad, common::Rng{1}), std::invalid_argument);
}

// ------------------------------------------------- engine integration -----

TEST(ControlBus, ProvisioningCommandsPayBusLatency) {
  auto run_with = [](bool bus_enabled) {
    sim::Simulator sim;
    cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
    auto profile = cluster::default_profile(workflow::SandboxKind::Container);
    profile.cold_start_jitter = Duration::zero();
    profile.concurrency_penalty = 0.0;
    cluster.catalog().set_profile(workflow::SandboxKind::Container, profile);
    PlatformCalibration calib;
    calib.overhead_jitter = Duration::zero();
    calib.worker_handoff = Duration::zero();
    calib.control_bus.enabled = bus_enabled;
    calib.control_bus.latency = Duration::from_millis(40);
    PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
    workflow::BuildOptions opts;
    opts.exec_time = Duration::from_millis(1000);
    const auto wf = engine.register_workflow(workflow::linear_chain(1, opts));
    return engine.run_one(wf).end_to_end.millis();
  };
  const double direct = run_with(false);
  const double with_bus = run_with(true);
  // The bus adds exactly its one-way latency to the provisioning path.
  EXPECT_NEAR(with_bus - direct, 40.0, 1.0);
}

TEST(ControlBus, EngineExposesBusOnlyWhenEnabled) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  EXPECT_EQ(engine.control_bus(), nullptr);

  calib.control_bus.enabled = true;
  cluster::Cluster cluster2{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformEngine engine2{sim, cluster2, calib, nullptr, common::Rng{11}};
  ASSERT_NE(engine2.control_bus(), nullptr);
  // Each host has a daemon subscription.
  EXPECT_EQ(engine2.control_bus()->subscriber_count("daemon.0"), 1u);
}

TEST(ControlBus, FullChainRunsOverBus) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  const auto wf = engine.register_workflow(workflow::linear_chain(4, opts));
  const RequestResult result = engine.run_one(wf);
  EXPECT_EQ(result.executed_nodes, 4u);
  EXPECT_EQ(result.cold_starts, 4u);
  // One provisioning command per cold start traversed the bus, plus four
  // lifecycle events (provisioning/ready/busy/idle) per worker.
  EXPECT_EQ(engine.control_bus()->published_count(), 4u + 16u);
  // Only the daemon commands had subscribers; nothing consumed the
  // lifecycle events in this test.
  EXPECT_EQ(engine.control_bus()->delivered_count(), 4u);
}

TEST(ControlBus, WorkerStateTrackerMirrorsFleet) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  calib.control_bus.latency = Duration::from_millis(5);
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  WorkerStateTracker tracker{*engine.control_bus()};

  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(500);
  const auto wf = engine.register_workflow(workflow::linear_chain(3, opts));
  (void)engine.run_one(wf);
  // Let the trailing idle events drain (bus latency after completion).
  sim.run_until(sim.now() + 1_s);

  // After the request: three warm workers, all known to the tracker.
  EXPECT_EQ(tracker.live_count(), 3u);
  EXPECT_EQ(tracker.count(WorkerEventKind::Idle), 3u);
  EXPECT_EQ(tracker.count(WorkerEventKind::Busy), 0u);
  const auto fn0 = engine.function_id(wf, common::NodeId{0});
  EXPECT_EQ(tracker.function_count(fn0), 1u);
  // Each worker produced provisioning/ready/busy/idle.
  EXPECT_EQ(tracker.events_seen(), 12u);

  // Tear the fleet down: dead events bring the view back to zero.
  engine.flush_all_warm_workers();
  sim.run_until(sim.now() + 1_s);
  EXPECT_EQ(tracker.live_count(), 0u);
}

TEST(ControlBus, ProvisionCommandReachesTheDaemon) {
  sim::Simulator sim;
  cluster::Cluster cluster{cluster::ClusterOptions{}, common::Rng{7}};
  PlatformCalibration calib;
  calib.control_bus.enabled = true;
  PlatformEngine engine{sim, cluster, calib, nullptr, common::Rng{11}};
  MessageBus& bus = *engine.control_bus();
  // Listen next to every host's daemon, and to the worker-state topic for
  // the worker the engine placed.
  std::vector<ProvisionCommand> commands;
  for (std::size_t host = 0; host < cluster.host_count(); ++host) {
    bus.subscribe("daemon." + std::to_string(host), [&](const BusMessage& m) {
      commands.push_back(std::get<ProvisionCommand>(m.payload));
    });
  }
  std::vector<WorkerEvent> provisioning;
  bus.subscribe(kWorkerStateTopic, [&](const BusMessage& m) {
    const auto& event = std::get<WorkerEvent>(m.payload);
    if (event.kind == WorkerEventKind::Provisioning) {
      provisioning.push_back(event);
    }
  });

  workflow::BuildOptions opts;
  opts.exec_time = Duration::from_millis(100);
  const auto wf = engine.register_workflow(workflow::linear_chain(1, opts));
  const RequestResult result = engine.run_one(wf);
  EXPECT_EQ(result.executed_nodes, 1u);
  EXPECT_EQ(result.cold_starts, 1u);
  ASSERT_EQ(commands.size(), 1u);
  ASSERT_EQ(provisioning.size(), 1u);
  EXPECT_EQ(commands[0].function, engine.function_id(wf, common::NodeId{0}));
  EXPECT_EQ(commands[0].worker, provisioning[0].worker);
  EXPECT_GE(commands[0].extra, Duration::zero());
}

TEST(ControlBus, WorkerEventEncodingRoundTrips) {
  WorkerEvent event;
  event.kind = WorkerEventKind::Busy;
  event.worker = common::WorkerId{17};
  event.function = common::FunctionId{3};
  event.host = common::HostId{0};
  const BusPayload payload = encode(event);
  ASSERT_TRUE(std::holds_alternative<WorkerEvent>(payload));
  const WorkerEvent& round = std::get<WorkerEvent>(payload);
  EXPECT_EQ(round.kind, event.kind);
  EXPECT_EQ(round.worker, event.worker);
  EXPECT_EQ(round.function, event.function);
  EXPECT_EQ(round.host, event.host);
  EXPECT_STREQ(to_string(WorkerEventKind::Ready), "ready");
}

}  // namespace
}  // namespace xanadu::platform
