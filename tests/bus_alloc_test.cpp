// Heap-allocation count of the control bus's steady state.
//
// A binary of its own because it replaces the global operator new: every
// allocation in the process bumps a counter, and the test asserts the
// counter does not move while messages are published and delivered once the
// bus's slot pool and the simulator's event slab have grown to the working
// set.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/rng.hpp"
#include "platform/message_bus.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xanadu::platform {
namespace {

/// Allocations made while `rounds` rounds of `batch` publishes (each round
/// drained by sim.run()) go through a warmed-up bus with `subscribers`
/// handlers on the topic, optionally duplicating every message.
std::size_t steady_state_allocations(std::size_t subscribers, bool duplicate) {
  sim::Simulator sim;
  MessageBus bus(sim, MessageBus::Options{}, common::Rng{1});
  sim::FaultPlanOptions fault_options;
  fault_options.bus_duplicate_rate = 1.0;
  sim::FaultPlan faults{fault_options, common::Rng{2}};
  if (duplicate) bus.set_fault_plan(&faults);
  const TopicId topic = bus.intern("workers");
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < subscribers; ++i) {
    bus.subscribe(topic, [&delivered](const BusMessage&) { ++delivered; });
  }
  constexpr std::uint64_t kBatch = 256;
  std::uint64_t n = 0;
  auto round = [&] {
    for (std::uint64_t i = 0; i < kBatch; ++i, ++n) {
      bus.publish(topic, WorkerEvent{WorkerEventKind::Idle, common::WorkerId{n},
                                     common::FunctionId{n % 16},
                                     common::HostId{n % 4}});
    }
    sim.run();
  };
  round();  // Warm-up: grows the slot pool, the event slab and the heap.
  const std::size_t before = g_allocations;
  for (int r = 0; r < 8; ++r) round();
  const std::size_t allocations = g_allocations - before;
  const std::uint64_t copies = duplicate ? 2 : 1;
  EXPECT_EQ(delivered, 9 * kBatch * copies * subscribers);
  return allocations;
}

TEST(BusAlloc, PublishAndDeliveryAllocateNothingWithoutSubscribers) {
  EXPECT_EQ(steady_state_allocations(0, false), 0u);
}

TEST(BusAlloc, PublishAndDeliveryAllocateNothingWithOneSubscriber) {
  EXPECT_EQ(steady_state_allocations(1, false), 0u);
}

TEST(BusAlloc, DuplicateRedeliveryAllocatesNothing) {
  EXPECT_EQ(steady_state_allocations(1, true), 0u);
}

}  // namespace
}  // namespace xanadu::platform
