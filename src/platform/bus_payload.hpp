#pragma once

// The typed payloads the control bus (platform/message_bus.hpp) carries.
//
// Paper Section 4 runs two kinds of traffic over Kafka: the Dispatch
// Manager's provisioning commands to the per-host Dispatch Daemons, and the
// worker lifecycle events behind "state management of Xanadu workers".  The
// bus carries exactly these two shapes as one std::variant: publishers hand
// over plain structs and subscribers read fields, so there is no text
// encoding, no parser and no malformed-payload failure mode.  The variant is
// trivially copyable and 40 bytes, which lets a message live in a recycled
// bus slot.

#include <cstdint>
#include <variant>

#include "common/ids.hpp"
#include "sim/time.hpp"

namespace xanadu::platform {

enum class WorkerEventKind : std::uint8_t {
  Provisioning,  // Sandbox build started.
  Ready,         // Build finished; worker warm.
  Busy,          // Executing a request.
  Idle,          // Finished executing; back to warm.
  Dead,          // Terminated (keep-alive expiry, eviction, miss discard).
};

[[nodiscard]] constexpr const char* to_string(WorkerEventKind kind) {
  switch (kind) {
    case WorkerEventKind::Provisioning: return "provisioning";
    case WorkerEventKind::Ready: return "ready";
    case WorkerEventKind::Busy: return "busy";
    case WorkerEventKind::Idle: return "idle";
    case WorkerEventKind::Dead: return "dead";
  }
  return "unknown";
}

/// One worker lifecycle transition, published on the worker-state topic.
struct WorkerEvent {
  WorkerEventKind kind = WorkerEventKind::Provisioning;
  common::WorkerId worker{};
  common::FunctionId function{};
  common::HostId host{};
};

/// Dispatch Manager -> Dispatch Daemon: build a sandbox for `function` as
/// `worker`, adding `extra` to the sampled provisioning latency.
struct ProvisionCommand {
  common::FunctionId function{};
  common::WorkerId worker{};
  sim::Duration extra{};
};

using BusPayload = std::variant<WorkerEvent, ProvisionCommand>;

}  // namespace xanadu::platform
