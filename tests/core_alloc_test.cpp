// Heap-allocation count of warm core planning.
//
// A binary of its own because it replaces the global operator new: every
// allocation in the process bumps a counter.  Once a 16-node chain's model,
// profiles and the planners' reused working storage have seen one request,
// observing a request's invocations, finalizing them, estimating the MLP and
// planning over it must allocate nothing beyond the vectors handed back to
// the caller.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/branch_model.hpp"
#include "core/jit_planner.hpp"
#include "core/mlp.hpp"
#include "core/profile.hpp"
#include "workflow/builders.hpp"

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

namespace xanadu::core {
namespace {

using common::RequestId;

constexpr std::size_t kChain = 16;
constexpr std::uint64_t kRequests = 64;

/// The returned MlpResult owns three path-aligned vectors (path,
/// likelihood, predicted_choice), each reserved once.
constexpr std::size_t kMlpResultAllocations = 3;
/// The returned JitPlan owns one vector of deployments.
constexpr std::size_t kPlanAllocations = 1;

struct WarmChain {
  BranchModel model = BranchModel::from_schema(workflow::linear_chain(kChain));
  ProfileTable profiles;

  WarmChain() {
    for (std::size_t i = 0; i < kChain; ++i) {
      FunctionProfile& p = profiles.function(NodeId{i});
      p.observe_cold_response(sim::Duration::from_millis(4000));
      p.observe_startup(sim::Duration::from_millis(3000));
      p.observe_warm_response(sim::Duration::from_millis(1000));
      if (i + 1 < kChain) {
        profiles.observe_invoke_gap(NodeId{i}, NodeId{i + 1},
                                    sim::Duration::from_millis(900));
      }
    }
    observe_request(RequestId{0});
    (void)plan_explicit(estimate_mlp(model), model, profiles);
    (void)plan_implicit(estimate_mlp(model), model, profiles);
  }

  void observe_request(RequestId request) {
    for (std::size_t i = 0; i + 1 < kChain; ++i) {
      model.observe_invocation(NodeId{i}, NodeId{i + 1}, request);
    }
    model.finalize_pending();
  }
};

TEST(CoreAlloc, ObservingAndFinalizingAWarmChainAllocatesNothing) {
  WarmChain chain;
  const std::size_t before = g_allocations;
  for (std::uint64_t r = 1; r <= kRequests; ++r) {
    chain.observe_request(RequestId{r});
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(chain.model.find(NodeId{0})->request_count, kRequests + 1);
}

TEST(CoreAlloc, InterleavedRequestsAllocateNothing) {
  // Two requests in flight: the second one reaching a parent applies the
  // first one's batch there, and the batch storage is reused.
  WarmChain chain;
  const std::size_t before = g_allocations;
  for (std::uint64_t r = 1; r <= kRequests; r += 2) {
    for (std::size_t i = 0; i + 1 < kChain; ++i) {
      chain.model.observe_invocation(NodeId{i}, NodeId{i + 1}, RequestId{r});
      chain.model.observe_invocation(NodeId{i}, NodeId{i + 1},
                                     RequestId{r + 1});
    }
    chain.model.finalize_pending();
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(CoreAlloc, MlpEstimateAllocatesOnlyItsResult) {
  WarmChain chain;
  std::size_t path_nodes = 0;
  const std::size_t before = g_allocations;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    path_nodes += estimate_mlp(chain.model).path.size();
  }
  EXPECT_EQ(g_allocations - before, kRequests * kMlpResultAllocations);
  EXPECT_EQ(path_nodes, kRequests * kChain);
}

TEST(CoreAlloc, PlanningAllocatesOnlyThePlan) {
  WarmChain chain;
  const MlpResult mlp = estimate_mlp(chain.model);
  std::size_t deployments = 0;
  const std::size_t before = g_allocations;
  for (std::uint64_t r = 0; r < kRequests; ++r) {
    deployments += plan_explicit(mlp, chain.model, chain.profiles)
                       .deployments.size();
    deployments += plan_implicit(mlp, chain.model, chain.profiles)
                       .deployments.size();
  }
  EXPECT_EQ(g_allocations - before, 2 * kRequests * kPlanAllocations);
  EXPECT_EQ(deployments, 2 * kRequests * kChain);
}

}  // namespace
}  // namespace xanadu::core
