// xan_lint fixture: MUST stay silent.  The constructs of line_rules.cpp,
// each under a reviewed lint:allow (same line or the line above).

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <random>
#include <unordered_map>

#include "common/base.hpp"

namespace fixture {

class AllowedLineRules {
 public:
  void every_rule() {
    std::random_device device;  // lint:allow(random-device) fixture
    int drawn = rand();  // lint:allow(libc-rand) fixture
    // lint:allow(wall-clock) fixture: line-above placement
    auto now = std::chrono::steady_clock::now();
    std::printf("%p\n", static_cast<void*>(this));  // lint:allow(pointer-format)
    // lint:allow(unordered-iteration) fixture: order-insensitive sum
    for (const auto& entry : allowed_counts_) {
      drawn += entry.second;
    }
    assert(drawn >= 0);  // lint:allow(bare-assert) fixture
    (void)device;
    (void)now;
  }

 private:
  std::unordered_map<int, int> allowed_counts_;
  std::priority_queue<int> pending_;  // lint:allow(priority-queue) fixture
};

}  // namespace fixture
