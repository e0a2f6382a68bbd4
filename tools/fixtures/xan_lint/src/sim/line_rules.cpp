// xan_lint fixture: each determinism line rule that applies in sim/ fires
// exactly once, on the line its comment names.

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <random>
#include <unordered_map>

#include "common/base.hpp"

namespace fixture {

class LineRules {
 public:
  void every_rule() {
    std::random_device device;  // random-device
    int drawn = rand();  // libc-rand
    auto now = std::chrono::steady_clock::now();  // wall-clock
    std::printf("%p\n", static_cast<void*>(this));  // pointer-format
    for (const auto& entry : line_counts_) {  // unordered-iteration
      drawn += entry.second;
    }
    assert(drawn >= 0);  // bare-assert
    (void)device;
    (void)now;
  }

 private:
  std::unordered_map<int, int> line_counts_;
  std::priority_queue<int> pending_;  // priority-queue
};

}  // namespace fixture
