// xan_lint fixture: friend-backdoor fires once.  The workflow include is an
// allowlisted deep skip and stays silent.
#pragma once

#include "workflow/dag.hpp"

namespace fixture {

class Engine {
  friend class WarmPool;  // friend-backdoor
  friend class Recovery;  // lint:allow(friend-backdoor) fixture

  int idle_ = 0;
};

}  // namespace fixture
