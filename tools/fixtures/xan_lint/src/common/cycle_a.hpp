// xan_lint fixture: include-cycle fires once, for the a -> b -> a cycle.
// Cycles are reported per graph, not per line, so no lint:allow applies.
#pragma once

#include "common/cycle_b.hpp"
