// xan_lint fixture: the other half of the cycle in cycle_a.hpp.
#pragma once

#include "common/cycle_a.hpp"
