// xan_lint fixture: MUST stay silent.  The back-edge of back_edge.hpp under
// a reviewed lint:allow.
#pragma once

#include "workflow/dag.hpp"  // lint:allow(layering) fixture
