// xan_lint fixture: layering fires once -- sim must not include the
// higher workflow layer.
#pragma once

#include "workflow/dag.hpp"  // layering
