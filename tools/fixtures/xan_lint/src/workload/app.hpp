// xan_lint fixture: layer-skip fires once -- workload reaches four layers
// down to cluster with no allowlist entry.  The workflow and platform
// includes are allowlisted deep skips and stay silent.
#pragma once

#include "cluster/host.hpp"  // layer-skip
#include "platform/engine.hpp"
#include "workflow/dag.hpp"
