// xan_lint fixture: MUST stay silent.  The deep skip of app.hpp under a
// reviewed lint:allow.
#pragma once

#include "cluster/host.hpp"  // lint:allow(layer-skip) fixture
