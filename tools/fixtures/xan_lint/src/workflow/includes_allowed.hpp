// xan_lint fixture: MUST stay silent.  The includes of includes.hpp, each
// under a reviewed lint:allow.
#pragma once

#include "vendor/widget.hpp"  // lint:allow(unknown-layer) fixture
#include "common/absent.hpp"  // lint:allow(missing-header) fixture
#include "common/base.cpp"  // lint:allow(cpp-include) fixture
