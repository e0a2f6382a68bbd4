// xan_lint fixture: unknown-layer, missing-header and cpp-include each fire
// once, on the include their comment names.
#pragma once

#include "vendor/widget.hpp"  // unknown-layer
#include "common/absent.hpp"  // missing-header
#include "common/base.cpp"  // cpp-include
