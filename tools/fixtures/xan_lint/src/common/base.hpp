// xan_lint fixture: a clean foundation header every layer may include.
#pragma once

namespace fixture {

inline int base_value() { return 1; }

}  // namespace fixture
