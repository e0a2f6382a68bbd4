// xan_lint fixture: a clean workflow header.
#pragma once

#include "common/base.hpp"
