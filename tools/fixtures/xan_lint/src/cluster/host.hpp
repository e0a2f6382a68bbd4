// xan_lint fixture: a clean cluster header.
#pragma once

#include "common/base.hpp"
