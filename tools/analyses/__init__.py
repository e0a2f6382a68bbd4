"""The xan_lint analysis family: one module per rule set.

Each module exposes `run(model) -> list[Finding]` plus a RULE_DOCS dict;
`tools/xan_lint.py` runs them all off one shared cppmodel.SourceModel
parse and merges the reports.
"""

from __future__ import annotations

from . import (
    arena_escape,
    determinism,
    flow,
    layering,
    observer_purity,
)

ALL_ANALYSES = (determinism, layering, flow, arena_escape, observer_purity)
