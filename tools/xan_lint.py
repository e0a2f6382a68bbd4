#!/usr/bin/env python3
"""xan_lint: the static-analysis driver for the Xanadu codebase.

One command, one parse, every rule.  The shared cppmodel front end
(tools/cppmodel/) loads the source roots exactly once -- tokenizer,
function extraction, call graph, include graph, suppression comments --
and every analysis module in tools/analyses/ runs off that single
SourceModel:

  determinism      line rules: random-device, libc-rand, wall-clock,
                   pointer-format, unordered-iteration, bare-assert,
                   priority-queue, friend-backdoor
  layering         include-graph rules over the root named src:
                   unknown-layer, missing-header, cpp-include, layering,
                   include-cycle, layer-skip
  flow             interprocedural dataflow: shared-rng-draw, nondet-taint
  arena-escape     request-lifetime Arena/StringInterner storage escaping
                   into members/statics/member containers that outlive
                   reset_for_reuse (static complement of the ASan
                   use-after-reset death tests)
  observer-purity  PolicyView/probe/digest observation paths that draw
                   from an Rng, call an engine mutator, or write state
                   folded into state_digest (static complement of the
                   golden-digest replay)

Every rule shares the same suppression syntax on the offending line or the
line above (`// lint:allow(<rule>) justification`; flow-lint:allow is a
synonym), and the full catalogue prints with --list-rules.

Outputs: human-readable text (default); --json PATH and --sarif PATH write
the merged machine-readable report (the SARIF is what CI uploads to GitHub
code scanning); --dot PATH writes the layer-level include graph of src/
(docs/layering.dot); --draw-sites PATH writes every statically predicted
Rng draw site as JSON, which tests/rng_trace_test.cpp checks against the
draws a XANADU_RNG_TRACE build observes.  Exit status is 0 when no
unannotated findings remain, 1 otherwise, 2 on usage errors.  Run
directly (`tools/xan_lint.py src bench`) or via `ctest -R xan_lint`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from analyses import ALL_ANALYSES, flow, layering
from cppmodel import Finding, SourceModel, write_json, write_sarif

TOOL_NAME = "xan_lint"


def rule_catalogue() -> dict[str, str]:
    docs: dict[str, str] = {}
    for mod in ALL_ANALYSES:
        docs.update(mod.RULE_DOCS)
    return docs


def run_all(model: SourceModel) -> list[Finding]:
    """Every analysis over one shared parse; merged, sorted findings."""
    findings: list[Finding] = []
    for mod in ALL_ANALYSES:
        findings += mod.run(model)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src", "bench"],
        help="source roots to scan (default: src bench)",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the merged findings as JSON")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write the merged findings as SARIF 2.1.0")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the full rule catalogue and exit",
    )
    parser.add_argument(
        "--dot", metavar="PATH",
        help="write the layer-level include graph of src/ as GraphViz DOT",
    )
    parser.add_argument(
        "--draw-sites", metavar="PATH",
        help="write the statically predicted Rng draw sites as JSON "
        "(read by tests/rng_trace_test.cpp)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(rule_catalogue().items()):
            print(f"{rule}: {doc}")
        return 0

    roots = [Path(r) for r in args.roots]
    for root in roots:
        if not root.is_dir():
            print(f"xan_lint: no such directory: {root}", file=sys.stderr)
            return 2

    model = SourceModel(roots).load()
    findings = run_all(model)

    if args.json:
        write_json(findings, Path(args.json))
    if args.sarif:
        write_sarif(
            findings, Path(args.sarif), TOOL_NAME, rule_catalogue(),
            information_uri="tools/xan_lint.py",
        )
    if args.dot:
        layering.write_dot(model, Path(args.dot))
    if args.draw_sites:
        payload = json.dumps({"draw_sites": flow.draw_sites(model)}, indent=2)
        Path(args.draw_sites).write_text(payload + "\n", encoding="utf-8")

    for finding in findings:
        print(finding)
    n_files = len(model.files)
    n_fns = len(model.functions)
    n_rules = len(rule_catalogue())
    if findings:
        print(
            f"xan_lint: {len(findings)} unannotated finding(s) across "
            f"{n_files} files / {n_fns} functions / {n_rules} rules; "
            "reviewed exceptions need // lint:allow(<rule>)",
            file=sys.stderr,
        )
        return 1
    print(
        f"xan_lint: OK ({n_files} files, {n_fns} functions, {n_rules} "
        "rules, one parse)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
