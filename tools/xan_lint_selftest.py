#!/usr/bin/env python3
"""Self-test for the xan_lint analysis family against the known-bad /
known-good fixtures in tools/fixtures/xan_lint/.

Each rule guards a correctness contract the runtime only checks
opportunistically (seed replay, ASan death tests, golden-digest replay),
so each rule gets the same treatment as the code it guards: a regression
suite that fails if the rule goes silent on its distilled bug or noisy on
the fixed form.  The fixtures sit in three trees, each loaded as its own
model (one tree's names must not resolve into another's call graph):

  flow/       the interprocedural RNG-lineage and taint rules
    bad_shared_stream.cpp   the pre-fix speculative provision-batch race
                            (shared member stream drawn inside a tied
                            handler) -- shared-rng-draw with the full
                            root -> callee -> draw path
    bad_param_flow.cpp      the same hazard hidden behind an Rng&
                            parameter -- fires via interprocedural lineage
    bad_clock_taint.cpp     wall-clock read feeding a digest across a call
                            edge -- nondet-taint with the source -> f() ->
                            sink path (plus the wall-clock line rule)
    overload_arity.cpp      same-named overloads with different arity: only
                            the handler calling the drawing 1-arg overload
                            is on the path
    good_keyed_fork.cpp     the post-fix fork_stream(stable_key) shape --
                            silent
    suppressed.cpp          both hazards under flow-lint:allow escapes --
                            silent for the flow rules
  interproc/  arena-escape, observer-purity and template resolution
    bad_arena_member_escape.cpp  arena allocation cached on a member
    bad_arena_return_flow.cpp    interner view escaping through a helper's
                                 return into a member container
    good_arena_reset_rebind.cpp  rebind + value copies -- silent
    bad_observer_mutation.cpp    PolicyView accessor that bumps a counter
                                 and draws jitter -- fires twice
    good_observer_pure.cpp       pure accessors and samplers -- silent
    template_overload.cpp        the explicit-template call site edges into
                                 the template definition; the pure-overload
                                 handler stays off the path
    suppressed.cpp               one silenced instance of each rule
  src/        the determinism line rules and the layering rules.  The root
              is named src because the layering rules only run on a root
              of that name, and the directory-scoped line rules key off
              sim/ and platform/.  Each rule fires exactly once, on a line
              whose trailing comment names it; each *_allowed.* file holds
              the same constructs under lint:allow and stays silent
              (include-cycle is reported per graph, not per line, so it has
              no allowed variant).  The allowlisted deep skips platform ->
              workflow, workload -> workflow and workload -> platform are
              present so their allowlist entries are not stale.

EXPECTED pins every finding of every fixture file (a file it does not name
must be silent), and every rule id `xan_lint.py --list-rules` prints must
appear in it -- so a rule module dropped from ALL_ANALYSES, or a new rule
without a firing fixture, fails.  Plus the clean gate: zero unannotated
findings on src/ + bench/ off one shared parse, so CI fails on any new
finding.

Run directly (`tools/xan_lint_selftest.py`) from the repository root, or
via `ctest -R xan_lint_selftest`.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import xan_lint  # noqa: E402
from analyses import flow  # noqa: E402
from cppmodel import SOURCE_SUFFIXES, SourceModel  # noqa: E402

FIXTURES = TOOLS / "fixtures" / "xan_lint"
TREES = ("flow", "interproc", "src")

# Fixture file -> the rule of each of its findings, in line order.
EXPECTED = {
    "flow/bad_shared_stream.cpp": ["shared-rng-draw"],
    "flow/bad_param_flow.cpp": ["shared-rng-draw"],
    "flow/bad_clock_taint.cpp": ["wall-clock", "nondet-taint"],
    "flow/overload_arity.cpp": ["shared-rng-draw"],
    "flow/suppressed.cpp": ["wall-clock"],
    "interproc/bad_arena_member_escape.cpp": ["arena-escape"],
    "interproc/bad_arena_return_flow.cpp": ["arena-escape"],
    "interproc/bad_observer_mutation.cpp": ["observer-purity"] * 2,
    "interproc/template_overload.cpp": ["shared-rng-draw"],
    "src/sim/line_rules.cpp": [
        "random-device",
        "libc-rand",
        "wall-clock",
        "pointer-format",
        "unordered-iteration",
        "bare-assert",
        "priority-queue",
    ],
    "src/platform/engine.hpp": ["friend-backdoor"],
    "src/sim/back_edge.hpp": ["layering"],
    "src/workflow/includes.hpp": [
        "unknown-layer",
        "missing-header",
        "cpp-include",
    ],
    "src/common/cycle_a.hpp": ["include-cycle"],
    "src/workload/app.hpp": ["layer-skip"],
}


def check(condition: bool, label: str, failures: list[str]) -> None:
    print(("PASS" if condition else "FAIL") + f"  {label}")
    if not condition:
        failures.append(label)


def main() -> int:
    failures: list[str] = []
    models = {
        tree: SourceModel([FIXTURES / tree]).load() for tree in TREES
    }
    by_file: dict[str, list] = {}
    for model in models.values():
        for finding in xan_lint.run_all(model):
            rel = Path(finding.file).relative_to(FIXTURES).as_posix()
            by_file.setdefault(rel, []).append(finding)

    # --- every fixture file reports exactly its expected findings. --------
    fixture_files = sorted(
        p.relative_to(FIXTURES).as_posix()
        for p in FIXTURES.rglob("*")
        if p.suffix in SOURCE_SUFFIXES
    )
    for rel in fixture_files:
        got = [f.rule for f in by_file.get(rel, [])]
        want = EXPECTED.get(rel, [])
        check(got == want, f"{rel} reports {want or 'nothing'}", failures)
        if got != want:
            for finding in by_file.get(rel, []):
                print(f"      got: {finding}")
    check(
        set(EXPECTED) <= set(fixture_files),
        "every EXPECTED fixture file exists",
        failures,
    )

    # --- src/ tree: each finding sits on the line that names its rule. ----
    for rel, findings in sorted(by_file.items()):
        if not rel.startswith("src/"):
            continue
        lines = (FIXTURES / rel).read_text(encoding="utf-8").splitlines()
        for f in findings:
            if f.rule != "include-cycle":
                check(
                    lines[f.line - 1].rstrip().endswith(f"// {f.rule}"),
                    f"{rel}:{f.line} [{f.rule}] is on its marked line",
                    failures,
                )

    # --- every catalogued rule fires on some fixture. ---------------------
    listed = subprocess.run(
        [sys.executable, str(TOOLS / "xan_lint.py"), "--list-rules"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    listed_ids = {line.split(":", 1)[0] for line in listed}
    fired = {rule for rules in EXPECTED.values() for rule in rules}
    check(
        len(listed_ids) == 18 and listed_ids == fired,
        f"all {len(listed_ids)} rules of --list-rules fire on a fixture "
        f"(never fired: {sorted(listed_ids - fired)}; not listed: "
        f"{sorted(fired - listed_ids)})",
        failures,
    )

    def found(rel: str) -> list:
        return by_file.get(rel, [])

    # --- flow: the distilled speculative-batch race. ----------------------
    hits = found("flow/bad_shared_stream.cpp")
    if hits:
        path = " -> ".join(hits[0].path)
        check(
            "speculate_batch" in path
            and "daemon_build_sandbox" in path
            and "sample_provision_latency" in path
            and path.endswith("rng_.normal()"),
            "bad_shared_stream path walks root -> daemon -> sample -> draw",
            failures,
        )
        check(
            "rng_" in hits[0].message,
            "bad_shared_stream names the shared stream",
            failures,
        )

    # --- flow: lineage through an Rng& parameter. -------------------------
    hits = found("flow/bad_param_flow.cpp")
    if hits:
        check(
            "jitter_helper" in " -> ".join(hits[0].path)
            and "rng_" in hits[0].message,
            "bad_param_flow traces the member stream into the helper",
            failures,
        )

    # --- flow: source -> call edge -> sink. -------------------------------
    hits = [f for f in found("flow/bad_clock_taint.cpp")
            if f.rule == "nondet-taint"]
    if hits:
        path = " -> ".join(hits[0].path)
        check(
            "stamp_millis" in path
            and "emit_report" in path
            and path.endswith("trace_digest()"),
            "bad_clock_taint path reports source -> f() -> sink",
            failures,
        )

    # --- flow: arity-resolved call graph. ---------------------------------
    hits = found("flow/overload_arity.cpp")
    if hits:
        path = " -> ".join(hits[0].path)
        check(
            "on_mix_tick" in path,
            "overload_arity path roots at the handler calling the 1-arg "
            "overload",
            failures,
        )
        check(
            "on_mix_request" not in path,
            "overload_arity keeps the 2-arg-only handler out of the path",
            failures,
        )

    check(
        any(
            Path(s["file"]).name == "good_keyed_fork.cpp"
            and s["method"] == "normal"
            for s in flow.draw_sites(models["flow"])
        ),
        "draw-site prediction covers the keyed-fork draw",
        failures,
    )

    # --- arena-escape: member cache and interprocedural return flow. ------
    hits = found("interproc/bad_arena_member_escape.cpp")
    if hits:
        check(
            "last_records_" in hits[0].message
            and "allocate_for" in hits[0].message,
            "bad_arena_member_escape names the member and the allocation",
            failures,
        )
    hits = found("interproc/bad_arena_return_flow.cpp")
    if hits:
        check(
            "view_label" in " -> ".join(hits[0].path)
            and "retained_" in hits[0].message,
            "bad_arena_return_flow reports the return-flow path into the "
            "member container",
            failures,
        )

    # --- observer-purity: observation perturbs replay. --------------------
    hits = found("interproc/bad_observer_mutation.cpp")
    if len(hits) == 2:
        messages = " | ".join(f.message for f in hits)
        check(
            "jitter_rng_" in messages and "reads_" in messages,
            "bad_observer_mutation flags both the draw and the member "
            "write",
            failures,
        )
        check(
            all("PolicyView::estimate" in " -> ".join(f.path)
                for f in hits),
            "bad_observer_mutation paths root at the PolicyView accessor",
            failures,
        )

    # --- template_overload: per-instantiation call-graph resolution. ------
    interproc = models["interproc"]
    targets = interproc.resolve("mix_jitter", 2, 1)
    check(
        len(targets) == 1 and targets[0].template_params == 1,
        "mix_jitter<double>(...) resolves to exactly the template "
        "definition",
        failures,
    )
    check(
        all(fn.template_params is None
            for fn in interproc.resolve("mix_jitter", 1)),
        "mix_jitter(0.5) resolves to the non-template overload only",
        failures,
    )
    hits = found("interproc/template_overload.cpp")
    if hits:
        path = " -> ".join(hits[0].path)
        check(
            "on_template_tick" in path,
            "template_overload path roots at the explicit-template caller",
            failures,
        )
        check(
            "on_plain_tick" not in path,
            "template_overload keeps the pure-overload handler out of the "
            "path",
            failures,
        )

    # --- clean gate: zero findings on the real tree, one shared parse. ----
    repo_root = TOOLS.parent
    real = SourceModel([repo_root / "src", repo_root / "bench"]).load()
    merged = xan_lint.run_all(real)
    for finding in merged:
        print(f"      unexpected: {finding}")
    check(
        not merged,
        "src/ and bench/ are clean across all analyses (one shared parse)",
        failures,
    )
    check(
        len(flow.draw_sites(real)) > 0,
        "src/ draw-site prediction is non-empty",
        failures,
    )

    if failures:
        print(
            f"xan_lint_selftest: {len(failures)} check(s) failed",
            file=sys.stderr,
        )
        return 1
    print("xan_lint_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
