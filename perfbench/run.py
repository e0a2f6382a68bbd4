#!/usr/bin/env python3
"""Simulator benchmark: builds the runners, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

--trace 0 runs the untraced runner and reports the end-to-end metrics;
--trace 1 runs a short untraced pass, then the traced runner, and reports
the per-layer metrics (spans go to .bench_build/perfbench/spans/).  Metric
names and units come from BENCHMARK.json.  The last line of standard output
is the result object; human-readable lines and the provenance come before
it.  Every run is checked: request conservation, no failures, one trace
digest across repetitions, traced == untraced digest and behaviour pins, and
the knative_10k digest recorded in BENCH_scale.json.  A failed check exits
non-zero.  --smoke runs every workload briefly in both modes with all checks
on.  See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("replay_knative", "mix_spec_bus", "cold_chain_jit")
# Behaviour pins the traced runner must reproduce exactly.
PINS = ("digest", "events", "submitted", "completed", "failed",
        "missed_nodes_per_req", "cold_starts_per_req", "workers_per_req",
        "spec_useful_ratio")
CHILD_TIMEOUT_S = 170


class CheckFailed(Exception):
    pass


def log(text):
    print(text, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runners; returns their directory."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD


def runner(name, *args):
    """Runs one runner program and returns its JSON report."""
    proc = subprocess.run([os.path.join(BUILD, name), *map(str, args)],
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          check=False, text=True)
    if proc.returncode != 0:
        raise CheckFailed(f"{name} {' '.join(map(str, args))} exited "
                          f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_bench_scale_digest():
    """The knative_10k preset must reproduce BENCH_scale.json's digest."""
    with open(os.path.join(ROOT, "BENCH_scale.json")) as f:
        presets = {p["name"]: p for p in json.load(f)["presets"]}
    preset = presets["knative_10k"]
    report = runner("perfbench_run", "--workload", "replay_knative",
                    "--seed", 42, "--requests", preset["requests"],
                    "--min-reps", 1, "--seconds", 0)
    got = report["pins"]["digest"]
    if got != preset["digest"]:
        raise CheckFailed(f"knative_10k digest {got} != BENCH_scale.json "
                          f"{preset['digest']}")
    if report["pins"]["completed"] != preset["completed"]:
        raise CheckFailed("knative_10k completed count differs")
    return got


def check_pins(untraced, traced):
    for key in PINS:
        if untraced["pins"][key] != traced["pins"][key]:
            raise CheckFailed(f"traced {key} {traced['pins'][key]} != "
                              f"untraced {untraced['pins'][key]}")


def source_digest():
    """sha256 over src/ and perfbench/ contents: names the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def provenance(report, seed):
    prov = dict(report["provenance"])
    prov.update({"seed": seed, "commit": commit(),
                 "source_sha256": source_digest(),
                 "nproc": len(os.sched_getaffinity(0))})
    return prov


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, scale=1.0):
    """One benchmark run; returns (result object, full record)."""
    common = ["--workload", workload, "--seed", seed, "--scale", scale]
    bench_scale_digest = check_bench_scale_digest()
    if not trace:
        untraced = runner("perfbench_run", *common, "--seconds", seconds)
        report = untraced
        values = {"requests_per_s": untraced["requests_per_s"],
                  "peak_rss_mib": untraced["peak_rss_mib"],
                  "setup_s": untraced["setup_s"]}
        wanted = spec()["end_to_end"]
    else:
        untraced = runner("perfbench_run", *common, "--seconds", seconds / 2)
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-seed{seed}.csv")
        traced = runner("perfbench_traced", *common, "--seconds", seconds / 2,
                        "--spans", spans)
        check_pins(untraced, traced)
        report = traced
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        values["trace.overhead_frac"] = (traced["replay_s"] /
                                         untraced["replay_s"] - 1.0)
        wanted = spec()["per_layer"]
    unlisted = set(values) - {m["name"] for m in wanted}
    if unlisted:
        raise CheckFailed(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise CheckFailed(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}
    if untraced["failed"] != 0 or untraced["failed_frac"] != 0:
        raise CheckFailed(f"{untraced['failed']} requests failed")
    result = {"correct": True, "attempted": int(untraced["submitted"]),
              "failed": int(untraced["failed"]), "metrics": metrics}
    record = {"provenance": provenance(report, seed),
              "bench_scale_knative_10k_digest": bench_scale_digest,
              "failed_frac": untraced["failed_frac"],
              "untraced": untraced, "result": result}
    if trace:
        record["traced"] = traced
        record["spans_file"] = os.path.relpath(spans, ROOT)
    return result, record


def save(record, workload, seed, trace):
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def smoke():
    """Every workload, briefly, in both modes, with every check on."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = run(workload, 7, 0.5, trace, scale=0.05)
            print(f"smoke {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"digest {record['untraced']['pins']['digest']}")
    print("smoke: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        build()
        if args.smoke:
            smoke()
            return 0
        result, record = run(args.workload, args.seed, args.seconds,
                             args.trace)
    except (CheckFailed, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as err:
        log(f"perfbench: FAILED: {err}")
        return 1
    path = save(record, args.workload, args.seed, args.trace)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"failed_frac = {record['failed_frac']} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
