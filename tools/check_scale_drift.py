#!/usr/bin/env python3
"""Fails when a scale benchmark run drifts from the committed results.

    python3 tools/check_scale_drift.py BENCH_scale.json build/BENCH_scale.json
    python3 tools/check_scale_drift.py BENCH_multitenant.json \
        build/BENCH_multitenant.json

Every preset of the committed file (first argument) must appear in the fresh
run (second argument) with the same digest, events_fired, completed and
failed -- each one the committed preset records (scale_multitenant presets
have no top-level digest) -- and, when the preset lists per-source results
(`sources`), with the same digest for every committed source.  Timings and
RSS are not compared.  Exit 0 when all match, 1 on any drift or missing
preset or source, 2 on bad usage.
"""

import json
import sys

PINNED = ("digest", "events_fired", "completed", "failed")


def presets(path):
    with open(path) as f:
        return {preset["name"]: preset for preset in json.load(f)["presets"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed, fresh = presets(argv[1]), presets(argv[2])
    drift = []
    for name, pinned in committed.items():
        run = fresh.get(name)
        if run is None:
            drift.append(f"{name}: missing from {argv[2]}")
            continue
        for key in PINNED:
            if key in pinned and run.get(key) != pinned[key]:
                drift.append(f"{name}: {key} {run.get(key)} != committed "
                             f"{pinned[key]}")
        sources = {s["source"]: s for s in run.get("sources", [])}
        for source in pinned.get("sources", []):
            got = sources.get(source["source"], {}).get("digest")
            if got != source["digest"]:
                drift.append(f"{name}: source {source['source']} digest "
                             f"{got} != committed {source['digest']}")
    for line in drift:
        print(line, file=sys.stderr)
    if drift:
        return 1
    print(f"OK ({len(committed)} presets match {argv[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
