#!/usr/bin/env python3
"""Diff a bench run's gate results against the committed baseline.

Each measurement-grade bench emits a JSON report whose *gate* subtrees
(keys named "gate" or "gates", plus top-level "*_ok" booleans) encode
the pass/fail claims the repo stands behind — BENCH_service.json's
retention-footprint and tiering gates, BENCH_fused.json's differential
gate, BENCH_decode.json's entropy-page gates. Timings drift with the
runner; gates must not. CI runs every bench with --quick, tees the JSON
next to the build, and calls this script to compare the gate subtrees
against the committed BENCH_*.json baselines:

    tools/check_bench_baselines.py BENCH_service.json /tmp/service.json

A gate leaf that is an object with "ratio" and "band" keys is a banded
ratio, a speedup timed within one process (BENCH_decode.json's
bit_unpack w63_speedup): it passes when the run's ratio is at least the
baseline's ratio * (1 - band), measured on the same SIMD "tier". A run
on another tier measures another kernel, so there the band is reported
as not applicable, and the bench's own per-tier floor still applies.
Every other leaf must match exactly.

Exit status: 0 when every gate subtree matches the baseline, 1 on any
drift (a regressed gate, a ratio below its band, a silently dropped
gate, or a new gate that should be baselined by re-committing the BENCH
file).
"""

import json
import sys


def gate_subtrees(node, path=""):
    """Yield (path, subtree) for every gate-bearing key, recursively."""
    if not isinstance(node, dict):
        return
    for key, value in node.items():
        here = f"{path}/{key}"
        if key in ("gate", "gates") or (
            path == "" and key.endswith("_ok")
        ):
            yield here, value
        else:
            yield from gate_subtrees(value, here)


def is_banded(value):
    """True for a banded-ratio gate leaf."""
    return isinstance(value, dict) and "ratio" in value and "band" in value


def banded_drift(want, got):
    """Why a banded ratio fails against its baseline, or None."""
    if not (is_banded(want) and is_banded(got)):
        return f"baseline {want!r} -> run {got!r}"
    if got.get("tier") != want.get("tier"):
        return None
    fixed = {k: v for k, v in want.items() if k != "ratio"}
    if {k: v for k, v in got.items() if k != "ratio"} != fixed:
        return f"baseline {want!r} -> run {got!r}"
    low = want["ratio"] * (1 - want["band"])
    if got["ratio"] < low:
        return (f"ratio {got['ratio']} below the band: baseline "
                f"{want['ratio']} - {want['band']:.0%} = {low:.2f}")
    return None


def flatten(tree, path=""):
    """Flatten a gate subtree into {leaf_path: scalar or banded ratio}."""
    if isinstance(tree, dict) and not is_banded(tree):
        out = {}
        for key, value in tree.items():
            out.update(flatten(value, f"{path}/{key}"))
        return out
    return {path or "/": tree}


def compare(baseline_path, current_path):
    with open(baseline_path) as f:
        baseline = dict(gate_subtrees(json.load(f)))
    with open(current_path) as f:
        current = dict(gate_subtrees(json.load(f)))

    base_flat = {}
    for path, tree in baseline.items():
        base_flat.update(flatten(tree, path))
    cur_flat = {}
    for path, tree in current.items():
        cur_flat.update(flatten(tree, path))

    drift = []
    for path in sorted(base_flat.keys() | cur_flat.keys()):
        want = base_flat.get(path)
        got = cur_flat.get(path)
        if path not in cur_flat:
            drift.append(f"  {path}: gate dropped (baseline: {want!r})")
        elif path not in base_flat:
            drift.append(
                f"  {path}: new gate {got!r} — re-commit the baseline"
            )
        elif is_banded(want) or is_banded(got):
            why = banded_drift(want, got)
            if why is not None:
                drift.append(f"  {path}: {why}")
            elif got.get("tier") != want.get("tier"):
                print(f"{path}: run on tier {got.get('tier')!r}, baseline "
                      f"on {want.get('tier')!r}; band not applicable")
        elif want != got:
            drift.append(f"  {path}: baseline {want!r} -> run {got!r}")
    return base_flat, drift


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    base_flat, drift = compare(baseline_path, current_path)
    if not base_flat:
        print(f"{baseline_path}: no gate subtrees — nothing to check")
        return 0
    if drift:
        print(f"GATE DRIFT vs {baseline_path}:")
        print("\n".join(drift))
        return 1
    print(
        f"{baseline_path}: {len(base_flat)} gate value(s) match the run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
