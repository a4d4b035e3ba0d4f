"""Self-test of the benchmark, with every workload at a tiny size.

For each workload it makes one untraced and two traced runs with the same
seed and checks that:

* both traced runs give identical per-layer counts and ratios and identical
  fingerprints;
* the traced and untraced runs give the same fingerprint, so the tracing
  wrappers do not change behaviour (``run.py`` also counts a traced
  operation whose fingerprint differs from the untraced one as failed);
* every run is correct with no failed operation, and emits exactly the
  metrics that ``BENCHMARK.json`` names, each with the unit given there.

Usage, from the repository root (takes about a minute):

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracing
import workloads

SEED = 7

# Overrides of workloads.json that keep each run to a few seconds.
TINY = {
    "replay-hh-coding": {"duration_s": 5.0},
    "replay-baseline-decode": {"duration_s": 20.0},
    "search-aa-conversation": {"probe_duration_s": 5.0},
}


def quiet_run(name, params, trace):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(name, params, SEED, 0.0, trace)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def require(ok, message):
        if not ok:
            problems.append(message)

    require([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    all_params = workloads.load_params()
    for name in workloads.WORKLOADS:
        params = {**all_params[name], **TINY[name]}
        plain, plain_fp = quiet_run(name, params, trace=False)
        first, first_fp = quiet_run(name, params, trace=True)
        second, second_fp = quiet_run(name, params, trace=True)
        for label, result in (("untraced", plain), ("traced", first), ("traced", second)):
            require(result["correct"] and result["failed"] == 0,
                    f"{name}: {label} run not correct: {result['failed']} failed")
        require(units(plain) == end_to_end, f"{name}: end-to-end metrics or units differ")
        require(units(first) == per_layer, f"{name}: per-layer metrics or units differ")
        changed = sorted(m for m in tracing.EXACT
                         if values(first).get(m) != values(second).get(m))
        require(not changed, f"{name}: counts differ between traced runs: {changed}")
        require(first_fp == second_fp, f"{name}: fingerprints differ between traced runs")
        seed0 = workloads.variant_seeds(SEED, params)[0]
        require(first_fp[seed0] == plain_fp[seed0],
                f"{name}: traced and untraced fingerprints differ")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest ok" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
