"""Paired benchmark runs of two checkouts, written to ``BENCH_<pr>.json``.

Run from the repository root, with the parent commit checked out elsewhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload search-aa-conversation --seeds 501 502 503 --seconds 25 \\
        --traced-seed 5 --claim wall_s --pr N

Before the first run it byte-compiles each checkout's ``src/`` and
``bench/``, so that both sides start in the same bytecode state: under
``PYTHONDONTWRITEBYTECODE=1`` no import writes a ``.pyc``, and a checkout
whose sources are newer than its ``__pycache__`` recompiles them in every
fresh interpreter, which adds to its ``setup_s`` and ``peak_rss_mb``.
For each seed it runs ``bench/run.py --trace 0`` once in each checkout,
alternating which side runs first, and checks that both sides report the
same simulated fingerprints and no failed operation.  ``--traced-seed``
adds one ``--trace 1`` run per side for the per-layer counts; every exact
per-layer metric (unit ``count`` or ``ratio`` in ``BENCHMARK.json``) that
differs between the two is printed and stored under ``traced_diff``, so a
moved count is listed in one place.  It prints,
per end-to-end metric, each side's median and quartiles and the pairs the
change won, and stores every run under ``workloads[<workload>]`` of
``<change>/BENCH_<pr>.json``; the other workloads already in that file are
kept, so one file collects several invocations.  When a run exits non-zero,
the tool stops there, records that run's side, seed, exit code and the tail
of its stderr as ``failed_run`` beside the pairs already measured, writes
the file and exits 1.

It also prints a verdict per metric, by the direction and bound that
``BENCHMARK.json`` gives it.  The ``--claim`` metric is a ``gain`` only when
the change wins at least nine tenths of at least ten pairs (ties count for
neither) and the medians differ, in the better direction, by more than the
parent's interquartile range.  For ``no gain`` it prints, and stores under
``gain_shortfalls``, each of these conditions that failed, with its numbers.
Every other metric is ``worse`` when the
change's median is worse than the parent's by more than the bound (a
fraction of the parent's median), ``unresolved`` when either side's
interquartile range is wider than the bound, and otherwise ``within bound``;
it is also ``within bound`` when every run of the change reads better than
every run of the parent.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class BenchFailed(Exception):
    """A bench run that exited non-zero; ``run`` describes it."""

    def __init__(self, run: dict):
        super().__init__(f"bench/run.py failed: {run}")
        self.run = run


def compile_checkout(checkout: Path) -> None:
    """Byte-compile the checkout's ``src/`` and ``bench/``, where they exist."""
    for name in ("src", "bench"):
        if (checkout / name).is_dir():
            compileall.compile_dir(checkout / name, quiet=1)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The environment, fingerprints and result lines of one bench run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    parsed = {"result": lines[-1]}
    for line in lines[:-1]:
        for key in ("environment", "fingerprints"):
            if key in line:
                parsed[key] = line[key]
    return parsed


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def improvement_sign(better: str) -> float:
    """+1 or -1 so that ``sign * (parent - change) > 0`` means the change is
    better."""
    return 1.0 if better == "lower" else -1.0


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs the change won; ties count for neither side."""
    sign = improvement_sign(better)
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def gain_shortfalls(parent: list[float], change: list[float], better: str) -> list[str]:
    """The conditions of a ``gain`` that paired runs of the claimed metric
    miss, each with its numbers; empty for a gain."""
    n, won = len(parent), wins(parent, change, better)
    p, c = quartiles(parent), quartiles(change)
    gap = improvement_sign(better) * (p["median"] - c["median"])
    missed = []
    if n < 10:
        missed.append(f"{n} pairs, below 10")
    if won < 0.9 * n:
        missed.append(f"change won {won}/{n} pairs, below 9/10")
    if gap <= p["iqr"]:
        missed.append(f"median gap {gap:.4g} at or below the parent's IQR {p['iqr']:.4g}")
    return missed


def gain_verdict(parent: list[float], change: list[float], better: str) -> str:
    """``gain`` or ``no gain`` for the claimed metric of paired runs."""
    return "no gain" if gain_shortfalls(parent, change, better) else "gain"


def bound_verdict(parent: list[float], change: list[float], better: str,
                  bound: float) -> str:
    """``within bound``, ``worse`` or ``unresolved`` for an unclaimed metric."""
    sign = improvement_sign(better)
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "within bound"  # every run of the change reads better
    p, c = quartiles(parent), quartiles(change)
    if sign * (c["median"] - p["median"]) > bound * p["median"]:
        return "worse"
    if max(p["iqr"] / p["median"], c["iqr"] / c["median"]) > bound:
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: dict, claim: str | None) -> dict:
    """Per metric: each side's quartiles, the pairs the change won (ties
    count for neither) and the verdict.  ``metrics`` maps each metric's name
    to its ``BENCHMARK.json`` entry."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        summary[name] = {
            **stats,
            "change_better_pairs": wins(values["parent"], values["change"], better),
            "pairs": len(pairs),
            "median_ratio_parent_over_change":
                stats["parent"]["median"] / stats["change"]["median"],
            "verdict": (gain_verdict(values["parent"], values["change"], better)
                        if name == claim else
                        bound_verdict(values["parent"], values["change"], better, bound)),
        }
        if name == claim:
            summary[name]["gain_shortfalls"] = gain_shortfalls(values["parent"],
                                                               values["change"], better)
    return summary


def traced_diff(traced: dict, exact: list[str]) -> dict:
    """The ``exact`` traced metrics whose values differ between the sides."""
    values = {side: traced[side]["metrics"] for side in SIDES}
    return {name: {side: values[side].get(name) for side in SIDES} for name in exact
            if values["parent"].get(name) != values["change"].get(name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-seed", type=int, help="also run --trace 1 at this seed")
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    exact = [m["name"] for m in benchmark.get("per_layer", []) if m["unit"] in ("count", "ratio")]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")

    def bench(side, seed, trace):
        try:
            return run_bench(checkouts[side], args.workload, seed, args.seconds, trace)
        except subprocess.CalledProcessError as exc:
            raise BenchFailed({"side": side, "seed": seed, "trace": trace,
                               "returncode": exc.returncode,
                               "stderr_tail": exc.stderr.splitlines()[-20:]}) from None

    for checkout in checkouts.values():
        compile_checkout(checkout)
    pairs, commits, environment, mismatched, traced, failed_run = [], {}, {}, [], {}, None
    try:
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: bench(side, seed, 0) for side in order}
            for side in SIDES:
                env = runs[side]["environment"]
                commits[side] = env["git_commit"]
                environment = {k: env[k] for k in ("python", "numpy", "nproc", "platform")}
            equal = runs["parent"]["fingerprints"] == runs["change"]["fingerprints"]
            if not equal:
                mismatched.append(seed)
            pairs.append({"seed": seed, "first": order[0],
                          **{side: runs[side]["result"] for side in SIDES},
                          "fingerprints_equal": equal})
            wall = {side: runs[side]["result"]["metrics"]["wall_s"]["value"] for side in SIDES}
            print(f"seed {seed} ({order[0]} first): wall_s parent {wall['parent']:.3f} "
                  f"change {wall['change']:.3f} fingerprints {'equal' if equal else 'DIFFER'}",
                  file=sys.stderr)
        if args.traced_seed is not None:
            for side in SIDES:
                result = bench(side, args.traced_seed, 1)["result"]
                traced[side] = {
                    "failed": result["failed"], "attempted": result["attempted"],
                    "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    except BenchFailed as exc:
        failed_run = exc.run
        print(exc, file=sys.stderr)

    entry = {
        "seeds": list(args.seeds),
        "pairs": pairs,
        "claim": args.claim,
        "summary": summarize(pairs, metrics, args.claim) if pairs else {},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
    }
    if traced:
        entry[f"traced_seed_{args.traced_seed}"] = traced
    if len(traced) == len(SIDES):
        entry["traced_diff"] = traced_diff(traced, exact)
    if failed_run is not None:
        entry["failed_run"] = failed_run

    out = checkouts["change"] / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {
        "description": f"Paired bench/run.py runs (--seconds {args.seconds:g} --trace 0) of "
                       "the parent and the change, alternating which side runs first, "
                       "plus the --trace 1 metrics of one seed; both checkouts' src/ and "
                       "bench/ were byte-compiled before the first run.",
        "workloads": {}}
    if pairs:  # a run that failed first reports no environment
        doc["environment"] = environment
        doc["commits"] = commits
    doc["workloads"][args.workload] = entry
    out.write_text(json.dumps(doc, indent=1) + "\n")

    for name, s in entry["summary"].items():
        print(f"{args.workload} {name}: parent median {s['parent']['median']:.4g} "
              f"(IQR {s['parent']['iqr']:.3g}), change median {s['change']['median']:.4g} "
              f"(IQR {s['change']['iqr']:.3g}), change better in "
              f"{s['change_better_pairs']}/{s['pairs']} pairs: {s['verdict']}"
              + "".join(f"; {missed}" for missed in s.get("gain_shortfalls", [])))
    for name, moved in entry.get("traced_diff", {}).items():
        print(f"{args.workload} traced {name}: parent {moved['parent']} "
              f"change {moved['change']}")
    print(f"failed operations: {entry['failed']}")
    if mismatched:
        print(f"fingerprints differ on seeds {mismatched}", file=sys.stderr)
    return 1 if mismatched or failed_run or any(entry["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
