"""Run one splitsim benchmark workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload replay-hh-coding --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: ``setup_s``
(median over fresh interpreters that import splitsim and build the inputs),
``wall_s`` (median host seconds of the timed operation) and ``peak_rss_mb``
(peak resident memory of this process).  ``--trace 1`` alternates untraced
and traced operations on the first input and prints the per-layer metrics
of ``tracing.PER_LAYER``.

A run builds ``variants`` inputs from ``--seed`` (see ``workloads.json``)
and cycles through them until ``--seconds`` have passed and every variant
has run equally often.  Each operation's output is checked and its simulated
fingerprint must repeat exactly for the same input; an operation that raises
or fails a check counts as failed.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and the fingerprints.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` inside ``root`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(name, params, seed, seconds, trace) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "workload": name,
        "seed": seed,
        "variant_seeds": workloads.variant_seeds(seed, params),
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def setup_samples(name, params, seed) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one per probe."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), json.dumps(params)]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def timed(fn):
    """(seconds, output, error) of one call; an exception is an error."""
    gc.collect()
    start = time.perf_counter()
    try:
        output, error = fn(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, error


class Outcomes:
    """Operations attempted and failed, and each input's fingerprint."""

    def __init__(self, wl, ss, params):
        self.wl, self.ss, self.params = wl, ss, params
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[int, dict] = {}

    def fail(self, message):
        self.failed += 1
        print(f"failed operation: {message}", file=sys.stderr)

    def check(self, variant, inputs, output, error) -> dict | None:
        """Check one operation's output against the workload's checks and
        against earlier fingerprints of the same input."""
        self.attempted += 1
        if error is None:
            try:
                fingerprint = self.wl.check(self.ss, self.params, inputs, output)
            except Exception as exc:  # CheckFailed, or a malformed output
                error = f"{type(exc).__name__}: {exc}"
        if error is None and self.fingerprints.setdefault(variant, fingerprint) != fingerprint:
            error = f"fingerprint of variant {variant} changed between operations"
        if error is not None:
            self.fail(error)
            return None
        return fingerprint


def measure_end_to_end(wl, ss, params, inputs, seconds, outcomes) -> dict:
    times = []
    start = time.perf_counter()
    while True:
        variant = len(times) % len(inputs)
        elapsed, output, error = timed(lambda: wl.operate(ss, params, inputs[variant]))
        times.append(elapsed)
        outcomes.check(variant, inputs[variant], output, error)
        del output
        if variant == len(inputs) - 1 and time.perf_counter() - start >= seconds:
            break
    print(json.dumps({"wall_s_samples": times}))
    return {"wall_s": statistics.median(times)}


def measure_per_layer(wl, ss, params, seed, inputs, seconds, outcomes) -> dict:
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        elapsed, output, error = timed(lambda: wl.operate(ss, params, inputs))
        untraced.append(elapsed)
        outcomes.check(0, inputs, output, error)
        del output
        with tracing.traced(ss) as tracer:
            traced_inputs = wl.build(ss, params, seed)
            elapsed, output, error = timed(lambda: wl.operate(ss, params, traced_inputs))
        traced.append(elapsed)
        if outcomes.check(0, traced_inputs, output, error) is not None:
            layer = tracing.layer_metrics(tracer)
            changed = [n for n in tracing.EXACT if layers and layer[n] != layers[0][n]]
            if changed:
                outcomes.fail(f"traced counts changed between operations: {changed}")
            layers.append(layer)
        del output, tracer, traced_inputs
    print(json.dumps({"untraced_wall_s_samples": untraced, "traced_wall_s_samples": traced}))
    if not layers:
        return {}
    metrics = {name: value if name in tracing.EXACT else
               statistics.median(layer[name] for layer in layers)
               for name, value in layers[0].items()}
    untraced_wall = statistics.median(untraced)
    metrics["engine.events_per_s"] = metrics["engine.events"] / untraced_wall
    metrics["trace_overhead_s"] = statistics.median(traced) - untraced_wall
    return metrics


def run(name: str, params: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object printed last and the
    simulated fingerprint of each input seed."""
    wl = workloads.WORKLOADS[name]
    setup = [] if trace else setup_samples(name, params, seed)
    ss = workloads.import_splitsim()
    seeds = workloads.variant_seeds(seed, params)
    inputs = [wl.build(ss, params, s) for s in (seeds[:1] if trace else seeds)]
    print(json.dumps({"environment": environment(name, params, seed, seconds, trace)}))
    outcomes = Outcomes(wl, ss, params)
    if trace:
        metrics = measure_per_layer(wl, ss, params, seeds[0], inputs[0], seconds, outcomes)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        print(json.dumps({"setup_s_samples": setup}))
        metrics = measure_end_to_end(wl, ss, params, inputs, seconds, outcomes)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        units = END_TO_END
    result = {
        "correct": outcomes.failed == 0 and set(metrics) == set(units),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    return result, {seeds[v]: fp for v, fp in sorted(outcomes.fingerprints.items())}


def use_checkout_sources() -> bool:
    """Put the checkout's ``src`` first on the import path, if it is there."""
    if not (SRC / "splitsim" / "__init__.py").is_file():
        print(f"error: no splitsim package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        return 2
    params = workloads.load_params()[args.workload]
    result, fingerprints = run(args.workload, params, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"fingerprints": fingerprints}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
