"""Peak traced memory of one benchmark workload, by phase.

Run from the repository root:

    python3 tools/peak_memory.py --workload replay-hh-coding --seed 10

It builds the workload's first input from ``bench/workloads.py``, runs its
operation once and checks the output, in this process, with ``tracemalloc``
on from before the build.  The phases are the build, the operation, the
check and, inside them, ``Simulator.run``, ``Simulator._build_report``,
``check_slo`` and each of the four CSV emitters, wrapped under the names on
``splitsim.engine`` that the bench calls.  A search runs its points serially
(``provision._workers`` patched to 1), so that its probes run in this process.

It prints one JSON object.  For each phase, in the order the phases first
start, it gives ``calls`` and, for the call with the highest peak,
``start_mb`` (traced memory when that call started) and ``peak_mb`` (the
highest traced memory while it ran), both in MiB, rounded to 0.01 MiB:
repeated runs of the same code differ by about 3 KB, even with
``PYTHONHASHSEED=0``, so finer digits are noise (``measure`` returns them
unrounded).  Phases nest: the peak of an outer phase covers the phases
inside it.  ``tracemalloc`` counts the Python allocations made after it
starts, not the process's resident memory, and it slows the run several
times over.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
MIB = float(1 << 20)


class Phases:
    """The traced peak of nested, possibly repeated, phases."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        # per open phase, outermost first: its highest traced memory before
        # the last reset of the peak
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        stat = self.stats.setdefault(name, {"calls": 0, "start_mb": 0.0, "peak_mb": 0.0})
        start, peak = tracemalloc.get_traced_memory()
        self._open = [max(seen, peak) for seen in self._open]
        self._open.append(start)
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = max(self._open.pop(), tracemalloc.get_traced_memory()[1])
            stat["calls"] += 1
            if peak / MIB >= stat["peak_mb"]:
                stat["start_mb"], stat["peak_mb"] = start / MIB, peak / MIB

    def wrap(self, name: str, fn):
        def phase(*args, **kwargs):
            with self(name):
                return fn(*args, **kwargs)
        return phase


def measure(workload: str, seed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    ss = workloads.import_splitsim()
    params = workloads.load_params()[workload]
    wl = workloads.WORKLOADS[workload]
    input_seed = workloads.variant_seeds(seed, params)[0]
    engine, phases = ss.engine, Phases()
    patches = [mock.patch.object(ss.provision, "_workers", lambda n_points: 1)]
    for name in ("run", "_build_report"):
        patches.append(mock.patch.object(engine.Simulator, name, phases.wrap(
            f"Simulator.{name}", getattr(engine.Simulator, name))))
    for name in ("check_slo", *workloads.EMITTERS):
        patches.append(mock.patch.object(engine, name, phases.wrap(name, getattr(engine, name))))
    tracemalloc.start()
    try:
        with ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            with phases("build"):
                inputs = wl.build(ss, params, input_seed)
            with phases("operate"):
                output = wl.operate(ss, params, inputs)
            with phases("check"):
                wl.check(ss, params, inputs, output)
    finally:
        tracemalloc.stop()
    return {"workload": workload, "seed": seed, "input_seed": input_seed,
            "phases": phases.stats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed)
    for stat in out["phases"].values():
        stat["start_mb"], stat["peak_mb"] = round(stat["start_mb"], 2), round(stat["peak_mb"], 2)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
