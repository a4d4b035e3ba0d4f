"""Bytecodes executed in splitsim by one benchmark workload, by phase and function.

Run from the repository root:

    python3 tools/opcount.py --workload replay-baseline-decode --seed 7

It builds the workload's first input from ``bench/workloads.py`` and runs
its operation once, in this process, under a ``sys.settrace`` tracer that
turns on ``f_trace_opcodes`` for the frames it counts and counts their
``opcode`` events.  It counts the frames of code defined under
``src/splitsim``, and of methods that ``dataclasses`` generates for
splitsim's classes (such as ``Request.__init__``), which have no source
file.  A search runs its points serially (``provision._workers`` patched to
1), and provision's calibration memo is cleared before the build, so each
run counts what a fresh interpreter would.

It prints one JSON object with, for the ``build`` and the ``operate``
phase, the ``total`` and each function's count, sorted by count.  The
counts are deterministic, so they can locate a cost or explain a noisy
wall-time reading, but the tracer sees no work done in C (numpy,
``sorted``, ``map``, list methods): fewer bytecodes is not less time, and
a speed claim still needs wall-time pairs.  Tracing slows the run by
about two orders of magnitude.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


class OpCounter:
    """Counts the bytecodes that splitsim's frames execute, per function."""

    def __init__(self, package: str):
        self.package = package  # the directory of the splitsim package
        self.counts: Counter = Counter()  # code object -> bytecodes executed
        self._names: dict = {}  # code object -> function name, None if not counted

    def _name(self, frame):
        code = frame.f_code
        qualname = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
        if code.co_filename.startswith(self.package):
            return f"{frame.f_globals.get('__name__')}.{qualname}"
        if code.co_filename.startswith("<") and "self" in frame.f_locals:
            cls = type(frame.f_locals["self"])
            if cls.__module__.startswith("splitsim."):
                return f"{cls.__module__}.{cls.__qualname__}.{code.co_name}"
        return None

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code not in self._names:
            self._names[code] = self._name(frame)
        if self._names[code] is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.counts[frame.f_code] += 1
        return self._opcode

    def run(self, fn):
        """Call ``fn`` with the tracer on."""
        previous = sys.gettrace()
        sys.settrace(self._call)
        try:
            return fn()
        finally:
            sys.settrace(previous)

    def report(self) -> dict:
        functions: Counter = Counter()
        for code, count in self.counts.items():
            functions[self._names[code]] += count
        return {"total": sum(functions.values()),
                "functions": dict(sorted(functions.items(), key=lambda item: (-item[1], item[0])))}


def count(workload: str, seed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    ss = workloads.import_splitsim()
    params = workloads.load_params()[workload]
    wl = workloads.WORKLOADS[workload]
    input_seed = workloads.variant_seeds(seed, params)[0]
    package = str(Path(ss.__file__).parent)
    build, operate = OpCounter(package), OpCounter(package)
    ss.provision._calibration.cache_clear()
    with mock.patch.object(ss.provision, "_workers", lambda n_points: 1):
        inputs = build.run(lambda: wl.build(ss, params, input_seed))
        operate.run(lambda: wl.operate(ss, params, inputs))
    return {"workload": workload, "seed": seed, "input_seed": input_seed,
            "build": build.report(), "operate": operate.report()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(count(args.workload, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
