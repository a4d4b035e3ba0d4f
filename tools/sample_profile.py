"""Sampling profile of one benchmark workload, by splitsim function.

Run from the repository root:

    python3 tools/sample_profile.py --workload search-aa-conversation --seed 3 --seconds 20

It builds the workload's first input from ``bench/workloads.py`` and runs
its operation, in this process, until ``--seconds`` have passed (at least
once).  While an operation runs, an ``ITIMER_PROF`` interval timer on this
process sends it ``SIGPROF`` every millisecond of CPU time (the kernel may
round that up to its clock tick), and the handler records the interrupted
Python stack.  A search runs its points serially
(``provision._workers`` patched to 1), because forked workers inherit no
interval timer.

It prints one JSON object: the sample count and, for each function defined
under ``src/splitsim``, its ``self`` share (samples interrupted in its own
code, including the C calls it makes) and its ``inclusive`` share (samples
with it anywhere on the stack), sorted by self share.  Unlike cProfile, the
sampler adds no cost per call, so it does not inflate small functions that
run millions of times.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
INTERVAL_S = 0.001  # CPU time between samples


class Sampler:
    """Counts, per splitsim function, the samples taken in it and under it."""

    def __init__(self, package: str):
        self.package = package  # the directory of the splitsim package
        self.samples = 0
        self.self_counts: Counter[str] = Counter()
        self.inclusive_counts: Counter[str] = Counter()

    def __call__(self, signum, frame):
        self.samples += 1
        seen = set()
        innermost, package = True, self.package
        while frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(package):
                qualname = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
                name = f"{frame.f_globals.get('__name__')}.{qualname}"
                if innermost:
                    self.self_counts[name] += 1
                seen.add(name)
            innermost = False
            frame = frame.f_back
        self.inclusive_counts.update(seen)

    def run(self, fn):
        """Call ``fn`` with the timer on."""
        previous = signal.signal(signal.SIGPROF, self)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def report(self) -> dict:
        n = self.samples or 1
        functions = {name: {"self": self.self_counts[name] / n, "inclusive": count / n}
                     for name, count in self.inclusive_counts.items()}
        return {"samples": self.samples, "interval_s": INTERVAL_S,
                "functions": dict(sorted(functions.items(),
                                         key=lambda item: (-item[1]["self"], item[0])))}


def profile(workload: str, seed: int, seconds: float) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    ss = workloads.import_splitsim()
    params = workloads.load_params()[workload]
    wl = workloads.WORKLOADS[workload]
    inputs = wl.build(ss, params, workloads.variant_seeds(seed, params)[0])
    sampler = Sampler(str(Path(ss.__file__).parent))
    operations = 0
    start = time.perf_counter()
    with mock.patch.object(ss.provision, "_workers", lambda n_points: 1):
        while not operations or time.perf_counter() - start < seconds:
            sampler.run(lambda: wl.operate(ss, params, inputs))
            operations += 1
    return {"workload": workload, "seed": seed, "operations": operations, **sampler.report()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(profile(args.workload, args.seed, args.seconds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
