"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing splitsim and building the inputs of every variant.
Prints the seconds it took.  ``run.py`` starts this script several times
per run and reports the median as ``setup_s``.

Usage: python3 bench/setup_probe.py <workload> <seed> <params-json>
"""

import json
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    name, seed, params = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    build = workloads.WORKLOADS[name].build
    start = time.perf_counter()
    ss = workloads.import_splitsim()
    inputs = [build(ss, params, s) for s in workloads.variant_seeds(seed, params)]
    elapsed = time.perf_counter() - start
    del inputs
    print(repr(elapsed))


if __name__ == "__main__":
    main()
