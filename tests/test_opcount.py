"""The bytecode counter of ``tools/opcount.py``, on a short decode replay."""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("opcount", _ROOT / "tools" / "opcount.py")
opcount = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(opcount)


def test_two_runs_count_the_same():
    sys.path.insert(0, str(_ROOT / "bench"))
    import workloads
    params = workloads.load_params()
    params["replay-baseline-decode"]["duration_s"] = 10.0
    tracer = sys.gettrace()
    with mock.patch.object(workloads, "load_params", lambda: params):
        first, second = (opcount.count("replay-baseline-decode", 3) for _ in range(2))
    assert first == second
    assert sys.gettrace() is tracer
    build, operate = first["build"]["functions"], first["operate"]["functions"]
    assert first["build"]["total"] == sum(build.values()) > 0
    assert first["operate"]["total"] == sum(operate.values()) > 0
    # splitsim code and the methods dataclasses generate for it are counted,
    # nothing else is
    assert "splitsim.trace.generate_trace" in build and "splitsim.trace.Trace.__init__" in build
    assert "splitsim.engine.Simulator.run" in operate
    assert all(name.startswith("splitsim.") for name in (*build, *operate))
