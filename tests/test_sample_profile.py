"""The sampling profiler of ``tools/sample_profile.py``, on one serial search."""

import importlib.util
import signal
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sample_profile.py"
_SPEC = importlib.util.spec_from_file_location("sample_profile", _PATH)
sample_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sample_profile)


def test_one_search_operation():
    out = sample_profile.profile("search-aa-conversation", 3, 0.0)
    assert out["operations"] == 1 and out["samples"] > 0
    functions = out["functions"]
    assert all(0.0 <= f["self"] <= f["inclusive"] <= 1.0 for f in functions.values())
    # the probes ran in this process, where the timer samples them
    assert functions["splitsim.provision.search"]["inclusive"] > 0.9
    assert functions["splitsim.engine.Simulator.run"]["inclusive"] > 0.5
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
