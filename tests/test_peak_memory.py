"""The per-phase memory peaks of ``tools/peak_memory.py``, on a short decode
replay."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import splitsim.engine
import splitsim.report

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("peak_memory", _ROOT / "tools" / "peak_memory.py")
peak_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_memory)


def test_outer_phase_keeps_the_peak_of_an_inner_one():
    phases = peak_memory.Phases()
    tracemalloc.start()
    try:
        with phases("outer"):
            with phases("inner"):
                block = bytearray(8 << 20)
                del block
            with phases("after"):
                pass
    finally:
        tracemalloc.stop()
    stats = phases.stats
    assert list(stats) == ["outer", "inner", "after"]
    assert stats["inner"]["peak_mb"] >= 8.0 and stats["outer"]["peak_mb"] >= 8.0
    assert stats["after"]["peak_mb"] < 8.0  # its own peak starts when it does


def test_short_decode_replay():
    sys.path.insert(0, str(_ROOT / "bench"))
    import workloads
    params = workloads.load_params()
    params["replay-baseline-decode"]["duration_s"] = 20.0
    with mock.patch.object(workloads, "load_params", lambda: params):
        out = peak_memory.measure("replay-baseline-decode", 3)
    phases = out["phases"]
    assert list(phases) == ["build", "operate", "Simulator.run", "Simulator._build_report",
                            "check_slo", "requests_csv", "tbt_csv", "summary_csv",
                            "event_log_csv", "check"]
    assert all(p["calls"] == 1 and 0.0 <= p["start_mb"] <= p["peak_mb"]
               for p in phases.values())
    for outer, inner in (("operate", "Simulator.run"), ("Simulator.run", "check_slo"),
                         ("operate", "tbt_csv")):
        assert phases[inner]["peak_mb"] <= phases[outer]["peak_mb"]
    # tracing and every wrapper are gone afterwards
    assert not tracemalloc.is_tracing()
    assert splitsim.engine.tbt_csv is splitsim.report.tbt_csv
    assert splitsim.engine.Simulator.run.__name__ == "run"
