"""The verdicts ``tools/bench_pairs.py`` prints, on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.30, 1.32, 1.28, 1.35, 1.31, 1.29, 1.33, 1.30, 1.34, 1.27]  # IQR 0.045


class TestGainVerdict:
    def test_clear_gain(self):
        change = [p - 0.3 for p in PARENT]
        assert bench_pairs.gain_verdict(PARENT, change, "lower") == "gain"

    def test_higher_is_better(self):
        parent = [100.0 - p for p in PARENT]
        assert bench_pairs.gain_verdict(parent, [p + 0.3 for p in parent], "higher") == "gain"
        assert bench_pairs.gain_verdict(parent, [p - 0.3 for p in parent], "higher") == "no gain"

    def test_two_losses_in_ten(self):
        change = [p - 0.3 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
        assert bench_pairs.gain_verdict(PARENT, change, "lower") == "no gain"

    def test_ties_count_for_neither(self):
        change = [p - 0.3 for p in PARENT[:9]] + PARENT[9:]
        assert bench_pairs.gain_verdict(PARENT, change, "lower") == "gain"
        change = [p - 0.3 for p in PARENT[:8]] + PARENT[8:]
        assert bench_pairs.gain_verdict(PARENT, change, "lower") == "no gain"

    def test_gap_within_parent_iqr(self):
        change = [p - 0.01 for p in PARENT]  # wins 10/10, but 0.01 < IQR
        assert bench_pairs.gain_verdict(PARENT, change, "lower") == "no gain"

    def test_needs_ten_pairs(self):
        change = [p - 0.3 for p in PARENT]
        assert bench_pairs.gain_verdict(PARENT[:9], change[:9], "lower") == "no gain"


class TestBoundVerdict:
    @pytest.mark.parametrize("shift, verdict", [(0.0, "within bound"), (0.2, "within bound"),
                                                (0.4, "worse")])
    def test_median_shift(self, shift, verdict):
        change = [p + shift for p in PARENT]
        assert bench_pairs.bound_verdict(PARENT, change, "lower", 0.25) == verdict

    def test_higher_is_better_worse(self):
        parent = [100.0 + p for p in PARENT]
        assert bench_pairs.bound_verdict(parent, [p * 0.8 for p in parent],
                                         "higher", 0.1) == "worse"

    def test_wide_spread_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5]
        change = [1.1, 2.0, 1.0, 2.1, 1.5, 1.6]
        assert bench_pairs.bound_verdict(parent, change, "lower", 0.25) == "unresolved"

    def test_every_change_run_better(self):
        parent = [2.0, 3.0, 2.5, 3.5]
        change = [1.0, 1.9, 1.5, 1.2]
        assert bench_pairs.bound_verdict(parent, change, "lower", 0.25) == "within bound"
