"""The verdicts ``tools/bench_pairs.py`` prints, on synthetic pairs, and the
file it writes when a bench run fails."""

import importlib.util
import json
import subprocess
import sys
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

    def test_shortfalls_name_each_failed_condition(self):
        assert bench_pairs.gain_shortfalls(PARENT, [p - 0.3 for p in PARENT], "lower") == []
        # wins 8/10 by a gap inside the parent's IQR of 0.045
        change = [p - 0.01 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
        assert bench_pairs.gain_shortfalls(PARENT, change, "lower") == [
            "change won 8/10 pairs, below 9/10",
            "median gap 0.01 at or below the parent's IQR 0.045"]
        assert bench_pairs.gain_shortfalls(PARENT[:9], change[:9], "lower")[0] == \
            "9 pairs, below 10"


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


class TestFailedRun:
    def test_measured_pairs_kept(self, tmp_path, monkeypatch, capsys):
        checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
        for path in checkouts.values():
            path.mkdir()
        (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))

        def fake_run_bench(checkout, workload, seed, seconds, trace):
            if checkout == checkouts["change"] and seed == 502:
                raise subprocess.CalledProcessError(
                    3, ["bench/run.py"], output="",
                    stderr="".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n")
            env = {"git_commit": checkout.name, "python": "3", "numpy": "1", "nproc": 2,
                   "platform": "linux"}
            return {"environment": env, "fingerprints": {"seed": seed},
                    "result": {"failed": 0, "attempted": 3,
                               "metrics": {"wall_s": {"value": 1.0}}}}
        monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)

        code = bench_pairs.main(["--parent", str(checkouts["parent"]),
                                 "--change", str(checkouts["change"]),
                                 "--workload", "w", "--seeds", "501", "502", "503",
                                 "--seconds", "1", "--traced-seed", "5", "--pr", "99"])
        assert code == 1
        entry = json.loads((checkouts["change"] / "BENCH_99.json").read_text())["workloads"]["w"]
        assert [p["seed"] for p in entry["pairs"]] == [501]
        assert entry["summary"]["wall_s"]["pairs"] == 1
        failed = entry["failed_run"]
        # seed 502 runs the change first
        assert {k: failed[k] for k in ("side", "seed", "trace", "returncode")} == \
            {"side": "change", "seed": 502, "trace": 0, "returncode": 3}
        assert failed["stderr_tail"][-1] == "ValueError: boom"
        assert len(failed["stderr_tail"]) == 20
        assert "traced_seed_5" not in entry


class TestTracedDiff:
    def test_lists_moved_exact_metrics(self, tmp_path, monkeypatch, capsys):
        checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
        for path in checkouts.values():
            path.mkdir()
        (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps({
            "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "calls", "unit": "count", "better": "lower"},
                          {"name": "useful", "unit": "ratio", "better": "higher"},
                          {"name": "same", "unit": "count", "better": "lower"},
                          {"name": "self_s", "unit": "s", "better": "lower"}]}))
        traced = {"parent": {"calls": 10, "useful": 1.0, "same": 3, "self_s": 0.5},
                  "change": {"calls": 15, "useful": 0.67, "same": 3, "self_s": 0.7}}

        def fake_run_bench(checkout, workload, seed, seconds, trace):
            env = {"git_commit": checkout.name, "python": "3", "numpy": "1", "nproc": 2,
                   "platform": "linux"}
            metrics = {"wall_s": 1.0, **(traced[checkout.name] if trace else {})}
            return {"environment": env, "fingerprints": {"seed": seed},
                    "result": {"failed": 0, "attempted": 3,
                               "metrics": {k: {"value": v} for k, v in metrics.items()}}}
        monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)

        code = bench_pairs.main(["--parent", str(checkouts["parent"]),
                                 "--change", str(checkouts["change"]),
                                 "--workload", "w", "--seeds", "501", "502",
                                 "--seconds", "1", "--traced-seed", "5", "--pr", "99"])
        assert code == 0
        entry = json.loads((checkouts["change"] / "BENCH_99.json").read_text())["workloads"]["w"]
        # timings move on every run; only counts and ratios are compared
        assert entry["traced_diff"] == {"calls": {"parent": 10, "change": 15},
                                        "useful": {"parent": 1.0, "change": 0.67}}
        out = capsys.readouterr().out
        assert "w traced calls: parent 10 change 15" in out
        assert "traced same" not in out and "traced self_s" not in out


class TestClaimReport:
    def test_no_gain_says_which_conditions_failed(self, tmp_path, monkeypatch, capsys):
        checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
        for path in checkouts.values():
            path.mkdir()
        (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
        walls = dict(zip(range(501, 511), PARENT))

        def fake_run_bench(checkout, workload, seed, seconds, trace):
            # the change is 0.01 s faster on every pair: inside the parent's IQR
            wall = walls[seed] - (0.01 if checkout.name == "change" else 0.0)
            env = {"git_commit": checkout.name, "python": "3", "numpy": "1", "nproc": 2,
                   "platform": "linux"}
            return {"environment": env, "fingerprints": {"seed": seed},
                    "result": {"failed": 0, "attempted": 3,
                               "metrics": {"wall_s": {"value": wall}}}}
        monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)

        code = bench_pairs.main(["--parent", str(checkouts["parent"]),
                                 "--change", str(checkouts["change"]), "--workload", "w",
                                 "--seeds", *map(str, walls), "--seconds", "1",
                                 "--claim", "wall_s", "--pr", "99"])
        assert code == 0
        summary = json.loads((checkouts["change"] / "BENCH_99.json").read_text())[
            "workloads"]["w"]["summary"]["wall_s"]
        assert summary["verdict"] == "no gain"
        assert summary["gain_shortfalls"] == [
            "median gap 0.01 at or below the parent's IQR 0.045"]
        assert capsys.readouterr().out.splitlines()[0].endswith(
            "10/10 pairs: no gain; median gap 0.01 at or below the parent's IQR 0.045")


class TestByteCompile:
    def test_both_checkouts_compiled_before_the_first_run(self, tmp_path, monkeypatch):
        checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
        for path in checkouts.values():
            for name in ("src", "bench"):
                (path / name).mkdir(parents=True)
                (path / name / "mod.py").write_text("X = 1\n")
        (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
        # as under PYTHONDONTWRITEBYTECODE=1: no import writes a .pyc
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        compiled_at_run = []

        def fake_run_bench(checkout, workload, seed, seconds, trace):
            compiled_at_run.append(all(
                list((path / name / "__pycache__").glob("mod.*.pyc"))
                for path in checkouts.values() for name in ("src", "bench")))
            env = {"git_commit": checkout.name, "python": "3", "numpy": "1", "nproc": 2,
                   "platform": "linux"}
            return {"environment": env, "fingerprints": {"seed": seed},
                    "result": {"failed": 0, "attempted": 3,
                               "metrics": {"wall_s": {"value": 1.0}}}}
        monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)

        assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                                 "--change", str(checkouts["change"]), "--workload", "w",
                                 "--seeds", "501", "--seconds", "1", "--pr", "99"]) == 0
        assert compiled_at_run == [True, True]
        doc = json.loads((checkouts["change"] / "BENCH_99.json").read_text())
        assert "byte-compiled" in doc["description"]
