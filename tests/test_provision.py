import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitsim

from splitsim import (
    ConfigurationError,
    DesignPoint,
    HorizonExceeded,
    InvariantError,
    PRESETS,
    SearchSpec,
    Simulator,
    SloTable,
    Workload,
    budget_max_count,
    design_cost_power,
    machine_cost_power,
    max_throughput,
    search,
    slo_pass_at_rate,
)
from splitsim import provision
from splitsim.provision import _pareto_front, results_csv


def conversation_workload():
    return Workload(PRESETS["conversation"]["prompt"],
                    PRESETS["conversation"]["output"])


class TestCostPower:
    @pytest.mark.parametrize("design, role, expected", [
        ("Baseline-A100", "prompt", (1.0, 1.0)),
        ("Baseline-A100", "token", (1.0, 1.0)),
        ("Baseline-H100", "prompt", (2.35, 1.75)),
        ("Baseline-H100", "token", (2.35, 1.75)),
        ("Splitwise-AA", "prompt", (1.0, 1.0)),
        ("Splitwise-AA", "token", (1.0, 1.0)),
        ("Splitwise-HH", "prompt", (2.35, 1.75)),
        ("Splitwise-HH", "token", (2.5, 1.75)),
        ("Splitwise-HHcap", "prompt", (2.35, 1.75)),
        ("Splitwise-HHcap", "token", (2.5, 1.23)),
        ("Splitwise-HA", "prompt", (2.35, 1.75)),
        ("Splitwise-HA", "token", (1.0, 1.0)),
    ])
    def test_table(self, design, role, expected):
        assert machine_cost_power(design, role) == expected

    def test_design_totals(self):
        cost, power = design_cost_power("Splitwise-HH", 27, 3)
        assert cost == pytest.approx(27 * 2.35 + 3 * 2.5)
        assert power == pytest.approx(30 * 1.75)

    def test_bad_role(self):
        with pytest.raises(ConfigurationError):
            machine_cost_power("Splitwise-HH", "io")


class TestBudgetCount:
    def test_iso_power_forty_h100(self):
        # 40 H100 machines provision 40 * 1.75 = 70 power units; at 1.0 per
        # A100 machine that budget fits exactly 70 machines
        budget = 40 * 1.75
        assert budget_max_count("Baseline-A100", budget, "power") == 70

    def test_iso_cost(self):
        budget = 4 * 2.35
        assert budget_max_count("Baseline-A100", budget, "cost") == 9

    def test_exact_boundary(self):
        assert budget_max_count("Baseline-H100", 1.75, "power") == 1
        assert budget_max_count("Baseline-H100", 1.74, "power") == 0

    def test_unknown_kind(self):
        # not read as a cost budget: that would fit 2 machines, power fits 4
        with pytest.raises(ConfigurationError):
            budget_max_count("Baseline-H100", 7, "Power")


class TestSearchSpec:
    def _spec(self, **kw):
        base = dict(design="Splitwise-AA", objective="max_throughput",
                    constraint="power_budget", budget=4.0,
                    prompt_counts=[1, 2], token_counts=[1, 2],
                    workload=conversation_workload())
        base.update(kw)
        return SearchSpec(**base)

    def test_objective_validation(self):
        with pytest.raises(ConfigurationError):
            self._spec(objective="min_latency")

    def test_constraint_validation(self):
        with pytest.raises(ConfigurationError):
            self._spec(constraint="gpu_budget")

    def test_throughput_both_sides_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(objective="max_throughput", constraint="throughput_target")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(prompt_counts=[])

    def test_empty_seeds_rejected(self):
        # no seed means no probe, and every point would pass vacuously
        with pytest.raises(ConfigurationError):
            self._spec(seeds=())

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ConfigurationError, match="must be finite"):
            self._spec(budget=budget)


class TestThroughputSearch:
    def test_single_machine_feasible(self):
        w = conversation_workload()
        rate = max_throughput("Baseline-A100", 1, 0, w, duration=60.0, seeds=(1,))
        assert rate > 0.0
        assert slo_pass_at_rate("Baseline-A100", 1, 0, w, rate,
                                duration=60.0, seeds=(1,))

    def test_monotone_in_rate(self):
        w = conversation_workload()
        rate = max_throughput("Baseline-A100", 1, 0, w, duration=60.0, seeds=(1,))
        assert not slo_pass_at_rate("Baseline-A100", 1, 0, w, rate * 1.8,
                                    duration=60.0, seeds=(1,))

    def test_overload_fails_slo(self):
        w = conversation_workload()
        assert not slo_pass_at_rate("Baseline-A100", 1, 0, w, 50.0,
                                    duration=60.0, seeds=(1,))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            slo_pass_at_rate("Splitwise-AA", 1, 1, conversation_workload(), 1.0,
                             duration=10.0, seeds=())

    def test_empty_trace_fails_the_probe(self):
        # 0.01 req/s over 10 s draws no request for seeds 1 and 2; a probe
        # that simulates nothing must not pass
        assert not slo_pass_at_rate("Splitwise-AA", 1, 1, conversation_workload(), 0.01,
                                    duration=10.0, seeds=(1, 2))

    @pytest.mark.parametrize("seed", [2, 5])
    def test_empty_traces_do_not_make_a_point_feasible(self, seed):
        # at 1/1 with every multiplier 1.0 every probe with a request fails;
        # the ramp halves down to empty traces, which once passed and left
        # a positive max_rps
        strict = SloTable(ttft=(1.0,) * 3, tbt=(1.0,) * 3, e2e=(1.0,) * 3)
        assert max_throughput("Splitwise-AA", 1, 1, conversation_workload(), duration=30.0,
                              seeds=(seed,), slo=strict) == 0.0

    def test_horizon_overrun_fails_the_probe(self, monkeypatch):
        def overrun(self):
            raise HorizonExceeded("simulation exceeded horizon")
        monkeypatch.setattr(Simulator, "run", overrun)
        assert not slo_pass_at_rate("Baseline-A100", 1, 0, conversation_workload(), 1.0,
                                    duration=10.0, seeds=(1,))

    def test_invariant_failure_propagates(self, monkeypatch):
        # only a horizon overrun means "too much load"; any other failure
        # is a defect and must not read as an SLO fail
        def broken(self):
            raise RuntimeError("machine 0 memory exceeds capacity")
        monkeypatch.setattr(Simulator, "run", broken)
        with pytest.raises(RuntimeError, match="memory"):
            slo_pass_at_rate("Baseline-A100", 1, 0, conversation_workload(), 1.0,
                             duration=10.0, seeds=(1,))


class TestSharedCalibration:
    def test_max_throughput_calibrates_each_type_once(self, monkeypatch):
        # Splitwise-HA runs H100 prompt and A100 token machines, and the
        # reference is an A100: two machine types for the whole search
        calibrated = []
        real_calibration = provision.get_calibration

        def get_calibration(llm, machine_type):
            calibrated.append(machine_type)
            return real_calibration(llm, machine_type)

        monkeypatch.setattr(provision, "get_calibration", get_calibration)
        provision._calibration.cache_clear()
        w = conversation_workload()
        rate = max_throughput("Splitwise-HA", 1, 1, w, duration=10.0, seeds=(1,))
        assert sorted(calibrated) == ["A100", "H100"]
        # a second search in the same process calibrates nothing
        assert max_throughput("Splitwise-HA", 1, 1, w, duration=10.0, seeds=(1,)) == rate
        assert sorted(calibrated) == ["A100", "H100"]

        # fresh models for every probe find the same rate
        monkeypatch.setattr(provision, "_calibration", real_calibration)
        assert max_throughput("Splitwise-HA", 1, 1, w, duration=10.0, seeds=(1,)) == rate
        assert len(calibrated) == 2


class TestPareto:
    def _pt(self, rps, cost, power, ok=True):
        return DesignPoint("Splitwise-AA", 1, 1, rps, cost, power, ok)

    def test_dominated_removed(self):
        a = self._pt(10.0, 5.0, 5.0)
        b = self._pt(8.0, 6.0, 6.0)   # dominated by a
        c = self._pt(12.0, 9.0, 9.0)
        front = _pareto_front([a, b, c])
        assert a in front and c in front and b not in front

    def test_failing_points_excluded(self):
        a = self._pt(10.0, 5.0, 5.0, ok=False)
        assert _pareto_front([a]) == []

    def test_results_csv(self):
        text = results_csv([self._pt(10.0, 5.0, 5.0)])
        lines = text.strip().splitlines()
        assert lines[0] == "design,prompt_count,token_count,max_rps,cost,power,slo_pass"
        assert lines[1].startswith("Splitwise-AA,1,1,10.0000,")


class TestSearch:
    def test_power_budget_filters_grid(self):
        w = conversation_workload()
        spec = SearchSpec(design="Splitwise-AA", objective="max_throughput",
                          constraint="power_budget", budget=3.0,
                          prompt_counts=[1, 2, 3], token_counts=[1, 2, 3],
                          workload=w, trace_duration=60.0, seeds=(1,))
        result = search(spec)
        assert all(p.power <= 3.0 + 1e-9 for p in result.points)
        assert result.optimum is not None
        assert result.optimum.max_rps == max(p.max_rps for p in result.points)

    def test_baseline_grid_is_one_dimensional(self):
        w = conversation_workload()
        spec = SearchSpec(design="Baseline-A100", objective="max_throughput",
                          constraint="power_budget", budget=2.0,
                          prompt_counts=[1, 2], token_counts=[1, 2, 3],
                          workload=w, trace_duration=60.0, seeds=(1,))
        result = search(spec)
        assert all(p.token_count == 0 for p in result.points)
        assert len(result.points) == 2

    def test_infeasible_reported(self):
        w = conversation_workload()
        spec = SearchSpec(design="Splitwise-AA", objective="min_cost",
                          constraint="throughput_target", budget=500.0,
                          prompt_counts=[1], token_counts=[1],
                          workload=w, trace_duration=60.0, seeds=(1,))
        result = search(spec)
        assert result.optimum is None
        assert result.infeasible_reason
        assert result.pareto == []

    def test_min_cost_picks_cheapest_feasible(self):
        w = conversation_workload()
        spec = SearchSpec(design="Splitwise-AA", objective="min_cost",
                          constraint="throughput_target", budget=1.0,
                          prompt_counts=[1, 2], token_counts=[1, 2],
                          workload=w, trace_duration=60.0, seeds=(1,))
        result = search(spec)
        assert result.optimum is not None
        feasible = [p for p in result.points if p.slo_pass]
        assert result.optimum.cost == min(p.cost for p in feasible)


class TestParallelSearch:
    """Grid points scored in forked workers merge to the serial result."""

    def _run(self, monkeypatch, spec, workers):
        monkeypatch.setattr(provision, "_workers", lambda n: min(n, workers))
        result = search(spec)
        assert multiprocessing.active_children() == []
        return result

    def _assert_same(self, monkeypatch, spec):
        serial = self._run(monkeypatch, spec, 1)
        forked = self._run(monkeypatch, spec, 2)
        assert len(serial.points) >= 3
        assert forked.points == serial.points
        assert forked.pareto == serial.pareto
        assert forked.optimum == serial.optimum
        assert results_csv(forked.points, forked.optimum) == \
            results_csv(serial.points, serial.optimum)

    def test_max_throughput_under_power_budget(self, monkeypatch):
        # the largest point comes first and takes longest, so the workers
        # finish out of grid order
        spec = SearchSpec(design="Splitwise-AA", objective="max_throughput",
                          constraint="power_budget", budget=4.0,
                          prompt_counts=[3, 2, 1], token_counts=[2, 1],
                          workload=conversation_workload(), trace_duration=10.0,
                          seeds=(1, 2))
        self._assert_same(monkeypatch, spec)

    def test_min_cost_under_throughput_target(self, monkeypatch):
        spec = SearchSpec(design="Splitwise-AA", objective="min_cost",
                          constraint="throughput_target", budget=1.0,
                          prompt_counts=[1, 2], token_counts=[1, 2],
                          workload=conversation_workload(), trace_duration=30.0,
                          seeds=(1,))
        self._assert_same(monkeypatch, spec)

    def test_one_worker_makes_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        spec = SearchSpec(design="Baseline-A100", objective="max_throughput",
                          constraint="power_budget", budget=3.0,
                          prompt_counts=[1, 2, 3], token_counts=[],
                          workload=conversation_workload(), trace_duration=10.0,
                          seeds=(1,))
        assert len(self._run(monkeypatch, spec, 1).points) == 3

    def test_worker_error_keeps_its_type(self, monkeypatch):
        # the patch is inherited by the forked workers
        def broken(self):
            raise InvariantError("machine 0 memory exceeds capacity")
        monkeypatch.setattr(Simulator, "run", broken)
        monkeypatch.setattr(provision, "_workers", lambda n: min(n, 2))
        spec = SearchSpec(design="Splitwise-AA", objective="max_throughput",
                          constraint="power_budget", budget=4.0,
                          prompt_counts=[1, 2], token_counts=[1, 2],
                          workload=conversation_workload(), trace_duration=10.0,
                          seeds=(1,))
        with pytest.raises(InvariantError, match="memory"):
            search(spec)
        assert multiprocessing.active_children() == []

    def test_worker_cap(self, monkeypatch):
        monkeypatch.setattr(provision.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert [provision._workers(n) for n in (0, 1, 2, 14)] == [0, 1, 2, 2]

    def test_import_loads_no_multiprocessing(self):
        code = ("import sys, splitsim; "
                "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
        src = str(Path(splitsim.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
