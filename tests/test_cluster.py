import math

import pytest

from splitsim import (
    Cluster,
    ClusterConfig,
    ConfigurationError,
    DESIGNS,
    PRESETS,
    SchedulerConfig,
    Simulator,
    Task,
    generate_trace,
    get_calibration,
)
from splitsim.machine import MIXED, PROMPT, TOKEN


def models_for(config):
    return {mt: get_calibration("llama2-70b", mt)
            for mt in (config.prompt_type, config.token_type)}


def make_cluster(design="Splitwise-HH", p=2, t=2, sched=None):
    cfg = ClusterConfig(design, p, t, sched=sched or SchedulerConfig())
    return Cluster(cfg, models_for(cfg))


class TestDesigns:
    def test_table(self):
        assert DESIGNS["Baseline-A100"] == ("A100", "A100", True)
        assert DESIGNS["Baseline-H100"] == ("H100", "H100", True)
        assert DESIGNS["Splitwise-AA"] == ("A100", "A100", False)
        assert DESIGNS["Splitwise-HH"] == ("H100", "H100", False)
        assert DESIGNS["Splitwise-HHcap"] == ("H100", "H100cap", False)
        assert DESIGNS["Splitwise-HA"] == ("H100", "A100", False)

    def test_case_insensitive(self):
        assert ClusterConfig("splitwise-hh", 1, 1).design == "Splitwise-HH"

    def test_unknown_design(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig("Splitwise-XY", 1, 1)

    def test_needs_machines(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig("Splitwise-HH", 0, 0)
        with pytest.raises(ConfigurationError):
            ClusterConfig("Splitwise-HH", -1, 2)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.inf, math.nan])
    def test_repurpose_window_finite_and_positive(self, window):
        assert ClusterConfig("Splitwise-HH", 1, 1).repurpose_window_s is None  # off
        with pytest.raises(ConfigurationError):
            ClusterConfig("Splitwise-HH", 1, 1, repurpose_window_s=window)

    def test_baseline_single_count(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig("Baseline-A100", 3, 2)
        assert ClusterConfig("Baseline-A100", 3, 0).prompt_machines == 3


class TestPools:
    def test_initial_pools(self):
        c = make_cluster(p=2, t=3)
        assert len(c.pool(PROMPT)) == 2
        assert len(c.pool(TOKEN)) == 3
        assert len(c.pool(MIXED)) == 0

    def test_baseline_all_mixed(self):
        c = make_cluster("Baseline-A100", p=3, t=0)
        assert len(c.pool(MIXED)) == 3
        assert all(m.home_role == MIXED for m in c.machines.values())

    def test_hhcap_token_machines(self):
        c = make_cluster("Splitwise-HHcap", p=1, t=1)
        assert c.machines[0].perf.machine_type == "H100"
        assert c.machines[1].perf.machine_type == "H100cap"

    def test_default_transfer_from_design(self):
        cfg = ClusterConfig("Splitwise-HA", 1, 1)
        Cluster(cfg, models_for(cfg))
        assert cfg.transfer.bandwidth == 200e9  # slow side bounds the link
        cfg2 = ClusterConfig("Splitwise-HH", 1, 1)
        Cluster(cfg2, models_for(cfg2))
        assert cfg2.transfer.bandwidth == 400e9

    def test_transfer_layers_from_llm(self):
        cfg = ClusterConfig("Splitwise-HH", 1, 1, llm="bloom-176b")
        assert cfg.transfer.num_layers == 70
        with pytest.raises(ConfigurationError):
            ClusterConfig("Splitwise-HH", 1, 1, llm="gpt-x")
        assert ClusterConfig("Baseline-H100", 1, 0, llm="gpt-x").transfer is None


class TestRouting:
    def test_argmin_by_pending_tokens(self):
        c = make_cluster(p=2, t=1)
        c.machines[0].enqueue(Task(50, PROMPT, 3000, 0.0, 1))
        c.machines[1].enqueue(Task(51, PROMPT, 500, 0.0, 1))
        assert c.route()[0] == 1

    def test_tie_breaks_by_lowest_id(self):
        c = make_cluster(p=3, t=1)
        assert c.route() == (0, 3)

    def test_both_machines_assigned_at_arrival(self):
        c = make_cluster(p=2, t=2)
        prompt_machine, token_machine = c.route()
        assert prompt_machine in (0, 1)
        assert token_machine in (2, 3)

    def test_baseline_routes_to_same_machine(self):
        c = make_cluster("Baseline-A100", p=3, t=0)
        prompt_machine, token_machine = c.route()
        assert prompt_machine == token_machine

    def test_overflow_to_opposite_pool(self):
        sched = SchedulerConfig(queue_threshold_tokens=100)
        c = make_cluster(p=1, t=1, sched=sched)
        c.machines[0].enqueue(Task(50, PROMPT, 5000, 0.0, 1))
        assert c.route()[0] == 1  # token machine takes the prompt

    def test_all_saturated_falls_back_to_global_argmin(self):
        sched = SchedulerConfig(queue_threshold_tokens=10)
        c = make_cluster(p=1, t=1, sched=sched)
        c.machines[0].enqueue(Task(50, PROMPT, 500, 0.0, 1))
        c.machines[1].enqueue(Task(51, PROMPT, 400, 0.0, 1))
        c.machines[1].note_pool_change(MIXED, 0.0)
        assert c.route()[0] == 1


class TestPoolTransitions:
    def test_opposite_enqueue_moves_to_mixed(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]  # token home
        m.enqueue(Task(5, PROMPT, 100, 0.0, 1))
        transitions = c.note_enqueue(m, PROMPT, 0.0)
        assert transitions == [(0.0, 1, TOKEN, MIXED)]
        assert m.current_pool == MIXED

    def test_same_kind_enqueue_no_transition(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[0]
        m.enqueue(Task(5, PROMPT, 100, 0.0, 1))
        assert c.note_enqueue(m, PROMPT, 0.0) == []

    def test_update_pools_returns_home(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]
        m.enqueue(Task(5, PROMPT, 100, 0.0, 1))
        c.note_enqueue(m, PROMPT, 0.0)
        assert c.update_pools(1.0, [1]) == []  # opposite work still queued
        batch = m.form_batch()
        m.running = batch
        m.complete_iteration()
        assert c.update_pools(50.0, [1]) == [(50.0, 1, MIXED, TOKEN)]
        assert m.current_pool == TOKEN

    def test_pool_partition(self):
        c = make_cluster(p=2, t=2)
        assert {m.current_pool for m in c.machines.values()} <= {PROMPT, TOKEN, MIXED}
        total = sum(len(c.pool(name)) for name in (PROMPT, TOKEN, MIXED))
        assert total == len(c.machines)


class TestRepurpose:
    def test_flips_home_role_when_mostly_mixed(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]
        m.note_pool_change(MIXED, 0.0)
        assert c.repurpose(100.0, window=100.0) == ([(100.0, 1, TOKEN, PROMPT)], [])
        assert m.home_role == PROMPT

    def test_no_flip_below_fraction(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]
        m.note_pool_change(MIXED, 80.0)  # 20% of the window
        assert c.repurpose(100.0, window=100.0) == ([], [])
        assert m.home_role == TOKEN

    def test_residency_resets_each_window(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]
        m.note_pool_change(MIXED, 0.0)
        m.note_pool_change(TOKEN, 60.0)
        c.repurpose(100.0, window=100.0)  # 60% -> flips
        assert m.home_role == PROMPT
        assert c.repurpose(200.0, window=100.0) == ([], [])  # fresh window

    def test_flip_with_old_kind_work_goes_mixed(self):
        c = make_cluster(p=1, t=1)
        m = c.machines[1]
        m.note_pool_change(MIXED, 0.0)
        m.note_pool_change(TOKEN, 60.0)
        m.enqueue(Task(5, TOKEN, 100, 60.0, 1))
        # the new prompt pool would never run the token task
        assert c.repurpose(100.0, window=100.0) == ([(100.0, 1, TOKEN, PROMPT)],
                                                    [(100.0, 1, TOKEN, MIXED)])
        assert c.update_pools(100.0, [1]) == []
        batch = m.form_batch()
        m.running = batch
        m.complete_iteration()
        assert c.update_pools(131.0, [1]) == [(131.0, 1, MIXED, PROMPT)]

    def test_repurposing_strands_no_work(self):
        config = ClusterConfig("Splitwise-HH", 2, 1,
                               sched=SchedulerConfig(queue_threshold_tokens=256),
                               repurpose_window_s=2.0)
        dists = PRESETS["conversation"]
        trace = generate_trace(dists["prompt"], dists["output"], 6.0, 20.0, seed=7)
        res = Simulator(config, models_for(config), trace).run()  # stranded: HorizonExceeded
        assert all(r.completion is not None for r in res.report.records)
        flip_times = {t for t, _, kind, _ in res.event_log if kind == "pool_maintenance"}
        assert any(kind == "pool_transition" and t in flip_times and fields[1] != MIXED
                   for t, _, kind, fields in res.event_log)
