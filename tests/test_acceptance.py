"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the same condition.
"""

import dataclasses
import time as wallclock

import numpy as np

from splitsim import (
    ClusterConfig,
    PRESETS,
    ProfileSample,
    Request,
    SchedulerConfig,
    Simulator,
    Trace,
    TransferConfig,
    Workload,
    budget_max_count,
    fit_piecewise_linear,
    generate_trace,
    get_calibration,
    max_throughput,
    plan_transfer,
    raw_transfer_time,
    search,
    SearchSpec,
)
from splitsim.cli import main as cli_main
from splitsim.machine import MIXED, PROMPT, TOKEN
from splitsim.perf import _piecewise_eval


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def h100_models():
    return {"H100": get_calibration("llama2-70b", "H100")}


def models_for(config):
    return {mt: get_calibration("llama2-70b", mt)
            for mt in {config.prompt_type, config.token_type}}


def test_01_determinism(tmp_path):
    """Identical config/trace/seed -> byte-identical logs and metric CSVs."""
    trace = tmp_path / "trace.csv"
    assert cli_main(["gen-trace", "--preset", "coding", "--rate", "3",
                     "--duration", "30", "--seed", "7", "--output", str(trace)]) == 0
    outputs = []
    for d in ("run1", "run2"):
        outdir = tmp_path / d
        cli_main(["simulate", "--trace", str(trace), "--design", "Splitwise-HH",
                  "--prompt-machines", "2", "--token-machines", "1",
                  "--output-dir", str(outdir), "--event-log"])
        outputs.append({f: (outdir / f).read_bytes()
                        for f in ("requests.csv", "tbt.csv", "summary.csv", "events.csv")})
    report(1, "determinism", outputs[0] == outputs[1])


def test_02_fit_fidelity():
    """Holdout MAPE < 3% on noisy synthetic ground truth, 20 seeds."""
    px, py = np.array([1, 64, 256, 1024, 4096], float), np.array([10, 30, 80, 260, 900], float)
    tx, ty = np.array([1, 4, 16, 64], float), np.array([50, 52, 60, 100], float)
    ok = True
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(seed))
        samples = []
        for _ in range(200):
            x = int(rng.integers(1, 4096))
            y = _piecewise_eval(x, px, py) * (1 + 0.01 * (2 * rng.random() - 1))
            samples.append(ProfileSample("A100", "synthetic", x, 0, y, 1e6 + 500.0 * x))
        for _ in range(100):
            b = int(rng.integers(1, 64))
            y = _piecewise_eval(b, tx, ty) * (1 + 0.01 * (2 * rng.random() - 1))
            samples.append(ProfileSample("A100", "synthetic", 0, b, y, 0.0))
        _, rep = fit_piecewise_linear(samples, knot_budget=32,
                                      holdout_fraction=0.2, seed=seed)
        ok = ok and rep.holdout_mape is not None and rep.holdout_mape < 3.0
    report(2, "performance model fidelity", ok)


def test_03_single_request_oracle():
    """One Baseline-H100 machine, (1500, 13): engine matches closed form exactly."""
    m = get_calibration("llama2-70b", "H100")
    res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                    Trace([Request(0, 0.0, 1500, 13)], duration=1.0)).run()
    rec = res.report.records[0]
    ok = (rec.ttft_ms == m.prompt_time(1500)
          and rec.e2e_ms == m.prompt_time(1500) + 12 * m.token_iter_time(1))
    report(3, "single-request analytic oracle", ok)


def test_04_transfer_overlap():
    """Layer-wise visibility across the [512, 4096] prompt range."""
    m = get_calibration("llama2-70b", "H100")
    cfg = TransferConfig(400e9, 512, 5.0, 80)
    ok = True
    for tokens in range(512, 4097, 32):
        kv = m.kv_cache_bytes(tokens)
        compute = m.prompt_time(tokens)
        plan = plan_transfer(tokens, kv, compute, cfg)
        serial = plan_transfer(tokens, kv, compute,
                               dataclasses.replace(cfg, mode_threshold_tokens=tokens + 1))
        raw = raw_transfer_time(kv, cfg)
        window = compute * (1 - 1 / 80)
        if raw <= window:
            ok = ok and plan.visible_latency == 5.0
        ok = ok and plan.visible_latency <= serial.visible_latency
        ok = ok and plan.visible_latency <= 0.07 * compute
    report(4, "transfer overlap", ok)


def test_05_second_token_overhead_direction():
    """Serialized transfer hurts the second token >= 2x more than layer-wise."""
    models = h100_models()
    trace = Trace([Request(0, 0.0, 1500, 13)], duration=1.0)
    base_gap = models["H100"].token_iter_time(1)

    def second_gap(threshold):
        cfg = ClusterConfig("Splitwise-HH", 1, 1,
                            transfer=TransferConfig(400e9, threshold, 5.0, 80))
        res = Simulator(cfg, models, trace).run()
        return res.report.records[0].tbt_ms()[0]

    layerwise_overhead = second_gap(512) - base_gap
    serialized_overhead = second_gap(1 << 20) - base_gap
    report(5, "second-token overhead direction",
           serialized_overhead >= 2.0 * layerwise_overhead > 0.0)


def test_06_iso_power_machine_count():
    """Power budget of 40 H100 machines fits exactly 70 A100 machines."""
    report(6, "iso-power machine count",
           budget_max_count("Baseline-A100", 40 * 1.75, "power") == 70)


def _replay_routing(result, config):
    """Recompute every routing decision from the event log alone."""
    n_p, n_t = config.prompt_machines, config.token_machines
    if config.is_baseline:
        pool = {i: MIXED for i in range(n_p)}
    else:
        pool = {i: (PROMPT if i < n_p else TOKEN) for i in range(n_p + n_t)}
    pending = {i: 0 for i in pool}
    threshold = config.sched.queue_threshold_tokens

    def argmin(ids):
        return min(ids, key=lambda m: (pending[m], m)) if ids else None

    def pick(role):
        opposite = TOKEN if role == PROMPT else PROMPT
        for name in (role, MIXED, opposite):
            best = argmin([m for m in pool if pool[m] == name])
            if best is not None and pending[best] <= threshold:
                return best
        return argmin(list(pool))

    for (_t, _seq, kind, fields) in result.event_log:
        if kind == "request_arrival":
            _rid, _prompt, _output, prompt_machine, token_machine = fields
            if config.is_baseline:
                expect_p = expect_t = argmin(list(pool))
            else:
                expect_p, expect_t = pick(PROMPT), pick(TOKEN)
            if (prompt_machine, token_machine) != (expect_p, expect_t):
                return False
        elif kind == "task_enqueued":
            m, _rid, task_kind, tokens = fields
            pending[m] += tokens if task_kind == PROMPT else 1
        elif kind == "prompt_finished":
            _rid, m, tokens = fields
            pending[m] -= tokens
        elif kind == "request_finished":
            _rid, m, task_kind = fields
            if task_kind == TOKEN:
                pending[m] -= 1
        elif kind == "pool_transition":
            m, _old, new = fields
            pool[m] = new
    return True


def test_07_jsq_oracle():
    """Routing matches a brute-force argmin replay on 3-machine clusters."""
    layouts = [("Splitwise-HH", 2, 1), ("Splitwise-HH", 1, 2),
               ("Splitwise-AA", 2, 1), ("Splitwise-HA", 1, 2),
               ("Baseline-A100", 3, 0), ("Baseline-H100", 3, 0)]
    thresholds = [256, 1024, 4096]
    p, o = PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"]
    ok = True
    for seed in range(50):
        design, pc, tc = layouts[seed % len(layouts)]
        sched = SchedulerConfig(queue_threshold_tokens=thresholds[seed % 3])
        rate = 1.0 + (seed % 5)
        trace = generate_trace(p, o, rate, 200.0 / rate, seed=seed)
        config = ClusterConfig(design, pc, tc, sched=sched)
        res = Simulator(config, models_for(config), trace).run()
        ok = ok and _replay_routing(res, config)
    report(7, "JSQ routing oracle", ok)


class _CheckedSimulator(Simulator):
    """Simulator that asserts machine invariants after every event."""

    def _dispatch(self, time):
        super()._dispatch(time)
        for m in self.cluster.machines.values():
            assert m.memory_used() <= m.perf.memory_capacity + 1e-6
        assert {m.current_pool for m in self.cluster.machines.values()} <= {PROMPT, TOKEN, MIXED}


def test_08_scheduler_invariants():
    """Memory, batch caps, preemption limits, and latency bookkeeping."""
    matrix = [("Baseline-A100", 2, 0, "conversation", 2.0),
              ("Baseline-H100", 2, 0, "coding", 2.0),
              ("Splitwise-AA", 2, 2, "conversation", 3.0),
              ("Splitwise-HH", 2, 1, "coding", 2.0),
              ("Splitwise-HHcap", 2, 2, "conversation", 3.0),
              ("Splitwise-HA", 2, 2, "conversation", 2.0)]
    ok = True
    for design, pc, tc, preset, rate in matrix:
        for seed in (1, 2):
            p, o = PRESETS[preset]["prompt"], PRESETS[preset]["output"]
            trace = generate_trace(p, o, rate, 40.0, seed=seed)
            config = ClusterConfig(design, pc, tc)
            res = _CheckedSimulator(config, models_for(config), trace).run()
            sizes = {r.id: r.prompt_tokens for r in trace.requests}
            for (_t, _s, kind, fields) in res.event_log:
                if kind != "batch_started":
                    continue
                _machine, _batch_kind, ids, _tokens, _iter_ms = fields
                if len(ids) > 1:
                    ok = ok and sum(sizes[i] for i in ids) <= \
                        config.sched.prompt_token_cap
            for rec in res.report.records:
                ok = ok and rec.preempt_count <= config.sched.max_preemptions
                ok = ok and rec.completion is not None
                ok = ok and abs(rec.e2e_ms - (rec.ttft_ms + sum(rec.tbt_ms()))) < 1e-6
            ok = ok and len(res.report.records) == len(trace.requests)
    report(8, "scheduler invariants", ok)


def test_09_qualitative_cluster_results():
    """Phase splitting beats mixed batching at iso-power and iso-cost."""
    w = Workload(PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"])
    seeds = (1, 2)

    # (a) iso-power: 8 A100 machines either way
    base_a = max_throughput("Baseline-A100", 8, 0, w, duration=120.0, seeds=seeds)
    aa_power = max(max_throughput("Splitwise-AA", p, t, w, duration=120.0, seeds=seeds)
                   for (p, t) in ((5, 3), (4, 4)))
    ok_a = aa_power >= 1.3 * base_a

    # (b) iso-cost: 4 H100 machines (cost 9.4) vs 9 A100 machines (cost 9)
    base_h = max_throughput("Baseline-H100", 4, 0, w, duration=120.0, seeds=seeds)
    aa_cost = max(max_throughput("Splitwise-AA", p, t, w, duration=120.0, seeds=seeds)
                  for (p, t) in ((5, 4), (4, 5)))
    ok_b = aa_cost >= 1.1 * base_h

    # (c) high load: mixed batching inflates the P99 token-gap slowdown
    def p99_tbt_ratio(design, pc, tc, rate):
        trace = generate_trace(w.prompt_dist, w.output_dist, rate, 120.0, 1)
        config = ClusterConfig(design, pc, tc)
        res = Simulator(config, models_for(config), trace,
                        reference_model=get_calibration("llama2-70b", "A100"),
                        record_log=False).run()
        return [c["observed_ratio"] for c in res.report.slo["constraints"]
                if c["metric"] == "TBT" and c["percentile"] == 0.99][0]

    ok_c = p99_tbt_ratio("Baseline-H100", 4, 0, 4.0) > \
        p99_tbt_ratio("Splitwise-HH", 2, 2, 4.0)

    report(9, "qualitative cluster results", ok_a and ok_b and ok_c)


def test_10_provisioning_shape():
    """Cost-optimal Splitwise-HH at a 70 RPS coding target is prompt-heavy."""
    w = Workload(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"])
    spec = SearchSpec(design="Splitwise-HH", objective="min_cost",
                      constraint="throughput_target", budget=70.0,
                      prompt_counts=list(range(20, 27)), token_counts=[2, 3],
                      workload=w, trace_duration=120.0, seeds=(1, 2, 3))
    result = search(spec)
    o = result.optimum
    ok = (o is not None
          and o.prompt_count / o.token_count >= 4.0
          and 24 <= o.total_machines <= 36)
    if o is not None:
        print(f"  optimum: {o.prompt_count} prompt / {o.token_count} token machines")
    report(10, "provisioning shape", ok)


def test_11_throughput_scaling():
    """84k requests simulate in < 60 s; doubling machines never hurts."""
    p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
    trace = generate_trace(p, o, 70.0, 1200.0, seed=1)
    start = wallclock.perf_counter()
    Simulator(ClusterConfig("Splitwise-HH", 27, 3), h100_models(), trace,
              record_log=False).run()
    elapsed = wallclock.perf_counter() - start
    ok = elapsed < 60.0 and len(trace.requests) > 80000

    w = Workload(p, o)
    rates = [max_throughput("Splitwise-HH", pc, tc, w, duration=120.0, seeds=(1, 2))
             for (pc, tc) in ((3, 1), (6, 2), (12, 4))]
    ok = ok and rates[0] <= rates[1] <= rates[2]
    print(f"  84k-request wall time: {elapsed:.1f} s; scaling {rates}")
    report(11, "throughput scaling", ok)
