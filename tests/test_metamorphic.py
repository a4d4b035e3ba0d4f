"""Metamorphic relations that the engine must satisfy exactly.

Every other check compares the engine with itself or with a statistical
bound that a few-ms defect slips under.  These compare two runs whose
outputs must relate in a known way (Chen, Cheung and Yiu, "Metamorphic
testing: a new approach for generating next test cases", HKUST-CS98-01,
1998).

Relation 1, time scaling.  Multiply every time input by ``c``: the trace's
arrivals and duration, both knot ordinates of every model (the reference
included), ``layerwise_constant_ms`` and the horizon, and divide the link
bandwidth by ``c``.  Then every TTFT, E2E and TBT gap is exactly ``c``
times the original, routing, preemptions, utilization and every verdict
field are equal, and every log row keeps its kind and sequence number, with
its times times ``c``.  A probe that stops raises the same ``SloViolated``
fields, its time times ``c``.  ``c`` is a power of two, so scaling only
shifts the exponent: every sum, difference, product, quotient and
comparison the engine makes commutes with it, bit for bit.  A factor such
as 3 would not be exact, and is not drawn.

Relation 2, independence across a drain.  Run trace A, then trace B
shifted by 1024 s, after A has drained.  Each request matches its separate
run to 1e-9 relative (the shifted clock rounds at a larger exponent), with
the same routing and preemptions.  This catches state that survives an
idle cluster: pool membership, JSQ counters, iteration ends and windows.

The cases, the factors and the bounds were fixed before the first run.
"""

import dataclasses
import functools

import pytest

from splitsim import (DESIGNS, PRESETS, ClusterConfig, Request, SchedulerConfig, Simulator,
                      SloViolated, Trace, generate_trace, get_calibration)

FACTORS = (2.0, 0.5, 4.0)
DURATION = 20.0  # s, of each case's trace
HORIZON = DURATION + 600.0  # s, as the engine's default for the original trace
SHIFT = 1024.0  # s, between trace A and trace B in relation 2
RATES = {"coding": 3.0, "conversation": 2.0}  # req/s

# (design, prompt machines, token machines, llm, mixing rule, preset)
CASES = [(design, 2, 0 if DESIGNS[design][2] else 1, "llama2-70b", "sum", preset)
         for design in sorted(DESIGNS) for preset in sorted(RATES)]
CASES += [("Splitwise-HH", 2, 1, "bloom-176b", "sum", "coding"),
          ("Baseline-H100", 2, 0, "llama2-70b", "max", "conversation"),
          ("Splitwise-HA", 2, 1, "llama2-70b", "max", "coding")]


def case_id(case):
    design, prompt_machines, token_machines, llm, rule, preset = case
    return f"{design}-{prompt_machines}/{token_machines}-{llm}-{rule}-{preset}"


def config_of(case, c=1.0):
    """The case's cluster, its link scaled by ``c`` (bandwidth divided)."""
    design, prompt_machines, token_machines, llm, rule, _ = case
    config = ClusterConfig(design, prompt_machines, token_machines, llm=llm,
                           sched=SchedulerConfig(mixing_rule=rule))
    if config.transfer is not None:
        link = config.transfer
        config.transfer = dataclasses.replace(
            link, bandwidth=link.bandwidth / c, layerwise_constant_ms=link.layerwise_constant_ms * c)
    return config


def scaled_model(model, c):
    """The model with both knot ordinates times ``c``."""
    (px, py), (tx, ty) = model.prompt_knots, model.token_knots
    return dataclasses.replace(model, prompt_knots=(px, py * c), token_knots=(tx, ty * c))


def trace_of(preset, rate, seed, duration=DURATION):
    dists = PRESETS[preset]
    return generate_trace(dists["prompt"], dists["output"], rate, duration, seed)


def scaled_trace(trace, c, shift=0.0, id_offset=0):
    """The trace with its arrivals and duration times ``c``, then shifted."""
    return Trace([Request(r.id + id_offset, r.arrival * c + shift, r.prompt_tokens,
                          r.output_tokens) for r in trace.requests],
                 trace.duration * c + shift)


def simulate(case, trace, c=1.0, record_log=False, horizon=HORIZON, **kwargs):
    """Run ``trace`` on the case's cluster with every model and the link
    scaled by ``c``, and the horizon ``horizon * c``."""
    config = config_of(case, c)
    llm = config.llm
    models = {mt: scaled_model(get_calibration(llm, mt), c)
              for mt in {config.prompt_type, config.token_type}}
    reference = scaled_model(get_calibration(llm, "A100"), c)
    return Simulator(config, models, trace, reference_model=reference, record_log=record_log,
                     horizon=horizon * c, **kwargs).run()


@functools.cache
def original(case, record_log):
    return simulate(case, trace_of(case[5], RATES[case[5]], 1), record_log=record_log)


@pytest.mark.parametrize("c", FACTORS)
@pytest.mark.parametrize("record_log", [False, True])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_time_scaling_is_exact(case, record_log, c):
    base = original(case, record_log)
    trace = scaled_trace(trace_of(case[5], RATES[case[5]], 1), c)
    scaled = simulate(case, trace, c, record_log=record_log)

    assert len(scaled.report.records) == len(base.report.records) > 0
    for a, b in zip(base.report.records, scaled.report.records):
        assert b.request.id == a.request.id
        assert (b.prompt_machine, b.token_machine, b.preempt_count) == \
            (a.prompt_machine, a.token_machine, a.preempt_count)
        assert b.ttft_ms == a.ttft_ms * c
        assert b.e2e_ms == a.e2e_ms * c
        assert b.transfer_visible_ms == a.transfer_visible_ms * c
        assert b.tbt_ms() == [gap * c for gap in a.tbt_ms()]
    assert scaled.report.utilization == base.report.utilization
    assert scaled.report.slo == base.report.slo

    assert len(scaled.event_log) == len(base.event_log)
    for (t, seq, kind, fields), row in zip(base.event_log, scaled.event_log):
        # a float field is a time (iter_ms, visible_ms); the rest are ids,
        # kinds and token counts
        assert row == (t * c, seq, kind,
                       tuple(f * c if isinstance(f, float) else f for f in fields))


def probe_stop(c):
    """The ``SloViolated`` of an overloaded Splitwise-AA 1/1 probe, scaled by ``c``."""
    case = ("Splitwise-AA", 1, 1, "llama2-70b", "sum", "conversation")
    trace = scaled_trace(trace_of("conversation", 20.0, 1, duration=120.0), c)
    with pytest.raises(SloViolated) as info:
        simulate(case, trace, c, horizon=720.0, stop_on_slo_fail=True)
    err = info.value
    return err.metric, err.percentile, err.exceeded, err.allowed, err.time_ms


@pytest.mark.parametrize("c", FACTORS)
def test_time_scaling_keeps_the_probe_stop(c):
    metric, p, exceeded, allowed, time_ms = probe_stop(1.0)
    assert metric == "E2E"
    assert probe_stop(c) == (metric, p, exceeded, allowed, time_ms * c)


@pytest.mark.parametrize("record_log", [False, True])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_runs_separated_by_a_drain_are_independent(case, record_log):
    preset = case[5]
    first, second = (trace_of(preset, RATES[preset], seed) for seed in (1, 2))
    a = original(case, record_log)
    b = simulate(case, second, record_log=record_log)
    assert max(r.completion for r in a.report.records) < SHIFT * 1000.0  # A has drained
    shifted = scaled_trace(second, 1.0, SHIFT, id_offset=len(first.requests))
    both = simulate(case, Trace(first.requests + shifted.requests, shifted.duration),
                    record_log=record_log, horizon=SHIFT + HORIZON)

    records = both.report.records
    assert len(records) == len(a.report.records) + len(b.report.records)
    for alone, joint in zip(a.report.records + b.report.records, records):
        assert (joint.prompt_machine, joint.token_machine, joint.preempt_count) == \
            (alone.prompt_machine, alone.token_machine, alone.preempt_count)
        assert joint.ttft_ms == pytest.approx(alone.ttft_ms, rel=1e-9)
        assert joint.e2e_ms == pytest.approx(alone.e2e_ms, rel=1e-9)
        assert joint.tbt_ms() == pytest.approx(alone.tbt_ms(), rel=1e-9)
