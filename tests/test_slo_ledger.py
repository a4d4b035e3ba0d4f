"""The SLO ledger of probe-mode runs, against ``check_slo``.

A probe-mode run (``Simulator(stop_on_slo_fail=True)``) counts, per TTFT
and E2E constraint, the ratios that exceed the multiplier as each latency
becomes final, and stops at the first count that goes over
``allowance(n, p)``.  A run that ends is judged by ``check_slo``, whose
first failing constraint, always a TBT one, stops the probe at the last
completion.  The probe must pass iff ``check_slo`` passes the full run.
"""

import dataclasses
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from splitsim import (
    DESIGNS,
    PRESETS,
    ClusterConfig,
    HorizonExceeded,
    InvariantError,
    Request,
    Simulator,
    SloTable,
    SloViolated,
    SplitsimError,
    Trace,
    ValidationError,
    Workload,
    generate_trace,
    get_calibration,
    percentile,
    slo_pass_at_rate,
)
from splitsim.engine import SloLedger
from splitsim.report import RequestRecord, allowance, reference_latencies

REFERENCE = get_calibration("llama2-70b", "A100")


def simulate(config, trace, **kwargs):
    models = {mt: get_calibration(config.llm, mt)
              for mt in {config.prompt_type, config.token_type}}
    return Simulator(config, models, trace, reference_model=REFERENCE, **kwargs).run()


def probe_outcome(config, trace, slo, record_log):
    """A probe run's verdict, or the fields of the ``SloViolated`` that
    stopped it."""
    try:
        return simulate(config, trace, record_log=record_log, slo=slo,
                        stop_on_slo_fail=True).report.slo
    except SloViolated as err:
        return err.metric, err.percentile, err.exceeded, err.allowed, err.time_ms


@st.composite
def probes(draw):
    design = draw(st.sampled_from(sorted(DESIGNS)))
    prompt_machines = draw(st.integers(1, 2))
    token_machines = 0 if DESIGNS[design][2] else draw(st.integers(1, 2))
    preset = draw(st.sampled_from(["coding", "conversation"]))
    # from well below to well above what 1-4 machines sustain
    rate = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0]))
    seed = draw(st.integers(0, 10_000))
    dists = PRESETS[preset]
    trace = generate_trace(dists["prompt"], dists["output"], rate, 8.0, seed)
    # any valid table, percentiles in (0, 1] and multipliers in [1, 10]
    multipliers = st.tuples(*[st.floats(1.0, 10.0)] * 3)
    slo = draw(st.just(SloTable()) | st.builds(
        SloTable, multipliers, multipliers, multipliers,
        st.tuples(*[st.floats(0.0, 1.0, exclude_min=True)] * 3)))
    return ClusterConfig(design, prompt_machines, token_machines), trace, slo


@settings(max_examples=40, deadline=None)
@given(probes())
# a probe that passes, with tasks that finish at the iteration they join
@example((ClusterConfig("Splitwise-AA", 1, 1),
          generate_trace(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"], 1.0, 8.0, 7),
          SloTable()))
def test_probe_verdict_matches_check_slo(probe):
    config, trace, slo = probe
    expected = simulate(config, trace, record_log=False, slo=slo).report.slo
    if expected is None:  # empty trace: no verdict either way
        return
    # the same outcome whether windows are fast-forwarded (log off) or not
    outcome = probe_outcome(config, trace, slo, record_log=False)
    assert probe_outcome(config, trace, slo, record_log=True) == outcome
    if expected["pass"]:
        assert outcome == expected
        return
    assert isinstance(outcome, tuple)
    metric, p, exceeded, allowed, _ = outcome
    # the probe stopped on a constraint that the full run fails, with a
    # count over its allowance and at most the full run's count: the ledger
    # stops at the first TTFT or E2E count over, and a TBT constraint is
    # only judged on the full run
    assert any((c["metric"], c["percentile"], c["allowed"]) == (metric, p, allowed)
               and allowed < exceeded <= c["exceeded"]
               and exceeded == (c["exceeded"] if metric == "TBT" else allowed + 1)
               for c in expected["constraints"] if not c["pass"])


def test_both_judges_read_one_constraint_table():
    """The replay verdict lists the table's (metric, percentile,
    multiplier) in its order, and the ledger its TTFT and E2E ones, under a
    table whose multipliers and percentiles are all distinct."""
    slo = SloTable(ttft=(2.5, 3.5, 6.5), tbt=(1.1, 1.7, 4.5), e2e=(1.3, 2.2, 5.5),
                   percentiles=(0.6, 0.8, 0.95))
    assert slo.constraints == (
        ("TTFT", 0.6, 2.5), ("TTFT", 0.8, 3.5), ("TTFT", 0.95, 6.5),
        ("TBT", 0.6, 1.1), ("TBT", 0.8, 1.7), ("TBT", 0.95, 4.5),
        ("E2E", 0.6, 1.3), ("E2E", 0.8, 2.2), ("E2E", 0.95, 5.5))
    config = ClusterConfig("Splitwise-AA", 1, 1)
    coding = PRESETS["coding"]
    trace = generate_trace(coding["prompt"], coding["output"], 1.0, 8.0, 7)

    replay = simulate(config, trace, record_log=False, slo=slo).report.slo
    assert tuple((c["metric"], c["percentile"], c["multiplier"])
                 for c in replay["constraints"]) == slo.constraints
    ttft_ref, _, e2e_ref = reference_latencies(trace.requests, REFERENCE)
    ledger = SloLedger(slo, trace.requests, ttft_ref, e2e_ref)
    assert tuple(c[:3] for c in ledger.constraints) == \
        tuple(c for c in slo.constraints if c[0] != "TBT")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0, 5.0, 7.0]), min_size=1, max_size=30),
       st.sampled_from([0.5, 0.9, 0.99, 1.0]), st.sampled_from([1.0, 1.25, 1.5, 5.0]))
def test_percentile_identity(ratios, p, mult):
    allowed = allowance(len(ratios), p)
    assert (percentile(ratios, p) <= mult) == (sum(r > mult for r in ratios) <= allowed)


@pytest.mark.parametrize("table", [
    dict(ttft=(math.nan, 100, 100), tbt=(100,) * 3, e2e=(100,) * 3),  # P50 <= nan never holds
    dict(ttft=(math.inf, 3, 6)),
    dict(percentiles=(0.0, 0.5, 0.9)),
    dict(percentiles=(0.5, 1.5, 0.99)),  # an allowance of n - ceil(1.5 n) < 0
    dict(ttft=(2.0, 3.0)),  # a constraint that zip would drop
])
def test_invalid_tables_are_rejected_when_built(table):
    with pytest.raises(ValidationError):
        SloTable(**table)


def test_a_built_table_cannot_be_changed():
    table = SloTable()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.percentiles = (0.5, 1.5, 0.99)
    assert table == SloTable()


def one_request(prompt=1500, out=13):
    return Trace([Request(0, 0.0, prompt, out)], duration=1.0)


UNIT = SloTable(ttft=(1.0, 1.0, 1.0), tbt=(1.0, 1.0, 1.0), e2e=(1.0, 1.0, 1.0))


class TestLedger:
    def test_ratio_equal_to_multiplier_passes(self):
        # an A100 machine serving one request is its own reference: every
        # ratio is exactly 1.0, which meets multipliers of 1.0 in both judges
        for probe in (True, False):
            res = simulate(ClusterConfig("Baseline-A100", 1, 0), one_request(),
                           slo=UNIT, stop_on_slo_fail=probe)
            assert res.report.slo["pass"]
            assert [c["exceeded"] for c in res.report.slo["constraints"]] == [0] * 9

    def test_ratio_above_multiplier_aborts(self):
        # the transfer makes the first token gap longer than the reference;
        # loose E2E multipliers let the run end, where check_slo judges TBT
        slo = dataclasses.replace(UNIT, e2e=(10.0, 10.0, 10.0))
        config = ClusterConfig("Splitwise-AA", 1, 1)
        with pytest.raises(SloViolated) as info:
            simulate(config, one_request(), slo=slo, stop_on_slo_fail=True)
        err = info.value
        # 12 gaps, so P99 allows none
        assert (err.metric, err.percentile, err.exceeded, err.allowed) == ("TBT", 0.99, 1, 0)
        assert err.time_ms == simulate(config, one_request()).report.records[0].completion
        assert "TBT P99" in str(err) and "ms" in str(err)

    def test_count_at_allowance_passes_one_more_fails(self):
        requests = [Request(i, 0.0, 1000, 1) for i in range(10)]
        ttft_ref, _, e2e_ref = reference_latencies(requests, REFERENCE)
        ledger = SloLedger(SloTable(), requests, ttft_ref, e2e_ref)
        assert [c[3] for c in ledger.constraints[:3]] == [5, 1, 0]  # 10 - ceil(p*10)
        slow = 2.5 * REFERENCE.prompt_time(1000)  # TTFT ratio 2.5: over P50's 2.0 only
        records = [RequestRecord(request, first_token_time=slow) for request in requests]
        for rec in records[:5]:
            ledger.ttft(rec)
        assert ledger.exceeded[0] == 5
        with pytest.raises(SloViolated) as info:
            ledger.ttft(records[5])
        assert (info.value.metric, info.value.exceeded, info.value.allowed) == ("TTFT", 6, 5)

    def test_single_token_outputs_pass(self):
        # n_TBT = 0: no gap is ever counted and the TBT constraints hold
        trace = Trace([Request(i, 2.0 * i, 500, 1) for i in range(5)], duration=10.0)
        res = simulate(ClusterConfig("Splitwise-AA", 1, 1), trace, stop_on_slo_fail=True)
        tbt = [c for c in res.report.slo["constraints"] if c["metric"] == "TBT"]
        assert [(c["exceeded"], c["allowed"], c["pass"]) for c in tbt] == [(0, 0, True)] * 3
        assert res.report.slo["pass"]
        assert simulate(ClusterConfig("Splitwise-AA", 1, 1), trace).report.slo["pass"]

    def test_probe_mode_needs_a_reference(self):
        with pytest.raises(SplitsimError):
            Simulator(ClusterConfig("Baseline-A100", 1, 0),
                      {"A100": REFERENCE}, one_request(), stop_on_slo_fail=True)


class TestProbeOutcome:
    @staticmethod
    def probe():
        w = Workload(PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"])
        return slo_pass_at_rate("Baseline-A100", 1, 0, w, 1.0, duration=10.0, seeds=(1,))

    @pytest.mark.parametrize("error", [SloViolated("TTFT", 0.5, 3, 2, 10.0),
                                       HorizonExceeded("simulation exceeded horizon")])
    def test_load_errors_fail_the_probe(self, monkeypatch, error):
        def run(self):
            raise error
        monkeypatch.setattr(Simulator, "run", run)
        assert self.probe() is False

    def test_invariant_error_propagates(self, monkeypatch):
        def run(self):
            raise InvariantError("machine 0 memory exceeds capacity")
        monkeypatch.setattr(Simulator, "run", run)
        with pytest.raises(InvariantError):
            self.probe()

    def test_slo_violation_is_not_overload(self):
        assert issubclass(SloViolated, SplitsimError)
        assert not issubclass(SloViolated, HorizonExceeded)
