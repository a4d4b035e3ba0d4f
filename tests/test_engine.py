import dataclasses
import gc
import itertools
import math
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from splitsim import (
    ClusterConfig,
    HorizonExceeded,
    InvariantError,
    Machine,
    Request,
    SchedulerConfig,
    Simulator,
    SizeDistribution,
    SloTable,
    SloViolated,
    SplitsimError,
    Trace,
    ValidationError,
    check_slo,
    generate_trace,
    get_calibration,
    percentile,
    reference_latencies,
    PRESETS,
)
from splitsim.machine import PROMPT, Task
from splitsim.report import (REQUEST_CSV_HEADER, MetricsReport, RequestRecord, event_log_csv,
                             requests_csv, summary_csv, tbt_csv)


def h100_models():
    return {"H100": get_calibration("llama2-70b", "H100")}


def single_request_trace(prompt=1500, out=13):
    return Trace([Request(0, 0.0, prompt, out)], duration=1.0)


class TestPercentile:
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        assert percentile(vals, 0.50) == 50
        assert percentile(vals, 0.90) == 90
        assert percentile(vals, 0.99) == 99
        assert percentile(vals, 1.00) == 100

    def test_small_sets(self):
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([1.0, 2.0], 0.5) == 1.0

    def test_unsorted_input(self):
        assert percentile([3, 1, 2], 0.5) == 2

    def test_errors(self):
        with pytest.raises(ValidationError):
            percentile([], 0.5)
        with pytest.raises(ValidationError):
            percentile([1.0], 0.0)
        with pytest.raises(ValidationError):
            percentile([1.0], 1.5)


class TestReference:
    def test_coding_median_oracle(self):
        # (1500 prompt, 13 output) on A100: 185 / 52 / 185 + 12*52 = 809
        ttft, tbt, e2e = reference_latencies([Request(0, 0.0, 1500, 13)],
                                             get_calibration("llama2-70b", "A100"))
        assert ttft.tolist() == [185.0]
        assert tbt == 52.0
        assert e2e.tolist() == [809.0]

    def test_single_output_token(self):
        ttft, _, e2e = reference_latencies([Request(0, 0.0, 100, 1)],
                                           get_calibration("llama2-70b", "A100"))
        assert e2e.tolist() == ttft.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["A100", "H100"]),
           st.lists(st.tuples(st.integers(1, 20000),
                              st.integers(1, 5000) | st.integers(1, 3)), max_size=30))
    def test_columns_are_the_per_request_floats(self, machine_type, sizes):
        model = get_calibration("llama2-70b", machine_type)
        requests = [Request(i, 0.0, p, o) for i, (p, o) in enumerate(sizes)]
        ttft, tbt, e2e = reference_latencies(requests, model)
        one = model.token_iter_time(1)
        assert ttft.dtype == e2e.dtype == float and type(tbt) is float
        assert tbt.hex() == one.hex()
        assert [v.hex() for v in ttft.tolist()] == \
            [model.prompt_time(p).hex() for p, _ in sizes]
        assert [v.hex() for v in e2e.tolist()] == \
            [(model.prompt_time(p) + (o - 1) * one).hex() for p, o in sizes]


class TestSingleRequest:
    def test_baseline_exact_latency(self):
        res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        single_request_trace()).run()
        rec = res.report.records[0]
        m = get_calibration("llama2-70b", "H100")
        assert rec.ttft_ms == m.prompt_time(1500)
        assert rec.e2e_ms == m.prompt_time(1500) + 12 * m.token_iter_time(1)

    def test_split_adds_visible_transfer(self):
        res = Simulator(ClusterConfig("Splitwise-HH", 1, 1), h100_models(),
                        single_request_trace()).run()
        rec = res.report.records[0]
        assert rec.prompt_machine == 0
        assert rec.token_machine == 1
        assert rec.transfer_visible_ms == 5.0  # layerwise floor at 1500 tokens
        assert rec.ttft_ms == 95.0
        # second-token gap carries the visible transfer latency
        assert rec.tbt_ms()[0] == pytest.approx(5.0 + 31.0)
        assert rec.e2e_ms == pytest.approx(95.0 + 5.0 + 12 * 31.0)

    def test_e2e_equals_ttft_plus_gaps(self):
        res = Simulator(ClusterConfig("Splitwise-HH", 1, 1), h100_models(),
                        single_request_trace()).run()
        rec = res.report.records[0]
        assert rec.e2e_ms == pytest.approx(rec.ttft_ms + sum(rec.tbt_ms()))

    def test_emission_count(self):
        res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        single_request_trace(out=5)).run()
        assert len(res.report.records[0].emissions) == 5

    def test_single_output_no_token_phase(self):
        res = Simulator(ClusterConfig("Splitwise-HH", 1, 1), h100_models(),
                        single_request_trace(out=1)).run()
        rec = res.report.records[0]
        assert rec.e2e_ms == rec.ttft_ms == 95.0
        assert rec.tbt_ms() == []
        assert rec.transfer_visible_ms == 0.0


class TestDeterminism:
    def test_byte_identical_logs(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 3.0, 30.0, seed=9)
        outs = []
        for _ in range(2):
            res = Simulator(ClusterConfig("Splitwise-HH", 2, 1), h100_models(),
                            trace,
                            reference_model=get_calibration("llama2-70b", "A100")).run()
            outs.append((event_log_csv(res), requests_csv(res),
                         tbt_csv(res), summary_csv(res)))
        assert outs[0] == outs[1]


class TestSloCheck:
    def _report(self, ttft, e2e, gaps):
        rec = RequestRecord(Request(0, 0.0, 1500, len(gaps) + 1))
        rec.first_token_time = ttft
        # the token phase as its machine's iteration ends, one segment of them
        rec.ends = list(itertools.accumulate(gaps, initial=ttft))[1:]
        rec.segments = [0, len(gaps)] if gaps else ()
        rec.completion = rec.emissions[-1]
        return MetricsReport([rec], 1.0, {})

    def test_nine_constraints(self):
        report = self._report(185.0, 809.0, [52.0] * 12)
        refs = [185.0], 52.0, [809.0]  # TTFT and E2E reference columns, the TBT reference
        verdict = check_slo(report, SloTable(), *refs)
        assert len(verdict["constraints"]) == 9
        assert verdict["pass"]
        assert all(c["observed_ratio"] == pytest.approx(1.0)
                   for c in verdict["constraints"])

    def test_violation_detected(self):
        report = self._report(800.0, 2000.0, [52.0] * 12)
        refs = [185.0], 52.0, [809.0]
        verdict = check_slo(report, SloTable(), *refs)
        ttft = [c for c in verdict["constraints"] if c["metric"] == "TTFT"]
        assert not ttft[0]["pass"]  # ratio 4.32 > 2.0 at P50
        assert not verdict["pass"]

    def test_tbt_modes(self):
        # TBT ratios pool every token gap, so one slow gap sets the P99
        report = self._report(185.0, 0.0, [10.0] * 11 + [500.0])
        refs = [185.0], 52.0, [809.0]
        pooled = check_slo(report, SloTable(), *refs)
        pooled_p99 = [c for c in pooled["constraints"]
                      if c["metric"] == "TBT" and c["percentile"] == 0.99][0]
        assert pooled_p99["observed_ratio"] == pytest.approx(500.0 / 52.0)

    def test_simulator_uses_given_table(self):
        strict = SloTable(ttft=(1.0, 1.0, 1.0), tbt=(1.0, 1.0, 1.0), e2e=(1.0, 1.0, 1.0))
        res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        single_request_trace(),
                        reference_model=get_calibration("llama2-70b", "A100"),
                        slo=strict).run()
        assert [c["multiplier"] for c in res.report.slo["constraints"]] == [1.0] * 9

    def test_slo_table_validation(self):
        with pytest.raises(ValidationError):
            SloTable(ttft=(0.5, 3.0, 6.0))


class TestEngineBehavior:
    def test_horizon_exceeded(self):
        # one slow machine, far more load than it can finish
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 50.0, 10.0, seed=1)
        with pytest.raises(RuntimeError):
            Simulator(ClusterConfig("Baseline-A100", 1, 0),
                      {"A100": get_calibration("llama2-70b", "A100")},
                      trace, horizon=15.0).run()

    def test_horizon_error_is_typed(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 20.0, 5.0, seed=2)
        with pytest.raises(HorizonExceeded) as info:
            Simulator(ClusterConfig("Baseline-A100", 1, 0),
                      {"A100": get_calibration("llama2-70b", "A100")},
                      trace, horizon=6.0).run()
        assert isinstance(info.value, SplitsimError)

    def test_memory_invariant_is_typed(self, monkeypatch):
        monkeypatch.setattr(Machine, "memory_used", lambda self: float("inf"))
        with pytest.raises(InvariantError, match="exceeds capacity") as info:
            Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                      single_request_trace()).run()
        # existing RuntimeError handlers still catch it
        assert isinstance(info.value, RuntimeError)

    def test_empty_trace(self):
        res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        Trace([], duration=1.0)).run()
        assert res.report.records == []
        assert res.report.throughput_rps == 0.0

    def test_all_arrivals_complete(self):
        p, o = PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"]
        trace = generate_trace(p, o, 2.0, 30.0, seed=4)
        res = Simulator(ClusterConfig("Splitwise-AA", 2, 2),
                        {"A100": get_calibration("llama2-70b", "A100")}, trace).run()
        assert len(res.report.records) == len(trace.requests)
        assert all(r.completion is not None for r in res.report.records)

    def test_utilization_bounded(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 2.0, 30.0, seed=4)
        res = Simulator(ClusterConfig("Splitwise-HH", 2, 1), h100_models(), trace).run()
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in res.report.utilization.values())

    def test_baseline_has_no_transfer_events(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 2.0, 20.0, seed=6)
        res = Simulator(ClusterConfig("Baseline-H100", 2, 0), h100_models(), trace).run()
        kinds = {e[2] for e in res.event_log}
        assert "transfer_complete" not in kinds
        assert all(r.transfer_visible_ms == 0.0 for r in res.report.records)

    def test_second_run_is_rejected(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        reference = get_calibration("llama2-70b", "A100")
        sim = Simulator(ClusterConfig("Splitwise-AA", 1, 1), {"A100": reference},
                        generate_trace(p, o, 1.0, 10.0, seed=1), reference_model=reference)
        assert sim.run().report.slo is not None
        with pytest.raises(ValidationError, match="runs once"):
            sim.run()

    def test_record_log_off(self):
        res = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        single_request_trace(), record_log=False).run()
        assert res.event_log == []


class TestStreamedArrivals:
    """Arrivals come from the trace in order, not through the event heap;
    these pin the order that their heap keys used to give them."""

    def test_arrival_comes_before_an_iteration_end_at_the_same_ms(self):
        model = dataclasses.replace(get_calibration("llama2-70b", "H100"),
                                    prompt_knots=((1.0, 8192.0), (100.0, 100.0)))
        assert 0.1 * 1000.0 == 100.0  # request 1 arrives as request 0's prompt ends
        trace = Trace([Request(0, 0.0, 100, 2), Request(1, 0.1, 100, 2)], duration=1.0)
        log = Simulator(ClusterConfig("Baseline-H100", 1, 0), {"H100": model}, trace).run() \
            .event_log
        rows = [(t, kind, fields[0]) for t, _, kind, fields in log]
        arrival = rows.index((100.0, "request_arrival", 1))
        prompt_end = rows.index((100.0, "iteration_complete", 0))
        assert arrival < prompt_end

    def test_horizon_stops_at_the_first_arrival_past_it(self):
        trace = Trace([Request(0, 0.0, 100, 2), Request(1, 5.0, 100, 2),
                       Request(2, 6.0, 100, 2)], duration=6.0)
        sim = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(), trace,
                        horizon=1.0)
        routed = []
        route = sim.cluster.route
        sim.cluster.route = lambda: routed.append(1) or route()
        with pytest.raises(HorizonExceeded, match="with 2 requests unfinished"):
            sim.run()
        assert len(routed) == 1  # request 1's arrival raised before it was handled
        assert sim.records[0].completion is not None

    def test_per_request_objects_hold_no_dict(self):
        rec = Simulator(ClusterConfig("Baseline-H100", 1, 0), h100_models(),
                        single_request_trace()).run().report.records[0]
        task = Task(0, PROMPT, 1500, 0.0, 13)
        for obj in (rec.request, rec, task):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


class TestRefcountRelease:
    """A finished simulator, with its cluster and heap, is freed by
    reference counting alone: nothing it leaves behind points back at it.
    The cyclic GC is off while each test runs, so only refcounts can free
    it."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_completed_run(self):
        # a 1-s repurpose window leaves its next maintenance event in the heap
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 2.0, 5.0, seed=3)
        sim = Simulator(ClusterConfig("Splitwise-HH", 1, 1, repurpose_window_s=1.0),
                        h100_models(), trace)
        result = sim.run()
        assert len(result.report.records) == len(trace.requests)
        alive = weakref.ref(sim)
        del sim
        assert alive() is None

    def test_probe_that_fails_its_slo(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 9.0, 8.0, seed=1)
        reference = get_calibration("llama2-70b", "A100")
        sim = Simulator(ClusterConfig("Baseline-A100", 1, 0), {"A100": reference}, trace,
                        reference_model=reference, record_log=False, stop_on_slo_fail=True)
        try:
            sim.run()
        except SloViolated:
            pass
        else:
            pytest.fail("the probe passed")
        alive = weakref.ref(sim)
        del sim
        assert alive() is None


def stranding_trace():
    """One long decode, then a burst of one-output prompts.  With a 32-token
    queue threshold the burst overflows onto the token machine, whose
    prompt-only batch takes all 26 bloom-176b token slots and parks the
    decode, and leaves nothing queued behind it."""
    requests = [Request(0, 0.0, 100, 400)]
    requests += [Request(i, 1.0, 4, 1) for i in range(1, 53)]
    return Trace(requests, duration=1.0)


class TestParkedResidents:
    def run(self, record_log):
        config = ClusterConfig("Splitwise-HH", 1, 1, llm="bloom-176b",
                               sched=SchedulerConfig(queue_threshold_tokens=32))
        return Simulator(config, {"H100": get_calibration("bloom-176b", "H100")},
                         stranding_trace(), record_log=record_log).run()

    def test_parked_residents_resume(self):
        """A machine whose every resident is parked and whose queues are
        empty still starts a batch: the parked decode resumes."""
        logged, fast = self.run(True), self.run(False)
        for result in (logged, fast):
            assert len(result.report.records) == 53
            assert all(r.completion is not None for r in result.report.records)
        assert requests_csv(fast) == requests_csv(logged)
        assert tbt_csv(fast) == tbt_csv(logged)
        # the decode really was parked behind the burst
        assert logged.report.records[0].preempt_count > 0


class TestLedgerWithPreemption:
    @pytest.mark.parametrize("record_log", [True, False])
    def test_ledger_counts_every_tbt_gap(self, record_log):
        """With preempted tasks that resume, the verdict's TBT counts equal
        the counts over every gap of the records' ``tbt_ms()``: a resumed
        task's first gap starts at its last emission before it was parked."""
        dist = SizeDistribution.lognormal
        trace = generate_trace(dist(math.log(256), 0.5, 16, 4096),
                               dist(math.log(400), 0.5, 16, 2048), 4.0, 20.0, seed=5)
        config = ClusterConfig("Baseline-H100", 1, 0)
        reference = get_calibration(config.llm, "A100")

        def run(**kwargs):
            return Simulator(config, h100_models(), trace, reference_model=reference,
                             record_log=record_log, **kwargs).run().report

        report = run()
        assert sum(r.preempt_count for r in report.records) > 0
        tbt_ref = reference.token_iter_time(1)
        ratios = [gap / tbt_ref for rec in report.records for gap in rec.tbt_ms()]
        counted = report.slo["constraints"]
        assert [c["exceeded"] for c in counted if c["metric"] == "TBT"] == \
            [sum(r > c["multiplier"] for r in ratios) for c in counted if c["metric"] == "TBT"]


class TestCsvEmission:
    def _result(self):
        return Simulator(ClusterConfig("Splitwise-HH", 1, 1), h100_models(),
                         single_request_trace(),
                         reference_model=get_calibration("llama2-70b", "A100")).run()

    def test_requests_csv(self):
        text = requests_csv(self._result())
        lines = text.strip().splitlines()
        assert lines[0] == REQUEST_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[2]) == 95.0

    def test_tbt_csv(self):
        lines = tbt_csv(self._result()).strip().splitlines()
        assert lines[0] == "request_id,gap_index,tbt_ms"
        assert len(lines) == 1 + 12

    def test_summary_csv_nine_rows(self):
        lines = summary_csv(self._result()).strip().splitlines()
        assert len(lines) == 1 + 9
        assert lines[0] == "metric,percentile,observed_ratio,multiplier,verdict"

    def test_event_log_csv(self):
        lines = event_log_csv(self._result()).strip().splitlines()
        assert lines[0] == "time_ms,seq,kind,payload"
        kinds = {line.split(",")[2] for line in lines[1:]}
        assert {"request_arrival", "batch_started", "iteration_complete",
                "transfer_complete", "request_finished"} <= kinds
