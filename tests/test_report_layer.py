"""The report layer against the per-request loops it replaced.

``reference_check_slo`` is the old ``check_slo``: Python lists of ratios,
percentiled with ``sorted()``, and a constraint passes when its percentile
is within the multiplier; it counts each constraint's exceedances and
allowance in the same loop.  Every verdict, ``observed_ratio`` included,
must be the same, every float bit for bit, and so must every percentile of
``MetricsReport.summary`` against ``reference_summary``.  ``reference_tbt_csv`` and
``reference_event_log_csv`` format one row at a time, and the emitters must
give the same text.
"""

import io
import math
from itertools import accumulate
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import splitsim.engine
import splitsim.report
import splitsim.transfer
from splitsim import (PRESETS, ClusterConfig, Request, Simulator, SloTable, SloViolated,
                      check_slo, generate_trace, get_calibration, percentile)
from splitsim.report import (EVENT_FORMATS, MetricsReport, RequestRecord, SimResult,
                             event_log_csv, report_percentiles, summary_csv, tbt_csv)


def reference_check_slo(report, slo, ttft_ref, tbt_ref, e2e_ref):
    def nearest_rank(samples, p):
        return sorted(samples)[max(0, math.ceil(p * len(samples)) - 1)]

    ttft_ratios, e2e_ratios, tbt_ratios = [], [], []
    for rec, ttft, e2e in zip(report.records, ttft_ref, e2e_ref):
        ttft_ratios.append(rec.ttft_ms / ttft)
        e2e_ratios.append(rec.e2e_ms / e2e)
        tbt_ratios.extend(g / tbt_ref for g in rec.tbt_ms())
    result = {"constraints": [], "pass": True}
    for metric, ratios, multipliers in (("TTFT", ttft_ratios, slo.ttft),
                                        ("TBT", tbt_ratios, slo.tbt),
                                        ("E2E", e2e_ratios, slo.e2e)):
        for p, mult in zip(slo.percentiles, multipliers):
            observed = nearest_rank(ratios, p) if ratios else 0.0
            ok = observed <= mult
            result["constraints"].append({
                "metric": metric, "percentile": p,
                "observed_ratio": observed, "multiplier": mult, "pass": ok,
                "exceeded": sum(r > mult for r in ratios),
                "allowed": len(ratios) - math.ceil(p * len(ratios)),
            })
            result["pass"] = result["pass"] and ok
    return result


def reference_summary(report):
    """The old ``MetricsReport.summary``: Python lists, one sort per
    percentile."""
    out = {"requests": len(report.records), "throughput_rps": report.throughput_rps}
    if report.records:
        for name, vals in (("ttft_ms", [r.ttft_ms for r in report.records]),
                           ("e2e_ms", [r.e2e_ms for r in report.records])):
            for p in (0.5, 0.9, 0.99):
                out[f"{name}_p{int(p * 100)}"] = percentile(vals, p)
        gaps = [g for r in report.records for g in r.tbt_ms()]
        if gaps:
            for p in (0.5, 0.9, 0.99):
                out[f"tbt_ms_p{int(p * 100)}"] = percentile(gaps, p)
    return out


def reference_tbt_csv(result):
    buf = io.StringIO()
    buf.write("request_id,gap_index,tbt_ms\n")
    for rec in result.report.records:
        for i, gap in enumerate(rec.tbt_ms()):
            buf.write(f"{rec.request.id},{i},{gap:.6f}\n")
    return buf.getvalue()


def reference_event_log_csv(result):
    buf = io.StringIO()
    buf.write("time_ms,seq,kind,payload\n")
    for (t, seq, kind, fields) in result.event_log:
        payload = EVENT_FORMATS[kind] % tuple(
            ",".join(map(str, f)) if type(f) is tuple else f for f in fields)
        buf.write(f"{t:.9f},{seq},{kind},{payload}\n")
    return buf.getvalue()


def bits(verdict):
    """The verdict with every float as its exact hex text and every type kept."""
    return (type(verdict["pass"]), verdict["pass"],
            [(c["metric"], c["percentile"], c["multiplier"], type(c["pass"]), c["pass"],
              type(c["exceeded"]), c["exceeded"], type(c["allowed"]), c["allowed"],
              type(c["observed_ratio"]), c["observed_ratio"].hex())
             for c in verdict["constraints"]])


# a few repeated values make ties; arbitrary floats exercise the rounding
times = st.sampled_from([1.0, 8.5, 52.0, 52.000001, 104.3]) | st.floats(0.001, 5e3)
refs = st.sampled_from([52.0, 185.0]) | st.floats(0.5, 2e3)


def record(rid, arrival, first, ends=None, segments=(), prompt_machine=0, token_machine=0):
    """A finished record whose token phase is ``segments`` of a machine's
    ``ends``, the list itself, as the engine leaves it."""
    count = sum(b - a for a, b in zip(segments[::2], segments[1::2]))
    rec = RequestRecord(Request(rid, arrival, 100, count + 1), prompt_machine, token_machine,
                        first_token_time=first, ends=ends, segments=segments)
    rec.completion = rec.emissions[-1]
    return rec


@st.composite
def reports(draw):
    """Records on up to three token machines that share each machine's
    ``ends``: overlapping segments, preempted records with several segments,
    first tokens from another machine, and records with one output token."""
    machines = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.floats(0.0, 6e5))
        gaps = draw(st.lists(times, min_size=1, max_size=24))
        machines.append(list(accumulate(gaps, initial=base))[1:])
    n = draw(st.sampled_from([1, 2, 10]) | st.integers(1, 16))
    one_token = draw(st.booleans())  # every output 1 token: no TBT gap at all
    ttft_refs, tbt_ref, e2e_refs = [], draw(refs), []  # one TBT reference per run
    records = []
    for rid in range(n):
        token_machine = draw(st.integers(0, len(machines) - 1))
        ends = machines[token_machine]
        most = 0 if one_token else min(3, (len(ends) + 1) // 2)
        bounds = sorted(draw(st.lists(st.integers(0, len(ends)), unique=True,
                                      min_size=0, max_size=2 * most)))
        segments = bounds[:len(bounds) // 2 * 2]  # [a0, b0, a1, b1, ...], each a < b
        # the first token comes before the token phase, often from another machine
        first = (ends[segments[0]] if segments else draw(st.floats(0.0, 6e5))) - draw(times)
        arrival = max(0.0, first - draw(times)) / 1000.0
        records.append(record(rid, arrival, first, ends if segments else None, segments,
                              draw(st.integers(0, len(machines))), token_machine))
        # TTFT and E2E references differ per request, so each ratio must meet its own
        ttft_refs.append(draw(refs))
        e2e_refs.append(draw(refs))
    return MetricsReport(records, 1.0, {}), (ttft_refs, tbt_ref, e2e_refs)


percentiles = st.sampled_from([(0.5, 0.9, 0.99), (0.25, 0.5, 1.0), (0.1, 0.2, 0.3)]) | \
    st.tuples(*[st.floats(0.001, 1.0)] * 3)


def sized_report(n_records, gaps_each):
    """Records with the given number of gaps each, taken from two token
    machines' ``ends``, whose gaps are nearly all distinct.  Every third
    record is preempted once, and each first token is the other machine's."""
    span = (n_records // 2 + 1) * (gaps_each + 1) + 1
    machines = [[1000.0 * m + 40.0 + 10.0 * i + (i * i) % 97 * 0.01 for i in range(span)]
                for m in range(2)]
    records, ttft_refs, e2e_refs = [], [], []
    for rid in range(n_records):
        ends = machines[rid % 2]
        a = rid // 2 * (gaps_each + 1)
        if not gaps_each:
            segments = ()
        elif rid % 3 == 0 and gaps_each > 1:
            half = gaps_each // 2
            segments = [a, a + half, a + half + 1, a + gaps_each + 1]
        else:
            segments = [a, a + gaps_each]
        first = ends[a] - 30.0 - rid % 5
        records.append(record(rid, rid * 0.0005, first, ends if segments else None, segments,
                              (rid + 1) % 2, rid % 2))
        ttft_refs.append(30.0 + rid % 5)
        e2e_refs.append(500.0)
    return MetricsReport(records, 1.0, {}), (ttft_refs, 7.0, e2e_refs)


@settings(max_examples=150, deadline=None)
@given(reports(), percentiles)
# ceil(p*n) exact: n = 10 and 100 ratios at P50/P90/P99
@example(sized_report(10, 1), (0.5, 0.9, 0.99))
@example(sized_report(100, 1), (0.5, 0.9, 0.99))
@example(sized_report(20, 5), (0.5, 0.9, 0.99))
# one record, and all-1-token outputs
@example(sized_report(1, 12), (0.5, 0.9, 0.99))
@example(sized_report(1, 0), (0.5, 0.9, 0.99))
@example(sized_report(30, 0), (0.5, 0.9, 0.99))
def test_columnar_check_slo_is_bit_identical(case, ps):
    report, references = case
    slo = SloTable(percentiles=ps)
    assert bits(check_slo(report, slo, *references)) == \
        bits(reference_check_slo(report, slo, *references))


@settings(max_examples=60, deadline=None)
@given(reports())
@example(sized_report(20, 5))
def test_tbt_ratios_are_gaps_over_the_one_reference(case):
    """``check_slo`` divides every gap, in record order, by the run's one
    TBT reference, with the float division ``gap / tbt_ref``."""
    report, references = case
    gaps = [gap for rec in report.records for gap in rec.tbt_ms()]
    assume(gaps)
    percentiles, columns = splitsim.report._percentiles, []

    def spy(values, ps):
        columns.append(values.copy())
        return percentiles(values, ps)

    with mock.patch.object(splitsim.report, "_percentiles", spy):
        check_slo(report, SloTable(), *references)
    tbt_ref = references[1]
    assert len(columns) == 3  # TTFT, TBT, E2E
    assert columns[1].tobytes() == np.array([gap / tbt_ref for gap in gaps]).tobytes()


def summary_bits(summary):
    return [(key, type(value), value.hex() if type(value) is float else value)
            for key, value in summary.items()]


@settings(max_examples=100, deadline=None)
@given(reports())
@example(sized_report(10, 1))
@example(sized_report(1, 0))
@example(sized_report(30, 0))
@example(sized_report(20, 5))
def test_columnar_summary_is_bit_identical(case):
    report, _ = case
    assert summary_bits(report.summary()) == summary_bits(reference_summary(report))


def test_summary_of_no_records():
    report = MetricsReport([], 0.0, {})
    assert report.summary() == {"requests": 0, "throughput_rps": 0.0}


def test_no_gaps_reads_zero():
    report, references = sized_report(4, 0)
    tbt = [c for c in check_slo(report, SloTable(), *references)["constraints"]
           if c["metric"] == "TBT"]
    assert [c["observed_ratio"] for c in tbt] == [0.0] * 3
    assert all(c["pass"] for c in tbt)


@settings(max_examples=60, deadline=None)
@given(reports())
@example(sized_report(1, 0))
@example(sized_report(12, 30))
def test_tbt_csv_matches_per_row_text(case):
    report, _ = case
    result = SimResult(report, [])
    assert tbt_csv(result) == reference_tbt_csv(result)


# batch memberships drawn from a few tuples, so most come back
memberships = st.lists(st.lists(st.integers(0, 9999), max_size=6).map(tuple),
                       min_size=1, max_size=4)


@st.composite
def batch_logs(draw):
    tuples = draw(memberships)
    log = []
    for seq in range(draw(st.integers(0, 40))):
        t = draw(st.floats(0.0, 1e6))
        if draw(st.booleans()):
            log.append((t, seq, "batch_started",
                        (draw(st.integers(0, 3)), draw(st.sampled_from(["prompt", "token"])),
                         draw(st.sampled_from(tuples)), draw(st.sampled_from(tuples)),
                         draw(st.floats(0.1, 500.0)))))
        else:
            log.append((t, seq, "iteration_complete", (draw(st.integers(0, 3)),)))
    return log


@settings(max_examples=60, deadline=None)
@given(batch_logs())
def test_event_log_csv_matches_per_row_text(log):
    result = SimResult(MetricsReport([], 0.0, {}), log)
    assert event_log_csv(result) == reference_event_log_csv(result)


def test_percentile_labels_name_each_percentile():
    """``P29``, not ``P28``, for 0.29, and 0.999 apart from 0.99."""
    report, references = sized_report(20, 5)
    slo = SloTable(percentiles=(0.29, 0.57, 0.999))
    report.slo = check_slo(report, slo, *references)
    rows = summary_csv(SimResult(report, [])).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["P29", "P57", "P99.9"] * 3
    assert str(SloViolated("TBT", 0.999, 1, 0, 5.0)).startswith("TBT P99.9: ")
    assert [label for label, _ in report_percentiles(np.arange(5.0))] == ["P50", "P90", "P99"]


def test_summary_csv_of_a_passing_probe_is_the_replays():
    """A ``stop_on_slo_fail`` run that passes is judged by ``check_slo``, so
    its ``summary.csv`` is the replay's, byte for byte."""
    conversation = PRESETS["conversation"]
    trace = generate_trace(conversation["prompt"], conversation["output"], 1.0, 12.0, seed=1)
    config = ClusterConfig("Splitwise-AA", 2, 2)
    model = get_calibration(config.llm, "A100")

    def run(probe):
        return Simulator(config, {"A100": model}, trace, reference_model=model,
                         slo=SloTable(ttft=(6, 6, 6)), stop_on_slo_fail=probe).run()

    probe = run(True)
    assert probe.report.slo["pass"]
    assert summary_csv(probe) == summary_csv(run(False))


@pytest.mark.parametrize("owner, name", [
    *((splitsim.report, name) for name in ("check_slo", "reference_latencies", "requests_csv",
                                           "tbt_csv", "summary_csv", "event_log_csv")),
    (splitsim.transfer, "plan_transfer"),
])
def test_engine_binds_the_objects_the_bench_reads(owner, name):
    """``bench/workloads.py`` and ``bench/tracing.py`` read these names on
    ``engine``; a second copy there would pass the tracer's own tests while
    the run calls the other one."""
    assert getattr(splitsim.engine, name) is getattr(owner, name)
