"""The report layer: a run's metrics, its nine-way SLO verdict and its CSVs.

One rule judges the SLO: nearest-rank ``P_p <= m`` holds iff at most
``allowance(n, p)`` of the ``n`` ratios exceed ``m``.  ``check_slo`` applies
it to a run's ratio columns, of the trace's ``reference_latencies``,
evaluated once per run, and the records' own latencies, and builds the only
verdict, ``observed_ratio`` (for display only) included.  A probe runs with
``stop_on_slo_fail`` and has one early stop: ``n``, the request count, is
known before the run, so its ``SloLedger`` counts each E2E ratio in
``_finish`` and raises ``SloViolated`` at the first count over its
allowance; the run simulates no event after it, and invariants are checked
up to that point.  Counts only grow, so that count fails ``check_slo`` on
the full run too.  A request's E2E includes its TTFT, so a prompt-side
overload trips this stop as well.  Every other verdict, pass or fail, is
``check_slo``'s on the full run, which the probe returns as the replay
does; ``tests/test_slo_ledger.py`` pins both outcomes.

The report layer works on columns and cached text, reads each record's
token phase from its machine's ``ends``, and gives the same bytes as a
per-request loop.  ``_latency_columns`` builds the TTFT, E2E and gap
columns that ``MetricsReport.summary`` and ``check_slo`` share: it gathers
every emission time after a first token from one float64 copy of each
machine's ``ends``, takes the gaps with one subtraction and replaces each
record's first gap by its first segment start minus its first token's time.
``check_slo`` divides each column in place by its reference.  A float64
subtraction or division rounds exactly as the same Python float expression
does, so every ratio is the float the per-request loop computes.
``np.partition(ratios, k)`` puts at index ``k`` the element that ``sorted``
puts there, so each nearest-rank percentile, and with it ``observed_ratio``,
is bit-identical; ``report_percentiles`` takes P50/P90/P99 the same way.
``tbt_csv`` formats each gap between a machine's consecutive ends once per
machine, and each gap index once; a record's rows are list slices of those
texts, and only the gap into each segment, from the first token or across a
preemption, is subtracted on its own.  ``b"%.6f" % gap`` and
``f"{gap:.6f}"`` format a float the same way.  ``event_log_csv`` makes one
format call per row, formats each distinct time once and joins each id
tuple of ``batch_started`` once.  ``tests/test_report_layer.py`` compares
all three with per-request, per-row references on random records that
share their machines' ``ends``.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import SloViolated, ValidationError, percentile_label
from .perf import PerfModel
from .trace import Request, _rank

# event kind -> %-format of its fields' payload; only event_log_csv reads it.
# A tuple field (the request ids of a batch) prints comma-joined.
EVENT_FORMATS = {
    "request_arrival": "request=%s prompt_tokens=%s output_tokens=%s "
                       "prompt_machine=%s token_machine=%s",
    "task_enqueued": "machine=%s request=%s kind=%s tokens=%s",
    "pool_transition": "machine=%s from=%s to=%s",
    "batch_started": "machine=%s kind=%s prompts=[%s] tokens=[%s] iter_ms=%.6f",
    "iteration_complete": "machine=%s",
    "prompt_finished": "request=%s machine=%s tokens=%s",
    "transfer_complete": "request=%s visible_ms=%.6f",
    "request_finished": "request=%s machine=%s kind=%s",
    "pool_maintenance": "machine=%s repurposed %s->%s",
}


def percentile(samples, p: float):
    """Nearest-rank percentile: sorted value at index ceil(p*n) - 1."""
    return sorted(samples)[_rank(len(samples), p)]


def _percentiles(values: np.ndarray, ps) -> list[float]:
    """``percentile(values, p)`` for each ``p``, from one partition of a
    float64 column: ``np.partition(values, k)`` puts at index ``k`` the
    element that ``sorted`` puts there."""
    ranks = [_rank(len(values), p) for p in ps]
    ordered = np.partition(values, ranks)
    return [float(ordered[k]) for k in ranks]


def report_percentiles(values) -> list[tuple[str, float]]:
    """The percentiles a run reports, ``[("P50", P50), ("P90", P90), ("P99", P99)]``."""
    ps = (0.5, 0.9, 0.99)
    return [(percentile_label(p), value) for p, value in zip(ps, _percentiles(values, ps))]


def _gap_column(records) -> np.ndarray:
    """Every record's token gaps, in record order, as one float64 column.

    The emission times after each first token are gathered from one float64
    column of every token machine's ``ends``: the index steps by one inside
    a segment (which is never empty) and jumps at the next one's start.
    Differencing them gives every gap but each record's first, which is its
    first segment's start minus its first token's time; a gap across a
    preemption is the difference of its two segments' adjacent ends."""
    bases: dict[int, int] = {}  # id of a machine's ends -> where they start in the column
    machines: list[list[float]] = []
    total = 0
    flat, sizes, record_bases, firsts = [], [], [], []
    for rec in records:
        segments = rec.segments
        sizes.append(len(segments))
        if segments:
            ends = rec.ends
            base = bases.get(id(ends))
            if base is None:
                base = bases[id(ends)] = total
                total += len(ends)
                machines.append(ends)
            flat += segments
            record_bases.append(base)
            firsts.append(rec.first_token_time)
    pairs = np.array(sizes, dtype=np.intp) // 2  # segments per record
    bounds = np.array(flat, dtype=np.intp).reshape(-1, 2)
    lengths = bounds[:, 1] - bounds[:, 0]
    starts = bounds[:, 0] + np.repeat(np.array(record_bases, dtype=np.intp), pairs[pairs > 0])
    through = np.concatenate(([0], np.cumsum(lengths)))  # times before each segment
    counts = np.diff(through[np.cumsum(pairs)], prepend=0)
    if not len(lengths):
        return np.empty(0)
    index = np.ones(int(through[-1]), dtype=np.intp)
    index[0] = starts[0]
    index[through[1:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    times = np.fromiter(chain.from_iterable(machines), dtype=float, count=total)[
        np.cumsum(index, out=index)]
    del index
    gaps = np.empty_like(times)
    np.subtract(times[1:], times[:-1], out=gaps[1:])
    heads = (np.cumsum(counts) - counts)[counts > 0]  # each record's first time
    gaps[heads] = times[heads] - np.array(firsts, dtype=float)
    return gaps


@dataclass(frozen=True)
class SloTable:
    """Slowdown multipliers vs. an uncontended reference, per percentile;
    frozen, so the checks made when it is built hold for its lifetime."""

    ttft: tuple = (2.0, 3.0, 6.0)
    tbt: tuple = (1.25, 1.5, 5.0)
    e2e: tuple = (1.25, 1.5, 5.0)
    percentiles: tuple = (0.5, 0.9, 0.99)

    def __post_init__(self):
        if not all(0.0 < p <= 1.0 for p in self.percentiles):
            raise ValidationError("SLO percentiles must be in (0, 1]")
        for multis in (self.ttft, self.tbt, self.e2e):
            if len(multis) != len(self.percentiles) or not all(1 <= m < math.inf for m in multis):
                raise ValidationError("SLO multipliers must be finite, >= 1, one per percentile")

    @property
    def constraints(self) -> tuple[tuple[str, float, float], ...]:
        """The nine ``(metric, percentile, multiplier)``, in verdict order;
        ``check_slo`` and ``SloLedger`` (its E2E ones) read no other list of
        them."""
        return tuple((metric, p, mult)
                     for metric, multipliers in (("TTFT", self.ttft), ("TBT", self.tbt),
                                                 ("E2E", self.e2e))
                     for p, mult in zip(self.percentiles, multipliers))


def allowance(n: int, p: float) -> int:
    """How many of ``n`` ratios may exceed ``m`` while nearest-rank ``P_p <= m``."""
    return n - math.ceil(p * n)


def reference_latencies(requests, reference_model: PerfModel) -> tuple:
    """The only evaluation of the unbatched reference: the requests' TTFT
    column, the one TBT and the E2E column ``ttft + (outputs - 1.0) * tbt``,
    which float64 rounds as each request's Python float expression."""
    tbt = reference_model.token_iter_time(1)
    ttft = np.array([reference_model.prompt_time(r.prompt_tokens) for r in requests], dtype=float)
    outputs = np.array([r.output_tokens for r in requests], dtype=float)
    return ttft, tbt, ttft + (outputs - 1.0) * tbt


@dataclass(slots=True)
class RequestRecord:
    """One request's outcome.  Its token phase, set when it finishes, is its
    token machine's ``ends`` (shared, not copied) and the ``segments`` of
    them during which its token task was in the batch (see ``Task``)."""

    request: Request
    prompt_machine: int = -1
    token_machine: int = -1
    first_token_time: float | None = None
    completion: float | None = None
    transfer_visible_ms: float = 0.0
    preempt_count: int = 0
    ends: list[float] | None = field(default=None, repr=False, compare=False)
    segments: list[int] | tuple = ()

    @property
    def ttft_ms(self) -> float:
        return self.first_token_time - self.request.arrival * 1000.0

    @property
    def e2e_ms(self) -> float:
        return self.completion - self.request.arrival * 1000.0

    @property
    def emissions(self) -> list[float]:
        """The first token's time, then the token phase's; derived."""
        if self.first_token_time is None:
            return []
        out, ends, segments = [self.first_token_time], self.ends, self.segments
        for a, b in zip(segments[::2], segments[1::2]):
            out += ends[a:b]
        return out

    def tbt_ms(self) -> list[float]:
        emissions = self.emissions
        return [b - a for a, b in zip(emissions, emissions[1:])]


def _latency_columns(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records' ``ttft_ms``, token gaps and ``e2e_ms``: float64 columns."""
    n = len(records)
    return (np.fromiter(map(operator.attrgetter("ttft_ms"), records), dtype=float, count=n),
            _gap_column(records),
            np.fromiter(map(operator.attrgetter("e2e_ms"), records), dtype=float, count=n))


@dataclass
class MetricsReport:
    records: list[RequestRecord]
    throughput_rps: float
    utilization: dict[int, float]
    slo: dict | None = None

    def summary(self) -> dict:
        records = self.records
        out = {"requests": len(records), "throughput_rps": self.throughput_rps}
        if records:
            ttft, gaps, e2e = _latency_columns(records)
            for name, values in (("ttft_ms", ttft), ("e2e_ms", e2e), ("tbt_ms", gaps)):
                if len(values):  # no gaps when every output is one token
                    for label, value in report_percentiles(values):
                        out[f"{name}_{label.lower()}"] = value
        return out


def check_slo(report: MetricsReport, slo: SloTable, ttft_ref: np.ndarray,
              tbt_ref: float, e2e_ref: np.ndarray) -> dict:
    """Evaluate the nine slowdown constraints: the only SLO verdict.

    The references are the records' ``reference_latencies``.  Each record's
    ``ttft_ms`` and ``e2e_ms``, and each token gap (pooled over all
    requests), is divided in place by its reference; the ratios are counted
    over each multiplier and percentiled for ``observed_ratio`` (see the
    module docstring for why they are the per-request floats, bit for bit).
    Each constraint passes while its count is within its allowance.
    """
    columns = dict(zip(("TTFT", "TBT", "E2E"), _latency_columns(report.records)))
    for m, ref in zip(columns, (ttft_ref, tbt_ref, e2e_ref)):
        columns[m] /= ref  # in place: the columns become the ratios

    ps = slo.percentiles
    observed = {m: dict(zip(ps, _percentiles(ratios, ps) if len(ratios) else [0.0] * len(ps)))
                for m, ratios in columns.items()}  # m -> p -> observed ratio, for display only
    out = []
    for m, p, mult in slo.constraints:
        count = int(np.count_nonzero(columns[m] > mult))
        allowed = allowance(len(columns[m]), p)
        out.append({"metric": m, "percentile": p, "multiplier": mult, "exceeded": count,
                    "allowed": allowed, "pass": count <= allowed,
                    "observed_ratio": observed[m][p]})
    return {"constraints": out, "pass": all(c["pass"] for c in out)}


class SloLedger:
    """The early stop of a probe run: exceedance counts of the three E2E
    constraints, kept as each request completes.

    It reads ``check_slo``'s inputs, the E2E column of ``requests``'
    ``reference_latencies`` (looked up by request id) and the records'
    ``e2e_ms``, and ``n``, the request count, is known from the trace.  The
    ratio and the comparison are ``check_slo``'s own float expressions.  A
    count only grows, so the first one over its allowance raises
    ``SloViolated`` at once: ``check_slo`` would fail it on the full run.
    ``constraints`` lists ``SloTable.constraints``' E2E entries, in order,
    each with its allowance.
    """

    def __init__(self, slo: SloTable, requests, e2e_ref):
        self._ref = dict(zip((r.id for r in requests), e2e_ref.tolist()))
        # (metric, percentile, multiplier, allowed exceedances)
        self.constraints = [(metric, p, mult, allowance(len(requests), p))
                            for metric, p, mult in slo.constraints if metric == "E2E"]
        self.exceeded = [0] * len(self.constraints)

    def e2e(self, rec: RequestRecord):
        ratio = rec.e2e_ms / self._ref[rec.request.id]
        exceeded = self.exceeded
        for i, (metric, p, mult, allowed) in enumerate(self.constraints):
            if ratio > mult:
                exceeded[i] += 1
                if exceeded[i] > allowed:
                    raise SloViolated(metric, p, exceeded[i], allowed, rec.completion)


@dataclass
class SimResult:
    report: MetricsReport
    event_log: list[tuple]


# -- CSV emission ----------------------------------------------------------

# each file's header and its column types, as ``splitsim report`` reads them back
REQUEST_CSV_HEADER = ("request_id,arrival_s,ttft_ms,e2e_ms,prompt_machine,"
                      "token_machine,transfer_visible_ms,preempt_count")
REQUEST_CSV_TYPES = (int, float, float, float, int, int, float, int)
TBT_CSV_HEADER = "request_id,gap_index,tbt_ms"
TBT_CSV_TYPES = (int, int, float)


def requests_csv(result: SimResult) -> str:
    buf = io.StringIO()
    buf.write(REQUEST_CSV_HEADER + "\n")
    for rec in result.report.records:
        buf.write(f"{rec.request.id},{rec.request.arrival:.6f},{rec.ttft_ms:.6f},"
                  f"{rec.e2e_ms:.6f},{rec.prompt_machine},{rec.token_machine},"
                  f"{rec.transfer_visible_ms:.6f},{rec.preempt_count}\n")
    return buf.getvalue()


class _Texts(dict):
    """value -> its text, formatted once: a run has few distinct gaps and
    request ids."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, value):
        text = self[value] = self.fmt(value)
        return text


def tbt_csv(result: SimResult) -> str:
    # A record's rows go out as one ASCII chunk.  The chunks are appended to
    # a bytearray, not written to a StringIO: a StringIO keeps every chunk
    # it is given until getvalue, and under glibc malloc chunks of this size
    # left the heap fragmented (about 10 MB more peak RSS on a 600k-row run).
    out = bytearray(f"{TBT_CSV_HEADER}\n".encode())
    texts = _Texts(b"%.6f\n".__mod__)
    # id of a machine's ends -> the text of each gap between consecutive ends
    machine_gaps: dict[int, list[bytes]] = {}
    index: list[bytes] = []  # b",{i}," for every gap index seen so far
    for rec in result.report.records:
        segments = rec.segments
        if not segments:
            continue
        ends = rec.ends
        gaps = machine_gaps.get(id(ends))
        if gaps is None:
            gaps = machine_gaps[id(ends)] = list(map(texts.__getitem__,
                                                     map(operator.sub, ends[1:], ends)))
        # the gap into each segment, from the first token or across a
        # preemption, then the segment's own gaps
        tails, last = [], rec.first_token_time
        for a, b in zip(segments[::2], segments[1::2]):
            tails.append(texts[ends[a] - last])
            tails += gaps[a:b - 1]
            last = ends[b - 1]
        n = len(tails)
        if n > len(index):
            index.extend(b",%d," % i for i in range(len(index), n))
        # rows "{rid},{i},{gap}\n", joined from their three parts
        parts = [str(rec.request.id).encode()] * (3 * n)
        parts[1::3] = index[:n]
        parts[2::3] = tails
        out += b"".join(parts)
    del texts, machine_gaps, index  # freed before decode copies the rows
    return out.decode("ascii")


def summary_csv(result: SimResult) -> str:
    buf = io.StringIO()
    buf.write("metric,percentile,observed_ratio,multiplier,verdict\n")
    if result.report.slo is not None:
        for c in result.report.slo["constraints"]:
            buf.write(f"{c['metric']},{percentile_label(c['percentile'])},"
                      f"{c['observed_ratio']:.6f},{c['multiplier']},"
                      f"{'pass' if c['pass'] else 'fail'}\n")
    return buf.getvalue()


# event kind -> its whole row as one %-format: time, sequence number, kind
# and EVENT_FORMATS' payload
_EVENT_ROWS = {kind: "%%s,%%s,%s,%s\n" % (kind, fmt) for kind, fmt in EVENT_FORMATS.items()}


def event_log_csv(result: SimResult) -> str:
    # One format call per row.  The log is in time order, so each distinct
    # time is formatted once.  Only batch_started has tuple fields, and each
    # tuple is joined once, from each request id's text, made once: an
    # unchanged batch logs the same Batch.request_ids tuples on every
    # iteration, and the log keeps every tuple alive, so an id names one.
    buf = io.StringIO()
    write = buf.write
    write("time_ms,seq,kind,payload\n")
    names = _Texts(str)
    joined: dict[int, str] = {}  # id of an id tuple -> its text

    def ids_text(ids: tuple) -> str:
        text = joined.get(id(ids))
        if text is None:
            text = joined[id(ids)] = ",".join(map(names.__getitem__, ids))
        return text

    last = text = None
    for t, seq, kind, fields in result.event_log:
        if t != last:
            last, text = t, "%.9f" % t
        if kind == "batch_started":
            mid, batch_kind, prompts, tokens, iter_ms = fields
            fields = (mid, batch_kind, ids_text(prompts), ids_text(tokens), iter_ms)
        write(_EVENT_ROWS[kind] % (text, seq, *fields))
    joined.clear()  # freed before getvalue copies the rows
    return buf.getvalue()

