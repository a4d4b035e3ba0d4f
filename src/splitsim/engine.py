"""Deterministic event-driven simulation core.

Events are processed in ``(time, key)`` order, so identical inputs replay
to byte-identical event logs.  The tie rule is fixed: arrivals, transfers
and maintenance take increasing sequence numbers as keys and tie by
insertion; the end of an iteration on machine ``m`` takes
``ITER_BASE + m``, so at an equal time it comes after every other event,
and after the ends of machines with lower ids.  An iteration end's key does
not depend on when it was pushed.  The simulation clock runs in
milliseconds.  Trace arrivals stay in seconds: each use that needs one in
ms (its event, TTFT, E2E and the SLO checks) computes ``arrival * 1000.0``.

The engine wires the request lifecycle: arrival -> JSQ routing -> prompt
iterations -> KV-cache transfer -> token iterations -> completion, and
extracts TTFT/TBT/E2E metrics plus the nine-way SLO verdict against an
unbatched reference machine.

Only machines whose state an event changed are *dirty*; after each event
``_dispatch`` runs ``Cluster.update_pools`` on those machines alone and, in
id order, asks each idle one for a batch: ``Machine.form_batch`` alone
judges whether it can start one.  This gives the same transitions as
dispatching every machine: a machine leaves the mixed pool once it has no
opposite-kind work, and ``has_opposite_work`` turns false only when one of
the machine's iterations finishes or its home role flips, and both mark it
dirty.  ``form_batch`` moves work from queue to batch and never turns it
from true to false.

With the event log off, a token batch that nothing can join is
fast-forwarded.  At dispatch, ``Machine.unchanged_repeats`` counts the
iterations after the first that run the same
batch.  The window gets one heap entry, at the end of its last iteration;
``_start_iteration`` computes its boundaries with one ``accumulate``, which
makes the float additions of one push per iteration.  Since no key depends
on push time, every event sorts against the window's ends exactly as it
sorts against the per-iteration entries of a log-on run.  The window closes
at its last end, where a task finishes, or early, when an event dirties
the machine: it then applies the boundaries strictly before now (an event
at a boundary comes before the iteration end there) and gives the
iteration in flight its own heap entry.  The window's entry stays in the
heap and is skipped when it pops, because it no longer matches the
machine's due time (``Machine.due``).  Closing appends the boundaries it
applies to the machine's iteration ends (``Machine.repeat_iterations``),
adds to ``busy_time`` one addition per iteration, so the floats match, and
checks memory once with ``Machine.check_memory``, which is enough because
memory only grows inside a window.  It touches no task: a task's tokens,
remaining output and emissions follow from the segments of its machine's
``ends`` during which it was in the batch (see ``machine.py``).  With the
log on every iteration runs in full, which is the oracle the tests compare
against.

A token iteration's bookkeeping lives in ``_emit_tokens(machine, batch,
k)``, for the batch's iterations that end at the machine's last ``k``
``ends``: it counts the ledger's TBT gaps and finishes each task with no
output left.  ``_on_iteration`` passes ``k = 1``; ``_close_window`` passes
the number of boundaries it applies, none of which finishes a task.  With
the log on, an unchanged batch is the same ``Batch`` object on every
iteration, so its ``batch_started`` rows share one id tuple
(``Batch.request_ids``).  It loops over
the batch only when a task finishes, or when the ledger is on and the batch
runs its first iteration; otherwise it touches no task.  A finished task's
record keeps a reference to its machine's ``ends`` and the task's
``segments``, not a copy of its emission times; ``RequestRecord.emissions``
and ``tbt_ms()`` derive them, as ``Task.tokens`` does its count.

A provisioning probe needs only the verdict, and it runs with
``stop_on_slo_fail``.  Nearest-rank ``P_p <= m`` holds iff at most
``n - ceil(p*n)`` of the ``n`` ratios exceed ``m``, and ``n`` is known
before the run, so an ``SloLedger`` of nine exceedance counts gives
``check_slo``'s verdict exactly.  Each count moves when its latency becomes
final: TTFT at the first token (``_on_iteration``'s prompt loop), each TBT
gap at its emission (``_emit_tokens``), E2E in ``_finish``.  The tasks of an
iteration that ran the previous one share its first gap, so the gap is
counted once, weighted by their number; a task whose last emission differs
is counted on its own.  On every later iteration of the same batch, reused
or in a window, all its tasks share each gap, so each is counted once,
weighted by the batch size.  The
first count over its allowance raises ``SloViolated``: the run simulates no
event after it, and invariants are checked up to that point.
``simulate`` and the replays keep ``check_slo``, because ``summary.csv``
needs the observed ratios, and counting every gap as well would slow a
log-on replay, where no window shares its gaps.  The ledger's agreement with
``check_slo`` is pinned by ``tests/test_slo_ledger.py``, not checked at run
time.

The report layer works on columns and cached text, reads each record's
token phase from its machine's ``ends``, and gives the same bytes as a
per-request loop.  ``check_slo`` gathers every record's emission times
after the first token from one float64 copy of each machine's ``ends``,
takes the gaps with one subtraction and replaces each record's first gap by
its first segment start minus its first token's time; it divides by each
gap's reference.  A float64 subtraction or division rounds exactly as the
same Python float expression does, so every ratio is the float the
per-request loop computes.  ``np.partition(ratios, k)`` puts at index ``k``
the element that ``sorted`` puts there, so each nearest-rank percentile,
and with it ``observed_ratio``, is bit-identical; ``report_percentiles``
takes P50/P90/P99 the same way.  ``tbt_csv`` formats each gap between a
machine's consecutive ends once per machine, and each gap index once; a
record's rows are list slices of those texts, and only the gap into each
segment, from the first token or across a preemption, is subtracted on its
own.  ``b"%.6f" % gap`` and ``f"{gap:.6f}"`` format a float the same way.
``event_log_csv`` makes one format call per row, formats each distinct time
once and joins each id tuple of ``batch_started`` once.
``tests/test_report_layer.py`` compares all three with per-request, per-row
references on random records that share their machines' ``ends``.
"""

from __future__ import annotations

import heapq
import io
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat

import numpy as np

from .cluster import Cluster, ClusterConfig
from .errors import (ConfigurationError, HorizonExceeded, InvariantError, SloViolated,
                     ValidationError)
from .machine import PROMPT, TOKEN, Machine, Task
from .perf import PerfModel
from .trace import Request, Trace
from .transfer import plan_transfer

# Heap entries are (time, key, handler, arg); the end of an iteration on
# machine m has key ITER_BASE + m, above every sequence number.
ITER_BASE = 1 << 62

# event kind -> payload format of its fields; only event_log_csv reads it.
# A tuple field (the request ids of a batch) prints comma-joined.
EVENT_FORMATS = {
    "request_arrival": "request={} prompt_tokens={} output_tokens={} "
                       "prompt_machine={} token_machine={}",
    "task_enqueued": "machine={} request={} kind={} tokens={}",
    "pool_transition": "machine={} from={} to={}",
    "batch_started": "machine={} kind={} prompts=[{}] tokens=[{}] iter_ms={:.6f}",
    "iteration_complete": "machine={}",
    "prompt_finished": "request={} machine={} tokens={}",
    "transfer_complete": "request={} visible_ms={:.6f}",
    "request_finished": "request={} machine={} kind={}",
    "pool_maintenance": "machine={} repurposed {}->{}",
}


def _rank(n: int, p: float) -> int:
    """Index of the nearest-rank ``P_p`` among ``n`` sorted samples."""
    if n == 0:
        raise ValidationError("percentile of empty sample set")
    if not 0.0 < p <= 1.0:
        raise ValidationError("p must be in (0, 1]")
    return max(0, math.ceil(p * n) - 1)


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
    return [(f"P{int(p * 100)}", value) for p, value in zip(ps, _percentiles(values, ps))]


def _gap_column(records) -> tuple[np.ndarray, np.ndarray]:
    """Every record's token gaps, in record order, as one float64 column,
    and each record's gap count.

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
        return np.empty(0), counts
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
    return gaps, counts


@dataclass
class SloTable:
    """Slowdown multipliers vs. an uncontended reference, per percentile."""

    ttft: tuple = (2.0, 3.0, 6.0)
    tbt: tuple = (1.25, 1.5, 5.0)
    e2e: tuple = (1.25, 1.5, 5.0)
    percentiles: tuple = (0.5, 0.9, 0.99)

    def __post_init__(self):
        for multis in (self.ttft, self.tbt, self.e2e):
            if any(m < 1.0 for m in multis):
                raise ValidationError("SLO multipliers must be >= 1")


def reference_latencies(request: Request, reference_model: PerfModel) -> dict:
    """Closed-form latencies for this request on an unbatched reference."""
    ttft = reference_model.prompt_time(request.prompt_tokens)
    tbt = reference_model.token_iter_time(1)
    return {
        "ttft_ms": ttft,
        "tbt_ms": tbt,
        "e2e_ms": ttft + (request.output_tokens - 1) * tbt,
    }


@dataclass
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
            columns = [(name, np.fromiter(map(attr, records), dtype=float, count=len(records)))
                       for name, attr in (("ttft_ms", operator.attrgetter("ttft_ms")),
                                          ("e2e_ms", operator.attrgetter("e2e_ms")))]
            gaps = _gap_column(records)[0]
            if len(gaps):
                columns.append(("tbt_ms", gaps))
            for name, values in columns:
                for label, value in report_percentiles(values):
                    out[f"{name}_{label.lower()}"] = value
        return out


def check_slo(report: MetricsReport, slo: SloTable, references: dict) -> dict:
    """Evaluate the nine slowdown constraints.

    ``references`` maps request id -> reference_latencies() output.  Ratios
    are computed per request (per token gap for TBT, pooled over all
    requests) and then percentiled.  Returns per-constraint verdicts plus
    overall pass.  The ratios are built column-wise (see the module
    docstring for why they are the per-request floats, bit for bit).
    """
    records = report.records
    n = len(records)
    refs = [references[rec.request.id] for rec in records]

    def column(values):
        return np.fromiter(values, dtype=float, count=n)

    arrival_ms = column(rec.request.arrival for rec in records) * 1000.0
    ttft_ratios = ((column(rec.first_token_time for rec in records) - arrival_ms)
                   / column(ref["ttft_ms"] for ref in refs))
    e2e_ratios = ((column(rec.completion for rec in records) - arrival_ms)
                  / column(ref["e2e_ms"] for ref in refs))
    tbt_ratios, counts = _gap_column(records)
    tbt_ratios /= np.repeat(column(ref["tbt_ms"] for ref in refs), counts)

    result = {"constraints": [], "pass": True}
    for metric, ratios, multipliers in (("TTFT", ttft_ratios, slo.ttft),
                                        ("TBT", tbt_ratios, slo.tbt),
                                        ("E2E", e2e_ratios, slo.e2e)):
        if len(ratios):
            observed = _percentiles(ratios, slo.percentiles)
        else:
            observed = [0.0] * len(slo.percentiles)
        for p, mult, ratio in zip(slo.percentiles, multipliers, observed):
            ok = ratio <= mult
            result["constraints"].append({
                "metric": metric, "percentile": p,
                "observed_ratio": ratio, "multiplier": mult, "pass": ok,
            })
            result["pass"] = result["pass"] and ok
    return result


class SloLedger:
    """Exceedance counts of the nine constraints, kept as latencies become
    final.

    Nearest-rank ``P_p <= m`` holds iff at most ``n - ceil(p*n)`` of the
    ``n`` ratios exceed ``m``, and ``n`` is known from the trace: the request
    count for TTFT and E2E, ``sum(output_tokens - 1)`` for TBT.  The ratios
    and the comparison are ``check_slo``'s own float expressions, so the
    verdict is the same.  A count that goes over its allowance can never come
    back, and ``violated`` raises ``SloViolated`` at once.
    """

    def __init__(self, slo: SloTable, requests, reference: PerfModel):
        self.reference = reference
        self.tbt_ref = reference.token_iter_time(1)
        sizes = {"TTFT": len(requests), "TBT": sum(r.output_tokens - 1 for r in requests),
                 "E2E": len(requests)}
        # (metric, percentile, multiplier, allowed exceedances)
        self.constraints = [(metric, p, mult, sizes[metric] - math.ceil(p * sizes[metric]))
                            for metric, multipliers in (("TTFT", slo.ttft), ("TBT", slo.tbt),
                                                        ("E2E", slo.e2e))
                            for p, mult in zip(slo.percentiles, multipliers)]
        self.exceeded = [0] * len(self.constraints)
        self._ttft, self._tbt, self._e2e = (
            [(i, mult, allowed) for i, (m, _, mult, allowed) in enumerate(self.constraints)
             if m == metric] for metric in ("TTFT", "TBT", "E2E"))
        self._tbt_floor = min(slo.tbt)

    def ttft(self, request: Request, time: float):
        ref = self.reference.prompt_time(request.prompt_tokens)
        self._count(self._ttft, (time - request.arrival * 1000.0) / ref, 1, time)

    def tbt(self, gap: float, time: float, weight: int = 1):
        """A gap emitted by ``weight`` requests at ``time``."""
        ratio = gap / self.tbt_ref
        if ratio > self._tbt_floor:
            self._count(self._tbt, ratio, weight, time)

    def shared_tbt(self, times: list[float], weight: int):
        """The gaps between consecutive ``times``, each emitted by ``weight``
        requests of one batch."""
        ref, floor = self.tbt_ref, self._tbt_floor
        for a, b in zip(times, times[1:]):
            ratio = (b - a) / ref
            if ratio > floor:
                self._count(self._tbt, ratio, weight, b)

    def e2e(self, request: Request, time: float):
        ref = (self.reference.prompt_time(request.prompt_tokens)
               + (request.output_tokens - 1) * self.tbt_ref)
        self._count(self._e2e, (time - request.arrival * 1000.0) / ref, 1, time)

    def _count(self, checks, ratio: float, weight: int, time: float):
        exceeded = self.exceeded
        for i, mult, allowed in checks:
            if ratio > mult:
                exceeded[i] += weight
                if exceeded[i] > allowed:
                    self.violated(i, time)

    def violated(self, i: int, time: float):
        metric, p, _, allowed = self.constraints[i]
        raise SloViolated(metric, p, self.exceeded[i], allowed, time)

    def verdict(self) -> dict:
        """``check_slo``'s verdict layout, with counts instead of ratios."""
        constraints = [{"metric": metric, "percentile": p, "multiplier": mult,
                        "exceeded": exceeded, "allowed": allowed, "pass": exceeded <= allowed}
                       for (metric, p, mult, allowed), exceeded
                       in zip(self.constraints, self.exceeded)]
        return {"constraints": constraints, "pass": all(c["pass"] for c in constraints)}


@dataclass
class SimResult:
    report: MetricsReport
    event_log: list[tuple]


class Simulator:
    """One simulation run over a single event queue."""

    def __init__(self, config: ClusterConfig, perf_models: dict[str, PerfModel],
                 trace: Trace, reference_model: PerfModel | None = None,
                 record_log: bool = True, horizon: float | None = None,
                 slo: SloTable | None = None, stop_on_slo_fail: bool = False):
        self.config = config
        self.cluster = Cluster(config, perf_models)
        self.trace = trace
        self.reference_model = reference_model
        self.record_log = record_log
        self.slo = slo or SloTable()
        self.horizon = horizon if horizon is not None else trace.duration + 600.0
        self._horizon_ms = self.horizon * 1000.0
        self._heap: list = []
        self._seq = 0
        self._log: list[tuple] = []
        self._dirty: set[int] = set()
        self.records: dict[int, RequestRecord] = {}
        self._completed = 0
        # machine id -> boundaries of its fast-forwarded batch: the ends of
        # all its iterations but the last
        self._windows: dict[int, list[float]] = {}
        self._ledger = None
        if stop_on_slo_fail:
            if reference_model is None:
                raise ConfigurationError("stop_on_slo_fail needs a reference model")
            self._ledger = SloLedger(self.slo, trace.requests, reference_model)

    # -- plumbing ----------------------------------------------------------

    def _push(self, time, handler, arg=None):
        heapq.heappush(self._heap, (time, self._seq, handler, arg))
        self._seq += 1

    def _push_end(self, time, machine: Machine):
        """Schedule the end of the machine's iteration in flight."""
        machine.due = time
        heapq.heappush(self._heap, (time, ITER_BASE + machine.id, self._on_iteration, machine.id))

    def _emit(self, time, kind, *fields):
        self._log.append((time, len(self._log), kind, fields))

    def _note_transitions(self, transitions, kind="pool_transition"):
        for (t, mid, old, new) in transitions:
            if self.record_log:
                self._emit(t, kind, mid, old, new)
            self._dirty.add(mid)

    # -- run loop ----------------------------------------------------------

    def run(self) -> SimResult:
        for req in self.trace.requests:
            self.records[req.id] = RequestRecord(req)
            self._push(req.arrival * 1000.0, self._on_arrival, req.id)
        if self.config.repurpose_window_s is not None:
            self._push(self.config.repurpose_window_s * 1000.0, self._on_maintenance)

        heap, pop = self._heap, heapq.heappop
        n = len(self.trace.requests)
        try:
            while heap and self._completed < n:
                time, _, handler, arg = pop(heap)
                if time > self._horizon_ms:
                    raise HorizonExceeded(
                        f"simulation exceeded horizon {self.horizon:.1f}s with "
                        f"{n - self._completed} requests unfinished")
                handler(time, arg)
                if self._dirty:
                    self._dispatch(time)
        finally:
            # the entries left hold bound methods of self; dropping them lets
            # a finished simulator go by refcount, not wait for the cyclic GC
            heap.clear()

        if self._completed < n:
            raise InvariantError("event queue drained with unfinished requests")
        return SimResult(self._build_report(), self._log)

    def _on_arrival(self, time, rid):
        rec = self.records[rid]
        req = rec.request
        rec.prompt_machine, rec.token_machine = self.cluster.route()
        if self.record_log:
            self._emit(time, "request_arrival", rid, req.prompt_tokens, req.output_tokens,
                       rec.prompt_machine, rec.token_machine)
        self._enqueue(time, rec.prompt_machine, Task(rid, PROMPT, req.prompt_tokens, time,
                                                     req.output_tokens, req.output_tokens))

    def _enqueue(self, time, mid, task: Task):
        machine = self.cluster.machines[mid]
        machine.enqueue(task)
        if self.record_log:
            self._emit(time, "task_enqueued", mid, task.request_id, task.kind, task.context)
        self._note_transitions(self.cluster.note_enqueue(machine, task.kind, time))
        self._dirty.add(mid)

    def _on_iteration(self, time, mid):
        machine = self.cluster.machines[mid]
        if machine.due != time:
            return  # the superseded end of an early-closed window
        if mid in self._windows:
            self._close_window(machine, time)
        batch = machine.running
        machine.complete_iteration()
        record_log = self.record_log
        if record_log:
            self._emit(time, "iteration_complete", mid)
        records, ledger = self.records, self._ledger
        for task in batch.prompt_tasks:
            rec = records[task.request_id]
            rec.first_token_time = time
            if ledger is not None:
                ledger.ttft(rec.request, time)
            if record_log:
                self._emit(time, "prompt_finished", task.request_id, mid, task.context)
            if task.output_tokens > 1:
                self._start_token_phase(time, rec, batch.prompt_ms)
            else:
                self._finish(time, rec, task, mid)
        if batch.token_tasks:
            self._emit_tokens(machine, batch, 1)
        self._dirty.add(mid)

    def _emit_tokens(self, machine: Machine, batch, k: int):
        """Each task of ``batch`` emitted a token at each of the machine's
        last ``k`` iteration ends.  Counts the ledger's TBT gaps and
        finishes the tasks with no output left; when no task finishes and
        the ledger is off, it touches no task."""
        ends, tasks, ledger, records = machine.ends, batch.token_tasks, self._ledger, self.records
        n = len(ends)
        i = n - k  # the first of the k iterations
        if ledger is not None and i == batch.first:
            # a task's first gap starts at its own last emission; the tasks
            # that ran the previous iteration share it
            first = ends[i]
            lead = self._last_emission(tasks[0], i, ends)
            shared = 0
            for task in tasks:
                last = self._last_emission(task, i, ends)
                if last == lead:
                    shared += 1
                else:
                    ledger.tbt(first - last, first)
                if task.finish == n:
                    self._finish(ends[-1], records[task.request_id], task, machine.id)
        else:
            if n == batch.finish:
                for task in [t for t in tasks if t.finish == n]:
                    self._finish(ends[-1], records[task.request_id], task, machine.id)
            if ledger is None:
                return
            # every task ran the batch's previous iteration
            lead, shared = ends[i - 1], len(tasks)
        if shared:
            ledger.tbt(ends[i] - lead, ends[i], shared)
        ledger.shared_tbt(ends[i:], len(tasks))  # every task shares the later gaps

    def _last_emission(self, task: Task, i: int, ends: list[float]) -> float:
        """The emission before the one ``task`` made at ``ends[i]``."""
        segments = task.segments
        j = len(segments) - 2 + len(segments) % 2  # where the segment holding i starts
        if segments[j] < i:
            return ends[i - 1]
        if j:
            return ends[segments[j - 1] - 1]  # the end of its previous segment
        return self.records[task.request_id].first_token_time

    def _finish(self, time, rec: RequestRecord, task: Task, mid: int):
        rec.completion = time
        rec.preempt_count = task.preempt_count
        rec.ends, rec.segments = task.ends, task.segments  # a prompt task has none
        self._completed += 1
        if self.record_log:
            self._emit(time, "request_finished", task.request_id, mid, task.kind)
        if self._ledger is not None:
            self._ledger.e2e(rec.request, time)

    def _start_token_phase(self, time, rec: RequestRecord, prompt_ms: float):
        req = rec.request
        if rec.token_machine == rec.prompt_machine:
            self._enqueue_token_task(time, rec)
            return
        perf = self.cluster.machines[rec.prompt_machine].perf
        kv = perf.kv_cache_bytes(req.prompt_tokens)
        plan = plan_transfer(req.prompt_tokens, kv, prompt_ms, self.config.transfer)
        rec.transfer_visible_ms = plan.visible_latency
        self._push(time + plan.visible_latency, self._on_transfer, req.id)

    def _on_transfer(self, time, rid):
        rec = self.records[rid]
        if self.record_log:
            self._emit(time, "transfer_complete", rid, rec.transfer_visible_ms)
        self._enqueue_token_task(time, rec)

    def _enqueue_token_task(self, time, rec: RequestRecord):
        req = rec.request
        self._enqueue(time, rec.token_machine, Task(req.id, TOKEN, req.prompt_tokens + 1, time,
                                                    req.output_tokens, req.output_tokens - 1))

    def _on_maintenance(self, time, _):
        window_ms = self.config.repurpose_window_s * 1000.0
        flips, transitions = self.cluster.repurpose(time, window_ms)
        self._note_transitions(flips, "pool_maintenance")
        self._note_transitions(transitions)
        if self._completed < len(self.trace.requests):
            self._push(time + window_ms, self._on_maintenance)

    def _dispatch(self, time):
        """Pool upkeep, then a batch start, on each machine the event changed."""
        mids = sorted(self._dirty)
        self._note_transitions(self.cluster.update_pools(time, mids))
        machines, record_log = self.cluster.machines, self.record_log
        for mid in mids:
            machine = machines[mid]
            if mid in self._windows:
                self._close_window(machine, time)
            if machine.running is not None:
                continue
            batch = machine.form_batch()
            if batch is None:
                continue
            machine.running = batch
            self._start_iteration(time, machine, batch,
                                  0 if record_log else machine.unchanged_repeats())
            machine.check_memory()
            if record_log:
                self._emit(time, "batch_started", mid, batch.kind, *batch.request_ids,
                           batch.iteration_time)
        self._dirty.clear()

    def _start_iteration(self, time, machine: Machine, batch, repeats=0):
        """Start the batch's next iteration; with ``repeats``, start a window
        of ``repeats + 1`` iterations of which only the last has a heap
        entry."""
        duration = batch.iteration_time  # ms
        machine.busy_time += duration
        end = time + duration
        if repeats:
            # the boundaries, by the float additions of one push per iteration
            bounds = list(accumulate(repeat(duration, repeats), initial=end))
            end = bounds.pop()
            self._windows[machine.id] = bounds
        self._push_end(end, machine)

    def _close_window(self, machine: Machine, now):
        """Apply the iterations that a window ran before ``now`` without
        completing them.  When that is not all of them, the window closes
        early: the iteration in flight gets its own heap entry, and the
        window's entry is skipped when it pops."""
        bounds = self._windows.pop(machine.id)
        k = bisect_left(bounds, now)
        if k < len(bounds):
            self._push_end(bounds[k], machine)
        if not k:
            return
        batch = machine.running
        machine.repeat_iterations(bounds[:k])
        duration, busy = batch.iteration_time, machine.busy_time
        for _ in range(k):  # one addition per iteration, so the floats match
            busy += duration
        machine.busy_time = busy
        self._emit_tokens(machine, batch, k)
        machine.check_memory()  # memory only grew inside the window

    # -- reporting ---------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        records = [self.records[r.id] for r in self.trace.requests]
        makespan = max((r.completion for r in records), default=0.0)  # ms
        throughput = len(records) / (makespan / 1000.0) if makespan > 0 else 0.0
        utilization = {m.id: (m.busy_time / makespan if makespan > 0 else 0.0)
                       for m in self.cluster.machines.values()}
        report = MetricsReport(records, throughput, utilization)
        if self._ledger is not None and records:
            report.slo = self._ledger.verdict()
        elif self.reference_model is not None and records:
            refs = {r.request.id: reference_latencies(r.request, self.reference_model)
                    for r in records}
            report.slo = check_slo(report, self.slo, refs)
        return report


# -- CSV emission ----------------------------------------------------------

REQUEST_CSV_HEADER = ("request_id,arrival_s,ttft_ms,e2e_ms,prompt_machine,"
                      "token_machine,transfer_visible_ms,preempt_count")
TBT_CSV_HEADER = "request_id,gap_index,tbt_ms"


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
            buf.write(f"{c['metric']},P{int(c['percentile'] * 100)},"
                      f"{c['observed_ratio']:.6f},{c['multiplier']},"
                      f"{'pass' if c['pass'] else 'fail'}\n")
    return buf.getvalue()


# event kind -> its whole row as one %-format: time, sequence number, kind
# and EVENT_FORMATS' payload, with "{}" as "%s" and "{:.6f}" as "%.6f"
_EVENT_ROWS = {kind: "%%s,%%s,%s,%s\n" % (kind, re.sub(r"\{(?::([^}]*))?\}",
                                                     lambda m: "%" + (m[1] or "s"),
                                                     fmt.replace("%", "%%")))
               for kind, fmt in EVENT_FORMATS.items()}


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
