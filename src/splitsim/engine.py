"""Deterministic event-driven simulation core.

Events are processed in ``(time, key)`` order, so identical inputs replay
to byte-identical event logs.  The tie rule is fixed.  Arrivals never enter
the heap: ``run`` takes them from the trace in order and handles the next
one before any heap entry whose time is not earlier, so at an equal time an
arrival comes first.  Transfers and maintenance take increasing sequence
numbers as keys and tie by insertion; the end of an iteration on machine
``m`` takes ``ITER_BASE + m``, so at an equal time it comes after every
other event, and after the ends of machines with lower ids.  An iteration
end's key does not depend on when it was pushed.  The simulation clock runs
in milliseconds.  Trace arrivals stay in seconds; two places compute
``arrival * 1000.0``: ``run``, for an arrival's event, and
``RequestRecord.ttft_ms`` / ``e2e_ms``, for the latencies that both SLO
judges read.

The engine wires the request lifecycle: arrival -> JSQ routing -> prompt
iterations -> KV-cache transfer -> token iterations -> completion.  The
report layer (``report.py``) turns its records into TTFT/TBT/E2E metrics
and the nine-way SLO verdict against an unbatched reference machine, whose
latencies ``reference_latencies`` evaluates once per run, when the
simulator is built.  A probe (``stop_on_slo_fail``) has one early stop:
its ``SloLedger`` counts each E2E ratio in ``_finish`` and raises
``SloViolated`` at the first count over its allowance.  A probe that is not
stopped ends as any run does, with ``check_slo``'s verdict in its report.

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

A token iteration touches no task unless one finishes: ``_on_iteration``
finishes exactly the tasks that ``Machine.complete_iteration`` returns.
With the log on, an unchanged batch is the same ``Batch`` object on every
iteration, so its ``batch_started`` rows share one id tuple
(``Batch.request_ids``).  A finished task's record keeps a reference to its
machine's ``ends`` and the task's ``segments``, not a copy of its emission
times; ``RequestRecord.emissions`` and ``tbt_ms()`` derive them, as
``Task.tokens`` does its count.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import accumulate, repeat

from .cluster import Cluster, ClusterConfig
from .errors import ConfigurationError, HorizonExceeded, InvariantError, ValidationError
from .machine import PROMPT, TOKEN, Machine, Task
from .perf import PerfModel
from .report import (MetricsReport, RequestRecord, SimResult, SloLedger, SloTable, check_slo,
                     reference_latencies)
# bench/workloads.py and bench/tracing.py call the emitters by these names
from .report import event_log_csv, requests_csv, summary_csv, tbt_csv  # noqa: F401
from .trace import Trace
from .transfer import plan_transfer

# Heap entries are (time, key, handler, arg); the end of an iteration on
# machine m has key ITER_BASE + m, above every sequence number.
ITER_BASE = 1 << 62


class Simulator:
    """One simulation run over a single event queue."""

    def __init__(self, config: ClusterConfig, perf_models: dict[str, PerfModel],
                 trace: Trace, reference_model: PerfModel | None = None,
                 record_log: bool = True, horizon: float | None = None,
                 slo: SloTable | None = None, stop_on_slo_fail: bool = False):
        self.config = config
        self.cluster = Cluster(config, perf_models)
        self.trace = trace
        self.record_log = record_log
        self.slo = slo or SloTable()
        self.horizon = horizon if horizon is not None else trace.duration + 600.0
        self._horizon_ms = self.horizon * 1000.0
        self._heap: list = []
        self._seq = 0
        self._log: list[tuple] = []
        self._dirty: set[int] = set()
        self.records: dict[int, RequestRecord] = {}  # made at arrival
        self._completed = 0
        self._ran = False
        # machine id -> boundaries of its fast-forwarded batch: the ends of
        # all its iterations but the last
        self._windows: dict[int, list[float]] = {}
        # the trace's reference_latencies triple, which both SLO judges read
        self._references = (None if reference_model is None
                            else reference_latencies(trace.requests, reference_model))
        self._ledger = None
        if stop_on_slo_fail:
            if self._references is None:
                raise ConfigurationError("stop_on_slo_fail needs a reference model")
            self._ledger = SloLedger(self.slo, trace.requests, self._references[2])

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
        """Simulate the trace.  A simulator runs once."""
        if self._ran:
            raise ValidationError("a Simulator runs once; build a new one for another run")
        self._ran = True
        if self.config.repurpose_window_s is not None:
            self._push(self.config.repurpose_window_s * 1000.0, self._on_maintenance)

        heap, pop = self._heap, heapq.heappop
        requests = self.trace.requests
        n = len(requests)
        # the next arrival, from the trace: it comes before any heap entry
        # whose time is not earlier (see the tie rule above)
        i, arrival = 0, requests[0].arrival * 1000.0 if requests else math.inf
        try:
            while self._completed < n:
                if heap and heap[0][0] < arrival:
                    time, _, handler, arg = pop(heap)
                elif i < n:
                    time, handler, arg = arrival, self._on_arrival, requests[i]
                    i += 1
                    arrival = requests[i].arrival * 1000.0 if i < n else math.inf
                else:
                    break
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

    def _on_arrival(self, time, req):
        rid = req.id
        rec = self.records[rid] = RequestRecord(req)
        rec.prompt_machine, rec.token_machine = self.cluster.route()
        if self.record_log:
            self._emit(time, "request_arrival", rid, req.prompt_tokens, req.output_tokens,
                       rec.prompt_machine, rec.token_machine)
        self._enqueue(time, rec.prompt_machine,
                      Task(rid, PROMPT, req.prompt_tokens, time, req.output_tokens))

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
        finished = machine.complete_iteration()
        record_log = self.record_log
        if record_log:
            self._emit(time, "iteration_complete", mid)
        records = self.records
        for task in batch.prompt_tasks:
            rec = records[task.request_id]
            rec.first_token_time = time
            if record_log:
                self._emit(time, "prompt_finished", task.request_id, mid, task.context)
            if task.outputs > 1:
                self._start_token_phase(time, rec, batch.prompt_ms)
            else:
                self._finish(time, rec, task, mid)
        for task in finished:
            self._finish(time, records[task.request_id], task, mid)
        self._dirty.add(mid)

    def _finish(self, time, rec: RequestRecord, task: Task, mid: int):
        rec.completion = time
        rec.preempt_count = task.preempt_count
        rec.ends, rec.segments = task.ends, task.segments  # a prompt task has none
        self._completed += 1
        if self.record_log:
            self._emit(time, "request_finished", task.request_id, mid, task.kind)
        if self._ledger is not None:
            self._ledger.e2e(rec)

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
        self._enqueue(time, rec.token_machine,
                      Task(req.id, TOKEN, req.prompt_tokens + 1, time, req.output_tokens - 1))

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
        machine.check_memory()  # memory only grew inside the window

    # -- reporting ---------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        records = list(self.records.values())  # in the trace's order, as the references
        makespan = max((r.completion for r in records), default=0.0)  # ms
        throughput = len(records) / (makespan / 1000.0) if makespan > 0 else 0.0
        utilization = {m.id: (m.busy_time / makespan if makespan > 0 else 0.0)
                       for m in self.cluster.machines.values()}
        report = MetricsReport(records, throughput, utilization)
        if self._references is not None and records:
            report.slo = check_slo(report, self.slo, *self._references)
        return report
