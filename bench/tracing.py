"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public entry points of each splitsim module and patches
each wrapper in where its caller looks the name up: a method on its class
(``Machine.form_batch``), or a module global for functions that another
module imported by name (``splitsim.engine.plan_transfer``,
``splitsim.provision.generate_trace``).  Nothing in ``src/`` changes.

A *span* wrapper times each call and keeps a stack so that a layer's self
time excludes the time of the wrapped calls it makes.  A *count* wrapper
only counts; it is used for calls too small and frequent to time.  Spans
are aggregated in memory (calls, self time and every call's duration) and
turned into the per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

# name -> (unit, "lower"/"higher" is better); the order is the output order.
PER_LAYER = {
    "trace.generate_trace.calls": ("count", "lower"),
    "trace.generate_trace.self_s": ("s", "lower"),
    "trace.parse_trace.self_s": ("s", "lower"),
    "perf.prompt_time.calls": ("count", "lower"),
    "perf.prompt_time.self_s": ("s", "lower"),
    "perf.token_iter_time.calls": ("count", "lower"),
    "perf.token_iter_time.self_s": ("s", "lower"),
    "perf.kv_cache_bytes.calls": ("count", "lower"),
    "transfer.plan_transfer.calls": ("count", "lower"),
    "transfer.plan_transfer.self_s": ("s", "lower"),
    "transfer.layerwise_share": ("ratio", "higher"),
    "machine.form_batch.calls": ("count", "lower"),
    "machine.form_batch.self_s": ("s", "lower"),
    "machine.form_batch.useful_ratio": ("ratio", "higher"),
    "machine.form_batch.candidates_mean": ("count", "lower"),
    "machine.complete_iteration.calls": ("count", "lower"),
    "machine.complete_iteration.self_s": ("s", "lower"),
    "machine.enqueue.calls": ("count", "lower"),
    "machine.preemptions": ("count", "lower"),
    "machine.token_batch_mean": ("count", "higher"),
    "cluster.route.calls": ("count", "lower"),
    "cluster.route.self_s": ("s", "lower"),
    "cluster.update_pools.calls": ("count", "lower"),
    "cluster.update_pools.self_s": ("s", "lower"),
    "cluster.update_pools.useful_ratio": ("ratio", "higher"),
    "cluster.pool_transitions": ("count", "lower"),
    "engine.run.self_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.self_us_per_event": ("us", "lower"),
    "engine.events_per_s": ("1/s", "higher"),
    "engine.check_slo.calls": ("count", "lower"),
    "engine.check_slo.self_s": ("s", "lower"),
    "engine.check_slo.calls_per_simulation": ("ratio", "lower"),
    "engine.reference_latencies.calls": ("count", "lower"),
    "engine.reference_latencies.self_s": ("s", "lower"),
    "engine.emit_csv.self_s": ("s", "lower"),
    "engine.requests_csv.self_s": ("s", "lower"),
    "engine.tbt_csv.self_s": ("s", "lower"),
    "engine.summary_csv.self_s": ("s", "lower"),
    "engine.event_log_csv.self_s": ("s", "lower"),
    "engine.event_log_rows": ("count", "lower"),
    "provision.probes": ("count", "lower"),
    "provision.probe_pass_ratio": ("ratio", "higher"),
    "provision.simulations": ("count", "lower"),
    "provision.simulated_requests": ("count", "lower"),
    "provision.probe_wall_p50_s": ("s", "lower"),
    "provision.probe_wall_max_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}

# Metrics that are simulated counts or ratios of counts: identical on every
# run with the same seed, traced or not, and on every commit that keeps
# behaviour.
EXACT = frozenset(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "ratio"))


class _Stat:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    """Spans and counters of one traced operation, kept in memory."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: Counter = Counter()
        self._children: list[float] = []  # per open span: time of its wrapped callees

    def stat(self, name: str) -> _Stat:
        return self.stats.setdefault(name, _Stat())

    def span(self, name, fn, before=None, after=None):
        stat = self.stat(name)
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - covered
                stat.durations.append(elapsed)
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name, fn, before=None, after=None):
        stat = self.stat(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            stat.calls += 1
            if after is not None:
                after(result)
            return result

        return wrapper


def _hooks(ss, counters):
    """Observers that derive counts from a call's arguments or result."""
    layerwise = ss.transfer.LAYERWISE

    def before_form_batch(args):
        machine = args[0]
        counters["form_batch.candidates"] += len(machine.resident) + len(machine.pending_tokens_q)

    def after_form_batch(batch):
        if batch is not None:
            counters["form_batch.useful"] += 1
            if batch.token_tasks:
                counters["token_batches"] += 1
                counters["token_batch_tasks"] += len(batch.token_tasks)

    def after_transitions(transitions):
        counters["pool_transitions"] += len(transitions)

    def after_update_pools(transitions):
        counters["update_pools.useful"] += bool(transitions)
        after_transitions(transitions)

    def before_run(args):
        counters["simulated_requests"] += len(args[0].trace.requests)

    def after_run(result):
        counters["preemptions"] += sum(r.preempt_count for r in result.report.records)
        counters["event_log_rows"] += len(result.event_log)

    def after_plan(plan):
        counters["layerwise"] += plan.mode == layerwise

    def after_probe(passed):
        counters["probe_passes"] += bool(passed)

    return {
        "machine.form_batch": (before_form_batch, after_form_batch),
        "cluster.update_pools": (None, after_update_pools),
        "cluster.note_enqueue": (None, after_transitions),
        "engine.run": (before_run, after_run),
        "transfer.plan_transfer": (None, after_plan),
        "provision.slo_pass_at_rate": (None, after_probe),
    }


def _targets(ss):
    """Span and count names -> every (owner, attribute) a caller looks up."""
    trace, perf, engine, provision = ss.trace, ss.perf, ss.engine, ss.provision
    machine, cluster, sim = ss.machine.Machine, ss.cluster.Cluster, ss.engine.Simulator
    spans = {
        "trace.generate_trace": [(trace, "generate_trace"), (provision, "generate_trace")],
        "trace.parse_trace": [(trace, "parse_trace")],
        "perf.prompt_time": [(perf.PerfModel, "prompt_time")],
        "perf.token_iter_time": [(perf.PerfModel, "token_iter_time")],
        "transfer.plan_transfer": [(engine, "plan_transfer")],
        "machine.form_batch": [(machine, "form_batch")],
        "machine.complete_iteration": [(machine, "complete_iteration")],
        "cluster.route": [(cluster, "route")],
        "cluster.update_pools": [(cluster, "update_pools")],
        "engine.run": [(sim, "run")],
        "engine.check_slo": [(engine, "check_slo"), (provision, "check_slo")],
        "engine.reference_latencies": [(engine, "reference_latencies"),
                                       (provision, "reference_latencies")],
        **{f"engine.{name}": [(engine, name)] for name in
           ("requests_csv", "tbt_csv", "summary_csv", "event_log_csv")},
        "provision.slo_pass_at_rate": [(provision, "slo_pass_at_rate")],
    }
    counts = {
        "perf.kv_cache_bytes": [(perf.PerfModel, "kv_cache_bytes")],
        "machine.enqueue": [(machine, "enqueue")],
        "cluster.note_enqueue": [(cluster, "note_enqueue")],
        "cluster.repurpose": [(cluster, "repurpose")],
    }
    return spans, counts


@contextmanager
def traced(ss):
    """Patch every target with a wrapper for the duration of the block.

    A place that no longer holds the layer's function (a caller that stopped
    importing it by name) is skipped; the layer is still traced wherever the
    function is looked up.
    """
    tracer = Tracer()
    hooks = _hooks(ss, tracer.counters)
    spans, counts = _targets(ss)
    saved = []
    try:
        for kinds, make in ((spans, tracer.span), (counts, tracer.count)):
            for name, places in kinds.items():
                original = getattr(*places[0])
                wrapper = make(name, original, *hooks.get(name, (None, None)))
                for owner, attr in places:
                    if getattr(owner, attr, None) is original:
                        saved.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``engine.events_per_s`` and ``trace_overhead_s`` need the untraced run
    and are filled in by the caller.
    """
    st = tracer.stat
    c = tracer.counters

    def calls(name):
        return st(name).calls

    def self_s(name):
        return st(name).self_s

    events = (calls("cluster.route") + calls("machine.complete_iteration")
              + calls("transfer.plan_transfer") + calls("cluster.repurpose"))
    probes = st("provision.slo_pass_at_rate").durations
    emitters = ("requests_csv", "tbt_csv", "summary_csv", "event_log_csv")
    metrics = {
        "trace.generate_trace.calls": calls("trace.generate_trace"),
        "trace.generate_trace.self_s": self_s("trace.generate_trace"),
        "trace.parse_trace.self_s": self_s("trace.parse_trace"),
        "perf.prompt_time.calls": calls("perf.prompt_time"),
        "perf.prompt_time.self_s": self_s("perf.prompt_time"),
        "perf.token_iter_time.calls": calls("perf.token_iter_time"),
        "perf.token_iter_time.self_s": self_s("perf.token_iter_time"),
        "perf.kv_cache_bytes.calls": calls("perf.kv_cache_bytes"),
        "transfer.plan_transfer.calls": calls("transfer.plan_transfer"),
        "transfer.plan_transfer.self_s": self_s("transfer.plan_transfer"),
        "transfer.layerwise_share": _ratio(c["layerwise"], calls("transfer.plan_transfer")),
        "machine.form_batch.calls": calls("machine.form_batch"),
        "machine.form_batch.self_s": self_s("machine.form_batch"),
        "machine.form_batch.useful_ratio": _ratio(c["form_batch.useful"],
                                                  calls("machine.form_batch")),
        "machine.form_batch.candidates_mean": _ratio(c["form_batch.candidates"],
                                                     calls("machine.form_batch")),
        "machine.complete_iteration.calls": calls("machine.complete_iteration"),
        "machine.complete_iteration.self_s": self_s("machine.complete_iteration"),
        "machine.enqueue.calls": calls("machine.enqueue"),
        "machine.preemptions": c["preemptions"],
        "machine.token_batch_mean": _ratio(c["token_batch_tasks"], c["token_batches"]),
        "cluster.route.calls": calls("cluster.route"),
        "cluster.route.self_s": self_s("cluster.route"),
        "cluster.update_pools.calls": calls("cluster.update_pools"),
        "cluster.update_pools.self_s": self_s("cluster.update_pools"),
        "cluster.update_pools.useful_ratio": _ratio(c["update_pools.useful"],
                                                    calls("cluster.update_pools")),
        "cluster.pool_transitions": c["pool_transitions"],
        "engine.run.self_s": self_s("engine.run"),
        "engine.events": events,
        "engine.self_us_per_event": 1e6 * _ratio(self_s("engine.run"), events),
        "engine.check_slo.calls": calls("engine.check_slo"),
        "engine.check_slo.self_s": self_s("engine.check_slo"),
        "engine.check_slo.calls_per_simulation": _ratio(calls("engine.check_slo"),
                                                        calls("engine.run")),
        "engine.reference_latencies.calls": calls("engine.reference_latencies"),
        "engine.reference_latencies.self_s": self_s("engine.reference_latencies"),
        "engine.emit_csv.self_s": sum(self_s(f"engine.{name}") for name in emitters),
        **{f"engine.{name}.self_s": self_s(f"engine.{name}") for name in emitters},
        "engine.event_log_rows": c["event_log_rows"],
        "provision.probes": len(probes),
        "provision.probe_pass_ratio": _ratio(c["probe_passes"], len(probes)),
        "provision.simulations": calls("engine.run"),
        "provision.simulated_requests": c["simulated_requests"],
        "provision.probe_wall_p50_s": statistics.median(probes) if probes else 0.0,
        "provision.probe_wall_max_s": max(probes, default=0.0),
    }
    return metrics
