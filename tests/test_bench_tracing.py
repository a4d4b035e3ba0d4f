"""The benchmark's tracer still finds the names it patches.

``bench/tracing.py`` wraps splitsim functions where their callers look them
up: methods on their classes, and module globals such as
``engine.check_slo``, ``engine.reference_latencies``,
``engine.plan_transfer`` and ``provision.generate_trace``.  A refactor that
renames one of them either breaks ``traced`` on entry or leaves a layer of
the traced benchmark reading 0.  These tests enter and leave ``traced``
around a small simulation and one probe, and check that every layer was seen
and every name restored.
"""

import importlib.util
from pathlib import Path

import splitsim
import splitsim.cluster
import splitsim.engine
import splitsim.machine
import splitsim.perf
import splitsim.provision
import splitsim.trace
import splitsim.transfer
from splitsim import (
    PRESETS,
    ClusterConfig,
    Simulator,
    Workload,
    get_calibration,
)

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

CONVERSATION = Workload(PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"])


def patch_points():
    """(owner, attribute) of every place the tracer may patch that exists."""
    spans, counts = tracing._targets(splitsim)
    return [(owner, attr) for kinds in (spans, counts) for places in kinds.values()
            for owner, attr in places if hasattr(owner, attr)]


def test_traced_sees_every_layer_and_restores_every_name():
    trace = splitsim.generate_trace(CONVERSATION.prompt_dist, CONVERSATION.output_dist,
                                    1.0, 10.0, seed=1)
    config = ClusterConfig("Splitwise-AA", 1, 1)
    models = {"A100": get_calibration(config.llm, "A100")}
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in patch_points()]

    with tracing.traced(splitsim) as tracer:
        result = Simulator(config, models, trace, reference_model=models["A100"]).run()
        for emit in ("requests_csv", "tbt_csv", "summary_csv", "event_log_csv"):
            getattr(splitsim.engine, emit)(result)
        splitsim.provision.slo_pass_at_rate("Splitwise-AA", 1, 1, CONVERSATION, 1.0,
                                            duration=5.0, seeds=(1,))

    assert [(owner, attr) for owner, attr, original in before
            if getattr(owner, attr) is not original] == []
    metrics = tracing.layer_metrics(tracer)
    seen = ("trace.generate_trace.calls",  # through provision's own name
            "perf.prompt_time.calls", "perf.token_iter_time.calls",
            "perf.kv_cache_bytes.calls", "transfer.plan_transfer.calls",
            "machine.form_batch.calls", "machine.complete_iteration.calls",
            "machine.enqueue.calls", "cluster.route.calls", "cluster.update_pools.calls",
            "engine.check_slo.calls", "engine.reference_latencies.calls",
            "engine.event_log_rows", "provision.probes", "provision.simulations",
            "provision.simulated_requests")
    assert [name for name in seen if not metrics[name]] == []
    assert metrics["trace.generate_trace.calls"] == 1
    assert metrics["provision.probes"] == 1
    assert metrics["provision.simulations"] == 2
    assert all(tracer.stat(f"engine.{emit}").calls == 1
               for emit in ("requests_csv", "tbt_csv", "summary_csv", "event_log_csv"))
