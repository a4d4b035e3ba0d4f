"""Iteration ends: their fixed tie order, and one heap entry per
fast-forwarded window.

An iteration end on machine m sorts after every arrival, transfer and
maintenance event at the same time, and after the ends of machines with
lower ids.  A100 calibration times are whole ms at the sizes used here
(``prompt_time(512)`` = 142.0, ``prompt_time(2048)`` = 253.0,
``token_iter_time(1)`` = 52.0, and a layer-wise transfer shows 8.0 ms), so
events land exactly on iteration ends.
"""

import math
from collections import Counter

import pytest

from splitsim import (
    ClusterConfig,
    Machine,
    Request,
    SizeDistribution,
    Simulator,
    Trace,
    generate_trace,
    get_calibration,
)
from splitsim import engine

A100 = get_calibration("llama2-70b", "A100")


def simulate(config, trace, record_log):
    models = {mt: get_calibration(config.llm, mt)
              for mt in {config.prompt_type, config.token_type}}
    return Simulator(config, models, trace, reference_model=A100,
                     record_log=record_log).run()


def outputs(result):
    return (engine.requests_csv(result), engine.tbt_csv(result), engine.summary_csv(result),
            result.report.utilization)


# (config, trace, the tying request, the iteration end it is enqueued at)
TIES = {
    # request 0's prompt ends at 142 and its tokens run every 52 ms on the
    # same machine: 194, 246, ...; request 1 arrives at 246
    "arrival": (ClusterConfig("Baseline-A100", 1, 0),
                Trace([Request(0, 0.0, 512, 50), Request(1, 0.246, 512, 5)], duration=1.0),
                1, 246.0),
    # request 0's tokens start at 253 + 8 = 261 and end every 52 ms; request
    # 1's prompt ends at 513 and its transfer, pushed after the end at 521
    # was, lands on it
    "transfer": (ClusterConfig("Splitwise-AA", 1, 1),
                 Trace([Request(0, 0.0, 2048, 50), Request(1, 0.26, 2048, 5)], duration=1.0),
                 1, 521.0),
}


@pytest.mark.parametrize("name", sorted(TIES))
def test_event_at_an_iteration_end_goes_first(name):
    config, trace, rid, tie = TIES[name]
    logged = simulate(config, trace, record_log=True)
    at_tie = [(kind, fields) for (t, _, kind, fields) in logged.event_log if t == tie]
    kinds = [kind for kind, _ in at_tie]
    enqueued = next(i for i, (kind, fields) in enumerate(at_tie)
                    if kind == "task_enqueued" and fields[1] == rid)
    assert enqueued < kinds.index("iteration_complete")
    # the batch that starts at the boundary takes the new task
    started = [fields for kind, fields in at_tie if kind == "batch_started"]
    assert len(started) == 1
    _machine, _kind, prompts, tokens, _ms = started[0]
    assert rid in prompts + tokens
    assert outputs(simulate(config, trace, record_log=False)) == outputs(logged)


def test_iteration_ends_tie_in_machine_order():
    # two machines, each with one request whose prompt and tokens take the
    # same whole-ms times, end every iteration together
    config = ClusterConfig("Baseline-A100", 2, 0)
    trace = Trace([Request(0, 0.0, 512, 8), Request(1, 0.0, 512, 8)], duration=1.0)
    logged = simulate(config, trace, record_log=True)
    ends = [(t, fields[0]) for (t, _, kind, fields) in logged.event_log
            if kind == "iteration_complete"]
    assert len(ends) == 16
    assert ends == sorted(ends)
    assert outputs(simulate(config, trace, record_log=False)) == outputs(logged)


class _Counting(Simulator):
    """Counts iteration-end handler calls and windows closed by an event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counts = Counter()
        self._dispatching = False

    def _on_iteration(self, time, mid):
        self.counts["on_iteration"] += 1
        return super()._on_iteration(time, mid)

    def _dispatch(self, time):
        self._dispatching = True
        try:
            super()._dispatch(time)
        finally:
            self._dispatching = False

    def _close_window(self, machine, *args):
        if self._dispatching:
            self.counts["closed_early"] += 1
        return super()._close_window(machine, *args)


def test_window_pops_once():
    # long outputs keep token batches stable for many iterations
    dist = SizeDistribution.lognormal
    trace = generate_trace(dist(math.log(256), 0.5, 16, 4096),
                           dist(math.log(400), 0.5, 16, 2048), 1.5, 20.0, seed=4)
    config = ClusterConfig("Splitwise-AA", 1, 1)
    original = Machine.complete_iteration
    completed = 0

    def counting(self):
        nonlocal completed
        completed += 1
        return original(self)

    Machine.complete_iteration = counting
    try:
        sim = _Counting(config, {"A100": A100}, trace, reference_model=A100, record_log=False)
        result = sim.run()
    finally:
        Machine.complete_iteration = original
    tokens = sum(len(rec.emissions) for rec in result.report.records)
    assert completed < tokens // 4  # windows engaged
    assert sim.counts["closed_early"] > 0
    assert sim.counts["on_iteration"] <= completed + sim.counts["closed_early"]
