"""Oracle for the fast-forwarded token iterations.

With the event log on, the engine runs every iteration in full; with it
off, an unchanged token batch is fast-forwarded.  Both runs must give the
same CSVs and utilization on random small traces.
Arrivals sit on a whole-ms or 50 ms grid so that events tie.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from splitsim import (
    DESIGNS,
    ClusterConfig,
    Machine,
    Request,
    SchedulerConfig,
    Simulator,
    Trace,
    get_calibration,
)
from splitsim import engine


def counted_run(config, trace, record_log):
    """Run a simulation; returns its result and its complete_iteration calls."""
    original = Machine.complete_iteration
    calls = 0

    def counting(self):
        nonlocal calls
        calls += 1
        return original(self)

    models = {mt: get_calibration(config.llm, mt)
              for mt in {config.prompt_type, config.token_type}}
    Machine.complete_iteration = counting
    try:
        result = Simulator(config, models, trace,
                           reference_model=get_calibration(config.llm, "A100"),
                           record_log=record_log).run()
    finally:
        Machine.complete_iteration = original
    return result, calls


def outputs(result):
    return (engine.requests_csv(result), engine.tbt_csv(result), engine.summary_csv(result),
            result.report.utilization)


@st.composite
def scenarios(draw):
    design = draw(st.sampled_from(sorted(DESIGNS)))
    prompt_machines = draw(st.integers(1, 2))
    token_machines = 0 if DESIGNS[design][2] else draw(st.integers(1, 2))
    window = draw(st.one_of(st.none(), st.integers(2, 5)))  # repurposing window, s
    sched = SchedulerConfig(max_preemptions=draw(st.sampled_from([1, 4])),
                            queue_threshold_tokens=draw(st.sampled_from([256, 4096])))
    config = ClusterConfig(design, prompt_machines, token_machines, sched=sched,
                           repurpose_window_s=window)
    grid_ms = draw(st.sampled_from([1, 50]))
    arrivals = sorted(draw(st.lists(st.integers(0, 4000 // grid_ms), min_size=1, max_size=12)))
    sizes = draw(st.lists(st.tuples(st.integers(16, 2048), st.integers(1, 400)),
                          min_size=len(arrivals), max_size=len(arrivals)))
    # one long output, so that some token batch is stable for many iterations
    sizes[draw(st.integers(0, len(sizes) - 1))] = (draw(st.integers(16, 2048)),
                                                   draw(st.integers(300, 600)))
    requests = [Request(i, a * grid_ms / 1000.0, p, o)
                for i, (a, (p, o)) in enumerate(zip(arrivals, sizes))]
    return config, Trace(requests, duration=max(1.0, requests[-1].arrival))


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_log_off_matches_log_on(scenario):
    config, trace = scenario
    logged, full_calls = counted_run(config, trace, record_log=True)
    fast, fast_calls = counted_run(config, trace, record_log=False)
    assert outputs(fast) == outputs(logged)
    # the fast path engages: most iterations skip complete_iteration
    assert 2 * fast_calls < full_calls


class EveryMachine(set):
    """A dirty set that holds every machine again whenever it is cleared, so
    that the simulator dispatches every machine after every event."""

    def __init__(self, mids):
        self.mids = tuple(mids)
        super().__init__(self.mids)

    def clear(self):
        self.update(self.mids)


def dispatched_run(config, trace, record_log, every_machine):
    models = {mt: get_calibration(config.llm, mt)
              for mt in {config.prompt_type, config.token_type}}
    sim = Simulator(config, models, trace, reference_model=get_calibration(config.llm, "A100"),
                    record_log=record_log)
    if every_machine:
        sim._dirty = EveryMachine(sim.cluster.machines)
    return sim.run()


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_dirty_machines_match_every_machine(scenario):
    """Dispatching only the machines an event changed gives the run that
    dispatching every machine after every event gives."""
    config, trace = scenario
    for record_log in (True, False):
        dirty = dispatched_run(config, trace, record_log, every_machine=False)
        every = dispatched_run(config, trace, record_log, every_machine=True)
        assert outputs(dirty) == outputs(every)
        assert engine.event_log_csv(dirty) == engine.event_log_csv(every)
