"""The cost of a token iteration does not grow with its batch size.

A run's cost is measured in Python line events inside ``src/splitsim``,
counted with ``sys.settrace``, so the count is exact and the same on every
host.  All requests arrive at 0 with equal sizes on one Baseline machine:
their prompts run as one batch, and their token tasks then run as one batch
until they all finish at the same iteration.  Two output lengths differ only
in the number of those unchanged iterations, so the difference of their
counts, divided by the difference of the lengths, is the number of lines
that one more token iteration runs.
"""

import sys
from pathlib import Path

import pytest

import splitsim
from splitsim import ClusterConfig, Request, Simulator, Trace, get_calibration

SRC = str(Path(splitsim.__file__).resolve().parent)

PROMPT_TOKENS = 32
SHORT, LONG = 20, 50  # output lengths


def traced_lines(requests: int, outputs: int, record_log: bool) -> int:
    """Line events in ``src/splitsim`` over one whole run."""
    config = ClusterConfig("Baseline-H100", 1, 0)
    models = {"H100": get_calibration(config.llm, "H100")}
    trace = Trace([Request(i, 0.0, PROMPT_TOKENS, outputs) for i in range(requests)],
                  duration=1.0)
    sim = Simulator(config, models, trace, record_log=record_log)
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    sys.settrace(calls)
    try:
        result = sim.run()
    finally:
        sys.settrace(None)
    assert len(result.report.records) == requests
    return lines


def lines_per_iteration(requests: int, record_log: bool) -> float:
    extra = traced_lines(requests, LONG, record_log) - traced_lines(requests, SHORT, record_log)
    return extra / (LONG - SHORT)


@pytest.mark.parametrize("record_log", [True, False])
def test_token_iteration_cost_is_independent_of_batch_size(record_log):
    small, large = (lines_per_iteration(n, record_log) for n in (8, 48))
    assert small > 0
    assert large == small
