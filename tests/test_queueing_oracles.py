"""The engine against queueing theory: the prompt phase as an M/G/1 queue.

Every other oracle compares the engine with itself (log on against log off,
the columnar report against per-row references, golden hashes the engine
wrote), so a defect shared by both paths, such as a batch that starts one
iteration late, passes them all.  This one compares it with a closed form.

Set-up: Splitwise-AA 1/1 with ``prompt_token_cap=1``, so each prompt batch
is the head prompt alone, and a ``queue_threshold_tokens`` that nothing
reaches, so no prompt overflows to the token machine.  Every request has one
output token, so it finishes at its first token.  Arrivals are Poisson and
prompt sizes i.i.d. ``coding`` draws, served on an A100: the prompt machine
is an M/G/1 FCFS queue with service time ``S = prompt_time(size)``, and
TTFT minus ``S`` is the wait.  Its mean is the Pollaczek-Khinchine value
``lambda E[S^2] / (2 (1 - rho))`` with ``rho = lambda E[S]`` (Kleinrock,
*Queueing Systems, Vol. 1*, 1975).  The moments are exact sums over the
distribution's integer sizes.  The simulated mean is judged by 20 batch
means, within 4 standard errors; the bound and the seeds were fixed before
the test first ran.
"""

import math

import numpy as np
import pytest

from splitsim import (PRESETS, ClusterConfig, Request, SchedulerConfig, Simulator, Trace,
                      get_calibration)

MODEL = get_calibration("llama2-70b", "A100")
N = 20_000
BATCHES = 20


def service_moments(dist) -> tuple[float, float]:
    """E[S] and E[S^2] in seconds, for the integer sizes that ``sample``
    gives a lognormal: a draw rounded to the nearest integer, then clipped."""
    mu, sigma = dist.params
    lo, hi = dist.min_tokens, dist.max_tokens

    def cdf(x):
        return 0.5 * (1.0 + math.erf((math.log(x) - mu) / (sigma * math.sqrt(2.0))))

    sizes = np.arange(lo, hi + 1)
    edges = [cdf(k + 0.5) for k in sizes[:-1]]
    probs = np.diff([0.0, *edges, 1.0])
    service = np.array([MODEL.prompt_time(int(k)) / 1000.0 for k in sizes])
    return float(probs @ service), float(probs @ service ** 2)


def poisson_trace(rate: float, seed: int) -> Trace:
    """``N`` Poisson arrivals at ``rate`` per second, ``coding`` prompts,
    one output token each."""
    rng = np.random.Generator(np.random.Philox(seed))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, N))
    prompts, _ = PRESETS["coding"]["prompt"].sample(rng, N)
    requests = [Request(i, float(t), int(p), 1) for i, (t, p) in enumerate(zip(arrivals, prompts))]
    return Trace(requests, duration=float(arrivals[-1]))


@pytest.mark.parametrize("rho, seed", [(0.5, 11), (0.7, 12), (0.85, 13)])
def test_prompt_wait_is_pollaczek_khinchine(rho, seed):
    mean_s, second_s = service_moments(PRESETS["coding"]["prompt"])
    rate = rho / mean_s
    config = ClusterConfig("Splitwise-AA", 1, 1, sched=SchedulerConfig(
        prompt_token_cap=1, queue_threshold_tokens=1 << 30))
    records = Simulator(config, {"A100": MODEL}, poisson_trace(rate, seed),
                        record_log=False).run().report.records
    waits = np.array([(rec.ttft_ms - MODEL.prompt_time(rec.request.prompt_tokens)) / 1000.0
                      for rec in records])
    assert waits.min() > -1e-9  # no request starts before it arrives
    expected = rate * second_s / (2.0 * (1.0 - rho))
    means = waits.reshape(BATCHES, -1).mean(axis=1)
    z = (means.mean() - expected) / (means.std(ddof=1) / math.sqrt(BATCHES))
    assert abs(z) <= 4.0, (rho, seed, means.mean() / expected, z)
