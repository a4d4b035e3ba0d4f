"""Design-space search over machine counts and types: find SLO-compliant
clusters optimizing throughput, cost, or power under iso-power, iso-cost,
or iso-throughput framings.

Each candidate (prompt_count, token_count) point is scored by short
fixed-seed simulations of a synthesized workload; a point passes only if
all nine SLO constraints hold on every seed, and ``max_throughput``
bisects to a relative bracket of ``RESOLUTION`` (2%).  Probes, the
calibration before forking and ``splitsim simulate`` take a run's models
from one helper, ``_run_models``.  Cost and power are the dot product of
machine counts with per-machine rates normalized to a DGX-A100.  Each
role's rates are its machine type's ``perf.MACHINE_SPECS`` row; a
Splitwise design's token machines take that row's ``token_cost``.

``search`` scores its budget-filtered points in up to
``min(points, usable CPUs)`` forked worker processes and merges the scores
in grid order, so its points, Pareto front, optimum and ``results.csv`` are
the same as a serial run's: each point is a pure function of the spec and
its counts (its traces are seeded) and the calibration memo only caches
values.  With one usable CPU, one point, or no ``fork`` start
method, the points are scored in-process and no multiprocessing module is
imported.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass, field

from .cluster import DESIGNS, ClusterConfig, normalize_design
from .engine import Simulator
from .errors import ConfigurationError, HorizonExceeded, SloViolated
from .machine import SchedulerConfig
from .perf import MACHINE_SPECS, PerfModel, get_calibration
from .report import SloTable
from .trace import SizeDistribution, generate_trace

RESOLUTION = 0.02  # max_throughput's bisection bracket, relative to the passing rate


def machine_cost_power(design: str, role: str) -> tuple[float, float]:
    """(cost, power) of one machine of the given role in the given design."""
    prompt_type, token_type, baseline = DESIGNS[normalize_design(design)]
    if role not in ("prompt", "token"):
        raise ConfigurationError(f"unknown role {role!r}")
    spec = MACHINE_SPECS[prompt_type if role == "prompt" else token_type]
    split_token = role == "token" and not baseline
    return (spec.token_cost if split_token else spec.cost), spec.power


def design_cost_power(design: str, prompt_count: int, token_count: int) -> tuple[float, float]:
    pc, pp = machine_cost_power(design, "prompt")
    tc, tp = machine_cost_power(design, "token")
    return (prompt_count * pc + token_count * tc,
            prompt_count * pp + token_count * tp)


def budget_max_count(design: str, budget: float, kind: str = "power") -> int:
    """Largest single-pool machine count fitting a power or cost budget."""
    if kind not in ("power", "cost"):
        raise ConfigurationError(f"unknown budget kind {kind!r}")
    cost, power = machine_cost_power(design, "prompt")
    rate = power if kind == "power" else cost
    return int(math.floor(budget / rate + 1e-9))


@dataclass
class Workload:
    """Synthetic workload description used to drive search simulations."""

    prompt_dist: SizeDistribution
    output_dist: SizeDistribution
    llm: str = ClusterConfig.llm


@dataclass
class DesignPoint:
    design: str
    prompt_count: int
    token_count: int
    max_rps: float
    cost: float
    power: float
    slo_pass: bool

    @property
    def total_machines(self):
        return self.prompt_count + self.token_count


@dataclass
class SearchSpec:
    design: str
    objective: str                 # max_throughput | min_cost | min_power
    constraint: str                # power_budget | cost_budget | throughput_target
    budget: float
    prompt_counts: list[int]
    token_counts: list[int]
    workload: Workload
    slo: SloTable = field(default_factory=SloTable)
    trace_duration: float = 120.0
    seeds: tuple = (1, 2, 3)
    sched: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self):
        self.design = normalize_design(self.design)
        if self.objective not in ("max_throughput", "min_cost", "min_power"):
            raise ConfigurationError(f"unknown objective {self.objective!r}")
        if self.constraint not in ("power_budget", "cost_budget", "throughput_target"):
            raise ConfigurationError(f"unknown constraint {self.constraint!r}")
        if self.objective == "max_throughput" and self.constraint == "throughput_target":
            raise ConfigurationError("throughput cannot be both objective and constraint")
        if not math.isfinite(self.budget):
            raise ConfigurationError(f"{self.constraint} must be finite, got {self.budget}")
        if not self.prompt_counts:
            raise ConfigurationError("empty prompt count range")
        if not self.seeds:
            raise ConfigurationError("empty probe seed list")


@functools.cache
def _calibration(llm: str, machine_type: str) -> PerfModel:
    """One calibrated model per (llm, machine type) for every probe in the
    process, so probes share its token table and ``prompt_time`` memo."""
    return get_calibration(llm, machine_type)


def _run_models(llm: str, design: str) -> tuple[dict[str, PerfModel], PerfModel]:
    """One model per machine type of ``design``, and the SLO reference."""
    types = set(DESIGNS[design][:2])
    return {mt: _calibration(llm, mt) for mt in types}, _calibration(llm, "A100")


def slo_pass_at_rate(design: str, prompt_count: int, token_count: int, workload: Workload,
                     rate: float, duration: float = SearchSpec.trace_duration,
                     seeds=SearchSpec.seeds, slo: SloTable | None = None,
                     sched: SchedulerConfig | None = None) -> bool:
    """True iff all nine SLOs pass on every seed at the given arrival rate.

    Each run raises ``SloViolated`` at the first TTFT or E2E constraint that
    can no longer hold, or, when it ends, for the first constraint that
    ``check_slo`` fails, a TBT one; it raises ``HorizonExceeded`` when it
    overruns its horizon.  Both read as a fail.  Any other error is a defect
    and propagates.
    """
    if not seeds:
        raise ConfigurationError("empty probe seed list")
    config = ClusterConfig(design, prompt_count, token_count, llm=workload.llm,
                           sched=sched or SchedulerConfig())
    models, reference = _run_models(workload.llm, config.design)
    for seed in seeds:
        trace = generate_trace(workload.prompt_dist, workload.output_dist,
                               rate, duration, seed)
        if not trace.requests:
            return False  # a probe that simulates nothing shows nothing
        try:
            Simulator(config, models, trace, reference_model=reference,
                      record_log=False, slo=slo, stop_on_slo_fail=True).run()
        except (SloViolated, HorizonExceeded):
            return False
    return True


def max_throughput(design: str, prompt_count: int, token_count: int, workload: Workload,
                   duration: float = SearchSpec.trace_duration, seeds=SearchSpec.seeds,
                   slo: SloTable | None = None, sched: SchedulerConfig | None = None) -> float:
    """Highest SLO-passing arrival rate, via geometric ramp then bisection."""

    def passes(rate):
        return slo_pass_at_rate(design, prompt_count, token_count, workload,
                                rate, duration, seeds, slo, sched)

    total = prompt_count + max(token_count, 1)
    rate = max(0.25, 0.2 * total)
    tries = 0
    while not passes(rate):
        rate /= 2.0
        tries += 1
        if rate < 0.01 or tries > 12:
            return 0.0
    lo = rate
    hi = None
    while hi is None:
        nxt = lo * 1.5
        if passes(nxt):
            lo = nxt
            if lo > 1e5:
                return lo
        else:
            hi = nxt
    while (hi - lo) / lo > RESOLUTION:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class SearchResult:
    points: list[DesignPoint]
    pareto: list[DesignPoint]
    optimum: DesignPoint | None
    infeasible_reason: str | None = None


def _pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated set in (max_rps, -cost, -power) over SLO-passing points."""
    passing = [p for p in points if p.slo_pass]
    front = []
    for p in passing:
        dominated = any(
            q is not p
            and q.max_rps >= p.max_rps and q.cost <= p.cost and q.power <= p.power
            and (q.max_rps > p.max_rps or q.cost < p.cost or q.power < p.power)
            for q in passing)
        if not dominated:
            front.append(p)
    return front


def _evaluate_point(spec: SearchSpec, point: tuple[int, int]) -> tuple[float, bool]:
    """(max_rps, slo_pass) of grid point (p, t): an SLO check at the target
    under ``throughput_target``, a ``max_throughput`` search otherwise."""
    p, t = point
    if spec.constraint == "throughput_target":
        ok = slo_pass_at_rate(spec.design, p, t, spec.workload, spec.budget,
                              spec.trace_duration, spec.seeds, spec.slo, spec.sched)
        return (spec.budget if ok else 0.0), ok
    rps = max_throughput(spec.design, p, t, spec.workload,
                         spec.trace_duration, spec.seeds, spec.slo, spec.sched)
    return rps, rps > 0.0


def _workers(n_points: int) -> int:
    """Worker processes for ``n_points`` points: at most one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(n_points, cpus)


def _evaluate_all(spec: SearchSpec, points: list[tuple[int, int]]) -> list[tuple[float, bool]]:
    """Scores of ``points`` in their order, from forked workers when more
    than one CPU is usable."""
    evaluate = functools.partial(_evaluate_point, spec)
    n = _workers(len(points))
    if n > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            _run_models(spec.workload.llm, spec.design)  # forked workers inherit the models
            with ProcessPoolExecutor(max_workers=n,
                                     mp_context=multiprocessing.get_context("fork")) as ex:
                return list(ex.map(evaluate, points))
    return list(map(evaluate, points))


def search(spec: SearchSpec) -> SearchResult:
    """Evaluate the count grid, filter by constraint, optimize the objective."""
    baseline = DESIGNS[spec.design][2]
    token_counts = [0] if baseline else list(spec.token_counts)
    if not baseline and not token_counts:
        raise ConfigurationError("empty token count range")

    candidates = []
    for p in spec.prompt_counts:
        for t in token_counts:
            if p + t < 1 or (not baseline and (p < 1 or t < 1)):
                continue
            cost, power = design_cost_power(spec.design, p, t)
            if spec.constraint == "power_budget" and power > spec.budget + 1e-9:
                continue
            if spec.constraint == "cost_budget" and cost > spec.budget + 1e-9:
                continue
            candidates.append((p, t, cost, power))
    scores = _evaluate_all(spec, [(p, t) for p, t, _, _ in candidates])
    points = [DesignPoint(spec.design, p, t, rps, cost, power, ok)
              for (p, t, cost, power), (rps, ok) in zip(candidates, scores)]

    feasible = [pt for pt in points if pt.slo_pass]
    if not feasible:
        return SearchResult(points, [], None,
                            infeasible_reason=f"no grid point satisfies {spec.constraint}"
                                              f"={spec.budget} under the SLOs")

    if spec.objective == "max_throughput":
        key = lambda pt: (-pt.max_rps, pt.total_machines, pt.cost, pt.power)
    elif spec.objective == "min_cost":
        key = lambda pt: (pt.cost, pt.total_machines, pt.power)
    else:
        key = lambda pt: (pt.power, pt.total_machines, pt.cost)
    optimum = min(feasible, key=key)
    return SearchResult(points, _pareto_front(points), optimum)


RESULTS_CSV_HEADER = "design,prompt_count,token_count,max_rps,cost,power,slo_pass"


def results_csv(points: list[DesignPoint], optimum: DesignPoint | None = None) -> str:
    buf = io.StringIO()
    buf.write(RESULTS_CSV_HEADER + "\n")
    for p in points:
        buf.write(f"{p.design},{p.prompt_count},{p.token_count},{p.max_rps:.4f},"
                  f"{p.cost:.4f},{p.power:.4f},{'pass' if p.slo_pass else 'fail'}\n")
    if optimum is not None:
        buf.write(f"# optimum,{optimum.prompt_count},{optimum.token_count},"
                  f"{optimum.max_rps:.4f},{optimum.cost:.4f},{optimum.power:.4f},pass\n")
    return buf.getvalue()
