"""The benchmark's workloads.

Each workload has three parts:

* ``build(ss, params, seed)`` makes the inputs splitsim receives (calibrated
  ``PerfModel``s, a synthesized trace or its CSV text, a ``SearchSpec``);
  this is set-up and is timed as ``setup_s``.
* ``operate(ss, params, inputs)`` is the timed operation behind ``wall_s``.
* ``check(ss, params, inputs, output)`` raises ``CheckFailed`` when the output
  is wrong and otherwise returns the run's *simulated* fingerprint: figures
  that depend only on the inputs, so a change that only makes splitsim faster
  leaves them identical.

``ss`` is the imported ``splitsim`` package.  Nothing here imports splitsim
or numpy at module level, so that ``setup_probe.py`` can time that import.
Workload sizes live in ``workloads.json``; the seed passed on the command
line is the only source of randomness.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

PARAMS_FILE = Path(__file__).with_name("workloads.json")

EMITTERS = ("requests_csv", "tbt_csv", "summary_csv", "event_log_csv")


class CheckFailed(Exception):
    """A workload's output failed one of the benchmark's checks."""


def load_params() -> dict:
    return json.loads(PARAMS_FILE.read_text())


def import_splitsim():
    import splitsim
    import splitsim.cluster
    import splitsim.engine
    import splitsim.machine
    import splitsim.perf
    import splitsim.provision
    import splitsim.trace
    import splitsim.transfer
    return splitsim


def variant_seeds(seed: int, params: dict) -> list[int]:
    """One input seed per variant; runs with different seeds share none."""
    k = params["variants"]
    return [seed * k + v for v in range(k)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _models(ss, params) -> tuple[dict, Any]:
    prompt_type, token_type, _ = ss.cluster.DESIGNS[params["design"]]
    models = {t: ss.perf.get_calibration(params["llm"], t) for t in (prompt_type, token_type)}
    return models, ss.perf.get_calibration(params["llm"], "A100")


def _cluster_config(ss, params):
    return ss.cluster.ClusterConfig(params["design"], params["prompt_machines"],
                                    params["token_machines"], llm=params["llm"])


def _check_replay(trace, result) -> None:
    records = result.report.records
    if len(records) != len(trace.requests):
        raise CheckFailed(f"{len(records)} records for {len(trace.requests)} requests")
    unfinished = sum(1 for r in records if r.completion is None or r.first_token_time is None)
    if unfinished:
        raise CheckFailed(f"{unfinished} requests did not complete")
    slo = result.report.slo
    if slo is None or not isinstance(slo.get("pass"), bool) or len(slo["constraints"]) != 9:
        raise CheckFailed("replay returned no SLO verdict")


def _replay_fingerprint(result, requests_csv: str, tbt_csv: str) -> dict:
    summary = result.report.summary()
    return {
        "requests": summary["requests"],
        "slo_pass": result.report.slo["pass"],
        **{k: summary[k] for k in ("ttft_ms_p50", "ttft_ms_p99", "tbt_ms_p50",
                                   "tbt_ms_p99", "e2e_ms_p50", "e2e_ms_p99")},
        "preemptions": sum(r.preempt_count for r in result.report.records),
        "requests_csv_sha256": _sha256(requests_csv),
        "tbt_csv_sha256": _sha256(tbt_csv),
    }


# -- replay-hh-coding ------------------------------------------------------

def build_hh(ss, params, seed):
    dists = ss.trace.PRESETS[params["preset"]]
    trace = ss.trace.generate_trace(dists["prompt"], dists["output"],
                                    params["rate"], params["duration_s"], seed)
    models, reference = _models(ss, params)
    return {"trace": trace, "models": models, "reference": reference}


def operate_hh(ss, params, inputs):
    return ss.engine.Simulator(_cluster_config(ss, params), inputs["models"], inputs["trace"],
                               reference_model=inputs["reference"], record_log=False).run()


def check_hh(ss, params, inputs, result):
    _check_replay(inputs["trace"], result)
    return _replay_fingerprint(result, ss.engine.requests_csv(result), ss.engine.tbt_csv(result))


# -- replay-baseline-decode ------------------------------------------------

def build_decode(ss, params, seed):
    dist = ss.trace.SizeDistribution.lognormal
    prompt = dist(math.log(params["prompt_median"]), params["prompt_sigma"],
                  params["prompt_min"], params["prompt_max"])
    output = dist(math.log(params["output_median"]), params["output_sigma"],
                  params["output_min"], params["output_max"])
    trace = ss.trace.generate_trace(prompt, output, params["rate"], params["duration_s"], seed)
    models, reference = _models(ss, params)
    return {"trace_csv": ss.trace.serialize_trace(trace), "models": models,
            "reference": reference}


def operate_decode(ss, params, inputs):
    """The ``splitsim simulate --event-log`` path, without the file writes."""
    trace = ss.trace.parse_trace(inputs["trace_csv"])
    result = ss.engine.Simulator(_cluster_config(ss, params), inputs["models"], trace,
                                 reference_model=inputs["reference"], record_log=True).run()
    csvs = {name: getattr(ss.engine, name)(result) for name in EMITTERS}
    return trace, result, csvs


def check_decode(ss, params, inputs, output):
    trace, result, csvs = output
    _check_replay(trace, result)
    if csvs["requests_csv"].count("\n") != len(trace.requests) + 1:
        raise CheckFailed("requests_csv row count differs from the trace")
    gaps = sum(r.output_tokens - 1 for r in trace.requests)
    if csvs["tbt_csv"].count("\n") != gaps + 1:
        raise CheckFailed("tbt_csv row count differs from the token gaps")
    if csvs["summary_csv"].count("\n") != 10:
        raise CheckFailed("summary_csv does not hold nine constraints")
    if csvs["event_log_csv"].count("\n") != len(result.event_log) + 1:
        raise CheckFailed("event_log_csv row count differs from the event log")
    fingerprint = _replay_fingerprint(result, csvs["requests_csv"], csvs["tbt_csv"])
    fingerprint["event_log_rows"] = len(result.event_log)
    return fingerprint


# -- search-aa-conversation ------------------------------------------------

def build_search(ss, params, seed):
    dists = ss.trace.PRESETS[params["preset"]]
    n = params["probe_seeds"]
    return {"spec": ss.provision.SearchSpec(
        design=params["design"], objective=params["objective"],
        constraint=params["constraint"], budget=params["budget"],
        prompt_counts=list(params["prompt_counts"]),
        token_counts=list(params["token_counts"]),
        workload=ss.provision.Workload(dists["prompt"], dists["output"], llm=params["llm"]),
        trace_duration=params["probe_duration_s"],
        seeds=tuple(seed * n + i + 1 for i in range(n)))}


def operate_search(ss, params, inputs):
    return ss.provision.search(inputs["spec"])


def check_search(ss, params, inputs, result):
    grid = {(p, t) for p in params["prompt_counts"] for t in params["token_counts"]}
    best = result.optimum
    if best is None:
        raise CheckFailed(f"search found no optimum: {result.infeasible_reason}")
    if (best.prompt_count, best.token_count) not in grid or best not in result.points:
        raise CheckFailed("optimum lies outside the grid")
    if not best.max_rps > 0:
        raise CheckFailed("optimum has max_rps <= 0")
    return {
        "probe_seeds": list(inputs["spec"].seeds),
        "points": [[p.prompt_count, p.token_count, p.max_rps, p.slo_pass]
                   for p in result.points],
        "optimum": [best.prompt_count, best.token_count, best.max_rps],
    }


@dataclass(frozen=True)
class Workload:
    build: Callable
    operate: Callable
    check: Callable


WORKLOADS = {
    "replay-hh-coding": Workload(build_hh, operate_hh, check_hh),
    "replay-baseline-decode": Workload(build_decode, operate_decode, check_decode),
    "search-aa-conversation": Workload(build_search, operate_search, check_search),
}
