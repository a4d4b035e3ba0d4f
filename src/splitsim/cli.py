"""Command-line front end.

Subcommands: ``gen-trace`` (synthesize a trace CSV), ``simulate`` (run one
cluster simulation and emit metric CSVs), ``provision`` (design-space
search), ``fit-model`` (fit a performance model from a profile CSV), and
``report`` (re-summarize existing metric CSVs).  ``SPLITSIM_SEED`` sets
the global seed default.  Exit codes: 0 success (all SLOs pass for
``simulate``), 1 SLO failure / infeasible search, 2 usage or input error:
a malformed or unreadable input file, or a non-finite number, ends in one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import config as cfgmod
from . import engine, provision, report
from .cluster import ClusterConfig
from .errors import ConfigurationError, SplitsimError, ValidationError
from .machine import SchedulerConfig
from .perf import KNOT_BUDGET, fit_piecewise_linear, parse_profile_csv, export_profile_csv
from .trace import (PRESETS, SizeDistribution, generate_trace, parse_trace, read_csv,
                    serialize_trace, trace_stats)

def _default_seed():
    text = os.environ.get("SPLITSIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"SPLITSIM_SEED must be an integer, got {text!r}") from None


# distribution kind -> its parameters' config keys, in SizeDistribution.PARAMS order
_DIST_KEYS = {"lognormal": ("mu", "sigma"),
              "bimodal-lognormal": ("weight2", "mu", "sigma", "mu2", "sigma2")}


def _dists_from_config(cfg, prefix):
    kind = cfg[f"{prefix}.kind"]
    if kind not in _DIST_KEYS:
        raise SplitsimError(f"config cannot express distribution kind {kind!r}")
    keys = [f"{prefix}.{key}" for key in _DIST_KEYS[kind]]
    if not all(key in cfg for key in keys):
        raise ConfigurationError(f"{prefix}.kind = {kind} is not supported: "
                                 f"only output_dist takes a mixture")
    for key, name in zip(keys, SizeDistribution.PARAMS[kind]):
        try:
            SizeDistribution.check_param(kind, name, cfg[key])
        except ValidationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
    return SizeDistribution(kind, tuple(cfg[key] for key in keys),
                            cfg[f"{prefix}.min"], cfg[f"{prefix}.max"])


def _workload_dists(args, cfg):
    if getattr(args, "preset", None):  # argparse accepts only PRESETS names
        return PRESETS[args.preset]["prompt"], PRESETS[args.preset]["output"]
    return _dists_from_config(cfg, "prompt_dist"), _dists_from_config(cfg, "output_dist")


def cmd_gen_trace(args) -> int:
    cfg = cfgmod.load_config(args.config)
    prompt_dist, output_dist = _workload_dists(args, cfg)
    trace = generate_trace(prompt_dist, output_dist, args.rate, args.duration, args.seed)
    with open(args.output, "w") as fh:
        fh.write(serialize_trace(trace))
    if not trace.requests:
        print(f"warning: empty trace (rate={args.rate}); wrote header only")
        return 0
    stats = trace_stats(trace)
    print(f"wrote {stats['count']} requests to {args.output}")
    print(f"  median/p90 prompt tokens: {stats['median_prompt_tokens']}/"
          f"{stats['p90_prompt_tokens']}")
    print(f"  median/p90 output tokens: {stats['median_output_tokens']}/"
          f"{stats['p90_output_tokens']}")
    print(f"  mean rate: {stats['mean_rate']:.3f} req/s")
    print(f"  clamped size draws: {trace.clamped_samples}")
    return 0


def _sched_config(cfg) -> SchedulerConfig:
    return SchedulerConfig(**{key.partition(".")[2]: cfg[key] for key in cfgmod.SCHED_KEYS})


def _cluster_config(args, cfg) -> ClusterConfig:
    config = ClusterConfig(
        args.design or cfg["cluster.design"],
        args.prompt_machines if args.prompt_machines is not None
        else cfg["cluster.prompt_machines"],
        args.token_machines if args.token_machines is not None
        else cfg["cluster.token_machines"],
        llm=args.llm or cfg["run.llm"],
        sched=_sched_config(cfg),
    )
    # each transfer key overrides one field of the design's default link
    overrides = {name: cfg[key] * scale for key, (name, scale) in cfgmod.TRANSFER_KEYS.items()
                 if cfg[key] is not None}
    if overrides and config.transfer is not None:  # baseline designs transfer nothing
        config.transfer = dataclasses.replace(config.transfer, **overrides)
    return config


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    trace_path = args.trace or cfg["run.trace"]
    if trace_path is None:
        raise SplitsimError("simulate needs a trace (--trace or run.trace)")
    trace = parse_trace(trace_path)
    cluster_config = _cluster_config(args, cfg)
    llm = cluster_config.llm
    models, reference = provision._run_models(llm, cluster_config.design)
    if args.profile:
        samples = [s for s in parse_profile_csv(args.profile) if s.llm == llm]
        missing = models.keys() - {s.machine_type for s in samples}
        if missing:
            raise SplitsimError(f"profile {args.profile} has no {llm} samples for "
                                f"machine type(s): {sorted(missing)}")
        models = {mt: fit_piecewise_linear([s for s in samples if s.machine_type == mt])[0]
                  for mt in models}
    result = engine.Simulator(cluster_config, models, trace, reference_model=reference,
                              record_log=args.event_log).run()

    outdir = args.output_dir or cfg["run.output_dir"]
    os.makedirs(outdir, exist_ok=True)
    header = (f"# design={cluster_config.design} "
              f"prompt_machines={cluster_config.prompt_machines} "
              f"token_machines={cluster_config.token_machines} llm={llm}\n")
    with open(os.path.join(outdir, "requests.csv"), "w") as fh:
        fh.write(header)
        fh.write(report.requests_csv(result))
    with open(os.path.join(outdir, "tbt.csv"), "w") as fh:
        fh.write(report.tbt_csv(result))
    with open(os.path.join(outdir, "summary.csv"), "w") as fh:
        fh.write(header)
        fh.write(report.summary_csv(result))
    if args.event_log:
        with open(os.path.join(outdir, "events.csv"), "w") as fh:
            fh.write(report.event_log_csv(result))

    slo = result.report.slo
    for c in slo["constraints"]:
        print(f"{c['metric']:>4} {report.percentile_label(c['percentile']):<4} "
              f"ratio={c['observed_ratio']:.3f} limit={c['multiplier']} "
              f"{'pass' if c['pass'] else 'fail'}")
    print(f"overall: {'pass' if slo['pass'] else 'fail'} "
          f"({len(result.report.records)} requests, "
          f"{result.report.throughput_rps:.2f} req/s)")
    return 0 if slo["pass"] else 1


def _parse_counts(flag: str, text: str) -> list[int]:
    """Count ranges: '1,2,4' or 'start:stop[:step]' (stop inclusive)."""
    try:
        if ":" not in text:
            return [int(x) for x in text.split(",")]
        start, stop, step = ([int(x) for x in text.split(":")] + [1])[:3]
        return list(range(start, stop + (1 if step > 0 else -1), step))
    except ValueError:
        raise ConfigurationError(f"{flag} {text!r}: expected counts 'a,b,c' or "
                                 f"'start:stop[:step]'") from None


def cmd_provision(args) -> int:
    cfg = cfgmod.load_config(args.config)
    for key in cfgmod.TRANSFER_KEYS:  # a search probes each design's default link
        if cfg[key] is not None:
            raise ConfigurationError(f"{key}: provision does not take transfer keys")
    constraints = [c for c in (("power_budget", args.power_budget),
                               ("cost_budget", args.cost_budget),
                               ("throughput_target", args.throughput)) if c[1] is not None]
    if len(constraints) != 1:
        raise SplitsimError("provision needs exactly one of "
                            "--power-budget / --cost-budget / --throughput")
    constraint, budget = constraints[0]
    prompt_dist, output_dist = _workload_dists(args, cfg)
    workload = provision.Workload(prompt_dist, output_dist, llm=args.llm or cfg["run.llm"])
    spec = provision.SearchSpec(
        design=args.design, objective=args.objective, constraint=constraint,
        budget=budget, prompt_counts=_parse_counts("--prompt-counts", args.prompt_counts),
        token_counts=_parse_counts("--token-counts", args.token_counts), workload=workload,
        trace_duration=args.duration, seeds=tuple(args.seeds), sched=_sched_config(cfg),
    )
    result = provision.search(spec)

    outdir = args.output_dir or cfg["run.output_dir"]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.csv"), "w") as fh:
        fh.write(provision.results_csv(result.points, result.optimum))
    with open(os.path.join(outdir, "pareto.csv"), "w") as fh:
        fh.write(provision.results_csv(result.pareto))

    if result.optimum is None:
        print(f"infeasible: {result.infeasible_reason}")
        return 1
    o = result.optimum
    print(f"optimum: {o.design} prompt={o.prompt_count} token={o.token_count} "
          f"max_rps={o.max_rps:.2f} cost={o.cost:.2f} power={o.power:.2f}")
    return 0


def cmd_fit_model(args) -> int:
    samples = parse_profile_csv(args.profile)
    model, fit = fit_piecewise_linear(samples, knot_budget=args.knot_budget,
                                      holdout_fraction=args.holdout, seed=args.seed)
    with open(args.output, "w") as fh:
        fh.write(export_profile_csv(model))
    print(f"fitted {model.machine_type}/{model.llm}: "
          f"{len(model.prompt_knots[0])} prompt knots, "
          f"{len(model.token_knots[0])} token knots")
    print(f"train MAPE: prompt {fit.train_mape_prompt:.2f}% "
          f"token {fit.train_mape_token:.2f}%")
    if fit.holdout_mape is not None:
        print(f"holdout MAPE: {fit.holdout_mape:.2f}%")
    return 0


def cmd_report(args) -> int:
    rows = [row for _, row in read_csv(args.requests, report.REQUEST_CSV_HEADER,
                                       report.REQUEST_CSV_TYPES)]
    ttft, e2e = [row[2] for row in rows], [row[3] for row in rows]
    gaps = [row[2] for _, row in read_csv(args.tbt, report.TBT_CSV_HEADER,
                                          report.TBT_CSV_TYPES)] if args.tbt else []
    if not ttft:
        print("no requests in input")
        return 0
    print(f"{len(ttft)} requests")
    for name, vals in (("TTFT", ttft), ("E2E", e2e), ("TBT", gaps)):
        if vals:
            print(f"{name:>4} ms: " + " ".join(
                f"{label}={value:.1f}" for label, value in report.report_percentiles(vals)))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ConfigurationError``, so that ``main``
    reports it in one ``error:`` line like any other input error."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitsim", description="Phase-split LLM serving simulator")
    parser.add_argument("--config", default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _default_seed()

    p = sub.add_parser("gen-trace", help="synthesize a request trace CSV")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--output", default="trace.csv")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("simulate", help="run one cluster simulation")
    p.add_argument("--trace", default=None)
    p.add_argument("--design", default=None)
    p.add_argument("--prompt-machines", type=int, default=None)
    p.add_argument("--token-machines", type=int, default=None)
    p.add_argument("--llm", default=None)
    p.add_argument("--profile", default=None, help="fit models from this profile CSV")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--event-log", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("provision", help="search cluster designs")
    p.add_argument("--design", required=True)
    p.add_argument("--objective", required=True,
                   choices=("max_throughput", "min_cost", "min_power"))
    p.add_argument("--power-budget", type=float, default=None)
    p.add_argument("--cost-budget", type=float, default=None)
    p.add_argument("--throughput", type=float, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--llm", default=None)
    p.add_argument("--prompt-counts", default="1:8")
    p.add_argument("--token-counts", default="1:4")
    p.add_argument("--duration", type=float, default=provision.SearchSpec.trace_duration)
    p.add_argument("--seeds", type=int, nargs="+", default=list(provision.SearchSpec.seeds))
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("fit-model", help="fit a performance model from profiles")
    p.add_argument("--profile", required=True)
    p.add_argument("--knot-budget", type=int, default=KNOT_BUDGET)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--output", default="model.csv")
    p.set_defaults(func=cmd_fit_model)

    p = sub.add_parser("report", help="re-summarize existing metric CSVs")
    p.add_argument("--requests", required=True)
    p.add_argument("--tbt", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help
        return exc.code if isinstance(exc.code, int) else 2
    except (SplitsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
