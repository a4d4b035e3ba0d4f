#!/usr/bin/env python3
"""Run one cluster simulation end to end and check it against the SLOs.

Generates a coding-workload trace, replays it through a phase-split
cluster (separate prompt and token machine pools with KV-cache handoff),
and prints latency percentiles plus the per-constraint SLO verdict.
Compare against an aggregated design with --design Baseline-H100.
"""

import argparse

from splitsim import (
    ClusterConfig,
    PRESETS,
    Simulator,
    generate_trace,
    get_calibration,
)
from splitsim.report import percentile_label, report_percentiles


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="Splitwise-HH")
    parser.add_argument("--prompt-machines", type=int, default=4)
    parser.add_argument("--token-machines", type=int, default=2)
    parser.add_argument("--rate", type=float, default=3.0)
    parser.add_argument("--duration", type=float, default=300.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    dists = PRESETS["coding"]
    trace = generate_trace(dists["prompt"], dists["output"],
                           args.rate, args.duration, args.seed)
    config = ClusterConfig(args.design, args.prompt_machines,
                           args.token_machines)
    models = {t: get_calibration(config.llm, t)
              for t in (config.prompt_type, config.token_type)}
    sim = Simulator(config, models, trace,
                    reference_model=get_calibration(config.llm, "A100"),
                    record_log=False)
    result = sim.run()
    report = result.report

    ttft = [r.ttft_ms for r in report.records]
    e2e = [r.e2e_ms for r in report.records]
    tbt = [g for r in report.records for g in r.tbt_ms()]

    print(f"{config.design} ({args.prompt_machines}p/{args.token_machines}t), "
          f"{len(report.records)} requests at {args.rate} req/s")
    print(f"  throughput  {report.throughput_rps:.2f} req/s")
    for label, vals in (("TTFT", ttft), ("TBT", tbt), ("E2E", e2e)):
        print(f"  {label:<5} " + "   ".join(
            f"{p} {value:8.1f} ms" for p, value in report_percentiles(vals)))

    slo = report.slo
    print(f"\nSLO check ({'pass' if slo['pass'] else 'FAIL'}):")
    for c in slo["constraints"]:
        flag = "ok  " if c["pass"] else "FAIL"
        print(f"  {flag} {c['metric']:<4} {percentile_label(c['percentile']):<4} "
              f"ratio {c['observed_ratio']:6.2f} (limit {c['multiplier']})")


if __name__ == "__main__":
    main()
