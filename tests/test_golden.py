"""Golden outputs: sha256 of the request, TBT, event-log and summary CSVs
for small fixed runs.

These pin simulated behaviour byte for byte across refactors.  A change
that alters any hash changes what the simulator does and must say why.
"""

import dataclasses
import hashlib
import math

import pytest

from splitsim import (
    ClusterConfig,
    PRESETS,
    SchedulerConfig,
    SizeDistribution,
    Simulator,
    generate_trace,
    get_calibration,
)
from splitsim import engine

# long-output decode load: one machine near saturation preempts often
DECODE = (SizeDistribution.lognormal(math.log(256), 0.5, 16, 4096),
          SizeDistribution.lognormal(math.log(400), 0.5, 16, 2048))

# name -> (cluster config kwargs, workload, rate, duration_s, seed)
CASES = {
    "baseline-a100": (dict(design="Baseline-A100", prompt_machines=2, token_machines=0),
                      "coding", 4.0, 20.0, 3),
    "baseline-h100": (dict(design="Baseline-H100", prompt_machines=2, token_machines=0),
                      "coding", 4.0, 20.0, 3),
    "splitwise-aa": (dict(design="Splitwise-AA", prompt_machines=2, token_machines=1),
                     "coding", 4.0, 20.0, 3),
    "splitwise-hh": (dict(design="Splitwise-HH", prompt_machines=2, token_machines=1),
                     "coding", 4.0, 20.0, 3),
    "splitwise-hhcap": (dict(design="Splitwise-HHcap", prompt_machines=2, token_machines=1),
                        "coding", 4.0, 20.0, 3),
    "splitwise-ha": (dict(design="Splitwise-HA", prompt_machines=2, token_machines=1),
                     "coding", 4.0, 20.0, 3),
    # max_preemptions=1: every preempted task becomes non-preemptable
    "baseline-h100-capped": (dict(design="Baseline-H100", prompt_machines=1, token_machines=0,
                                  sched=SchedulerConfig(max_preemptions=1)),
                             DECODE, 4.0, 20.0, 5),
    # a low overflow threshold keeps machines moving through the mixed
    # pool; a short window makes repurposing flip home roles
    "splitwise-hh-repurpose": (dict(design="Splitwise-HH", prompt_machines=2, token_machines=1,
                                    sched=SchedulerConfig(queue_threshold_tokens=256),
                                    repurpose_window_s=5.0),
                               "conversation", 6.0, 30.0, 7),
    # long conversation outputs: token batches keep the same members for
    # many iterations between joins and finishes
    "splitwise-aa-conversation": (dict(design="Splitwise-AA", prompt_machines=2, token_machines=1),
                                  "conversation", 3.0, 30.0, 11),
    # the default cap of 4: tasks are parked, resume and reach the cap, so
    # capped-first ordering runs with the default SchedulerConfig
    "baseline-h100-decode": (dict(design="Baseline-H100", prompt_machines=2, token_machines=0),
                             DECODE, 6.0, 60.0, 13),
}

# name -> (requests_csv, tbt_csv, event_log_csv) sha256
GOLDEN = {
    "baseline-a100": (
        "b15262c842b3bd0f43c811daab327f746ce2b3573c74d76592acf0cb87c24a66",
        "a60a886a015a504692c505a1e201cc59d180732ced6b569804b149587d08e016",
        "969bcebb36d461a8f59cb23e0119a613fdf8c45814121129f78e0346cc3e66e6"),
    "baseline-h100": (
        "ebdac36a1c39bd4ec9220393fe10c1c082735b1c42a68c6ad2cbdaaee938cd84",
        "c3b0a0f2469264da4b3da1627bb3d55c03bf8f7d962afa9806d11bd5e7f13112",
        "f2c90108a305c63bcfefe3e942550e54c68645a8ae32005a9169274352e119f1"),
    "baseline-h100-decode": (
        "c9d1984eb771fb1e151353e91909741ae6299129e1922d4ee0d860849a63894a",
        "10532fadf06806211c8f20ce8135cf475d99062a51035228d153d54728f2d501",
        "618d9e8d43dca5125a43d19d6eb2112c5a9b8bdce3c294ef33ea3075b8f2adc0"),
    "baseline-h100-capped": (
        "3490c08a86c3400093f0465be1aedeed5fd6b83682d85ee84ca1176c96c329ad",
        "a4fa4af98c5759878bd23f8db48548c5a9b3c290de72e27247abb0a9dccbb9a1",
        "1ce02cc21b25e9e91258ec3f901b102d18dd0225bfd92d3ec79ad8ac84d81e3c"),
    "splitwise-aa": (
        "45c6cd37f36f3827320c2d75f05c0f5968413ccfb6bae11ce480e3df9e94e1e5",
        "22780bfeace5a20ccfdfbd5e9bb268b25fab14151c953cbc8c922ce7ccce1a69",
        "4f2377f07dbefc169a077f1e0699fc7ef10a2e1d2e82e4123cede1ae43434fc7"),
    "splitwise-aa-conversation": (
        "53586ce760c75c153214253fb2696a3da658ec9ed4da385c4529352907ea3438",
        "4d2e03ab8ac7cf757a6a20bff10a1eb418f89033f13c8b880cbe385d52dec4d9",
        "60d5afac208f3043b9d493d8fd933919448abd2542ce7f2b2067df6f6fd1f651"),
    "splitwise-ha": (
        "81bfa81eaded654318453743006dba65fb2d246f651af968154dd019b0b8ea1c",
        "96fcef22c79b331efdda8675da2f63f532f7b4fbc7acd1e3446ac602d64685d5",
        "39f3b56d6836e31114f71fc7124fef1e27250f80ea711d44d4d3d845438aee52"),
    "splitwise-hh": (
        "8c92f1e3c8da2534e0fa5121d38b71a73ba12d2ad531519817ccc17b359ef5d9",
        "6945376ee2a1f61ad2632cf8082d98797e8f8f0a5f885f053a28b01772667f62",
        "8c0c5d7e8d5ab5c49577e6310a7d27844b185a7d452e00ee9b7ec170c64a7b96"),
    "splitwise-hh-repurpose": (
        "2e18a1184832d2129e28aee3725b7bc74225eb36f4de3ea06708b8717cffc57d",
        "0a3a7402e0fcfe5a91b093135fb3d2b79bf1ae9b008cd7574033f0b5f8ed241a",
        "ed6c6eaf860a2cd5a2b166ab4284220afea6bffa318f8a971cc6856f3adeab6f"),
    "splitwise-hhcap": (
        "94bcfa90f3e4b7d11df73cc2588ca089b944af1bfc4a66053bbdc313def56254",
        "82ea0f4dbd289a7d4f8a165a15065a19ecea27108b5cf647855989652e4b71eb",
        "cfc3124521b87dcdf84329889dd764139dc245cd4b5db2df4b4dbb99cc703f76"),
}

# name -> summary_csv sha256: pins check_slo's observed ratios byte for byte
GOLDEN_SUMMARY = {
    "baseline-a100": "170720fcfce5fd6e7b2ed640b163bbed6f76a33945f273b7078adfd18660533b",
    "baseline-h100": "59d2171a8602c5af35c504d263cc1f11d994c6d51fdf3fcee7dd09a27aee5e89",
    "baseline-h100-decode": "e013e399bd68ab3403fed829064e80dd396fb2f19fe1da0d953be08ca5b38dc4",
    "baseline-h100-capped": "fd0712d258ff4accea440bc6cc238988940f9156238723a25c54f984a62d6c63",
    "splitwise-aa": "55047ee98d641c454d87835ea8310a00be336bece84769727cf16c5dc92e6d1d",
    "splitwise-aa-conversation": "9ea55a44a74c696bf3b187e495dc268faf2cfb1dea071088b4177c12fe7de2ee",
    "splitwise-ha": "b4ce57117d14b001441561e8fc6c0a5e51429081e754ff091c2886ca5d8902d0",
    "splitwise-hh": "dbff703ea5171111b3b6867f8ff4428cc2e0956f959dff2838faeefa467e81dc",
    "splitwise-hh-repurpose": "79a3a897b3d3e5cd7db8e2fa71c1c5a687b6f9ac7ad043bfdf2a917fcc67ca05",
    "splitwise-hhcap": "b586cee5f28428ed09d2b99bdef3ba62f2b28c78fcb90527fe5c910f2f0561b5",
}


def run_case(name, record_log=True):
    return simulator(name, record_log).run()


def simulator(name, record_log=True):
    cluster_kwargs, workload, rate, duration, seed = CASES[name]
    config = ClusterConfig(**cluster_kwargs)
    models = {mt: get_calibration(config.llm, mt)
              for mt in {config.prompt_type, config.token_type}}
    if isinstance(workload, str):
        prompt_dist, output_dist = PRESETS[workload]["prompt"], PRESETS[workload]["output"]
    else:
        prompt_dist, output_dist = workload
    trace = generate_trace(prompt_dist, output_dist, rate, duration, seed)
    return Simulator(config, models, trace,
                     reference_model=get_calibration(config.llm, "A100"),
                     record_log=record_log)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(result):
    return tuple(sha256(emit(result))
                 for emit in (engine.requests_csv, engine.tbt_csv, engine.event_log_csv))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hashes(name):
    assert digests(run_case(name)) == GOLDEN[name]
    # logging must not change behaviour
    assert digests(run_case(name, record_log=False))[:2] == GOLDEN[name][:2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_summary(name):
    assert sha256(engine.summary_csv(run_case(name))) == GOLDEN_SUMMARY[name]


def test_capped_case_reaches_the_cap():
    result = run_case("baseline-h100-capped")
    cap = CASES["baseline-h100-capped"][0]["sched"].max_preemptions
    assert max(r.preempt_count for r in result.report.records) >= cap


def test_decode_case_preempts_to_the_default_cap():
    result = run_case("baseline-h100-decode")
    counts = [r.preempt_count for r in result.report.records]
    assert sum(counts) > 0
    assert max(counts) == SchedulerConfig().max_preemptions


def test_repurpose_case_logs_pool_changes():
    kinds = {kind for _, _, kind, _ in run_case("splitwise-hh-repurpose").event_log}
    assert {"pool_transition", "pool_maintenance"} <= kinds


def test_decode_records_hold_segments_not_copies():
    """A finished record holds its token machine's ``ends`` list itself and
    O(segments) of its own: nothing it keeps grows with its output tokens."""
    sim = simulator("baseline-h100-decode")
    records = sim.run().report.records
    machines = sim.cluster.machines
    assert max(r.request.output_tokens for r in records) > 100
    for rec in records:
        if rec.request.output_tokens > 1:
            assert rec.ends is machines[rec.token_machine].ends
            # one segment, and one more per preemption
            assert len(rec.segments) == 2 * (rec.preempt_count + 1)
            assert len(rec.emissions) == rec.request.output_tokens
        for f in dataclasses.fields(rec):
            value = getattr(rec, f.name)
            if isinstance(value, (list, tuple, dict, set)) and value is not rec.ends:
                assert len(value) <= 2 * (rec.preempt_count + 1), f.name
