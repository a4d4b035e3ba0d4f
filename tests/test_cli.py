import math

import pytest

from splitsim import (
    PRESETS,
    Request,
    SchedulerConfig,
    SizeDistribution,
    TransferConfig,
    export_profile_csv,
    generate_trace,
    get_calibration,
    provision,
    serialize_trace,
    Trace,
)
from splitsim.cli import _cluster_config, _parse_counts, _sched_config, build_parser, main
from splitsim.config import load_config
from splitsim.report import REQUEST_CSV_HEADER, TBT_CSV_HEADER
from splitsim.perf import PROFILE_HEADER
from splitsim.trace import TRACE_HEADER


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    code = run_cli("gen-trace", "--preset", "coding", "--rate", "2",
                   "--duration", "20", "--seed", "3", "--output", str(path))
    assert code == 0
    return path


def long_output_trace(path):
    """60 s at 3 req/s of mid-sized prompts with long outputs: enough
    concurrent decodes to fill a bloom-176b token batch."""
    trace = generate_trace(SizeDistribution.lognormal(math.log(300), 0.5, 64, 2048),
                           SizeDistribution.lognormal(math.log(200), 0.5, 1, 1000),
                           3.0, 60.0, 3)
    path.write_text(serialize_trace(trace))
    return path


class TestGenTrace:
    def test_writes_csv(self, trace_file, capsys):
        text = trace_file.read_text()
        assert text.startswith("arrival_s,prompt_tokens,output_tokens\n")
        assert len(text.strip().splitlines()) > 10

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli("gen-trace", "--preset", "coding", "--rate", "2",
                    "--duration", "20", "--seed", "3", "--output", str(p))
        assert a.read_text() == b.read_text()

    def test_unknown_preset(self, tmp_path):
        code = run_cli("gen-trace", "--preset", "gaming", "--rate", "1",
                       "--duration", "5", "--output", str(tmp_path / "t.csv"))
        assert code == 2

    def test_prints_clamped_draws(self, tmp_path, capsys):
        code = run_cli("gen-trace", "--preset", "coding", "--rate", "2",
                       "--duration", "20", "--seed", "3", "--output", str(tmp_path / "t.csv"))
        assert code == 0
        trace = generate_trace(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"],
                               2.0, 20.0, 3)
        assert trace.clamped_samples > 0
        assert f"  clamped size draws: {trace.clamped_samples}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["gen-trace", "--rate", "1", "--duration", "5", "--output", "t.csv"],
        ["provision", "--design", "Splitwise-AA", "--objective", "max_throughput",
         "--power-budget", "4", "--output-dir", "out"],
    ])
    def test_bimodal_prompt_config_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                    command):
        # the config has mixture keys for outputs only
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("prompt_dist.kind = bimodal-lognormal\n")
        assert run_cli("--config", "run.cfg", *command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "only output_dist takes a mixture" in err
        # the message names no key that the parser would reject
        assert "prompt_dist.weight2" not in err
        (tmp_path / "run.cfg").write_text("prompt_dist.weight2 = 0.5\n")
        assert run_cli("--config", "run.cfg", *command) == 2
        assert "unknown key 'prompt_dist.weight2'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, named, key", [
        ("prompt_dist.sigma = -0.5\n", "lognormal sigma must be finite and >= 0",
         "prompt_dist.sigma"),
        ("output_dist.kind = bimodal-lognormal\noutput_dist.weight2 = 0.5\n"
         "output_dist.sigma2 = -1\n", "bimodal-lognormal sigma2 must be finite and >= 0",
         "output_dist.sigma2"),
        # each mixture key is named as written, not by its component
        ("output_dist.kind = bimodal-lognormal\noutput_dist.weight2 = 0.5\n"
         "output_dist.sigma = -1\n", " must be finite and >= 0", "output_dist.sigma"),
        ("output_dist.kind = bimodal-lognormal\noutput_dist.weight2 = 1.5\n",
         " must be in [0, 1]", "output_dist.weight2"),
        ("output_dist.kind = bimodal-lognormal\noutput_dist.weight2 = -0.25\n",
         " must be in [0, 1]", "output_dist.weight2"),
    ])
    def test_negative_sigma_is_a_usage_error(self, tmp_path, monkeypatch, capsys, config, named,
                                             key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "neg.cfg").write_text(config)
        capsys.readouterr()
        assert run_cli("--config", "neg.cfg", "gen-trace", "--rate", "2", "--duration", "5",
                       "--seed", "1", "--output", "t.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "t.csv").exists()

    def test_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SPLITSIM_SEED", "11")
        run_cli("gen-trace", "--preset", "coding", "--rate", "2",
                "--duration", "10", "--output", str(a))
        run_cli("gen-trace", "--preset", "coding", "--rate", "2",
                "--duration", "10", "--seed", "11", "--output", str(b))
        assert a.read_text() == b.read_text()


class TestSimulate:
    def test_underloaded_passes(self, trace_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = run_cli("simulate", "--trace", str(trace_file),
                       "--design", "Splitwise-HH", "--prompt-machines", "4",
                       "--token-machines", "2", "--output-dir", str(outdir),
                       "--event-log")
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        assert (outdir / "requests.csv").exists()
        assert (outdir / "tbt.csv").exists()
        assert (outdir / "events.csv").exists()
        summary = (outdir / "summary.csv").read_text()
        assert summary.splitlines()[0].startswith("# design=Splitwise-HH")
        assert len([l for l in summary.splitlines() if not l.startswith("#")]) == 10

    def test_env_seed_leaves_outputs_alone(self, trace_file, tmp_path, monkeypatch):
        # the trace fixes every input, so the seed has nothing to change
        names = ("requests.csv", "tbt.csv", "summary.csv")
        outputs = []
        for seed in ("1", "2"):
            monkeypatch.setenv("SPLITSIM_SEED", seed)
            outdir = tmp_path / seed
            assert run_cli("simulate", "--trace", str(trace_file), "--design", "Splitwise-HH",
                           "--prompt-machines", "2", "--token-machines", "1",
                           "--output-dir", str(outdir)) == 0
            outputs.append([(outdir / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_overloaded_fails(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        run_cli("gen-trace", "--preset", "coding", "--rate", "8",
                "--duration", "30", "--seed", "1", "--output", str(trace))
        code = run_cli("simulate", "--trace", str(trace),
                       "--design", "Baseline-A100", "--prompt-machines", "1",
                       "--token-machines", "0",
                       "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert "fail" in capsys.readouterr().out

    def test_trace_path_named_like_the_header(self, trace_file, tmp_path, monkeypatch):
        # a relative path that starts with the header's first column name
        # is still a path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "arrival_s_trace.csv").write_bytes(trace_file.read_bytes())
        outputs = []
        for name, trace in (("a", "arrival_s_trace.csv"), ("b", str(trace_file))):
            assert run_cli("simulate", "--trace", trace, "--design", "Splitwise-HH",
                           "--prompt-machines", "2", "--token-machines", "1",
                           "--output-dir", name) == 0
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("requests.csv", "tbt.csv", "summary.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("design, types, llm, machines", [
        pytest.param("Splitwise-HH", ["H100"], "llama2-70b", "2", id="Splitwise-HH-types0"),
        pytest.param("Splitwise-HA", ["H100", "A100"], "llama2-70b", "2",
                     id="Splitwise-HA-types1"),
        # the long-output trace fills bloom's 26-task token batch
        pytest.param("Splitwise-HH", ["H100"], "bloom-176b", "1", id="Splitwise-HH-bloom"),
    ])
    def test_profile_matches_calibration(self, trace_file, tmp_path, design, types, llm,
                                         machines):
        # a profile exported from the calibrated models fits them back
        if llm != "llama2-70b":
            trace_file = long_output_trace(tmp_path / "long.csv")
        rows = [export_profile_csv(get_calibration(llm, mt)).splitlines(True)
                for mt in types]
        profile = tmp_path / "profile.csv"
        profile.write_text("".join(rows[0] + [r for more in rows[1:] for r in more[1:]]))
        outputs = []
        for name, extra in (("calibrated", []), ("profiled", ["--profile", str(profile)])):
            code = run_cli("simulate", "--trace", str(trace_file), "--design", design,
                           "--prompt-machines", machines, "--token-machines", "1",
                           "--llm", llm, "--output-dir", str(tmp_path / name), *extra)
            outputs.append([code] + [(tmp_path / name / f).read_bytes()
                                     for f in ("requests.csv", "tbt.csv", "summary.csv")])
        assert outputs[0][0] in (0, 1)  # an SLO verdict, not an input error
        assert outputs[0] == outputs[1]

    def test_profile_missing_a_machine_type(self, trace_file, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text(export_profile_csv(get_calibration("llama2-70b", "H100")))
        assert run_cli("simulate", "--trace", str(trace_file), "--design", "Splitwise-HA",
                       "--prompt-machines", "1", "--token-machines", "1", "--profile",
                       str(profile), "--output-dir", str(tmp_path / "o")) == 2
        assert "['A100']" in capsys.readouterr().err

    def test_profile_of_another_model(self, trace_file, tmp_path, capsys):
        # only the samples of the run's model are fitted
        profile = tmp_path / "profile.csv"
        profile.write_text(export_profile_csv(get_calibration("llama2-70b", "H100")))
        argv = ["simulate", "--trace", str(trace_file), "--design", "Splitwise-HH",
                "--prompt-machines", "2", "--token-machines", "1", "--llm", "bloom-176b",
                "--profile", str(profile)]
        assert run_cli(*argv, "--output-dir", str(tmp_path / "llama")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "bloom-176b" in err and "['H100']" in err
        bloom = export_profile_csv(get_calibration("bloom-176b", "H100"))
        profile.write_text(profile.read_text() + bloom.split("\n", 1)[1])
        assert run_cli(*argv, "--output-dir", str(tmp_path / "both")) in (0, 1)
        assert run_cli(*argv[:-2], "--output-dir", str(tmp_path / "calibrated")) in (0, 1)
        assert ((tmp_path / "both" / "requests.csv").read_bytes()
                == (tmp_path / "calibrated" / "requests.csv").read_bytes())

    def test_missing_trace(self, tmp_path):
        assert run_cli("simulate", "--design", "Splitwise-HH",
                       "--prompt-machines", "1", "--token-machines", "1",
                       "--output-dir", str(tmp_path)) == 2

    def test_nonexistent_trace_file(self, tmp_path):
        assert run_cli("simulate", "--trace", str(tmp_path / "no.csv"),
                       "--design", "Splitwise-HH", "--prompt-machines", "1",
                       "--token-machines", "1",
                       "--output-dir", str(tmp_path)) == 2

    def test_config_file(self, trace_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cluster.design = Splitwise-HH\n"
                       "cluster.prompt_machines = 4\n"
                       "cluster.token_machines = 2\n")
        code = run_cli("--config", str(cfg), "simulate",
                       "--trace", str(trace_file),
                       "--output-dir", str(tmp_path / "o"))
        assert code == 0
        header = (tmp_path / "o" / "summary.csv").read_text().splitlines()[0]
        assert "design=Splitwise-HH" in header
        assert "prompt_machines=4" in header

    def test_parked_residents_resume(self, tmp_path):
        """A burst whose prompt-only batch parks the token machine's every
        resident ends in an SLO verdict, not in an invariant error."""
        requests = [Request(0, 0.0, 100, 400)]
        requests += [Request(i, 1.0, 4, 1) for i in range(1, 53)]
        trace = tmp_path / "burst.csv"
        trace.write_text(serialize_trace(Trace(requests, duration=1.0)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cls.queue_threshold_tokens = 32\n")
        assert run_cli("--config", str(cfg), "simulate", "--trace", str(trace),
                       "--design", "Splitwise-HH", "--prompt-machines", "1",
                       "--token-machines", "1", "--llm", "bloom-176b",
                       "--output-dir", str(tmp_path / "o")) == 1
        rows = (tmp_path / "o" / "requests.csv").read_text().splitlines()[2:]  # past comment, header
        assert [row.split(",")[0] for row in rows] == [str(i) for i in range(53)]

    def test_bad_config_key(self, trace_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cluster.gpus = 4\n")
        assert run_cli("--config", str(cfg), "simulate",
                       "--trace", str(trace_file)) == 2


class TestTransferKeys:
    def _transfer(self, tmp_path, design, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        args = build_parser().parse_args(["--config", str(cfg), "simulate", "--design", design,
                                          "--prompt-machines", "1", "--token-machines", "1"])
        return _cluster_config(args, load_config(args.config)).transfer

    def test_each_key_takes_effect_alone(self, tmp_path):
        assert self._transfer(tmp_path, "Splitwise-HH", "transfer.threshold_tokens = 64\n") \
            == TransferConfig(400e9, 64, 5.0, 80)
        assert self._transfer(tmp_path, "Splitwise-HH", "transfer.layerwise_constant_ms = 2.5\n") \
            == TransferConfig(400e9, 512, 2.5, 80)

    def test_unset_keys_follow_the_design(self, tmp_path):
        # an A100 link keeps the A100 threshold and floor, not the H100 ones
        assert self._transfer(tmp_path, "Splitwise-AA", "transfer.bandwidth_gbps = 100\n") \
            == TransferConfig(100e9, 1024, 8.0, 80)


class TestProvision:
    def test_config_scheduler_reaches_search(self, tmp_path, monkeypatch):
        specs = []

        def fake_search(spec):
            specs.append(spec)
            return provision.SearchResult([], [], None, "not run")
        monkeypatch.setattr(provision, "search", fake_search)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mls.prompt_token_cap = 1024\nmls.max_preemptions = 2\n"
                       "mls.mixing_rule = max\ncls.queue_threshold_tokens = 512\n")
        assert run_cli("--config", str(cfg), "provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput", "--power-budget", "4",
                       "--preset", "conversation", "--output-dir", str(tmp_path)) == 1
        assert specs[0].sched == SchedulerConfig(prompt_token_cap=1024, max_preemptions=2,
                                                 queue_threshold_tokens=512, mixing_rule="max")

    @pytest.mark.parametrize("key", ["transfer.bandwidth_gbps", "transfer.threshold_tokens",
                                     "transfer.layerwise_constant_ms"])
    def test_transfer_key_is_a_usage_error(self, tmp_path, monkeypatch, capsys, key):
        """A search probes each design's default link, so a transfer key
        would be ignored: it is rejected, named, before any probe runs."""
        monkeypatch.setattr(provision, "search", None)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert run_cli("--config", str(cfg), "provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput", "--power-budget", "8",
                       "--preset", "conversation", "--output-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err

    def test_usage_error_without_constraint(self, tmp_path):
        assert run_cli("provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput", "--preset",
                       "conversation", "--output-dir", str(tmp_path)) == 2

    def test_usage_error_two_constraints(self, tmp_path):
        assert run_cli("provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput",
                       "--power-budget", "4", "--cost-budget", "4",
                       "--preset", "conversation",
                       "--output-dir", str(tmp_path)) == 2

    def test_throughput_objective_with_target_rejected(self, tmp_path):
        assert run_cli("provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput", "--throughput", "5",
                       "--preset", "conversation",
                       "--output-dir", str(tmp_path)) == 2

    def test_infeasible_exit_one(self, tmp_path, capsys):
        code = run_cli("provision", "--design", "Splitwise-AA",
                       "--objective", "min_cost", "--throughput", "500",
                       "--preset", "conversation",
                       "--prompt-counts", "1", "--token-counts", "1",
                       "--duration", "30", "--seeds", "1",
                       "--output-dir", str(tmp_path))
        assert code == 1
        assert "infeasible" in capsys.readouterr().out

    def test_small_search(self, tmp_path, capsys):
        code = run_cli("provision", "--design", "Splitwise-AA",
                       "--objective", "max_throughput", "--power-budget", "4",
                       "--preset", "conversation",
                       "--prompt-counts", "1:2", "--token-counts", "1:2",
                       "--duration", "30", "--seeds", "1",
                       "--output-dir", str(tmp_path))
        assert code == 0
        assert "optimum:" in capsys.readouterr().out
        results = (tmp_path / "results.csv").read_text()
        assert results.splitlines()[0] == \
            "design,prompt_count,token_count,max_rps,cost,power,slo_pass"
        assert (tmp_path / "pareto.csv").exists()


class TestFitModel:
    def test_fit_from_exported_profile(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text(export_profile_csv(get_calibration("llama2-70b", "H100")))
        out = tmp_path / "model.csv"
        code = run_cli("fit-model", "--profile", str(profile),
                       "--holdout", "0", "--output", str(out))
        assert code == 0
        assert "train MAPE" in capsys.readouterr().out
        assert out.read_text().startswith(
            "machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes")

    def test_insufficient_samples(self, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text(
            "machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes\n"
            "H100,llama2-70b,prompt,100,0,20,0\n")
        assert run_cli("fit-model", "--profile", str(profile),
                       "--output", str(tmp_path / "m.csv")) == 2

    def test_non_numeric_field(self, tmp_path, capsys):
        profile = tmp_path / "p.csv"
        profile.write_text(
            "machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes\n"
            "H100,llama2-70b,prompt,100,0,20,0\n"
            "H100,llama2-70b,prompt,abc,0,20,0\n")
        assert run_cli("fit-model", "--profile", str(profile),
                       "--output", str(tmp_path / "m.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ")
        assert "'abc'" in err


class TestReport:
    def test_round_trip(self, trace_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        run_cli("simulate", "--trace", str(trace_file),
                "--design", "Splitwise-HH", "--prompt-machines", "4",
                "--token-machines", "2", "--output-dir", str(outdir))
        capsys.readouterr()
        code = run_cli("report", "--requests", str(outdir / "requests.csv"),
                       "--tbt", str(outdir / "tbt.csv"))
        assert code == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "TBT" in out and "E2E" in out


# input file -> (header, a valid row, the index of a numeric field in it)
INPUTS = {
    "trace": (TRACE_HEADER, "0.0,200,3", 0),
    "profile": (PROFILE_HEADER, "H100,llama2-70b,prompt,100,0,20,0", 5),
    "requests": (REQUEST_CSV_HEADER, "0,0.0,87.1,120.5,0,1,5.0,0", 2),
    "tbt": (TBT_CSV_HEADER, "0,0,31.5", 2),
}


def _corrupt(name, case):
    """The file text for one malformed case, and the line it breaks."""
    header, row, k = INPUTS[name]
    if case == "bad header":
        return f"x,y,z\n{row}\n", 1
    if case == "field count":
        return f"{header}\n{row}\n{row},1\n", 3
    fields = row.split(",")
    fields[k] = {"non-number": "abc", "non-finite": "nan"}[case]
    return f"{header}\n{row}\n{','.join(fields)}\n", 3


class TestMalformedInput:
    @pytest.fixture
    def argv(self, tmp_path, trace_file):
        requests = tmp_path / "valid_requests.csv"
        requests.write_text(f"{REQUEST_CSV_HEADER}\n{INPUTS['requests'][1]}\n")
        simulate = ["simulate", "--design", "Splitwise-HH", "--prompt-machines", "1",
                    "--token-machines", "1", "--output-dir", str(tmp_path / "o")]
        return {
            "simulate --trace": ("trace", lambda p: [*simulate, "--trace", p]),
            "simulate --profile": ("profile", lambda p: [*simulate, "--trace",
                                                         str(trace_file), "--profile", p]),
            "fit-model --profile": ("profile", lambda p: ["fit-model", "--profile", p,
                                                          "--output", str(tmp_path / "m.csv")]),
            "report --requests": ("requests", lambda p: ["report", "--requests", p]),
            "report --tbt": ("tbt", lambda p: ["report", "--requests", str(requests),
                                               "--tbt", p]),
        }

    @pytest.mark.parametrize("case", ["bad header", "field count", "non-number", "non-finite",
                                      "directory"])
    @pytest.mark.parametrize("option", ["simulate --trace", "simulate --profile",
                                        "fit-model --profile", "report --requests",
                                        "report --tbt"])
    def test_exit_two_with_error_line(self, tmp_path, capsys, argv, option, case):
        name, make_argv = argv[option]
        if case == "directory":
            path, prefix = tmp_path, "error: "
        else:
            text, line = _corrupt(name, case)
            path = tmp_path / f"{name}.csv"
            path.write_text(text)
            prefix = f"error: line {line}: "
        capsys.readouterr()
        assert run_cli(*make_argv(str(path))) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, command", [
        pytest.param("", ["gen-trace", "--rate", "1", "--duration", "inf"], id="duration-inf"),
        pytest.param("", ["gen-trace", "--rate", "1", "--duration", "nan"], id="duration-nan"),
        pytest.param("", ["gen-trace", "--rate", "inf", "--duration", "5"], id="rate-inf"),
        pytest.param("", ["gen-trace", "--rate", "nan", "--duration", "5"], id="rate-nan"),
        pytest.param("prompt_dist.sigma = nan\n",
                     ["gen-trace", "--rate", "1", "--duration", "5"], id="config-sigma"),
        pytest.param("transfer.bandwidth_gbps = nan\n",
                     ["simulate", "--design", "Splitwise-HH", "--prompt-machines", "1",
                      "--token-machines", "1"], id="config-bandwidth"),
        pytest.param("", ["provision", "--design", "Splitwise-AA", "--objective",
                          "max_throughput", "--power-budget", "nan", "--preset",
                          "conversation"], id="power-budget-nan"),
    ])
    def test_non_finite_number(self, tmp_path, monkeypatch, capsys, trace_file, config,
                               command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config)
        if command[0] == "simulate":
            command = [*command, "--trace", str(trace_file)]
        capsys.readouterr()
        assert run_cli("--config", "run.cfg", *command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("env, command, named", [
        pytest.param({}, ["provision", "--prompt-counts", "1:x"], "--prompt-counts",
                     id="prompt-counts"),
        pytest.param({}, ["provision", "--token-counts", "1,,2"], "--token-counts",
                     id="token-counts"),
        pytest.param({}, ["provision", "--prompt-counts", "4:1:0"], "--prompt-counts",
                     id="prompt-counts-zero-step"),
        pytest.param({"SPLITSIM_SEED": "abc"}, ["gen-trace", "--rate", "1", "--duration", "5"],
                     "SPLITSIM_SEED", id="env-seed"),
        pytest.param({}, ["fit-model", "--knot-budget", "1"], "knot budget", id="knot-budget"),
        pytest.param({}, ["fit-model", "--holdout", "nan"], "holdout", id="holdout-nan"),
        pytest.param({}, ["fit-model", "--holdout", "-0.1"], "holdout", id="holdout-negative"),
        pytest.param({}, ["fit-model", "--holdout", "1"], "holdout", id="holdout-one"),
    ])
    def test_bad_value(self, tmp_path, monkeypatch, capsys, env, command, named):
        monkeypatch.chdir(tmp_path)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        if command[0] == "provision":
            command = [*command, "--design", "Splitwise-AA", "--objective", "max_throughput",
                       "--power-budget", "4", "--preset", "conversation"]
        if command[0] == "fit-model":
            profile = tmp_path / "profile.csv"
            profile.write_text(export_profile_csv(get_calibration("llama2-70b", "H100")))
            command = [*command, "--profile", str(profile)]
        capsys.readouterr()
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        pytest.param(["gen-trace", "--rate", "abc", "--duration", "5"], id="bad-type"),
        pytest.param(["gen-trace", "--rate", "1", "--duration", "5", "--bogus"],
                     id="unknown-flag"),
        pytest.param([], id="missing-subcommand"),
    ])
    def test_argparse_rejection(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run_cli(*command) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "usage:" not in err

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("text, counts", [("8:1:-1", [8, 7, 6, 5, 4, 3, 2, 1]),
                                          ("1:8:3", [1, 4, 7])])
def test_count_ranges_include_stop(text, counts):
    assert _parse_counts("--prompt-counts", text) == counts


def test_defaults_have_one_home():
    """The CLI's defaults are the library's, so neither can drift from the other."""
    assert _sched_config(load_config(None)) == SchedulerConfig()
    args = build_parser().parse_args(["provision", "--design", "Splitwise-AA",
                                      "--objective", "max_throughput"])
    assert args.duration == provision.SearchSpec.trace_duration
    assert tuple(args.seeds) == provision.SearchSpec.seeds
