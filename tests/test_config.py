import math

import pytest

from splitsim import config, provision
from splitsim.cli import _dists_from_config, main
from splitsim.config import KNOWN_KEYS, load_config, parse_config
from splitsim.errors import ConfigurationError
from splitsim.trace import PRESETS


class TestParse:
    def test_key_value(self):
        assert parse_config("mls.prompt_token_cap = 1024") == \
            {"mls.prompt_token_cap": 1024}

    def test_comments_and_blanks(self):
        text = "# a comment\n\nmls.max_preemptions = 5  # trailing\n"
        assert parse_config(text) == {"mls.max_preemptions": 5}

    def test_unknown_key(self):
        # removed keys, which never changed any output, are unknown too
        for line in ("mls.quantum = 3", "mls.aging_rate = 1.0", "run.seed = 1",
                     "run.profile = p.csv", "cluster.prompt_type = H100",
                     "cluster.token_type = A100", "cls.repurpose_window_s = 60",
                     "cls.repurpose_fraction = 0.5"):
            with pytest.raises(ConfigurationError) as exc:
                parse_config(line)
            assert "line 1" in str(exc.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("mls.max_preemptions 5")
        assert "line 1" in str(exc.value)

    def test_bad_type(self):
        with pytest.raises(ConfigurationError):
            parse_config("mls.max_preemptions = abc")

    @pytest.mark.parametrize("line", ["prompt_dist.sigma = nan", "transfer.bandwidth_gbps = inf",
                                      "output_dist.mu = -inf"])
    def test_non_finite_float(self, line):
        with pytest.raises(ConfigurationError, match="must be finite") as exc:
            parse_config(f"mls.max_preemptions = 1\n{line}\n")
        assert "line 2" in str(exc.value)

    def test_line_numbers(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("mls.max_preemptions = 1\nbogus.key = 2\n")
        assert "line 2" in str(exc.value)


class TestLoad:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["mls.prompt_token_cap"] == 2048
        assert cfg["mls.max_preemptions"] == 4
        assert cfg["cls.queue_threshold_tokens"] == 4096
        assert cfg["run.llm"] == "llama2-70b"
        assert cfg["prompt_dist.mu"] == pytest.approx(math.log(1500))

    def test_workload_defaults_are_the_coding_preset(self):
        # gen-trace without --preset draws the same workload as --preset coding
        cfg = load_config(None)
        for role in ("prompt", "output"):
            got = _dists_from_config(cfg, f"{role}_dist")
            want = PRESETS["coding"][role]
            assert (got.kind, got.params, got.min_tokens, got.max_tokens) == \
                (want.kind, want.params, want.min_tokens, want.max_tokens)

    def test_file_overlay(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cluster.design = Splitwise-HH\ncluster.prompt_machines = 4\n")
        cfg = load_config(str(path))
        assert cfg["cluster.design"] == "Splitwise-HH"
        assert cfg["cluster.prompt_machines"] == 4
        assert cfg["mls.prompt_token_cap"] == 2048  # untouched default

    def test_all_keys_have_types(self):
        for key, (typ, default) in KNOWN_KEYS.items():
            assert typ in (str, int, float)
            if default is not None:
                assert isinstance(default, (typ, int))


class _RecordingDict(dict):
    """A loaded config that notes every key the CLI reads."""

    def __init__(self, values, seen):
        super().__init__(values)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_every_key_is_read(tmp_path, monkeypatch):
    """A key no command reads has no effect on any output."""
    seen = set()
    real_load = config.load_config
    monkeypatch.setattr(config, "load_config",
                        lambda path: _RecordingDict(real_load(path), seen))
    monkeypatch.setattr(provision, "search",
                        lambda spec: provision.SearchResult([], [], None, "not run"))
    trace = tmp_path / "trace.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_dist.kind = bimodal-lognormal\n"
                   "output_dist.weight2 = 0.2\n"
                   "output_dist.mu2 = 4.0\n"
                   f"run.trace = {trace}\n"
                   f"run.output_dir = {tmp_path / 'out'}\n"
                   "cluster.design = Splitwise-HH\n"
                   "cluster.prompt_machines = 2\n"
                   "cluster.token_machines = 1\n")
    assert main(["--config", str(cfg), "gen-trace", "--rate", "1", "--duration", "5",
                 "--output", str(trace)]) == 0
    assert main(["--config", str(cfg), "simulate"]) in (0, 1)
    assert main(["--config", str(cfg), "provision", "--design", "Splitwise-AA",
                 "--objective", "max_throughput", "--power-budget", "4"]) == 1
    assert sorted(set(KNOWN_KEYS) - seen) == []
