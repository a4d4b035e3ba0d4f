import math

import pytest

from splitsim.config import KNOWN_KEYS, load_config, parse_config
from splitsim.errors import ConfigurationError


class TestParse:
    def test_key_value(self):
        assert parse_config("mls.prompt_token_cap = 1024") == \
            {"mls.prompt_token_cap": 1024}

    def test_comments_and_blanks(self):
        text = "# a comment\n\nrun.seed = 5  # trailing\n"
        assert parse_config(text) == {"run.seed": 5}

    def test_unknown_key(self):
        # mls.aging_rate was removed: it never changed the token order
        for line in ("mls.quantum = 3", "mls.aging_rate = 1.0"):
            with pytest.raises(ConfigurationError) as exc:
                parse_config(line)
            assert "line 1" in str(exc.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("run.seed 5")
        assert "line 1" in str(exc.value)

    def test_bad_type(self):
        with pytest.raises(ConfigurationError):
            parse_config("run.seed = abc")

    def test_line_numbers(self):
        with pytest.raises(ConfigurationError) as exc:
            parse_config("run.seed = 1\nbogus.key = 2\n")
        assert "line 2" in str(exc.value)


class TestLoad:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["mls.prompt_token_cap"] == 2048
        assert cfg["mls.max_preemptions"] == 4
        assert cfg["cls.queue_threshold_tokens"] == 4096
        assert cfg["run.llm"] == "llama2-70b"
        assert cfg["prompt_dist.mu"] == pytest.approx(math.log(1500))

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
