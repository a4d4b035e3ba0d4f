"""Flat namespaced key=value run configuration.

Files hold one ``section.key = value`` assignment per line (``#`` comments
allowed).  Keys are checked against the registry below; unknown keys are
rejected so typos fail loudly.  Command-line flags override file values.
"""

from __future__ import annotations

import math

from .cluster import ClusterConfig
from .errors import ConfigurationError
from .machine import SchedulerConfig
from .trace import PRESETS

# each key sets the SchedulerConfig field named after its dot, and takes its default
SCHED_KEYS = ("mls.prompt_token_cap", "mls.max_preemptions", "mls.mixing_rule",
              "cls.queue_threshold_tokens")

# key -> (the TransferConfig field it overrides, scale to that unit, typed as the key)
TRANSFER_KEYS = {
    "transfer.bandwidth_gbps": ("bandwidth", 1e9),
    "transfer.threshold_tokens": ("mode_threshold_tokens", 1),
    "transfer.layerwise_constant_ms": ("layerwise_constant_ms", 1.0),
}

# key -> (type, default).  None default means "unset".
KNOWN_KEYS = {
    "run.trace": (str, None),
    "run.output_dir": (str, "."),
    "run.llm": (str, ClusterConfig.llm),
    "cluster.design": (str, "Baseline-A100"),
    "cluster.prompt_machines": (int, 1),
    "cluster.token_machines": (int, 0),
    **{key: (type(default), default) for key in SCHED_KEYS
       for default in [getattr(SchedulerConfig, key.partition(".")[2])]},
    **{key: (type(scale), None) for key, (_, scale) in TRANSFER_KEYS.items()},
    # the workload defaults are the ``coding`` preset, whose two
    # distributions are lognormal: params (mu, sigma)
    **{f"{role}_dist.{key}": (type(default), default)
       for role in ("prompt", "output")
       for dist in [PRESETS["coding"][role]]
       for key, default in zip(("kind", "mu", "sigma", "min", "max"),
                               (dist.kind, *dist.params, dist.min_tokens, dist.max_tokens))},
    "output_dist.weight2": (float, 0.0),
    "output_dist.mu2": (float, 0.0),
    "output_dist.sigma2": (float, 1.0),
}


def parse_config(text: str) -> dict:
    """Parse config text into a typed dict; unknown keys raise."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KNOWN_KEYS:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        typ, _default = KNOWN_KEYS[key]
        try:
            values[key] = typ(val)
        except ValueError:
            raise ConfigurationError(
                f"config line {lineno}: cannot parse {val!r} as {typ.__name__}") from None
        if typ is float and not math.isfinite(values[key]):
            raise ConfigurationError(f"config line {lineno}: {key} must be finite, got {val!r}")
    return values


def load_config(path: str | None) -> dict:
    """Load a config file (or nothing) on top of the registry defaults."""
    values = {k: d for k, (_t, d) in KNOWN_KEYS.items()}
    if path is not None:
        with open(path) as fh:
            values.update(parse_config(fh.read()))
    return values
