"""KV-cache handoff model: raw transfer time, mode selection, and the
latency that stays visible on the request timeline.

Small prompts ship their cache serialized after the prompt phase; large
prompts ship layer by layer while later layers are still computing, which
hides most of the transfer behind compute.  The visible remainder lands in
the gap between the first and second output token.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .perf import MACHINE_SPECS

SERIALIZED = "serialized"
LAYERWISE = "layerwise"


@dataclass(frozen=True)
class TransferConfig:
    bandwidth: float              # bits/second between the machine pair
    mode_threshold_tokens: int    # below this, serialized transfer
    layerwise_constant_ms: float  # per-layer sync floor
    num_layers: int

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")
        if self.mode_threshold_tokens < 0:
            raise ValidationError("mode threshold must be >= 0")
        if self.layerwise_constant_ms < 0:
            raise ValidationError("layerwise constant must be >= 0")
        if self.num_layers < 1:
            raise ValidationError("num_layers must be >= 1")


def default_transfer_config(prompt_type: str, token_type: str, num_layers: int) -> TransferConfig:
    """Pair defaults: the slower side's interconnect bounds the link, and
    its benchmarked constants apply."""
    spec = min(MACHINE_SPECS[prompt_type], MACHINE_SPECS[token_type],
               key=lambda s: s.interconnect_bandwidth)
    return TransferConfig(spec.interconnect_bandwidth, spec.transfer_threshold_tokens,
                          spec.layerwise_constant_ms, num_layers)


@dataclass(frozen=True)
class TransferPlan:
    mode: str
    raw_time: float         # ms
    visible_latency: float  # ms, added between first and second token

    def __post_init__(self):
        if not self.visible_latency <= self.raw_time:
            raise ValidationError("visible latency cannot exceed raw time")


def raw_transfer_time(kv_bytes: float, config: TransferConfig) -> float:
    """Wire time in ms to move ``kv_bytes`` at the configured bandwidth."""
    if kv_bytes < 0:
        raise ValidationError("kv_bytes must be >= 0")
    return 8000.0 * kv_bytes / config.bandwidth


def select_mode(prompt_tokens: int, config: TransferConfig) -> str:
    if prompt_tokens < 1:
        raise ValidationError("prompt_tokens must be >= 1")
    return SERIALIZED if prompt_tokens < config.mode_threshold_tokens else LAYERWISE


def plan_transfer(prompt_tokens: int, kv_bytes: float, prompt_compute_ms: float,
                  config: TransferConfig) -> TransferPlan:
    """Build the transfer plan for one request.

    Layer-wise transfer can hide at most the prompt compute excluding the
    final layer (the last layer's cache only exists once compute ends), so
    the overlap window is ``prompt_compute * (1 - 1/num_layers)``.  The
    visible remainder is floored at the per-layer sync constant but never
    exceeds the raw wire time.
    """
    if prompt_compute_ms < 0:
        raise ValidationError("prompt_compute_ms must be >= 0")
    raw = raw_transfer_time(kv_bytes, config)
    mode = select_mode(prompt_tokens, config)
    if mode == SERIALIZED:
        visible = raw
    else:
        window = prompt_compute_ms * (1.0 - 1.0 / config.num_layers)
        visible = min(raw, max(config.layerwise_constant_ms, raw - window))
    return TransferPlan(mode, raw, visible)
