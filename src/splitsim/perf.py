"""Piece-wise linear performance models for prompt time, token-iteration
time, and memory footprint.

Models are fitted from profile samples (or shipped as calibration presets)
per machine type and model.  Between knots the predictor is linear, at
knots it interpolates exactly, and beyond the last knot it extrapolates
with the final segment's slope.  Noisy fits are repaired to be monotone
with pool-adjacent-violators before knot construction, since the
schedulers assume non-decreasing costs.
"""

from __future__ import annotations

import io
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import CapacityError, FitError, ValidationError
from .trace import read_csv


@dataclass(frozen=True)
class MachineSpec:
    """Per-machine memory, the back-plane link that carries the KV cache,
    and the machine's cost and provisioned power."""

    memory_capacity: float            # bytes
    interconnect_bandwidth: float     # bits/second
    transfer_threshold_tokens: int    # below this, KV ships serialized
    layerwise_constant_ms: float      # non-overlapped layer-wise sync floor
    cost: float                       # relative to a DGX-A100
    power: float                      # relative to a DGX-A100
    token_cost: float                 # cost on the token side of a Splitwise design

    def __post_init__(self):
        if min(astuple(self)) <= 0:
            raise ValidationError("MachineSpec fields must be positive")


# DGX-class machines: 8 GPUs x 80 GB HBM; Infiniband per the vendor data-sheet
# ratios (A100 200 Gb/s, H100 400 Gb/s).  Benchmarked layer-wise floors are
# ~5 ms over 400 Gb/s and ~8 ms over 200 Gb/s; the serialized/layer-wise
# threshold scales inversely with bandwidth.  Cost and power are normalized
# to a DGX-A100; an H100 on the token side of a Splitwise design carries the
# higher serving rate, and a power-capped H100 is an H100 provisioned for
# 1.23x an A100's power.
MACHINE_SPECS: dict[str, MachineSpec] = {
    "A100": MachineSpec(640e9, 200e9, 1024, 8.0, cost=1.0, power=1.0, token_cost=1.0),
    "H100": MachineSpec(640e9, 400e9, 512, 5.0, cost=2.35, power=1.75, token_cost=2.5),
}
MACHINE_SPECS["H100cap"] = replace(MACHINE_SPECS["H100"], power=1.23)


@dataclass(frozen=True)
class LlmSpec:
    """Per-model architecture and serving limits."""

    num_layers: int
    hidden: int
    weight_memory: float   # bytes
    max_token_batch: int

    @property
    def kv_bytes_per_token(self) -> float:
        """K and V, every layer, fp16: 2 * layers * hidden * 2 bytes."""
        return float(2 * self.num_layers * self.hidden * 2)


# Token batches scale up to 64 before memory runs out (Llama2-70B); the
# weight figure includes framework/activation overhead beyond raw fp16
# weights so that 64 contexts of the 2048-token calibration length fill
# the 640 GB machine.
LLM_SPECS: dict[str, LlmSpec] = {
    "llama2-70b": LlmSpec(80, 8192, 295e9, 64),
    "bloom-176b": LlmSpec(70, 14336, 420e9, 26),
}


@dataclass(frozen=True)
class ProfileSample:
    """One measured point from profiling a model on target hardware."""

    machine_type: str
    llm: str
    batch_prompt_tokens: int
    batch_token_count: int
    measured_time: float     # milliseconds
    measured_memory: float   # bytes

    def __post_init__(self):
        if (self.batch_prompt_tokens > 0) == (self.batch_token_count > 0):
            raise ValidationError(
                "exactly one of batch_prompt_tokens/batch_token_count must be positive")
        if self.measured_time <= 0:
            raise ValidationError("measured_time must be positive")

    @property
    def phase(self):
        return "prompt" if self.batch_prompt_tokens > 0 else "token"

    @property
    def abscissa(self):
        return self.batch_prompt_tokens if self.batch_prompt_tokens > 0 else self.batch_token_count


def _piecewise_eval(x, xs, ys):
    """Evaluate a piecewise-linear curve, extrapolating edge slopes."""
    x = float(x)
    if len(xs) == 1:
        return float(ys[0])
    if x >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return float(ys[-1] + slope * (x - xs[-1]))
    if x <= xs[0]:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return float(ys[0] + slope * (x - xs[0]))
    return float(np.interp(x, xs, ys))


@dataclass
class PerfModel:
    """Fitted (or preset) predictor for one (machine_type, llm) pair."""

    machine_type: str
    llm: str
    prompt_knots: tuple[np.ndarray, np.ndarray]  # tokens -> ms
    token_knots: tuple[np.ndarray, np.ndarray]   # batch size -> ms/iteration
    kv_bytes_per_token: float
    weight_memory: float
    memory_capacity: float
    max_token_batch: int

    def __post_init__(self):
        for xs, ys in (self.prompt_knots, self.token_knots):
            xs = np.asarray(xs, dtype=float)
            ys = np.asarray(ys, dtype=float)
            if np.any(np.diff(xs) <= 0):
                raise ValidationError("knot abscissas must be strictly increasing")
            if np.any(ys <= 0):
                raise ValidationError("predicted times must be strictly positive")
        self.prompt_knots = (np.asarray(self.prompt_knots[0], dtype=float),
                             np.asarray(self.prompt_knots[1], dtype=float))
        self.token_knots = (np.asarray(self.token_knots[0], dtype=float),
                            np.asarray(self.token_knots[1], dtype=float))
        if self.kv_bytes_per_token <= 0:
            raise ValidationError("kv_bytes_per_token must be positive")
        # exact lookups: the same floats _piecewise_eval gives, computed once
        self._token_ms = [0.0] + [_piecewise_eval(b, *self.token_knots)
                                  for b in range(1, self.max_token_batch + 1)]
        self._prompt_ms: dict[int, float] = {}

    def prompt_time(self, total_prompt_tokens: int) -> float:
        """Prompt-phase time in ms for a batch totalling this many tokens."""
        ms = self._prompt_ms.get(total_prompt_tokens)
        if ms is None:
            if total_prompt_tokens < 1:
                raise ValidationError("prompt tokens must be >= 1")
            ms = self._prompt_ms[total_prompt_tokens] = _piecewise_eval(
                total_prompt_tokens, *self.prompt_knots)
        return ms

    def token_iter_time(self, batch_size: int) -> float:
        """One token-generation iteration in ms at the given batch size."""
        if batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if batch_size > self.max_token_batch:
            raise CapacityError(
                f"batch {batch_size} exceeds max_token_batch {self.max_token_batch}")
        return self._token_ms[batch_size]

    def kv_cache_bytes(self, context_tokens: int) -> float:
        if context_tokens < 0:
            raise ValidationError("context tokens must be >= 0")
        return context_tokens * self.kv_bytes_per_token


@dataclass
class FitReport:
    """Error metrics from a fit (percentages)."""

    train_mape_prompt: float
    train_mape_token: float
    holdout_mape: float | None = None


def _pav_nondecreasing(ys):
    """Pool-adjacent-violators for a non-decreasing sequence."""
    blocks = []  # [mean value, count]
    for y in ys:
        blocks.append([float(y), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, c2 = blocks.pop()
            v1, c1 = blocks.pop()
            blocks.append([(v1 * c1 + v2 * c2) / (c1 + c2), c1 + c2])
    out = []
    for v, c in blocks:
        out.extend([v] * c)
    return np.asarray(out)


def _dedupe(xs, ys):
    """Average duplicate abscissas; returns sorted unique (x, y)."""
    order = np.argsort(xs, kind="stable")
    xs = np.asarray(xs, dtype=float)[order]
    ys = np.asarray(ys, dtype=float)[order]
    ux, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    sums = np.zeros(len(ux))
    np.add.at(sums, inverse, ys)
    return ux, sums / counts


def _merge_knots(xs, ys, budget):
    """Greedily drop interior knots, each time removing the one whose
    linear bridge adds the least absolute error."""
    xs = list(xs)
    ys = list(ys)
    while len(xs) > budget:
        best_i, best_err = None, None
        for i in range(1, len(xs) - 1):
            t = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1])
            bridged = ys[i - 1] + t * (ys[i + 1] - ys[i - 1])
            err = abs(bridged - ys[i])
            if best_err is None or err < best_err:
                best_i, best_err = i, err
        del xs[best_i], ys[best_i]
    return np.asarray(xs), np.asarray(ys)


def _fit_curve(samples, knot_budget):
    xs = [s.abscissa for s in samples]
    ys = [s.measured_time for s in samples]
    ux, uy = _dedupe(xs, ys)
    if len(ux) < 2:
        raise FitError("need at least 2 distinct abscissas per phase")
    uy = _pav_nondecreasing(uy)
    uy = np.maximum(uy, 1e-9)
    if len(ux) > knot_budget:
        ux, uy = _merge_knots(ux, uy, knot_budget)
    return ux, uy


def _mape(model_fn, samples):
    if not samples:
        return 0.0
    errs = [abs(model_fn(s.abscissa) - s.measured_time) / s.measured_time for s in samples]
    return 100.0 * float(np.mean(errs))


KNOT_BUDGET = 32  # most knots per fitted curve


def fit_piecewise_linear(samples, knot_budget=KNOT_BUDGET, holdout_fraction=0.0, seed=0):
    """Fit a PerfModel from profile samples of a single (machine_type, llm).

    Each curve keeps at most ``knot_budget`` (>= 2) knots.  With
    ``holdout_fraction`` in (0, 1), that fraction of samples (seeded split)
    is withheld and the returned report carries the holdout MAPE.
    Memory parameters come from a least-squares line over the samples'
    measured memory (intercept = weights, slope = KV bytes/token).  The
    token-batch limit is the model's ``LLM_SPECS`` entry, or the largest
    profiled batch for a model outside the registry.
    """
    if knot_budget < 2:
        raise FitError(f"knot budget must be >= 2, got {knot_budget}")
    if not 0 <= holdout_fraction < 1:
        raise FitError(f"holdout fraction must be in [0, 1), got {holdout_fraction}")
    samples = list(samples)
    if not samples:
        raise FitError("no samples")
    keys = {(s.machine_type, s.llm) for s in samples}
    if len(keys) != 1:
        raise FitError(f"samples span multiple (machine_type, llm) groups: {keys}")
    machine_type, llm = keys.pop()

    if holdout_fraction > 0:
        rng = np.random.Generator(np.random.Philox(seed))
        idx = rng.permutation(len(samples))
        n_hold = int(round(holdout_fraction * len(samples)))
        hold = [samples[i] for i in idx[:n_hold]]
        train = [samples[i] for i in idx[n_hold:]]
    else:
        hold, train = [], samples

    prompt_train = [s for s in train if s.phase == "prompt"]
    token_train = [s for s in train if s.phase == "token"]
    if len(prompt_train) < 2 or len(token_train) < 2:
        raise FitError("need >= 2 prompt and >= 2 token samples")
    prompt_knots = _fit_curve(prompt_train, knot_budget)
    token_knots = _fit_curve(token_train, knot_budget)

    # memory line from prompt-phase samples: mem = weights + tokens * kv
    mem_x = np.asarray([s.abscissa for s in prompt_train], dtype=float)
    mem_y = np.asarray([s.measured_memory for s in prompt_train], dtype=float)
    if np.any(mem_y > 0):
        A = np.vstack([np.ones_like(mem_x), mem_x]).T
        coef, *_ = np.linalg.lstsq(A, mem_y, rcond=None)
        weight_memory = max(float(coef[0]), 0.0)
        kv_bytes = max(float(coef[1]), 1.0)
    else:
        weight_memory, kv_bytes = 0.0, 1.0

    memory_capacity = MACHINE_SPECS.get(machine_type, MACHINE_SPECS["A100"]).memory_capacity
    if llm in LLM_SPECS:
        max_token_batch = LLM_SPECS[llm].max_token_batch
    else:
        max_token_batch = int(max(s.abscissa for s in token_train))

    model = PerfModel(machine_type, llm, prompt_knots, token_knots,
                      kv_bytes, weight_memory, memory_capacity, max_token_batch)
    report = FitReport(
        train_mape_prompt=_mape(model.prompt_time, prompt_train),
        train_mape_token=_mape(lambda b: _piecewise_eval(b, *model.token_knots), token_train),
    )
    if hold:
        def predict(s):
            if s.phase == "prompt":
                return model.prompt_time(s.abscissa)
            return _piecewise_eval(s.abscissa, *model.token_knots)
        errs = [abs(predict(s) - s.measured_time) / s.measured_time for s in hold]
        report.holdout_mape = 100.0 * float(np.mean(errs))
    return model, report


# ---------------------------------------------------------------------------
# Calibration presets
#
# Anchored to measured medians on DGX machines without batching:
# Llama2-70B prompt of 1500 tokens takes 185 ms (A100) / 95 ms (H100);
# single-token iteration 52 ms (A100) / 31 ms (H100).  Beyond 2048 tokens
# the prompt curve turns superlinear (attention cost grows quadratically
# once the per-token linear terms stop dominating).  Memory figures come
# from LLM_SPECS and MACHINE_SPECS.
# ---------------------------------------------------------------------------

_CALIBRATION = {
    ("llama2-70b", "A100"): dict(
        prompt=([1, 128, 256, 512, 1020, 1500, 2048, 4096, 8192],
                [16, 49, 78, 142, 155, 185, 253, 700, 2400]),
        token=([1, 2, 4, 8, 16, 32, 64],
               [52, 52.5, 54, 55, 60, 72, 104]),
    ),
    ("llama2-70b", "H100"): dict(
        prompt=([1, 128, 256, 512, 1020, 1500, 2048, 4096, 8192],
                [8, 25, 40, 73, 84, 95, 130, 360, 1250]),
        token=([1, 2, 4, 8, 16, 32, 64],
               [31, 31.5, 32, 33, 36, 43, 62]),
    ),
    ("bloom-176b", "A100"): dict(
        prompt=([1, 256, 512, 1020, 1500, 2048, 4096],
                [23, 114, 209, 323, 456, 627, 1102]),
        token=([1, 8, 16, 32, 64],
               [58, 62, 68, 81, 116]),
    ),
    ("bloom-176b", "H100"): dict(
        prompt=([1, 256, 512, 1020, 1500, 2048, 4096],
                [12, 60, 110, 170, 240, 330, 580]),
        token=([1, 8, 16, 32, 64],
               [40, 43, 47, 56, 80]),
    ),
}

# Under a 50% per-GPU power cap the token phase is unaffected while prompt
# computation slows by this factor.
H100CAP_PROMPT_FACTOR = 1.5


def get_calibration(llm: str, machine_type: str) -> PerfModel:
    """Return the built-in calibrated preset for (llm, machine_type)."""
    base_type = "H100" if machine_type == "H100cap" else machine_type
    key = (llm, base_type)
    if key not in _CALIBRATION:
        raise ValidationError(f"no calibration preset for llm={llm!r} machine={machine_type!r}")
    c = _CALIBRATION[key]
    px, py = c["prompt"]
    py = list(py)
    if machine_type == "H100cap":
        py = [v * H100CAP_PROMPT_FACTOR for v in py]
    spec = LLM_SPECS[llm]
    return PerfModel(machine_type, llm,
                     (np.asarray(px, float), np.asarray(py, float)),
                     (np.asarray(c["token"][0], float), np.asarray(c["token"][1], float)),
                     spec.kv_bytes_per_token, spec.weight_memory,
                     MACHINE_SPECS[machine_type].memory_capacity, spec.max_token_batch)


PROFILE_HEADER = "machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes"


def export_profile_csv(model: PerfModel) -> str:
    """Dump a model's knots in the profile CSV format (round-trips via fit)."""
    buf = io.StringIO()
    buf.write(PROFILE_HEADER + "\n")
    for x, y in zip(*model.prompt_knots):
        mem = model.weight_memory + x * model.kv_bytes_per_token
        buf.write(f"{model.machine_type},{model.llm},prompt,{int(x)},0,{y:.6f},{mem:.0f}\n")
    for x, y in zip(*model.token_knots):
        buf.write(f"{model.machine_type},{model.llm},token,0,{int(x)},{y:.6f},0\n")
    return buf.getvalue()


def parse_profile_csv(source) -> list[ProfileSample]:
    """Read profile samples in the CSV format above from a path or text, as
    ``read_csv`` takes them."""
    samples = []
    for i, (mt, llm, phase, ptok, bsz, tms, mem) in read_csv(
            source, PROFILE_HEADER, (str, str, str, int, int, float, float)):
        if phase not in ("prompt", "token"):
            raise ValidationError(f"profile line {i}: bad phase {phase!r}")
        samples.append(ProfileSample(mt, llm, ptok if phase == "prompt" else 0,
                                     bsz if phase == "token" else 0, tms, mem))
    return samples
