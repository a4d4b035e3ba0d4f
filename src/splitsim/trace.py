"""Request traces: CSV replay, synthetic generation, and summary statistics;
and ``read_csv``, the checked reader of every input CSV.

A trace is a time-ordered list of requests, each carrying only an arrival
time and the prompt/output token counts.  Synthetic traces use Poisson
arrivals with per-request sizes drawn from configurable token-count
distributions; the ``coding`` and ``conversation`` presets are calibrated
so their medians match the production workloads they imitate (median
prompt 1500 / median output 13 for coding, 1020 / 129 for conversation).

All randomness goes through numpy's Philox generator (counter-based,
documented, portable), so a fixed seed reproduces the same trace on any
platform.

``generate_trace`` and ``parse_trace`` build their requests in bulk from
three columns (arrival, prompt size, output size): the columns are checked
as whole arrays against the rules of ``Request.__post_init__``, and a bad
value raises the message ``Request(...)`` gives for the first offending id;
then every request is made by ``object.__new__`` and its slots are filled
column by column, with no Python-level call per request.  ``parse_trace``
first checks each row, naming its line.  A ``Request(...)`` built directly
runs its own checks, and ``Trace(...)`` checks order, horizon and ids.
"""

from __future__ import annotations

import io
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ParseError, ValidationError

TRACE_HEADER = "arrival_s,prompt_tokens,output_tokens"


@dataclass(frozen=True, slots=True)
class Request:
    """A single inference request."""

    id: int
    arrival: float
    prompt_tokens: int
    output_tokens: int

    def __post_init__(self):
        if self.arrival < 0:
            raise ValidationError(f"request {self.id}: negative arrival {self.arrival}")
        if self.prompt_tokens < 1:
            raise ValidationError(f"request {self.id}: prompt_tokens must be >= 1")
        if self.output_tokens < 1:
            raise ValidationError(f"request {self.id}: output_tokens must be >= 1")


_SLOT_SETTERS = tuple(getattr(Request, name).__set__ for name in Request.__slots__)


def _build_requests(arrivals, prompts, outputs) -> list[Request]:
    """Requests ``0..n-1`` from three equal-length columns, in column order.

    The columns are checked in bulk against ``Request.__post_init__``'s
    rules; the first offending row is rebuilt through ``Request(...)``,
    which raises its message.  The rest is done in C: one ``object.__new__``
    per request, then one slot ``__set__`` per value, as the frozen
    dataclass's own ``__init__`` sets them.
    """
    arrivals, prompts, outputs = map(np.asarray, (arrivals, prompts, outputs))
    bad = np.flatnonzero((arrivals < 0) | (prompts < 1) | (outputs < 1))
    n = len(arrivals)
    columns = (range(n), arrivals.tolist(), prompts.tolist(), outputs.tolist())
    if len(bad):
        Request(*(column[bad[0]] for column in columns))  # raises that row's error
    requests = list(map(object.__new__, repeat(Request, n)))
    for set_slot, column in zip(_SLOT_SETTERS, columns):
        deque(map(set_slot, requests, column), maxlen=0)
    return requests


@dataclass
class Trace:
    """Requests sorted by arrival, plus the covered duration in seconds."""

    requests: list[Request]
    duration: float
    clamped_samples: int = 0  # size draws that hit a distribution clamp

    def __post_init__(self):
        arrivals = list(map(operator.attrgetter("arrival"), self.requests))
        if any(map(operator.lt, arrivals[1:], arrivals)):
            raise ValidationError("trace arrivals are not sorted")
        if arrivals and arrivals[-1] > self.duration:
            raise ValidationError("arrival beyond trace duration")
        ids = list(map(operator.attrgetter("id"), self.requests))
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate request ids in trace")

    def __len__(self):
        return len(self.requests)


class SizeDistribution:
    """Token-count distribution with a hard support clamp.

    Kinds:
      * ``lognormal``       -- params (mu, sigma) of the underlying normal
      * ``bimodal-lognormal`` -- params (w2, mu1, sigma1, mu2, sigma2);
                               component 2 is drawn with probability w2
      * ``empirical``       -- explicit CDF table (quantiles, values)

    Sampled values are rounded to integers and clamped into
    ``[min_tokens, max_tokens]``; the number of clamped draws is counted
    rather than resampled, so the clamp introduces no hidden bias.
    """

    KINDS = ("lognormal", "bimodal-lognormal", "empirical")
    # the parameter names of each lognormal kind, in ``params`` order
    PARAMS = {"lognormal": ("mu", "sigma"),
              "bimodal-lognormal": ("w2", "mu1", "sigma1", "mu2", "sigma2")}

    def __init__(self, kind, params, min_tokens=1, max_tokens=1 << 20):
        if kind not in self.KINDS:
            raise ValidationError(f"unknown distribution kind {kind!r}")
        if min_tokens < 1 or max_tokens < min_tokens:
            raise ValidationError("invalid clamp range")
        for name, value in zip(self.PARAMS.get(kind, ()), params):
            self.check_param(kind, name, value)
        if kind == "empirical":
            q, v = params
            q = np.asarray(q, dtype=float)
            v = np.asarray(v, dtype=float)
            if q.ndim != 1 or q.shape != v.shape or len(q) == 0:
                raise ValidationError("empirical CDF table malformed")
            if not (np.all(np.diff(q) > 0) and 0.0 < q[0] and q[-1] <= 1.0):
                raise ValidationError("empirical quantiles must be strictly increasing in (0, 1]")
            if not np.all(np.isfinite(v)):
                raise ValidationError("empirical values must be finite")
            params = (q, v)
        self.kind = kind
        self.params = params
        self.min_tokens = int(min_tokens)
        self.max_tokens = int(max_tokens)

    @staticmethod
    def check_param(kind, name, value):
        """Raise ``ValidationError`` unless ``value`` suits parameter ``name`` of ``kind``."""
        if name.startswith("mu") and not math.isfinite(value):
            raise ValidationError(f"{kind} {name} must be finite, got {value}")
        if name.startswith("sigma") and not 0 <= value < math.inf:
            raise ValidationError(f"{kind} {name} must be finite and >= 0, got {value}")
        if name == "w2" and not 0.0 <= value <= 1.0:
            raise ValidationError(f"{kind} mixture weight {name} must be in [0, 1], got {value}")

    @classmethod
    def lognormal(cls, mu, sigma, min_tokens=1, max_tokens=1 << 20):
        return cls("lognormal", (float(mu), float(sigma)), min_tokens, max_tokens)

    @classmethod
    def bimodal_lognormal(cls, w2, mu1, sigma1, mu2, sigma2, min_tokens=1, max_tokens=1 << 20):
        return cls("bimodal-lognormal", (float(w2), float(mu1), float(sigma1), float(mu2), float(sigma2)),
                   min_tokens, max_tokens)

    @classmethod
    def empirical(cls, quantiles, values, min_tokens=1, max_tokens=1 << 20):
        return cls("empirical", (quantiles, values), min_tokens, max_tokens)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
        """Draw ``n`` token counts; returns (values, clamped_count)."""
        if n == 0:
            return np.zeros(0, dtype=np.int64), 0
        if self.kind == "lognormal":
            mu, sigma = self.params
            raw = rng.lognormal(mu, sigma, n)
        elif self.kind == "bimodal-lognormal":
            w2, mu1, s1, mu2, s2 = self.params
            pick2 = rng.random(n) < w2
            raw = np.where(pick2, rng.lognormal(mu2, s2, n), rng.lognormal(mu1, s1, n))
        else:
            q, v = self.params
            u = rng.random(n)
            raw = v[np.minimum(np.searchsorted(q, u, side="left"), len(v) - 1)]
        vals = np.rint(raw)  # clamped as floats: a draw beyond int64 would wrap in a cast
        clamped = int(np.count_nonzero((vals < self.min_tokens) | (vals > self.max_tokens)))
        return np.clip(vals, self.min_tokens, self.max_tokens).astype(np.int64), clamped


# Workload presets calibrated so medians land on the production values
# (coding: prompt 1500 / output 13; conversation: prompt 1020 / output 129,
# with an almost-bimodal output shape).  The coding prompt tail is heavy:
# completion contexts include large chunks of already-written code.
PRESETS: dict[str, dict[str, SizeDistribution]] = {
    "coding": {
        "prompt": SizeDistribution.lognormal(math.log(1500), 1.1, 512, 8192),
        "output": SizeDistribution.lognormal(math.log(13), 0.8, 1, 1000),
    },
    "conversation": {
        "prompt": SizeDistribution.lognormal(math.log(1020), 1.1, 256, 8192),
        "output": SizeDistribution.bimodal_lognormal(
            0.55, math.log(20), 0.8, math.log(320), 0.7, 1, 4096),
    },
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_CONVERTERS = {str: str, int: int, float: _finite_float}
_WANTED = {int: "an integer", _finite_float: "a finite number"}


def read_csv(source, header: str, types: tuple):
    """Yield ``(line number, fields)`` for each row of a fixed-header CSV.

    ``source`` is the CSV text when it is a ``str`` holding a newline, and
    a path otherwise.  Blank lines and ``#`` lines are skipped; the first
    other line must be ``header``, and each later one holds one field per
    column, converted by its entry of ``types`` (``str``, ``int``, or
    ``float``, which must be finite).  Any failure raises ``ParseError``
    naming the line.
    """
    if isinstance(source, str) and "\n" in source:
        lines = source.splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    columns = list(zip(header.split(","), [_CONVERTERS[typ] for typ in types]))
    seen_header = False
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line != header:
                raise ParseError(f"expected header {header!r}, got {line!r}", line=i)
            seen_header = True
            continue
        fields = line.split(",")
        if len(fields) != len(types):
            raise ParseError(f"expected {len(types)} fields, got {len(fields)}", line=i)
        row = []
        for (name, convert), field in zip(columns, fields):
            try:
                row.append(convert(field))
            except ValueError:
                raise ParseError(f"{name} = {field!r} is not {_WANTED[convert]}",
                                 line=i) from None
        yield i, row
    if not seen_header:
        raise ParseError(f"expected header {header!r}, found none", line=1)


def parse_trace(source) -> Trace:
    """Parse the three-column trace CSV from a path or text, as ``read_csv``
    takes them; stable-sorts by arrival."""
    rows = []
    for i, (arrival, prompt, output) in read_csv(source, TRACE_HEADER, (float, int, int)):
        if prompt < 1 or output < 1:
            raise ValidationError(f"line {i}: non-positive token count")
        if arrival < 0:
            raise ValidationError(f"line {i}: negative arrival")
        rows.append((arrival, prompt, output))
    if not rows:
        raise ValidationError("empty trace")
    rows.sort(key=operator.itemgetter(0))  # stable
    requests = _build_requests(*zip(*rows))
    return Trace(requests, duration=requests[-1].arrival)


def serialize_trace(trace: Trace) -> str:
    """Render a trace back to its CSV form."""
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    for r in trace.requests:
        buf.write(f"{r.arrival:.6f},{r.prompt_tokens},{r.output_tokens}\n")
    return buf.getvalue()


def generate_trace(prompt_dist: SizeDistribution, output_dist: SizeDistribution,
                   rate: float, duration: float, seed: int) -> Trace:
    """Synthesize a Poisson-arrival trace.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``; sizes
    are drawn independently per request.  Draw order is fixed (arrivals,
    then prompts, then outputs) so a seed pins the whole trace.
    """
    if not 0 <= rate < math.inf:
        raise ValidationError("rate must be finite and >= 0")
    if not 0 < duration < math.inf:
        raise ValidationError("duration must be finite and > 0")
    rng = _rng(seed)
    chunks = []
    if rate > 0:
        t = 0.0
        while True:
            chunk = rng.exponential(1.0 / rate, size=max(256, int(rate * duration * 0.2) + 1))
            cum = t + np.cumsum(chunk)
            inside = cum[cum <= duration]
            chunks.append(inside)
            if len(inside) < len(cum):
                break
            t = cum[-1]
    arrivals = np.concatenate(chunks) if chunks else np.zeros(0)
    prompts, c1 = prompt_dist.sample(rng, len(arrivals))
    outputs, c2 = output_dist.sample(rng, len(arrivals))
    requests = _build_requests(arrivals, prompts, outputs)
    return Trace(requests, duration=float(duration), clamped_samples=c1 + c2)


def _rank(n: int, p: float) -> int:
    """Index of the nearest-rank ``P_p`` among ``n`` sorted samples."""
    if n == 0:
        raise ValidationError("percentile of empty sample set")
    if not 0.0 < p <= 1.0:
        raise ValidationError("p must be in (0, 1]")
    return max(0, math.ceil(p * n) - 1)


def trace_stats(trace: Trace) -> dict:
    """Summary stats: nearest-rank median (the lower median) and P90 sizes,
    mean rate."""
    if not trace.requests:
        raise ValidationError("empty trace")
    prompts = sorted(r.prompt_tokens for r in trace.requests)
    outputs = sorted(r.output_tokens for r in trace.requests)
    duration = trace.duration if trace.duration > 0 else trace.requests[-1].arrival
    n = len(trace.requests)
    return {
        "count": n,
        "median_prompt_tokens": prompts[_rank(n, 0.5)],
        "p90_prompt_tokens": prompts[_rank(n, 0.9)],
        "median_output_tokens": outputs[_rank(n, 0.5)],
        "p90_output_tokens": outputs[_rank(n, 0.9)],
        "mean_rate": n / duration if duration > 0 else 0.0,
    }
