import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splitsim import (
    PRESETS,
    ParseError,
    Request,
    SizeDistribution,
    Trace,
    ValidationError,
    generate_trace,
    parse_trace,
    serialize_trace,
    trace_stats,
)
from splitsim.trace import TRACE_HEADER, _build_requests, read_csv


class TestParse:
    def test_single_request(self):
        trace = parse_trace("arrival_s,prompt_tokens,output_tokens\n0.0,1500,13")
        assert len(trace) == 1
        r = trace.requests[0]
        assert (r.arrival, r.prompt_tokens, r.output_tokens) == (0.0, 1500, 13)

    def test_round_trip(self):
        text = ("arrival_s,prompt_tokens,output_tokens\n"
                "0.000000,1500,13\n1.500000,100,5\n")
        assert serialize_trace(parse_trace(text)) == text

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("time,prompt,output\n0.0,1,1")
        assert exc.value.line == 1

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("arrival_s,prompt_tokens,output_tokens\n0.0,1\n")
        assert exc.value.line == 2

    def test_bad_number(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("arrival_s,prompt_tokens,output_tokens\n0.0,x,1\n")
        assert exc.value.line == 2

    def test_nonpositive_tokens(self):
        with pytest.raises(ValidationError):
            parse_trace("arrival_s,prompt_tokens,output_tokens\n0.0,0,1\n")

    def test_negative_arrival(self):
        with pytest.raises(ValidationError):
            parse_trace("arrival_s,prompt_tokens,output_tokens\n-1.0,5,1\n")

    def test_unsorted_input_is_sorted(self):
        trace = parse_trace("arrival_s,prompt_tokens,output_tokens\n"
                            "2.0,10,1\n1.0,20,1\n")
        assert [r.arrival for r in trace.requests] == [1.0, 2.0]
        assert [r.id for r in trace.requests] == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_trace("arrival_s,prompt_tokens,output_tokens\n")

    def test_file_source(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("arrival_s,prompt_tokens,output_tokens\n0.5,7,3\n")
        assert parse_trace(str(path)).requests[0].prompt_tokens == 7

    @pytest.mark.parametrize("arrival", ["nan", "inf"])
    def test_non_finite_arrival(self, arrival):
        with pytest.raises(ParseError) as exc:
            parse_trace(f"arrival_s,prompt_tokens,output_tokens\n{arrival},200,3\n")
        assert exc.value.line == 2


class TestReadCsv:
    HEADER = "name,count,value"

    def rows(self, source):
        return list(read_csv(source, self.HEADER, (str, int, float)))

    def test_text_or_path(self, tmp_path):
        text = "name,count,value\na,1,2.5\n"
        path = tmp_path / "x.csv"
        path.write_text(text)
        assert self.rows(text) == self.rows(str(path)) == [(2, ["a", 1, 2.5])]
        # a str holding no newline is a path, even when it reads like the header
        with pytest.raises(FileNotFoundError):
            self.rows("name,count,value")

    def test_blank_and_comment_lines_skipped(self):
        text = "\n# design=x\nname,count,value\n\n# note\na,1,2.5\n  \nb,2,3\n"
        assert self.rows(text) == [(6, ["a", 1, 2.5]), (8, ["b", 2, 3.0])]

    @pytest.mark.parametrize("text, line", [
        ("a,1,2.5\nname,count,value\n", 1),
        ("# only a comment\n", 1),
        ("\nname,count\na,1\n", 2),
    ])
    def test_header_not_first(self, text, line):
        with pytest.raises(ParseError) as exc:
            self.rows(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("row", ["a,1", "a,1,2.5,4", "a"])
    def test_wrong_field_count(self, row):
        with pytest.raises(ParseError, match="expected 3 fields") as exc:
            self.rows(f"name,count,value\na,1,2.5\n{row}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("row, message", [
        ("a,x,2.5", "count = 'x' is not an integer"),
        ("a,1.5,2.5", "count = '1.5' is not an integer"),
        ("a,1,fast", "value = 'fast' is not a finite number"),
        ("a,1,", "value = '' is not a finite number"),
    ])
    def test_non_number(self, row, message):
        with pytest.raises(ParseError) as exc:
            self.rows(f"name,count,value\n{row}\n")
        assert str(exc.value) == f"line 2: {message}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite(self, value):
        with pytest.raises(ParseError) as exc:
            self.rows(f"name,count,value\na,1,{value}\n")
        assert str(exc.value) == f"line 2: value = {value!r} is not a finite number"


class TestRequestInvariants:
    def test_negative_arrival(self):
        with pytest.raises(ValidationError):
            Request(0, -0.1, 1, 1)

    def test_zero_prompt(self):
        with pytest.raises(ValidationError):
            Request(0, 0.0, 0, 1)

    def test_trace_sorted_invariant(self):
        with pytest.raises(ValidationError):
            Trace([Request(0, 2.0, 1, 1), Request(1, 1.0, 1, 1)], duration=3.0)

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError):
            Trace([Request(0, 1.0, 1, 1), Request(0, 2.0, 1, 1)], duration=3.0)


# Columns as the builder receives them: arrival 0.0, repeated arrivals and
# sizes of 1 are drawn often.
_arrivals = st.lists(st.sampled_from([0.0, 0.5, 1e-9]) | st.floats(0.0, 1e6), max_size=40)
_sizes = st.integers(1, 3) | st.integers(1, 10**7)


@st.composite
def columns(draw):
    arrivals = draw(_arrivals)
    n = len(arrivals)
    prompts = draw(st.lists(_sizes, min_size=n, max_size=n))
    outputs = draw(st.lists(_sizes, min_size=n, max_size=n))
    return arrivals, prompts, outputs


def per_row(arrivals, prompts, outputs):
    return [Request(i, *row) for i, row in enumerate(zip(arrivals, prompts, outputs))]


class TestBulkBuild:
    @given(cols=columns(), as_arrays=st.booleans())
    @example(cols=([], [], []), as_arrays=True)  # a rate-0 trace's columns
    @settings(max_examples=60, deadline=None)
    def test_equals_per_row_requests(self, cols, as_arrays):
        built = _build_requests(*(map(np.asarray, cols) if as_arrays else cols))
        expected = per_row(*cols)
        assert built == expected
        assert [hash(r) for r in built] == [hash(r) for r in expected]
        assert [repr(r) for r in built] == [repr(r) for r in expected]
        assert all(type(r.id) is type(r.prompt_tokens) is type(r.output_tokens) is int
                   and type(r.arrival) is float for r in built)

    def test_built_requests_are_frozen_and_slotted(self):
        request = _build_requests([0.0], [5], [1])[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.prompt_tokens = 6
        assert not hasattr(request, "__dict__")

    @given(cols=columns().filter(lambda c: c[0]), data=st.data(),
           column=st.sampled_from([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_bad_value_raises_the_request_message(self, cols, data, column):
        cols = [list(c) for c in cols]
        k = data.draw(st.integers(0, len(cols[0]) - 1), label="index")
        bad = st.floats(-1e6, -1e-9) if column == 0 else st.integers(-5, 0)
        cols[column][k] = data.draw(bad, label="bad value")
        with pytest.raises(ValidationError) as direct:
            Request(k, cols[0][k], cols[1][k], cols[2][k])
        with pytest.raises(ValidationError) as bulk:
            _build_requests(*map(np.asarray, cols))
        assert str(bulk.value) == str(direct.value)

    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 3.0]) | st.floats(0.0, 1e4),
                                   _sizes, _sizes), min_size=1, max_size=30),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_shuffled_csv(self, rows, data):
        shuffled = data.draw(st.permutations(rows), label="shuffled")
        text = TRACE_HEADER + "\n" + "".join(f"{a!r},{p},{o}\n" for a, p, o in shuffled)
        expected = per_row(*zip(*sorted(shuffled, key=lambda row: row[0])))  # stable
        trace = parse_trace(text)
        assert trace.requests == expected
        assert trace.duration == expected[-1].arrival


# sha256 of serialize_trace(generate_trace(...)), taken before requests were
# built in bulk: a trace's bytes are fixed by its seed.
TRACE_SHA256 = [
    pytest.param(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"], 20.0, 60.0, 7,
                 "ecf0f1d5c81e28f6d4d6d24ac7376b1c23234629a84e44fc62773c2c20c9bd79",
                 id="coding"),
    pytest.param(PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"],
                 20.0, 60.0, 8,
                 "134b89eb44aed79e9447af28430d72cf6f5e4d746a0778b91d637cfebbd5bbca",
                 id="conversation"),
    pytest.param(SizeDistribution.lognormal(math.log(300), 0.6, 16, 2048),
                 SizeDistribution.lognormal(math.log(600), 0.5, 32, 2048), 4.5, 50.0, 11,
                 "0a7451d62741a8bbbb711f7aa802f487a1a4fb6f1f2d55e6b456f1c0b1081f46",
                 id="custom-lognormal"),
    pytest.param(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"], 0.0, 10.0, 0,
                 "3958c4bb50bcc5421962ad6ed224d5020a36281941c0dbf1763ac2abb062d1ae",
                 id="rate-0"),
    # the benchmark's replay-hh-coding input at seed 5 (variant seed 15): 21,028
    # requests from several arrival chunks
    pytest.param(PRESETS["coding"]["prompt"], PRESETS["coding"]["output"], 70.0, 300.0, 15,
                 "c05856bd9be5b46ae0300b02c312317f39820965f0141c496137115768cace3e",
                 id="hh-coding"),
]


@pytest.mark.parametrize("prompt, output, rate, duration, seed, sha256", TRACE_SHA256)
def test_trace_bytes_are_pinned(prompt, output, rate, duration, seed, sha256):
    text = serialize_trace(generate_trace(prompt, output, rate, duration, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestGenerate:
    def test_deterministic(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        a = generate_trace(p, o, 5.0, 30.0, seed=42)
        b = generate_trace(p, o, 5.0, 30.0, seed=42)
        assert serialize_trace(a) == serialize_trace(b)

    def test_seed_changes_trace(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        a = generate_trace(p, o, 5.0, 30.0, seed=1)
        b = generate_trace(p, o, 5.0, 30.0, seed=2)
        assert serialize_trace(a) != serialize_trace(b)

    def test_poisson_count(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 70.0, 1200.0, seed=3)
        expected = 70.0 * 1200.0
        assert abs(len(trace) - expected) <= 3 * math.sqrt(expected)

    def test_zero_rate(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 0.0, 10.0, seed=0)
        assert trace.requests == [] and trace.clamped_samples == 0

    def test_negative_rate(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        with pytest.raises(ValidationError):
            generate_trace(p, o, -1.0, 10.0, seed=0)

    def test_bad_duration(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        with pytest.raises(ValidationError):
            generate_trace(p, o, 1.0, 0.0, seed=0)

    @pytest.mark.parametrize("rate, duration", [
        (math.inf, 10.0), (math.nan, 10.0), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_rate_or_duration(self, rate, duration):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        with pytest.raises(ValidationError):
            generate_trace(p, o, rate, duration, seed=0)

    def test_arrivals_within_duration(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 20.0, 60.0, seed=5)
        assert all(0.0 <= r.arrival <= 60.0 for r in trace.requests)


class TestPresets:
    def test_coding_medians(self):
        p, o = PRESETS["coding"]["prompt"], PRESETS["coding"]["output"]
        trace = generate_trace(p, o, 50.0, 600.0, seed=11)
        stats = trace_stats(trace)
        assert abs(stats["median_prompt_tokens"] - 1500) / 1500 < 0.05
        assert abs(stats["median_output_tokens"] - 13) <= 1

    def test_conversation_medians(self):
        p, o = PRESETS["conversation"]["prompt"], PRESETS["conversation"]["output"]
        trace = generate_trace(p, o, 50.0, 600.0, seed=12)
        stats = trace_stats(trace)
        assert abs(stats["median_prompt_tokens"] - 1020) / 1020 < 0.07
        assert abs(stats["median_output_tokens"] - 129) / 129 < 0.12


class TestStats:
    def test_singleton(self):
        trace = Trace([Request(0, 1.0, 10, 5)], duration=1.0)
        stats = trace_stats(trace)
        assert stats["median_prompt_tokens"] == 10
        assert stats["median_output_tokens"] == 5

    def test_lower_median_even_count(self):
        trace = Trace([Request(i, float(i), p, 1)
                       for i, p in enumerate([10, 20, 30, 40])], duration=4.0)
        assert trace_stats(trace)["median_prompt_tokens"] == 20

    def test_p90_nearest_rank(self):
        trace = Trace([Request(i, float(i), p, 1)
                       for i, p in enumerate(range(1, 101))], duration=100.0)
        assert trace_stats(trace)["p90_prompt_tokens"] == 90

    def test_mean_rate(self):
        trace = Trace([Request(i, float(i), 1, 1) for i in range(10)], duration=20.0)
        assert trace_stats(trace)["mean_rate"] == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            trace_stats(Trace([], duration=1.0))


class TestSizeDistribution:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SizeDistribution("gaussian", (0, 1))

    def test_bad_clamp(self):
        with pytest.raises(ValidationError):
            SizeDistribution.lognormal(1.0, 1.0, 10, 5)

    def test_bad_mixture_weight(self):
        with pytest.raises(ValidationError):
            SizeDistribution.bimodal_lognormal(1.5, 0, 1, 0, 1)

    def test_empirical_table(self):
        dist = SizeDistribution.empirical([0.5, 1.0], [10, 100])
        rng = np.random.Generator(np.random.Philox(0))
        vals, clamped = dist.sample(rng, 1000)
        assert set(np.unique(vals)) <= {10, 100}
        assert clamped == 0

    LOGNORMAL_PARAMS = [
        pytest.param(lambda bad: SizeDistribution.lognormal(bad, 1.0), "mu", id="mu"),
        pytest.param(lambda bad: SizeDistribution.lognormal(1.0, bad), "sigma", id="sigma"),
        pytest.param(lambda bad: SizeDistribution.bimodal_lognormal(0.5, bad, 1.0, 1.0, 1.0),
                     "mu1", id="mu1"),
        pytest.param(lambda bad: SizeDistribution.bimodal_lognormal(0.5, 1.0, bad, 1.0, 1.0),
                     "sigma1", id="sigma1"),
        pytest.param(lambda bad: SizeDistribution.bimodal_lognormal(0.5, 1.0, 1.0, bad, 1.0),
                     "mu2", id="mu2"),
        pytest.param(lambda bad: SizeDistribution.bimodal_lognormal(0.5, 1.0, 1.0, 1.0, bad),
                     "sigma2", id="sigma2"),
    ]

    @pytest.mark.parametrize("make, name", LOGNORMAL_PARAMS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, make, name, bad):
        with pytest.raises(ValidationError, match=f" {name} must be finite"):
            make(bad)

    @pytest.mark.parametrize("make, name", [p for p in LOGNORMAL_PARAMS if "sigma" in p.id])
    def test_negative_sigma(self, make, name):
        with pytest.raises(ValidationError, match=f" {name} must be finite and >= 0"):
            make(-0.5)

    def test_zero_sigma_is_a_point_mass(self):
        dist = SizeDistribution.lognormal(math.log(40), 0.0)
        vals, clamped = dist.sample(np.random.Generator(np.random.Philox(0)), 10)
        assert vals.tolist() == [40] * 10 and clamped == 0

    def test_empirical_bad_quantiles(self):
        with pytest.raises(ValidationError):
            SizeDistribution.empirical([0.9, 0.5], [1, 2])

    @pytest.mark.parametrize("quantiles, values", [([0.5, 1.0], [1.0, math.nan]),
                                                   ([0.5, 1.0], [-math.inf, 2.0]),
                                                   ([math.nan, 1.0], [1.0, 2.0])])
    def test_empirical_rejects_non_finite(self, quantiles, values):
        with pytest.raises(ValidationError):
            SizeDistribution.empirical(quantiles, values)

    def test_draws_beyond_int64_clamp_to_max(self):
        # exp(50) ~ 5e21 overflows int64: clamped before the cast, not wrapped
        dist = SizeDistribution.lognormal(50.0, 1.0, 1, 4096)
        vals, clamped = dist.sample(np.random.Generator(np.random.Philox(0)), 10)
        assert vals.tolist() == [4096] * 10 and clamped == 10

    def test_empirical_extremes_reach_both_clamps(self):
        dist = SizeDistribution.empirical([0.5, 1.0], [-30, 1e30], 3, 500)
        vals, clamped = dist.sample(np.random.Generator(np.random.Philox(0)), 200)
        assert set(vals.tolist()) == {3, 500} and clamped == 200

    @given(mu=st.floats(0.0, 8.0), sigma=st.floats(0.1, 2.0),
           lo=st.integers(1, 100), span=st.integers(1, 5000),
           seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_clamp_property(self, mu, sigma, lo, span, seed):
        dist = SizeDistribution.lognormal(mu, sigma, lo, lo + span)
        rng = np.random.Generator(np.random.Philox(seed))
        vals, clamped = dist.sample(rng, 500)
        assert vals.min() >= lo and vals.max() <= lo + span
        assert 0 <= clamped <= 500
