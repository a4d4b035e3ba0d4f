import numpy as np
import pytest

from splitsim import (
    CapacityError,
    FitError,
    MACHINE_SPECS,
    MachineSpec,
    ParseError,
    PerfModel,
    ProfileSample,
    ValidationError,
    export_profile_csv,
    fit_piecewise_linear,
    get_calibration,
    parse_profile_csv,
)
from splitsim.cluster import DESIGNS
from splitsim.perf import LLM_SPECS, _piecewise_eval


class TestCalibrationAnchors:
    """Frozen oracle values for the shipped calibration presets."""

    def test_h100_llama_medians(self):
        m = get_calibration("llama2-70b", "H100")
        assert m.prompt_time(1500) == 95.0
        assert m.token_iter_time(1) == 31.0

    def test_a100_llama_medians(self):
        m = get_calibration("llama2-70b", "A100")
        assert m.prompt_time(1500) == 185.0
        assert m.token_iter_time(1) == 52.0

    def test_conversation_median_anchor(self):
        assert get_calibration("llama2-70b", "A100").prompt_time(1020) == 155.0
        assert get_calibration("llama2-70b", "H100").prompt_time(1020) == 84.0

    def test_kv_bytes_llama(self):
        # 2 (K and V) * 80 layers * 8192 hidden * 2 bytes = 2,621,440 per token
        m = get_calibration("llama2-70b", "H100")
        assert m.kv_bytes_per_token == 2 * 80 * 8192 * 2
        assert m.kv_cache_bytes(1500) == 3_932_160_000

    def test_kv_bytes_bloom(self):
        m = get_calibration("bloom-176b", "A100")
        assert m.kv_bytes_per_token == 2 * 70 * 14336 * 2

    def test_h100cap_prompt_slower_token_equal(self):
        h = get_calibration("llama2-70b", "H100")
        cap = get_calibration("llama2-70b", "H100cap")
        assert cap.prompt_time(1500) == pytest.approx(1.5 * h.prompt_time(1500))
        assert cap.token_iter_time(32) == h.token_iter_time(32)

    def test_token_batching_subadditive(self):
        # large-batch iterations cost at most ~2x a single-sequence iteration
        for mt in ("A100", "H100"):
            m = get_calibration("llama2-70b", mt)
            assert m.token_iter_time(64) <= 2.2 * m.token_iter_time(1)

    def test_prompt_near_linear_region(self):
        # doubling total prompt tokens in the near-linear region costs < 2.2x
        for mt in ("A100", "H100"):
            m = get_calibration("llama2-70b", mt)
            for x in (256, 512, 1024):
                assert m.prompt_time(2 * x) <= 2.2 * m.prompt_time(x)

    def test_curves_monotone(self):
        for llm in ("llama2-70b", "bloom-176b"):
            for mt in ("A100", "H100", "H100cap"):
                m = get_calibration(llm, mt)
                for xs, ys in (m.prompt_knots, m.token_knots):
                    assert np.all(np.diff(xs) > 0)
                    assert np.all(np.diff(ys) > 0)

    def test_max_token_batch_matches_memory(self):
        # largest n with weights + n * kv(calibration context) <= capacity
        m = get_calibration("llama2-70b", "H100")
        context = 2048
        n = 0
        while m.weight_memory + (n + 1) * m.kv_cache_bytes(context) <= m.memory_capacity:
            n += 1
        assert n == m.max_token_batch == 64

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            get_calibration("gpt-17", "A100")


class TestPerfModel:
    def test_interpolation_exact_at_knots(self):
        m = get_calibration("llama2-70b", "H100")
        for x, y in zip(*m.prompt_knots):
            assert m.prompt_time(int(x)) == y

    def test_interpolation_between_knots(self):
        m = get_calibration("llama2-70b", "H100")
        # midpoint of (1020, 84) -- (1500, 95)
        assert m.prompt_time(1260) == pytest.approx(84 + 11 * 240 / 480)

    def test_extrapolation_uses_last_slope(self):
        m = get_calibration("llama2-70b", "H100")
        xs, ys = m.prompt_knots
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        assert m.prompt_time(int(xs[-1]) + 1000) == pytest.approx(ys[-1] + slope * 1000)

    def test_batch_over_limit(self):
        m = get_calibration("llama2-70b", "H100")
        with pytest.raises(CapacityError):
            m.token_iter_time(m.max_token_batch + 1)

    def test_bad_args(self):
        m = get_calibration("llama2-70b", "H100")
        with pytest.raises(ValidationError):
            m.prompt_time(0)
        with pytest.raises(ValidationError):
            m.token_iter_time(0)
        with pytest.raises(ValidationError):
            m.kv_cache_bytes(-1)

    def test_knot_validation(self):
        with pytest.raises(ValidationError):
            PerfModel("A100", "llama2-70b", ([1, 1], [2, 3]), ([1, 2], [1, 2]),
                      1.0, 0.0, 1.0, 8)
        with pytest.raises(ValidationError):
            PerfModel("A100", "llama2-70b", ([1, 2], [2, 0]), ([1, 2], [1, 2]),
                      1.0, 0.0, 1.0, 8)


def _synthetic_samples(rng, machine="A100", llm="llama2-70b", noise=0.0,
                       kv=1000.0, weights=5e5):
    """Samples from a known piecewise-linear ground truth."""
    px = [1, 64, 256, 1024, 4096]
    py = [10, 30, 80, 260, 900]
    tx = [1, 4, 16, 64]
    ty = [50, 52, 60, 100]
    samples = []
    for _ in range(200):
        x = int(rng.integers(1, 4096))
        y = _piecewise_eval(x, np.asarray(px, float), np.asarray(py, float))
        y *= 1.0 + noise * (2 * rng.random() - 1)
        samples.append(ProfileSample(machine, llm, x, 0, y, weights + kv * x))
    for _ in range(100):
        b = int(rng.integers(1, 64))
        y = _piecewise_eval(b, np.asarray(tx, float), np.asarray(ty, float))
        y *= 1.0 + noise * (2 * rng.random() - 1)
        samples.append(ProfileSample(machine, llm, 0, b, y, 0.0))
    return samples


class TestFit:
    def test_noiseless_fit_is_exact_at_samples(self):
        rng = np.random.Generator(np.random.Philox(7))
        samples = _synthetic_samples(rng)
        model, report = fit_piecewise_linear(samples, knot_budget=64)
        assert report.train_mape_prompt < 0.5
        assert report.train_mape_token < 0.5

    def test_holdout_mape_with_noise(self):
        rng = np.random.Generator(np.random.Philox(13))
        samples = _synthetic_samples(rng, noise=0.01)
        _, report = fit_piecewise_linear(samples, knot_budget=32,
                                         holdout_fraction=0.2, seed=5)
        assert report.holdout_mape is not None
        assert report.holdout_mape < 3.0

    def test_knot_budget_respected(self):
        rng = np.random.Generator(np.random.Philox(3))
        samples = _synthetic_samples(rng, noise=0.02)
        model, _ = fit_piecewise_linear(samples, knot_budget=8)
        assert len(model.prompt_knots[0]) <= 8
        assert len(model.token_knots[0]) <= 8

    def test_fitted_curves_monotone(self):
        rng = np.random.Generator(np.random.Philox(17))
        samples = _synthetic_samples(rng, noise=0.2)
        model, _ = fit_piecewise_linear(samples, knot_budget=16)
        for xs, ys in (model.prompt_knots, model.token_knots):
            assert np.all(np.diff(ys) >= 0)

    def test_memory_line_recovered(self):
        rng = np.random.Generator(np.random.Philox(23))
        samples = _synthetic_samples(rng, kv=2048.0, weights=3e6)
        model, _ = fit_piecewise_linear(samples)
        assert model.kv_bytes_per_token == pytest.approx(2048.0, rel=1e-6)
        assert model.weight_memory == pytest.approx(3e6, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(FitError):
            fit_piecewise_linear([])

    def test_mixed_groups_rejected(self):
        a = ProfileSample("A100", "llama2-70b", 10, 0, 5.0, 0.0)
        b = ProfileSample("H100", "llama2-70b", 10, 0, 5.0, 0.0)
        with pytest.raises(FitError):
            fit_piecewise_linear([a, b])

    def test_too_few_samples(self):
        samples = [ProfileSample("A100", "llama2-70b", 10, 0, 5.0, 0.0)]
        with pytest.raises(FitError):
            fit_piecewise_linear(samples)

    def test_duplicate_abscissas_averaged(self):
        samples = [
            ProfileSample("A100", "x", 10, 0, 4.0, 0.0),
            ProfileSample("A100", "x", 10, 0, 6.0, 0.0),
            ProfileSample("A100", "x", 20, 0, 10.0, 0.0),
            ProfileSample("A100", "x", 0, 1, 1.0, 0.0),
            ProfileSample("A100", "x", 0, 2, 2.0, 0.0),
        ]
        model, _ = fit_piecewise_linear(samples)
        assert model.prompt_time(10) == pytest.approx(5.0)


class TestProfileCsv:
    def test_round_trip(self):
        model = get_calibration("llama2-70b", "H100")
        samples = parse_profile_csv(export_profile_csv(model))
        refit, _ = fit_piecewise_linear(samples, knot_budget=64)
        assert refit.memory_capacity == model.memory_capacity
        assert refit.max_token_batch == model.max_token_batch
        for x in (1, 512, 1500, 4096):
            assert refit.prompt_time(x) == pytest.approx(model.prompt_time(x))
        for b in (1, 8, 64):
            assert refit.token_iter_time(b) == pytest.approx(model.token_iter_time(b))
        assert refit.kv_bytes_per_token == pytest.approx(model.kv_bytes_per_token)

    def test_batch_limit_from_registry(self):
        # bloom's token knots reach batch 64, but its memory holds 26 contexts
        text = export_profile_csv(get_calibration("bloom-176b", "H100"))
        refit, _ = fit_piecewise_linear(parse_profile_csv(text))
        assert refit.max_token_batch == 26
        # a model outside the registry keeps its largest profiled batch
        refit, _ = fit_piecewise_linear(parse_profile_csv(text.replace("bloom-176b", "other")))
        assert refit.max_token_batch == 64

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_profile_csv("a,b,c\n1,2,3\n")

    def test_non_numeric_field(self):
        text = ("machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes\n"
                "A100,x,token,0,8,fast,0\n")
        with pytest.raises(ParseError) as info:
            parse_profile_csv(text)
        assert info.value.line == 2

    @pytest.mark.parametrize("time_ms", ["nan", "inf"])
    def test_non_finite_time(self, time_ms):
        text = ("machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes\n"
                f"A100,x,prompt,100,0,20,0\nA100,x,prompt,200,0,{time_ms},0\n")
        with pytest.raises(ParseError) as info:
            parse_profile_csv(text)
        assert info.value.line == 3

    def test_bad_phase(self):
        text = ("machine_type,llm,phase,prompt_tokens,batch_size,time_ms,memory_bytes\n"
                "A100,x,warmup,1,0,5,0\n")
        with pytest.raises(ValidationError):
            parse_profile_csv(text)


class TestProfileSample:
    def test_exactly_one_phase(self):
        with pytest.raises(ValidationError):
            ProfileSample("A100", "x", 10, 5, 1.0, 0.0)
        with pytest.raises(ValidationError):
            ProfileSample("A100", "x", 0, 0, 1.0, 0.0)

    def test_nonpositive_time(self):
        with pytest.raises(ValidationError):
            ProfileSample("A100", "x", 10, 0, 0.0, 0.0)


class TestMachineSpecs:
    def test_interconnect(self):
        assert MACHINE_SPECS["A100"].interconnect_bandwidth == 200e9
        assert MACHINE_SPECS["H100"].interconnect_bandwidth == 400e9

    def test_fields_positive(self):
        MachineSpec(640e9, 400e9, 512, 5.0, 2.35, 1.75, 2.5)
        for bad in ((640e9, 0.0, 512, 5.0, 2.35, 1.75, 2.5),
                    (640e9, 400e9, 512, 5.0, 0.0, 1.75, 2.5),
                    (640e9, 400e9, 512, 5.0, 2.35, 0.0, 2.5)):
            with pytest.raises(ValidationError):
                MachineSpec(*bad)

    def test_registry_covers_every_design(self):
        types = {"A100"} | {t for prompt, token, _ in DESIGNS.values() for t in (prompt, token)}
        assert types <= MACHINE_SPECS.keys()
        for machine_type in types:
            for llm in LLM_SPECS:
                assert get_calibration(llm, machine_type).machine_type == machine_type
