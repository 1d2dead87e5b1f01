import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from omniguide import SamplerConfig, apply_repetition_penalty, sample_token, top_p_filter
from omniguide.sampler import TOP_P_HEAD, draw, make_rng
from omniguide.numerics import softmax

from conftest import random_dist


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.temperature == 0.6
        assert cfg.top_p == 0.95
        assert cfg.repetition_penalty == 1.03
        assert cfg.mode == "sample"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"repetition_penalty": 0.99},
            {"mode": "beam"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


class TestRepetitionPenalty:
    def test_unit_penalty_is_identity(self):
        z = np.array([2.0, -2.0, 0.5])
        out = apply_repetition_penalty(z, [0, 1, 2], 1.0)
        assert np.array_equal(out, z)

    def test_sign_aware_damping(self):
        out = apply_repetition_penalty(np.array([2.0, -2.0]), [0, 1], 2.0)
        np.testing.assert_allclose(out, [1.0, -4.0], atol=0)

    def test_untouched_outside_history(self):
        z = np.array([2.0, 3.0, -1.0])
        out = apply_repetition_penalty(z, [1], 2.0)
        assert out[0] == 2.0 and out[2] == -1.0
        assert out[1] == 1.5

    def test_repeats_in_history_penalized_once(self):
        z = np.array([4.0, 1.0])
        once = apply_repetition_penalty(z, [0], 2.0)
        many = apply_repetition_penalty(z, [0, 0, 0, 0], 2.0)
        assert np.array_equal(once, many)

    def test_zero_logit_unmoved(self):
        out = apply_repetition_penalty(np.array([0.0, 1.0]), [0], 3.0)
        assert out[0] == 0.0

    def test_input_not_mutated(self):
        z = np.array([2.0, -2.0])
        apply_repetition_penalty(z, [0, 1], 2.0)
        assert np.array_equal(z, [2.0, -2.0])

    def test_out_of_range_history_rejected(self):
        with pytest.raises(IndexError):
            apply_repetition_penalty(np.zeros(3), [3], 2.0)
        with pytest.raises(IndexError):
            apply_repetition_penalty(np.zeros(3), [-1], 2.0)

    def test_empty_history_is_identity(self):
        z = np.array([1.0, 2.0])
        assert np.array_equal(apply_repetition_penalty(z, [], 5.0), z)


class TestTopPFilter:
    def test_full_mass_is_identity(self):
        p = np.array([0.6, 0.3, 0.1])
        np.testing.assert_allclose(top_p_filter(p, 1.0), p, atol=1e-15)

    def test_worked_example(self):
        out = top_p_filter(np.array([0.6, 0.3, 0.1]), 0.7)
        np.testing.assert_allclose(out, [2 / 3, 1 / 3, 0.0], atol=1e-15)

    def test_single_survivor_when_top_exceeds_threshold(self):
        out = top_p_filter(np.array([0.96, 0.02, 0.02]), 0.95)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=0)

    def test_ties_broken_by_lower_token_id(self):
        out = top_p_filter(np.array([0.25, 0.25, 0.25, 0.25]), 0.5)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0], atol=0)

    def test_unsorted_input_handled(self):
        out = top_p_filter(np.array([0.1, 0.6, 0.3]), 0.7)
        np.testing.assert_allclose(out, [0.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            top_p_filter(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            top_p_filter(np.array([1.0]), 1.5)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        top_p=st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_output_is_dist_with_subset_support(self, seed, n, top_p):
        p = random_dist(np.random.default_rng(seed), n)
        out = top_p_filter(p, top_p)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out >= 0)
        # Support is a subset of the input's support.
        assert np.all(p[out > 0] > 0)
        # The most probable token always survives.
        assert out[np.argmax(p)] > 0


def argsort_top_p_filter(probs, top_p):
    """The full-sort top_p_filter that partial selection replaced: the oracle."""
    p = np.asarray(probs, dtype=np.float64)
    if top_p == 1.0:
        return p / p.sum()
    order = np.argsort(-p, kind="stable")
    csum = np.cumsum(p[order])
    k = int(np.searchsorted(csum, top_p, side="left"))
    k = min(k, p.size - 1)
    keep = order[: k + 1]
    out = np.zeros_like(p)
    out[keep] = p[keep]
    return out / out.sum()


class TestTopPMatchesFullSort:
    """Partial selection keeps the same tokens and gives the same bits."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=6 * TOP_P_HEAD),
        levels=st.integers(min_value=1, max_value=6),
        zeros=st.floats(min_value=0.0, max_value=0.9),
        top_p=st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_many_exact_ties(self, seed, n, levels, zeros, top_p):
        # Quantised weights: long runs of equal probabilities (and of exact
        # zeros) that cross the edge of the partially selected head.
        rng = np.random.default_rng(seed)
        w = rng.integers(1, levels + 1, size=n).astype(np.float64)
        w[rng.random(n) < zeros] = 0.0
        w[rng.integers(n)] = 1.0
        p = w / w.sum()
        assert np.array_equal(top_p_filter(p, top_p), argsort_top_p_filter(p, top_p))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=20_000, max_value=40_000),
        top_p=st.floats(min_value=0.9, max_value=0.999),
    )
    @settings(max_examples=30, deadline=None)
    def test_nucleus_larger_than_every_partial_head(self, seed, n, top_p):
        # Near-uniform rows: the nucleus holds most of the vocabulary, more
        # than the largest head short of all of it (16 * TOP_P_HEAD).
        p = softmax(np.random.default_rng(seed).normal(0.0, 0.01, size=n))
        out = top_p_filter(p, top_p)
        assert np.count_nonzero(out) > 16 * TOP_P_HEAD
        assert np.array_equal(out, argsort_top_p_filter(p, top_p))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3 * TOP_P_HEAD),
        scale=st.floats(min_value=0.1, max_value=30.0),
        top_p=st.sampled_from([1.0, 0.95, 0.5, 1e-9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_edge_thresholds(self, seed, n, scale, top_p):
        # top_p = 1.0 keeps everything; 1e-9 is below any top probability.
        p = softmax(np.random.default_rng(seed).normal(0.0, scale, size=n))
        out = top_p_filter(p, top_p)
        assert np.array_equal(out, argsort_top_p_filter(p, top_p))
        if top_p == 1e-9:
            assert np.count_nonzero(out) == 1 and out[np.argmax(p)] == 1.0

    @pytest.mark.parametrize("top_p", [1.0, 0.95, 1e-9])
    def test_single_token_vocabulary(self, top_p):
        assert np.array_equal(top_p_filter(np.array([1.0]), top_p), [1.0])


def pin_rows(kind, seed):
    """Probability rows for the nucleus-draw pin: tie runs, zeros, near-uniform or peaked."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    if kind == "ties":
        w = rng.integers(1, 4, size=n).astype(np.float64)
    elif kind == "zeros":
        w = rng.random(n) ** 4
        w[rng.random(n) < 0.6] = 0.0
        w[rng.integers(n)] = 1.0
    elif kind == "uniform":
        return softmax(rng.normal(0.0, 0.01, size=n))
    else:
        return softmax(rng.normal(0.0, 4.0, size=n))
    return w / w.sum()


class TestNucleusDraw:
    """draw looks at the nucleus only and picks what a full-vector draw picks."""

    @pytest.mark.parametrize("top_p", [0.95, 0.5, 1.0, 1e-9])
    @pytest.mark.parametrize("kind", ["ties", "zeros", "uniform", "peaked"])
    def test_matches_choice_over_filtered_vector(self, kind, top_p):
        for seed in range(200):
            p = pin_rows(kind, seed)
            filtered = top_p_filter(p, top_p)
            zeros = np.zeros_like(p)
            tok, nucleus = draw(p, top_p, False, np.random.default_rng(seed), zeros)
            assert tok == np.random.default_rng(seed).choice(p.size, p=filtered)
            assert draw(p, top_p, True, np.random.default_rng(seed))[0] == np.argmax(filtered)
            assert not zeros.any()
            if top_p < 1.0:
                assert nucleus == np.count_nonzero(filtered)

    @pytest.mark.parametrize("top_p", [0.95, 1.0, 1e-9])
    def test_single_token_vocabulary(self, top_p):
        for greedy in (False, True):
            assert draw(np.array([1.0]), top_p, greedy, np.random.default_rng(0)) == (0, 1)


class TestSampleToken:
    def test_greedy_picks_argmax(self):
        cfg = SamplerConfig(mode="greedy")
        assert sample_token(np.array([0.0, 5.0, 1.0]), [], cfg) == 1

    def test_greedy_invariant_to_temperature(self):
        z = np.array([0.3, 2.0, -1.0, 1.9])
        picks = {
            sample_token(z, [], SamplerConfig(mode="greedy", temperature=t))
            for t in (0.1, 0.6, 1.0, 5.0)
        }
        assert picks == {1}

    def test_fixed_seed_fixed_token(self):
        z = np.array([0.1, 0.2, 0.3, 0.4])
        cfg = SamplerConfig(seed=42)
        first = sample_token(z, [], cfg)
        for _ in range(100):
            assert sample_token(z, [], cfg) == first

    def test_generator_threading_matches_fresh_seed(self):
        z = np.array([0.5, 1.5, -0.5])
        cfg = SamplerConfig(seed=9)
        seq_a = []
        rng = make_rng(cfg)
        for _ in range(20):
            seq_a.append(sample_token(z, [], cfg, rng))
        rng = make_rng(cfg)
        seq_b = [sample_token(z, [], cfg, rng) for _ in range(20)]
        assert seq_a == seq_b

    def test_penalty_steers_away_from_history(self):
        z = np.array([5.0, 4.9])
        cfg = SamplerConfig(mode="greedy", repetition_penalty=1.5)
        assert sample_token(z, [], cfg) == 0
        assert sample_token(z, [0], cfg) == 1

    def test_tiny_top_p_still_yields_a_token(self):
        z = np.array([1.0, 0.0, -1.0])
        cfg = SamplerConfig(top_p=1e-9, mode="sample", seed=0)
        assert sample_token(z, [], cfg) == 0

    def test_draw_frequencies_match_pipeline_distribution(self):
        # 10,000 draws against the analytically computed post-pipeline
        # distribution; chi-square goodness of fit at significance 0.001.
        z = np.array([1.2, 0.4, -0.3, 0.0, 2.0])
        cfg = SamplerConfig(temperature=0.6, top_p=0.95, repetition_penalty=1.03)
        expected = top_p_filter(softmax(z / cfg.temperature), cfg.top_p)
        n_draws = 10_000
        rng = np.random.default_rng(2024)
        counts = np.zeros(z.size)
        for _ in range(n_draws):
            counts[sample_token(z, [], cfg, rng)] += 1
        live = expected > 0
        assert counts[~live].sum() == 0
        result = stats.chisquare(counts[live], expected[live] * n_draws)
        assert result.pvalue > 0.001
