import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import rel_entr

from omniguide import DIVERGENCE_LOG_BASE, LN2, js_divergence, kl_divergence, softmax
from omniguide.errors import DimensionError, NonFiniteError

# Frozen before the build by direct term-by-term summation:
#   KL([0.75, 0.25] || [0.5, 0.5]) = 0.75 ln 1.5 + 0.25 ln 0.5
#   JS([0.5, 0.5] || [1, 0])       = 0.5 (KL(p||m) + KL(q||m)), m = [0.75, 0.25]
KL_ORACLE = 0.13081203594113697
JS_ORACLE = 0.21576155433883565


def naive_js(p, q):
    """Independent JS oracle built on scipy's rel_entr."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)
    return 0.5 * float(rel_entr(p, m).sum()) + 0.5 * float(rel_entr(q, m).sum())


def masked_js(p, q):
    """The masked-gather js_divergence that the whole-vector one replaced."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0.0
        am = a[mask]
        return float((am * np.log(am / m[mask])).sum())

    return 0.5 * kl(p) + 0.5 * kl(q)


def exact_masked_js(p, q):
    """masked_js, and where its mixture underflows, on inputs scaled by 2**64.

    Scaling by a power of two changes no ratio of normal numbers, and
    lifts subnormal entries to normal ones, whose halves do not round to 0.
    """
    old = masked_js(p, q)
    if np.isfinite(old):
        return old
    return masked_js(np.ldexp(p, 64), np.ldexp(q, 64)) / 2.0**64


finite_logits = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_ln2_gap_gives_one_third_two_thirds(self):
        for c in (-100.0, 0.0, 7.25):
            np.testing.assert_allclose(
                softmax([c, c + LN2]), [1 / 3, 2 / 3], rtol=0, atol=1e-12
            )

    def test_shift_invariance_at_large_magnitude(self):
        np.testing.assert_allclose(
            softmax([1000.0, 1000.5, 999.0]), softmax([0.0, 0.5, -1.0]), rtol=0, atol=1e-12
        )

    def test_non_finite_names_the_index(self):
        with pytest.raises(NonFiniteError, match="index 2"):
            softmax([0.0, 1.0, np.nan])
        with pytest.raises(NonFiniteError, match="index 0"):
            softmax([np.inf, 0.0])

    def test_empty_and_matrix_rejected(self):
        with pytest.raises(DimensionError):
            softmax([])
        with pytest.raises(DimensionError):
            softmax(np.zeros((2, 2)))

    @given(finite_logits)
    @settings(max_examples=200)
    def test_output_is_valid_dist(self, z):
        p = softmax(z)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(np.isfinite(p))

    @given(finite_logits, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=200)
    def test_shift_invariance_property(self, z, c):
        np.testing.assert_allclose(softmax(z + c), softmax(z), rtol=0, atol=1e-9)


class TestKL:
    def test_zero_on_identical(self):
        p = [0.3, 0.2, 0.5]
        assert kl_divergence(p, p) == 0.0

    def test_point_mass_against_uniform_is_ln2(self):
        np.testing.assert_allclose(kl_divergence([1.0, 0.0], [0.5, 0.5]), LN2, rtol=0, atol=1e-15)

    def test_frozen_oracle_value(self):
        np.testing.assert_allclose(
            kl_divergence([0.75, 0.25], [0.5, 0.5]), KL_ORACLE, rtol=0, atol=1e-15
        )

    def test_missing_support_gives_infinity(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_rejects_non_distributions(self):
        with pytest.raises(ValueError):
            kl_divergence([0.9, 0.3], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([1.5, -0.5], [0.5, 0.5])


class TestJS:
    def test_log_base_is_recorded(self):
        assert DIVERGENCE_LOG_BASE == "e"

    def test_identity(self):
        p = [0.1, 0.2, 0.7]
        assert js_divergence(p, p) <= 1e-12

    def test_disjoint_supports_hit_ln2(self):
        np.testing.assert_allclose(js_divergence([1, 0], [0, 1]), LN2, rtol=0, atol=1e-12)

    def test_frozen_oracle_value(self):
        np.testing.assert_allclose(
            js_divergence([0.5, 0.5], [1.0, 0.0]), JS_ORACLE, rtol=0, atol=1e-15
        )

    def test_finite_even_with_zero_entries(self):
        # The mixture dominates both inputs, so JS never hits the KL
        # infinity sentinel.
        v = js_divergence([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
        assert np.isfinite(v)

    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_symmetry_bounds_and_oracle(self, size, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(size))
        q = rng.dirichlet(np.ones(size))
        js_pq = js_divergence(p, q)
        js_qp = js_divergence(q, p)
        assert abs(js_pq - js_qp) <= 1e-12
        assert -0.0 <= js_pq <= LN2 + 1e-12
        np.testing.assert_allclose(js_pq, naive_js(p, q), rtol=0, atol=1e-10)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=4000),
        spread=st.floats(min_value=0.0, max_value=900.0),
        shared=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_formula_with_underflow(self, seed, size, spread, shared):
        # Logits spread over up to 900 nats: softmax leaves exact zeros
        # (below e^-745) and subnormal entries (e^-745 to e^-708).
        rng = np.random.default_rng(seed)
        zp = rng.uniform(-spread, 0.0, size)
        zq = np.where(rng.random(size) < shared, zp, rng.uniform(-spread, 0.0, size))
        p, q = softmax(zp), softmax(zq)
        js = js_divergence(p, q)
        assert 0.0 <= js <= LN2
        assert abs(js - exact_masked_js(p, q)) <= 1e-12

    def test_subnormal_and_zero_entries(self):
        sub = np.finfo(np.float64).smallest_subnormal
        p = np.array([0.5, 0.5 - 3 * sub, sub, 2 * sub, 0.0])
        q = np.array([0.25, 0.75 - sub, 0.0, 0.0, sub])
        # p[2] + q[2] is the smallest subnormal; halving it gives m = 0 and
        # the masked formula's one term p[2] * log(p[2] / 0) = inf.
        assert masked_js(p, q) == np.inf
        for a, b in ((p, q), (q, p), (p, p)):
            js = js_divergence(a, b)
            assert 0.0 <= js <= LN2
            assert abs(js - exact_masked_js(a, b)) <= 1e-12
