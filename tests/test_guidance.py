import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from omniguide import (
    GuidanceConfig,
    STRATEGIES,
    StepWeights,
    mix,
    reasoning_weights,
    stepwise_alpha,
    stepwise_mix,
)
from omniguide.guidance import Workspace, share
from omniguide.numerics import LN2, softmax

from conftest import random_dist


def fuse(strategy, t=1, cfg=None, **z):
    """Fused logits and trace of one registry row, as the decoder mixes them."""
    ws = Workspace(cfg or GuidanceConfig(strategy=strategy), len(next(iter(z.values()))))
    for name, row in z.items():
        ws.admit(name, row)
    return ws.fuse(t)


def fixed(strategy, alpha, **z):
    return fuse(strategy, cfg=GuidanceConfig(strategy=strategy, alpha=alpha), **z)[0]


def finite_vec(n):
    return hnp.arrays(
        np.float64,
        (n,),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )


class TestFixedContrast:
    """mix itself: the fixed contrast z_base + alpha * z_pos - alpha * z_neg."""

    def test_alpha_zero_is_identity(self):
        z = np.array([1.0, -2.0, 3.0])
        out = mix((1.0, 0.0, -0.0), (z, np.array([9.0, 9.0, 9.0]), np.array([1.0, 2.0, 3.0])))
        assert np.array_equal(out, z)

    def test_equal_poles_cancel(self):
        z = np.array([0.5, 0.25])
        pole = np.array([4.0, -4.0])
        out = mix((1.0, 7.3, -7.3), (z, pole, pole))
        np.testing.assert_allclose(out, z, atol=0)

    def test_worked_example(self):
        rows = (np.array([1.0, 2.0]), np.array([3.0, 0.0]), np.array([1.0, 1.0]))
        out = mix((1.0, 0.5, -0.5), rows)
        np.testing.assert_allclose(out, [2.0, 1.5], atol=0)

    def test_length_mismatch_rejected(self):
        from omniguide import DimensionError

        with pytest.raises(DimensionError):
            mix((1.0, 1.0, -1.0), (np.zeros(3), np.zeros(2), np.zeros(3)))
        with pytest.raises(ValueError):
            mix((1.0, 1.0), (np.zeros(3),))


class TestLrmGuideFixed:
    def test_guide_equal_to_neg_degenerates_to_base(self):
        z = np.array([0.1, 0.9, -0.4])
        pole = np.array([2.0, 2.0, 2.0])
        out = fixed("lrm_guide_fixed", 5.0, base=z, guide=pole, neg=pole)
        np.testing.assert_allclose(out, z, atol=0)

    def test_guide_pole_drives_argmax(self):
        out = fixed(
            "lrm_guide_fixed",
            1.0,
            base=np.array([0.0, 0.0]),
            guide=np.array([2.0, 0.0]),
            neg=np.array([0.0, 0.0]),
        )
        assert int(np.argmax(out)) == 0

    def test_alpha_zero_matches_base(self):
        z = np.array([3.0, 1.0, 2.0])
        out = fixed(
            "lrm_guide_fixed",
            0.0,
            base=z,
            guide=np.array([0.0, 9.0, 0.0]),
            neg=np.array([1.0, 1.0, 1.0]),
        )
        assert np.array_equal(out, z)


class TestVcdAblation:
    def test_alpha_zero_is_identity(self):
        z = np.array([1.0, 0.0])
        assert np.array_equal(fixed("vcd_ablation", 0.0, base=z, neg=np.array([5.0, 5.0])), z)

    def test_neg_equal_base_cancels(self):
        z = np.array([1.0, -1.0, 0.5])
        np.testing.assert_allclose(fixed("vcd_ablation", 3.0, base=z, neg=z), z, atol=0)

    def test_worked_example(self):
        out = fixed("vcd_ablation", 1.0, base=np.array([1.0, 0.0]), neg=np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [2.0, -1.0], atol=0)


class TestAverageFusion:
    def test_midpoint(self):
        out, _ = fuse("average_fusion", base=np.array([2.0, 0.0]), guide=np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=0)

    def test_identical_inputs_fixed_point(self):
        z = np.array([0.3, -0.7, 1.1])
        assert np.array_equal(fuse("average_fusion", base=z, guide=z)[0], z)


class TestReasoningWeights:
    def test_plain_surplus(self):
        w = reasoning_weights(0.8, 0.3, t=100)
        assert w.alpha_r == pytest.approx(0.5, abs=1e-15)
        assert w.alpha_p == pytest.approx(0.5, abs=1e-15)

    def test_surplus_clipped_to_one(self):
        w = reasoning_weights(1.5, 0.1, t=100)
        assert w.alpha_r == 1.0
        assert w.alpha_p == 0.0

    def test_negative_surplus_clipped_to_zero(self):
        w = reasoning_weights(0.1, 0.6, t=100)
        assert w.alpha_r == 0.0
        assert w.alpha_p == 1.0

    def test_warmup_caps_early_steps(self):
        w = reasoning_weights(1.0, 0.1, t=2)
        assert w.alpha_r == pytest.approx(0.2, abs=1e-15)

    def test_warmup_inactive_after_window(self):
        w = reasoning_weights(1.0, 0.1, t=6)
        assert w.alpha_r == pytest.approx(0.9, abs=1e-15)

    def test_step_index_is_one_based(self):
        with pytest.raises(ValueError):
            reasoning_weights(0.5, 0.1, t=0)
        w = reasoning_weights(0.5, 0.0, t=1)
        assert w.alpha_r == pytest.approx(0.1, abs=1e-15)

    def test_divergences_recorded_verbatim(self):
        w = reasoning_weights(0.41, 0.17, t=50)
        assert w.d_r == 0.41 and w.d_p == 0.17

    @given(
        d_r=st.floats(min_value=0, max_value=2),
        d_p=st.floats(min_value=0, max_value=2),
        t=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=300)
    def test_simplex_and_range_invariants(self, d_r, d_p, t):
        w = reasoning_weights(d_r, d_p, t)
        assert 0.0 <= w.alpha_r <= 1.0
        assert abs(w.alpha_r + w.alpha_p - 1.0) <= 1e-12
        if t <= 5:
            assert w.alpha_r <= 0.1 * t

    @given(
        d_p=st.floats(min_value=0, max_value=1),
        lo=st.floats(min_value=0, max_value=1),
        bump=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=300)
    def test_monotone_in_reasoning_divergence(self, d_p, lo, bump):
        a = reasoning_weights(lo, d_p, t=100).alpha_r
        b = reasoning_weights(lo + bump, d_p, t=100).alpha_r
        assert b >= a


class TestStepwiseAlpha:
    def test_identical_branches_give_zero_weight(self):
        p = np.array([0.25, 0.25, 0.5])
        w = stepwise_alpha(p, p, p, t=10)
        assert w.alpha_r == 0.0
        assert w.d_r == 0.0 and w.d_p == 0.0

    def test_guide_deviation_raises_weight(self):
        p_neg = np.array([0.5, 0.5])
        p_guide = np.array([0.999, 0.001])
        w = stepwise_alpha(p_guide, p_neg, p_neg, t=100)
        assert w.alpha_r > 0.2
        assert w.d_p == 0.0
        assert w.d_r <= LN2

    def test_respects_custom_clip(self):
        cfg = GuidanceConfig(clip_hi=0.1)
        p_neg = np.array([0.5, 0.5])
        p_guide = np.array([1.0, 0.0])
        # Surplus is JS(point mass, uniform) ~= 0.216, above the custom cap.
        w = stepwise_alpha(p_guide, p_neg, p_neg, t=100, cfg=cfg)
        assert w.alpha_r == 0.1

    def test_randomized_weights_stay_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            w = stepwise_alpha(
                random_dist(rng, n),
                random_dist(rng, n),
                random_dist(rng, n),
                t=int(rng.integers(1, 40)),
            )
            assert 0.0 <= w.alpha_r <= 1.0
            assert abs(w.alpha_r + w.alpha_p - 1.0) <= 1e-12


class TestStepwiseMix:
    def test_full_guide_weight_endpoint(self):
        zb = np.array([1.0, 2.0])
        zg = np.array([0.5, -0.5])
        zn = np.array([0.25, 0.25])
        np.testing.assert_allclose(stepwise_mix(zb, zg, zn, 1.0), zb + zg - zn, atol=0)

    def test_zero_guide_weight_endpoint(self):
        zb = np.array([1.0, 2.0])
        zg = np.array([0.5, -0.5])
        zn = np.array([0.25, 0.25])
        np.testing.assert_allclose(stepwise_mix(zb, zg, zn, 0.0), 2 * zb - zn, atol=0)

    def test_out_of_range_weight_rejected(self):
        z = np.zeros(2)
        with pytest.raises(ValueError):
            stepwise_mix(z, z, z, 1.5)
        with pytest.raises(ValueError):
            stepwise_mix(z, z, z, -0.1)

    @given(
        zb=finite_vec(8),
        zg=finite_vec(8),
        zn=finite_vec(8),
        alpha_r=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=300)
    def test_closed_form_matches_two_contrast_expansion(self, zb, zg, zn, alpha_r):
        alpha_p = 1.0 - alpha_r
        expanded = zb + alpha_r * (zg - zn) + alpha_p * (zb - zn)
        fused = stepwise_mix(zb, zg, zn, alpha_r)
        assert np.max(np.abs(fused - expanded)) <= 1e-9


class TestStepwiseFuse:
    """The stepwise registry row: weights from softmaxed logits, then mix."""

    def test_identical_logits_reduce_to_perception_contrast(self):
        z = np.array([0.4, -0.4, 0.0])
        fused, (alpha_r, *_) = fuse("stepwise", t=50, base=z, guide=z, neg=z)
        assert alpha_r == 0.0
        np.testing.assert_allclose(fused, 2 * z - z, atol=0)

    def test_weights_derive_from_softmaxed_logits(self):
        zb = np.array([0.0, 0.0])
        zg = np.array([10.0, -10.0])
        zn = np.array([0.0, 0.0])
        _, trace = fuse("stepwise", t=100, base=zb, guide=zg, neg=zn)
        w = StepWeights(*trace)
        expected = stepwise_alpha(softmax(zg), softmax(zb), softmax(zn), t=100)
        assert w == expected
        assert w.d_p == 0.0 and w.d_r > 0.2

    def test_warmup_applies_through_fuse(self):
        zb = np.array([0.0, 0.0])
        zg = np.array([30.0, -30.0])
        zn = np.array([0.0, 0.0])
        _, (alpha_r, *_) = fuse("stepwise", t=1, base=zb, guide=zg, neg=zn)
        assert alpha_r == pytest.approx(0.1, abs=1e-15)


class TestGuidanceConfig:
    def test_defaults(self):
        cfg = GuidanceConfig()
        assert cfg.strategy == "stepwise"
        assert cfg.warmup_steps == 5
        assert cfg.warmup_slope == 0.1
        assert (cfg.clip_lo, cfg.clip_hi) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "bogus"},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"warmup_steps": -1},
            {"warmup_slope": -0.1},
            {"clip_lo": 0.5, "clip_hi": 0.25},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuidanceConfig(**kwargs)

    def test_all_strategies_constructible(self):
        for s in STRATEGIES:
            GuidanceConfig(strategy=s)


class TestStrategyBranchMap:
    def test_every_strategy_mapped(self):
        names = {"none", "vcd_ablation", "average_fusion", "lrm_guide_fixed", "stepwise"}
        assert set(STRATEGIES) == names
        with pytest.raises(ValueError):
            GuidanceConfig(strategy="fixed_contrast")

    def test_branch_requirements(self):
        assert STRATEGIES["none"].branches == ("base",)
        assert STRATEGIES["vcd_ablation"].branches == ("base", "neg")
        assert STRATEGIES["average_fusion"].branches == ("base", "guide")
        for s in ("lrm_guide_fixed", "stepwise"):
            assert STRATEGIES[s].branches == ("base", "neg", "guide")
        for row in STRATEGIES.values():
            assert row.branches[0] == "base"


# README's Strategies table: (c_b, c_g, c_n), summed in that order.
def readme_formula(strategy, zb, zg, zn, alpha, alpha_r):
    return {
        "none": zb,
        "vcd_ablation": (1 + alpha) * zb - alpha * zn,
        "average_fusion": 0.5 * zb + 0.5 * zg,
        "lrm_guide_fixed": zb + alpha * zg - alpha * zn,
        "stepwise": (2 - alpha_r) * zb + alpha_r * zg - zn,
    }[strategy]


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_row_matches_readme_formula_and_opened_branches(strategy):
    from omniguide import DecodeJob, OmniPayload, PromptInput, decode, parse_toy_spec

    rng = np.random.default_rng(5)
    zb, zg, zn = rng.normal(0, 3, size=(3, 64))
    cfg = GuidanceConfig(strategy=strategy, alpha=0.7)
    branches = STRATEGIES[strategy].branches
    z = {"base": zb, "guide": zg, "neg": zn}
    for t in (1, 9):
        fused, trace = fuse(strategy, t=t, cfg=cfg, **{b: z[b] for b in branches})
        assert np.array_equal(fused, readme_formula(strategy, zb, zg, zn, cfg.alpha, trace[0]))

    # The sessions a decode opens, in order: base and neg share the base
    # source, and only base carries the payload.
    opened = []

    class Logged:
        def __init__(self, spec, name):
            self.inner, self.name = parse_toy_spec(spec), name
            self.vocabulary, self.context_limit = self.inner.vocabulary, self.inner.context_limit

        def open(self, prompt):
            if self.name == "guide":
                opened.append("guide")
            else:
                opened.append("base" if prompt.payload is not None else "neg")
            return self.inner.open(prompt)

    spec = "@vocab a b\na | b | 1\n"
    job = DecodeJob(
        base_source=Logged(spec, "base"),
        guide_source=Logged(spec, "guide"),
        prompt=PromptInput((0,), OmniPayload(b"key")),
        guidance=cfg,
        max_new_tokens=2,
    )
    assert decode(job).finish_reason == "length_limit"
    assert tuple(opened) == branches


@given(
    data=st.data(),
    t=st.integers(min_value=1, max_value=12),
    a=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=300)
def test_stepwise_row_is_bit_identical_to_closed_form(data, t, a):
    n = data.draw(st.integers(min_value=1, max_value=64))
    zb, zg, zn = (data.draw(finite_vec(n)) for _ in range(3))
    fused, (alpha_r, *_) = fuse("stepwise", t=t, base=zb, guide=zg, neg=zn)
    assert np.array_equal(fused, (2.0 - alpha_r) * zb + alpha_r * zg - zn)
    assert np.array_equal(stepwise_mix(zb, zg, zn, a), (2.0 - a) * zb + a * zg - zn)


def test_step_weights_is_plain_record():
    w = StepWeights(alpha_r=0.25, alpha_p=0.75, d_r=0.3, d_p=0.05)
    assert (w.alpha_r, w.alpha_p, w.d_r, w.d_p) == (0.25, 0.75, 0.3, 0.05)


class TestShare:
    """share runs each task once, on the calling thread or the lane."""

    def test_results_in_task_order_without_a_lane(self):
        assert share(None, [lambda i=i: i * i for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_caller_does_all_work_when_the_lane_never_starts(self):
        release = threading.Event()
        with ThreadPoolExecutor(1) as lane:
            lane.submit(release.wait, 10)  # the lane's only thread is busy
            ran_on = []
            tasks = [lambda i=i: ran_on.append(threading.current_thread()) or i for i in range(4)]
            assert share(lane, tasks) == [0, 1, 2, 3]
            assert ran_on == [threading.current_thread()] * 4
            release.set()

    def test_first_failure_in_task_order_is_raised(self):
        def fail(msg):
            raise ValueError(msg)

        ran = []
        tasks = [lambda: ran.append(0), lambda: fail("first"), lambda: ran.append(2), lambda: fail("second")]
        with ThreadPoolExecutor(1) as lane:
            with pytest.raises(ValueError, match="first"):
                share(lane, tasks)
        assert sorted(ran) == [0, 2]

    def test_every_task_runs_once_under_contention(self):
        # Four callers, each with its own lane (8 threads on 2 CPUs), with
        # the interpreter switching threads as often as it can.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        counts = np.zeros((4, 30, 16), dtype=np.int64)
        helpers = set()
        failures = []
        work = np.ones(4096)

        def caller(c):
            try:
                with ThreadPoolExecutor(1) as lane:
                    for r in range(30):
                        def bump(i, c=c, r=r):
                            counts[c, r, i] += 1
                            np.sin(work).sum()  # releases the GIL
                            if threading.current_thread().name.startswith("ThreadPoolExecutor"):
                                helpers.add(c)
                            return i

                        assert share(lane, [partial(bump, i) for i in range(16)]) == list(range(16))
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert not failures
        assert (counts == 1).all()
        assert helpers  # the lanes did take tasks
