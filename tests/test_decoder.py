import math
import threading

import numpy as np
import pytest

from omniguide import (
    DecodeJob,
    EngineError,
    GuidanceConfig,
    OmniPayload,
    PromptInput,
    RemoteSource,
    SamplerConfig,
    SessionStateError,
    TransportError,
    VocabularyMismatchError,
    bench,
    caption_then_answer,
    decode,
    parse_toy_spec,
    sample_token,
    serve,
)
from omniguide import decoder as decoder_module
from omniguide.sampler import make_rng

from conftest import (
    EOS,
    FLOATS,
    METAL,
    PLASTIC,
    RowModel,
    SINKS,
    THINK,
    WHAT,
    random_prompt,
    random_toy_model,
    scene_prompt,
)

GREEDY = SamplerConfig(mode="greedy")


class RecordingSource:
    """Wraps a source to capture open() prompts, sessions, and step tokens.

    threads holds the thread of every open, logits and step call.
    """

    fail_at_step = None
    fail_with = None

    def __init__(self, inner):
        self.inner = inner
        self.opened = []
        self.sessions = []
        self.threads = []

    @property
    def vocabulary(self):
        return self.inner.vocabulary

    @property
    def context_limit(self):
        return self.inner.context_limit

    def open(self, prompt):
        self.threads.append(threading.current_thread())
        self.opened.append(prompt)
        sess = RecordingSession(
            self.inner.open(prompt), self.fail_at_step, self.fail_with, self.threads
        )
        self.sessions.append(sess)
        return sess


class RecordingSession:
    def __init__(self, inner, fail_at_step=None, fail_with=None, threads=None):
        self.inner = inner
        self.steps = []
        self.closed = False
        self.fail_at_step = fail_at_step
        self.fail_with = fail_with or SessionStateError("injected branch failure")
        self.threads = [] if threads is None else threads

    @property
    def context_length(self):
        return self.inner.context_length

    def logits(self):
        self.threads.append(threading.current_thread())
        return self.inner.logits()

    def step(self, token_id):
        self.threads.append(threading.current_thread())
        if self.fail_at_step is not None and len(self.steps) + 1 >= self.fail_at_step:
            raise self.fail_with
        self.steps.append(token_id)
        return self.inner.step(token_id)

    def close(self):
        self.closed = True
        self.inner.close()


class FailingSource(RecordingSource):
    """Its sessions raise fail_with (default SessionStateError) from step fail_at_step on."""

    def __init__(self, inner, fail_at_step, fail_with=None):
        super().__init__(inner)
        self.fail_at_step = fail_at_step
        self.fail_with = fail_with


def stepwise_job(base, guide, key="scene_metal", **kwargs):
    defaults = dict(
        base_source=base,
        guide_source=guide,
        prompt=scene_prompt(key),
        guidance=GuidanceConfig(strategy="stepwise"),
        sampler=GREEDY,
        stop_tokens=frozenset({EOS}),
        think_tag=(THINK,),
        max_new_tokens=16,
    )
    defaults.update(kwargs)
    return DecodeJob(**defaults)


class TestValidation:
    def test_empty_prompt_rejected_before_any_session(self, fusion_base, fusion_guide):
        rec = RecordingSource(fusion_base)
        job = stepwise_job(rec, fusion_guide, prompt=PromptInput(tokens=()))
        with pytest.raises(ValueError):
            decode(job)
        assert rec.opened == []

    def test_guide_required_for_guide_strategies(self, fusion_base):
        job = stepwise_job(fusion_base, None)
        with pytest.raises(ValueError, match="guide"):
            decode(job)

    def test_vocabulary_mismatch_rejected(self, fusion_base):
        other = parse_toy_spec("@vocab a b\na | b | 1\n")
        job = stepwise_job(fusion_base, other)
        with pytest.raises(VocabularyMismatchError):
            decode(job)

    def test_max_new_tokens_must_be_positive(self, fusion_base):
        with pytest.raises(ValueError):
            DecodeJob(
                base_source=fusion_base, prompt=scene_prompt(), max_new_tokens=0
            )


class TestBaselineEquivalence:
    def test_plain_strategy_matches_direct_autoregression(self):
        # Strategy "none" must be indistinguishable from driving the source
        # by hand with the same sampler pipeline and rng stream.
        rng_outer = np.random.default_rng(17)
        for _ in range(100):
            model = random_toy_model(rng_outer)
            prompt = PromptInput(tokens=random_prompt(rng_outer, model.vocabulary.size))
            sampler = SamplerConfig(seed=int(rng_outer.integers(0, 2**31)))
            job = DecodeJob(
                base_source=model,
                prompt=prompt,
                guidance=GuidanceConfig(strategy="none"),
                sampler=sampler,
                max_new_tokens=8,
            )
            got = decode(job)

            sess = model.open(prompt)
            z = sess.logits()
            rng = make_rng(sampler)
            history = list(prompt.tokens)
            want = []
            for _ in range(8):
                tok = sample_token(z, history, sampler, rng)
                want.append(tok)
                history.append(tok)
                z = sess.step(tok)
            sess.close()
            assert got.tokens == tuple(want)

    def test_zero_weight_guide_matches_plain_greedy(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            model = random_toy_model(rng)
            prompt = PromptInput(tokens=random_prompt(rng, model.vocabulary.size))
            common = dict(
                base_source=model,
                guide_source=model,
                prompt=prompt,
                sampler=GREEDY,
                max_new_tokens=6,
            )
            guided = decode(
                DecodeJob(
                    guidance=GuidanceConfig(strategy="lrm_guide_fixed", alpha=0.0),
                    **common,
                )
            )
            plain = decode(
                DecodeJob(guidance=GuidanceConfig(strategy="none"), **common)
            )
            assert guided.tokens == plain.tokens


class TestFusionTestbed:
    def test_adaptive_fusion_answers_metal_scene(self, fusion_base, fusion_guide):
        res = decode(stepwise_job(fusion_base, fusion_guide, key="scene_metal"))
        assert res.tokens == (METAL, SINKS, EOS)
        assert res.text == "metal sinks <eos>"
        assert res.finish_reason == "stop_token"

    def test_adaptive_fusion_answers_plastic_scene(self, fusion_base, fusion_guide):
        res = decode(stepwise_job(fusion_base, fusion_guide, key="scene_plastic"))
        assert res.tokens == (PLASTIC, FLOATS, EOS)

    def test_backbone_alone_misses_metal_scene(self, fusion_base):
        job = DecodeJob(
            base_source=fusion_base,
            prompt=scene_prompt("scene_metal"),
            guidance=GuidanceConfig(strategy="none"),
            sampler=GREEDY,
            stop_tokens=frozenset({EOS}),
            max_new_tokens=16,
        )
        res = decode(job)
        assert res.tokens == (METAL, FLOATS, EOS)

    def test_reasoner_alone_misses_metal_scene(self, fusion_guide):
        job = DecodeJob(
            base_source=fusion_guide,
            prompt=PromptInput(tokens=(WHAT, THINK)),
            guidance=GuidanceConfig(strategy="none"),
            sampler=GREEDY,
            stop_tokens=frozenset({EOS}),
            max_new_tokens=16,
        )
        res = decode(job)
        assert res.tokens == (PLASTIC, FLOATS, EOS)

    def test_adaptive_weights_follow_branch_disagreement(self, fusion_base, fusion_guide):
        res = decode(stepwise_job(fusion_base, fusion_guide, key="scene_metal"))
        t1, t2, t3 = res.traces
        # First step: the omni payload moves the base away from the text-only
        # branch more than the guide does, so the surplus clips to zero.
        assert t1.alpha_r == 0.0 and t1.alpha_p == 1.0
        assert t1.d_p > 0.3
        # Second step: base and text-only branches agree exactly while the
        # guide diverges; the warmup caps the weight at 0.1 * 2.
        assert t2.d_p == 0.0
        assert t2.d_r > 0.4
        assert t2.alpha_r == pytest.approx(0.2, abs=1e-12)
        assert t2.alpha_p == pytest.approx(0.8, abs=1e-12)
        # Final step: every branch agrees on the stop token.
        assert t3.alpha_r == 0.0 and t3.d_r == 0.0 and t3.d_p == 0.0


class TestDecodeMechanics:
    def test_think_tag_reaches_only_the_guide_branch(self, fusion_base, fusion_guide):
        base_rec = RecordingSource(fusion_base)
        guide_rec = RecordingSource(fusion_guide)
        decode(stepwise_job(base_rec, guide_rec, key="scene_metal"))
        # The backbone source hosts the base and neg branches.
        assert len(base_rec.opened) == 2
        for p in base_rec.opened:
            assert p.tokens == (WHAT,)
        payloads = {p.payload.key if p.payload else None for p in base_rec.opened}
        assert payloads == {"scene_metal", None}
        # The guide sees the prompt plus the think tag and no payload.
        assert len(guide_rec.opened) == 1
        assert guide_rec.opened[0].tokens == (WHAT, THINK)
        assert guide_rec.opened[0].payload is None

    def test_sampled_token_broadcast_to_every_branch(self, fusion_base, fusion_guide):
        base_rec = RecordingSource(fusion_base)
        guide_rec = RecordingSource(fusion_guide)
        res = decode(stepwise_job(base_rec, guide_rec, key="scene_metal"))
        # The stop token ends the loop before a final broadcast, so each
        # session stepped through all tokens but the last.
        expected = list(res.tokens[:-1])
        for sess in base_rec.sessions + guide_rec.sessions:
            assert sess.steps == expected
            assert sess.closed

    def test_sessions_closed_after_normal_finish(self, fusion_base, fusion_guide):
        base_rec = RecordingSource(fusion_base)
        guide_rec = RecordingSource(fusion_guide)
        decode(stepwise_job(base_rec, guide_rec))
        assert all(s.closed for s in base_rec.sessions + guide_rec.sessions)

    def test_length_limit_produces_exactly_max_tokens(self, fusion_base, fusion_guide):
        job = stepwise_job(
            fusion_base, fusion_guide, stop_tokens=frozenset(), max_new_tokens=3
        )
        res = decode(job)
        assert res.finish_reason == "length_limit"
        assert len(res.tokens) == 3

    def test_stop_token_included_in_output(self, fusion_base, fusion_guide):
        res = decode(stepwise_job(fusion_base, fusion_guide))
        assert res.finish_reason == "stop_token"
        assert res.tokens[-1] == EOS

    def test_seeded_sampling_is_reproducible(self, fusion_base, fusion_guide):
        job = stepwise_job(
            fusion_base,
            fusion_guide,
            sampler=SamplerConfig(seed=99, temperature=1.5),
            max_new_tokens=8,
            stop_tokens=frozenset(),
        )
        a = decode(job)
        b = decode(job)
        assert a.tokens == b.tokens
        for ta, tb in zip(a.traces, b.traces):
            assert (ta.alpha_r, ta.alpha_p, ta.d_r, ta.d_p) == (
                tb.alpha_r,
                tb.alpha_p,
                tb.d_r,
                tb.d_p,
            )

    def test_trace_rows_are_complete_and_finite(self, fusion_base, fusion_guide):
        res = decode(stepwise_job(fusion_base, fusion_guide))
        assert len(res.traces) == len(res.tokens)
        vocab = fusion_base.vocabulary
        for i, tr in enumerate(res.traces, start=1):
            assert tr.t == i
            assert tr.token == vocab.tokens[tr.token_id]
            for value in (tr.alpha_r, tr.alpha_p, tr.d_r, tr.d_p):
                assert math.isfinite(value)
            assert tr.lat_base_ms >= 0
            assert tr.lat_neg_ms >= 0
            assert tr.lat_guide_ms >= 0
        assert res.prefill_s > 0
        assert res.mean_step_s >= 0

    def test_fixed_strategy_traces_use_zero_perception_weight(self, fusion_base, fusion_guide):
        job = stepwise_job(
            fusion_base,
            fusion_guide,
            guidance=GuidanceConfig(strategy="lrm_guide_fixed", alpha=0.7),
        )
        res = decode(job)
        for tr in res.traces:
            assert tr.alpha_r == 0.7
            assert tr.alpha_p == 0.0
            assert tr.d_r == 0.0 and tr.d_p == 0.0


class TestAbortSafety:
    def test_branch_failure_yields_partial_result_and_cleanup(self, fusion_base, fusion_guide):
        # The guide branch dies on its second step; the decoder must return
        # the tokens sampled so far and still close every session.
        base_rec = RecordingSource(fusion_base)
        failing_guide = FailingSource(fusion_guide, fail_at_step=2)
        job = stepwise_job(
            base_rec, failing_guide, stop_tokens=frozenset(), max_new_tokens=10
        )
        res = decode(job)
        assert res.finish_reason == "error"
        assert res.error is not None and "injected" in res.error
        assert len(res.tokens) == 2
        assert all(s.closed for s in base_rec.sessions + failing_guide.sessions)

    def test_failure_on_first_step_still_reports_error(self, fusion_base, fusion_guide):
        failing_base = FailingSource(fusion_base, fail_at_step=1)
        job = stepwise_job(
            failing_base, fusion_guide, stop_tokens=frozenset(), max_new_tokens=10
        )
        res = decode(job)
        assert res.finish_reason == "error"
        assert len(res.tokens) == 1


def record_remote_threads(source: RemoteSource, threads: list) -> None:
    """Log the thread of every open and step call of a RemoteSource.

    Patches the instance, so the decoder still sees a RemoteSource.
    """
    real_open = source.open

    def open_(prompt):
        threads.append(threading.current_thread())
        sess = real_open(prompt)
        real_step = sess.step

        def step(token_id):
            threads.append(threading.current_thread())
            return real_step(token_id)

        sess.step = step
        return sess

    source.open = open_


class TestBranchDispatch:
    def test_in_process_branches_run_on_the_calling_thread(self, fusion_base, fusion_guide):
        base, guide = RecordingSource(fusion_base), RecordingSource(fusion_guide)
        before = set(threading.enumerate())
        res = decode(stepwise_job(base, guide))
        assert res.finish_reason == "stop_token" and len(res.tokens) > 1
        # open + logits per branch, then one step per branch per later token.
        assert len(base.threads + guide.threads) == 6 + 3 * (len(res.tokens) - 1)
        assert set(base.threads + guide.threads) == {threading.current_thread()}
        assert set(threading.enumerate()) == before

    def test_remote_branches_run_on_pool_threads(self, fusion_base, fusion_guide):
        servers = [serve(fusion_base), serve(fusion_guide)]
        try:
            base, guide = (RemoteSource(s.endpoint) for s in servers)
            threads: list = []
            record_remote_threads(base, threads)
            record_remote_threads(guide, threads)
            res = decode(stepwise_job(base, guide))
            assert res.finish_reason == "stop_token" and len(res.tokens) > 1
            assert len(threads) == 3 + 3 * (len(res.tokens) - 1)
            assert threading.current_thread() not in threads
            assert all(s.live_sessions == 0 for s in servers)
        finally:
            for s in servers:
                s.stop()

    def test_in_process_transport_error_closes_every_branch(self, fusion_base, fusion_guide):
        base = RecordingSource(fusion_base)
        guide = FailingSource(
            fusion_guide, fail_at_step=2, fail_with=TransportError("in-process", 1, "link down")
        )
        before = set(threading.enumerate())
        res = decode(stepwise_job(base, guide, stop_tokens=frozenset(), max_new_tokens=10))
        assert res.finish_reason == "error"
        assert res.error.startswith("TransportError:")
        assert len(res.tokens) == 2
        assert len(base.sessions) == 2 and len(guide.sessions) == 1
        assert all(s.closed for s in base.sessions + guide.sessions)
        assert set(threading.enumerate()) == before


LANE_V = decoder_module.LANE_MIN_VOCAB


def lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("omniguide-lane")]


class ThreadSpy(RecordingSource):
    """Records, at every step call, whether a lane thread is alive."""

    def __init__(self, inner):
        super().__init__(inner)
        self.saw_lane = []

    def open(self, prompt):
        sess = super().open(prompt)
        real_step = sess.step

        def step(token_id):
            self.saw_lane.append(bool(lane_threads()))
            return real_step(token_id)

        sess.step = step
        return sess


class CorruptingSource(RecordingSource):
    """Its sessions return corrupt(row) in place of the row from step at_step on."""

    def __init__(self, inner, at_step, corrupt):
        super().__init__(inner)
        self.at_step, self.corrupt = at_step, corrupt

    def open(self, prompt):
        sess = super().open(prompt)
        real_step = sess.step

        def step(token_id):
            z = real_step(token_id)
            return self.corrupt(z) if len(sess.steps) >= self.at_step else z

        sess.step = step
        return sess


def nan_at_7(z):
    z = z.copy()
    z[7] = np.nan
    return z


def weights(tr):
    return (tr.alpha_r, tr.alpha_p, tr.d_r, tr.d_p, tr.nucleus)


def lane_job(base, guide, seed, **kwargs):
    defaults = dict(
        base_source=base,
        guide_source=guide,
        prompt=PromptInput((3, 1, 4), OmniPayload(b"scene1 payload")),
        sampler=SamplerConfig(seed=seed),
        max_new_tokens=6,
        think_tag=(LANE_V - 1,),
    )
    defaults.update(kwargs)
    return DecodeJob(**defaults)


class TestLanes:
    """From LANE_MIN_VOCAB tokens up, stepwise preparation runs on two lanes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lanes_are_bit_identical_to_serial(self, seed, monkeypatch):
        base = ThreadSpy(RowModel(11, LANE_V, ("peaked", "flat", "underflow")))
        guide = RowModel(23, LANE_V, ("peaked", "flat", "underflow"))
        job = lane_job(base, guide, seed)
        laned = decode(job)
        assert any(base.saw_lane) and not lane_threads()
        base.saw_lane.clear()
        monkeypatch.setattr(decoder_module, "LANE_MIN_VOCAB", LANE_V + 1)
        serial = decode(job)
        assert not any(base.saw_lane)
        assert laned.finish_reason == serial.finish_reason == "length_limit"
        assert laned.tokens == serial.tokens
        assert [weights(t) for t in laned.traces] == [weights(t) for t in serial.traces]

    @pytest.mark.parametrize("branch", ["base", "guide"])
    @pytest.mark.parametrize(
        "corrupt, error",
        [(nan_at_7, "NonFiniteError"), (lambda z: z[:-1], "DimensionError")],
    )
    def test_bad_row_mid_decode_is_an_error_result(self, branch, corrupt, error):
        # base rows are prepared on the helper lane, guide rows on the
        # calling thread.
        base = RowModel(11, LANE_V)
        guide = RowModel(23, LANE_V)
        sources = {"base": RecordingSource(base), "guide": RecordingSource(guide)}
        sources[branch] = CorruptingSource(base if branch == "base" else guide, 2, corrupt)
        before = threading.active_count()
        res = decode(lane_job(sources["base"], sources["guide"], 0))
        assert res.finish_reason == "error"
        assert res.error.startswith(f"{error}:")
        assert len(res.tokens) == 2
        opened = sources["base"].sessions + sources["guide"].sessions
        assert len(opened) == 3 and all(s.closed for s in opened)
        assert threading.active_count() == before


CAPTION_BASE = """
@vocab what metal plastic object sinks floats <eos> <think>
what | object | 1
metal | <eos> | 3
plastic | <eos> | 3
object | <eos> | 3
@omni scene_metal
what | metal | 5
@omni scene_blur
what | object | 5
"""

CAPTION_GUIDE = """
@vocab what metal plastic object sinks floats <eos> <think>
metal what <think> | sinks | 10
plastic what <think> | floats | 10
object what <think> | floats | 10
sinks | <eos> | 3
floats | <eos> | 3
"""


class TestCaptionPipeline:
    def caption_job(self, key):
        base = parse_toy_spec(CAPTION_BASE, name="caption-base")
        guide = parse_toy_spec(CAPTION_GUIDE, name="caption-guide")
        vocab = base.vocabulary
        return DecodeJob(
            base_source=base,
            guide_source=guide,
            prompt=PromptInput(
                tokens=(vocab.index_of("what"),),
                payload=scene_prompt(key).payload,
            ),
            sampler=GREEDY,
            stop_tokens=frozenset({vocab.index_of("<eos>")}),
            think_tag=(vocab.index_of("<think>"),),
            max_new_tokens=8,
        )

    def test_informative_caption_reaches_right_answer(self):
        job = self.caption_job("scene_metal")
        res = caption_then_answer(job)
        vocab = job.base_source.vocabulary
        assert res.tokens == (vocab.index_of("sinks"), vocab.index_of("<eos>"))
        stages = [tr.stage for tr in res.traces]
        assert stages[0] == "caption" and stages[-1] == "answer"
        assert "caption" in stages and "answer" in stages

    def test_lossy_caption_loses_the_answer(self):
        # The captioner can only say "object" for the blurred scene, so the
        # answering model never learns the material: one-way information flow.
        res = caption_then_answer(self.caption_job("scene_blur"))
        vocab = parse_toy_spec(CAPTION_BASE).vocabulary
        assert res.tokens[0] == vocab.index_of("floats")

    def test_guide_source_required(self, fusion_base):
        job = DecodeJob(
            base_source=fusion_base, prompt=scene_prompt(), sampler=GREEDY
        )
        with pytest.raises(ValueError):
            caption_then_answer(job)

    def test_caption_stage_error_short_circuits(self, fusion_guide):
        base = FailingSource(parse_toy_spec(CAPTION_BASE), fail_at_step=1)
        guide = parse_toy_spec(CAPTION_GUIDE)
        job = DecodeJob(
            base_source=base,
            guide_source=guide,
            prompt=PromptInput(tokens=(0,)),
            sampler=GREEDY,
            max_new_tokens=8,
        )
        res = caption_then_answer(job)
        assert res.finish_reason == "error"
        assert all(tr.stage == "caption" for tr in res.traces)


class TestBench:
    def make_jobs(self, base, guide):
        def job(strategy):
            return DecodeJob(
                base_source=base,
                guide_source=guide,
                prompt=scene_prompt("scene_metal"),
                guidance=GuidanceConfig(strategy=strategy),
                sampler=GREEDY,
                stop_tokens=frozenset(),
                think_tag=(THINK,),
                max_new_tokens=4,
            )

        return {"none": job("none"), "stepwise": job("stepwise")}

    def test_requires_positive_repetitions(self, fusion_base, fusion_guide):
        with pytest.raises(ValueError):
            bench(self.make_jobs(fusion_base, fusion_guide), repetitions=0)

    def test_requires_plain_baseline_row(self, fusion_base, fusion_guide):
        jobs = self.make_jobs(fusion_base, fusion_guide)
        del jobs["none"]
        with pytest.raises(ValueError, match="baseline"):
            bench(jobs, repetitions=1)

    def test_baseline_row_ratio_is_exactly_one(self, fusion_base, fusion_guide):
        report = bench(self.make_jobs(fusion_base, fusion_guide), repetitions=2)
        assert report.baseline == "none"
        assert report.repetitions == 2
        by_name = {r.name: r for r in report.rows}
        assert by_name["none"].prefill_ratio == 1.0
        assert by_name["none"].step_ratio == 1.0
        assert by_name["stepwise"].strategy == "stepwise"
        table = report.format_table()
        assert "none" in table and "stepwise" in table

    def test_failing_job_surfaces_as_engine_error(self, fusion_base, fusion_guide):
        jobs = self.make_jobs(fusion_base, fusion_guide)
        jobs["stepwise"] = DecodeJob(
            base_source=FailingSource(fusion_base, fail_at_step=1),
            guide_source=fusion_guide,
            prompt=scene_prompt("scene_metal"),
            guidance=GuidanceConfig(strategy="stepwise"),
            sampler=GREEDY,
            stop_tokens=frozenset(),
            think_tag=(THINK,),
            max_new_tokens=4,
        )
        with pytest.raises(EngineError, match="stepwise"):
            bench(jobs, repetitions=1)
