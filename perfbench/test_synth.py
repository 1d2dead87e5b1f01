"""Checks of the benchmark's own parts: the synthetic source and the oracle.

    python3 -m pytest perfbench/test_synth.py -q

Run from the root of a checkout; the engine is imported from ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from omniguide import (  # noqa: E402
    DecodeJob,
    GuidanceConfig,
    LatencyModel,
    OmniPayload,
    PromptInput,
    RemoteSource,
    SamplerConfig,
    SessionStateError,
    TokenRangeError,
    decode,
    serve,
)
from synth import THINK_TOKEN, VOCAB_SIZE, SynthModel, synth_vocabulary  # noqa: E402


@pytest.fixture(scope="module")
def vocab():
    return synth_vocabulary()


@pytest.fixture(scope="module")
def models(vocab):
    return SynthModel(11, vocabulary=vocab), SynthModel(23, vocabulary=vocab)


def payload(key: str, size: int = 4096) -> OmniPayload:
    return OmniPayload(key.encode() + b" " + np.random.default_rng(0).bytes(size))


def test_logits_are_a_function_of_seed_suffix_and_key(vocab, models):
    base, guide = models
    again = SynthModel(11, vocabulary=vocab)
    ctx = [5, 17, 99, 1234, 150_000]
    z = base.logits_for(ctx, "scene1")
    assert z.shape == (VOCAB_SIZE,) and z.dtype == np.float64
    np.testing.assert_array_equal(z, again.logits_for(ctx, "scene1"))
    # Only the last four tokens matter.
    np.testing.assert_array_equal(z, base.logits_for([7] + ctx, "scene1"))
    assert not np.array_equal(base.logits_for(ctx, None), guide.logits_for(ctx, None))
    # The returned array is the caller's: changing it changes no later call.
    z[:] = 0.0
    np.testing.assert_array_equal(base.logits_for(ctx, "scene1"), again.logits_for(ctx, "scene1"))


def test_payload_changes_some_steps_only(models):
    base, _ = models
    rng = np.random.default_rng(1)
    differs = [
        not np.array_equal(base.logits_for(ctx, "scene1"), base.logits_for(ctx, None))
        for ctx in (list(rng.integers(0, VOCAB_SIZE, 4)) for _ in range(200))
    ]
    assert 0.15 < np.mean(differs) < 0.6


def test_session_contract(models):
    base, _ = models
    s = base.open(PromptInput((1, 2, 3), payload("scene4")))
    assert s.context_length == 3
    np.testing.assert_array_equal(s.logits(), base.logits_for([1, 2, 3], "scene4"))
    np.testing.assert_array_equal(s.step(9), base.logits_for([1, 2, 3, 9], "scene4"))
    assert s.context_length == 4
    with pytest.raises(TokenRangeError):
        s.step(VOCAB_SIZE)
    assert s.context_length == 4
    s.close()
    s.close()
    for use in (s.logits, lambda: s.step(1)):
        with pytest.raises(SessionStateError):
            use()


def _job(base, guide, seed: int, n: int = 6) -> tuple[DecodeJob, tuple]:
    rng = np.random.default_rng(seed)
    prompt = tuple(int(t) for t in rng.integers(0, VOCAB_SIZE - 1, 40))
    job = DecodeJob(
        base_source=base,
        guide_source=guide,
        prompt=PromptInput(prompt, payload(f"scene{seed}")),
        guidance=GuidanceConfig(strategy="stepwise"),
        sampler=SamplerConfig(seed=seed),
        max_new_tokens=n,
        think_tag=(THINK_TOKEN,),
    )
    return job, prompt


def test_oracle_matches_engine_in_process(models):
    base, guide = models
    for seed in (1, 2):
        job, prompt = _job(base, guide, seed)
        result = decode(job)
        ref = oracle.reference(
            "stepwise", base, guide, prompt, f"scene{seed}", (THINK_TOKEN,),
            max_new_tokens=6, greedy=False, seed=seed,
        )
        assert result.tokens == ref
        assert any(t.alpha_r > 0 for t in result.traces)


def test_served_model_gives_the_same_tokens(models):
    base, guide = models
    servers = [serve(m, LatencyModel()) for m in models]
    try:
        remote = [RemoteSource(s.endpoint) for s in servers]
        job, _ = _job(*remote, seed=3, n=3)
        local, _ = _job(base, guide, seed=3, n=3)
        assert decode(job).tokens == decode(local).tokens
        assert all(s.live_sessions == 0 for s in servers)
    finally:
        for s in servers:
            s.stop()


# The repository README's ``compare`` table, for the scene_metal key.
README_METAL_ANSWERS = {
    "none": "metal floats <eos>",
    "vcd_ablation": "metal floats <eos>",
    "average_fusion": "metal sinks <eos>",
    "lrm_guide_fixed": "metal sinks <eos>",
    "stepwise": "metal sinks <eos>",
}


def test_toy_oracle_matches_engine_and_readme():
    from omniguide import build_toy_model

    configs = HERE.parent / "configs"
    engine = [build_toy_model(str(configs / f"fusion_{m}.toy")) for m in ("base", "guide")]
    tables = [oracle.ToyTable((configs / f"fusion_{m}.toy").read_text()) for m in ("base", "guide")]
    v = engine[0].vocabulary
    what, eos, think = v.index_of("what"), v.index_of("<eos>"), v.index_of("<think>")
    rows = (HERE.parent / "README.md").read_text().splitlines()
    for strategy, text in README_METAL_ANSWERS.items():
        assert any(r.split()[:1] == [strategy] and r.endswith(text) for r in rows), strategy
    for strategy in README_METAL_ANSWERS:
        for key in ("scene_metal", "scene_plastic"):
            job = DecodeJob(
                base_source=engine[0],
                guide_source=engine[1],
                prompt=PromptInput((what,), OmniPayload(key.encode() + b" " + bytes(2048))),
                guidance=GuidanceConfig(strategy=strategy),
                sampler=SamplerConfig(mode="greedy"),
                max_new_tokens=16,
                stop_tokens=frozenset({eos}),
                think_tag=(think,),
            )
            ref = oracle.reference(
                strategy, *tables, (what,), key, (think,),
                max_new_tokens=16, stop=frozenset({eos}), greedy=True,
            )
            assert decode(job).tokens == ref, (strategy, key)
            if key == "scene_metal":
                assert " ".join(tables[0].tokens[t] for t in ref) == README_METAL_ANSWERS[strategy]
