"""Differential test: the engine against the benchmark's reference decoder.

``perfbench/oracle.py`` recomputes a decode's tokens from the paper's
formulas (fusion, JS-adaptive weight, penalty, temperature, top-p, one
seeded draw) without importing the engine. It is loaded here by path and
only read. Each example decodes one generated job both ways and asserts the
same tokens and, for ``stepwise``, each step's alpha_r within 1e-12.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniguide import (
    STRATEGIES,
    DecodeJob,
    GuidanceConfig,
    OmniPayload,
    PromptInput,
    SamplerConfig,
    decode,
    mix,
    sample_token,
)

from conftest import REPO_ROOT, RowModel

_spec = importlib.util.spec_from_file_location("reference_oracle", REPO_ROOT / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# The oracle ranks a head of this many tokens by argpartition, without a tie
# guard at its edge (see test_oracle_tie_defect_at_head_edge).
ORACLE_HEAD = 4096
NEW_TOKENS = 4


@st.composite
def jobs(draw):
    size = draw(st.one_of(st.integers(2, 64), st.integers(65, ORACLE_HEAD), st.integers(ORACLE_HEAD + 1, 20_000)))
    # Exact tie runs stay within the oracle's head, where it ranks every token.
    kinds = ["peaked", "underflow", "flat"] + (["ties"] if size <= ORACLE_HEAD else [])
    return dict(
        strategy=draw(st.sampled_from(sorted(STRATEGIES))),
        size=size,
        kinds=draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3, unique=True)),
        # Two different models: with one seed, guide rows can equal neg rows
        # (see test_oracle_contrast_order_when_guide_equals_neg).
        seeds=draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=2, unique=True)),
        prompt=draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)),
        greedy=draw(st.booleans()),
        temperature=draw(st.sampled_from([0.6, 1.0, 1.7])),
        top_p=draw(st.sampled_from([0.95, 0.5, 1.0, 1e-9])),
        penalty=draw(st.sampled_from([1.03, 1.0])),
        sampler_seed=draw(st.integers(0, 2**31)),
    )


@given(jobs())
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference_decoder(case):
    base = RowModel(case["seeds"][0], case["size"], case["kinds"])
    guide = RowModel(case["seeds"][1], case["size"], case["kinds"])
    prompt = tuple(case["prompt"])
    key, think = "scene7", (case["size"] - 1,)
    job = DecodeJob(
        base_source=base,
        guide_source=guide,
        prompt=PromptInput(prompt, OmniPayload(key.encode() + b" payload")),
        guidance=GuidanceConfig(strategy=case["strategy"]),
        sampler=SamplerConfig(
            temperature=case["temperature"],
            top_p=case["top_p"],
            repetition_penalty=case["penalty"],
            mode="greedy" if case["greedy"] else "sample",
            seed=case["sampler_seed"],
        ),
        max_new_tokens=NEW_TOKENS,
        think_tag=think,
    )
    res = decode(job)
    assert res.finish_reason == "length_limit", res.error
    expected = oracle.reference(
        case["strategy"], base, guide, prompt, key, think,
        max_new_tokens=NEW_TOKENS, greedy=case["greedy"], seed=case["sampler_seed"],
        temperature=case["temperature"], top_p=case["top_p"], penalty=case["penalty"],
    )
    assert res.tokens == expected
    if case["strategy"] == "stepwise":
        for t, tr in enumerate(res.traces, start=1):
            done = list(res.tokens[: t - 1])
            ctx = list(prompt) + done
            a = oracle.alpha_r(
                base.logits_for(ctx, key),
                guide.logits_for(list(prompt) + list(think) + done, None),
                base.logits_for(ctx, None),
                t,
            )
            assert abs(tr.alpha_r - a) <= 1e-12


@pytest.mark.xfail(strict=True, reason="oracle.pick has no tie guard at its head's edge (FOUND in CHANGES.md)")
def test_oracle_tie_defect_at_head_edge():
    """The FOUND row in CHANGES.md: 4,000 equal high and 2,000 equal low logits.

    The nucleus cut falls inside the run of low ties, which crosses the edge
    of the oracle's 4,096-token head. The oracle keeps whichever tied ids
    argpartition put in its head; the engine keeps the lowest ids, as a full
    stable sort does, so the seeded draws differ. The oracle is the side at
    fault and is mended with the next change to the benchmark.
    """
    z = np.zeros(6000)
    z[np.random.default_rng(0).permutation(6000)[:4000]] = 1.0
    cfg = SamplerConfig(temperature=1.0, top_p=0.8485, repetition_penalty=1.0)
    agree = sum(
        sample_token(z, [], cfg, np.random.default_rng(s))
        == oracle.pick(z, [], temperature=1.0, top_p=0.8485, penalty=1.0, greedy=False,
                       rng=np.random.default_rng(s))
        for s in range(300)
    )
    assert agree == 300


@pytest.mark.xfail(strict=True, reason="oracle.fuse sums fixed contrasts in another order (FOUND in CHANGES.md)")
def test_oracle_contrast_order_when_guide_equals_neg():
    """Guide rows equal to neg rows, under base logits that tie exactly.

    README sums each strategy as c_b * z_base + c_g * z_guide + c_n * z_neg,
    in that order, so lrm_guide_fixed is (z_b + z_g) - z_n, which leaves a
    last-bit residue that breaks base's tie. The oracle computes
    z_b + (z_g - z_n), where the contrast cancels exactly and the tie goes
    to the lower id. It is the side that departs from README's order.
    """
    zb = np.array([3.0, 3.0])
    zg = np.array([1.6265404784005448, 1.8255111545554434])
    engine = sample_token(mix((1.0, 1.0, -1.0), (zb, zg, zg)), [], SamplerConfig(mode="greedy"))
    reference = oracle.pick(
        oracle.fuse("lrm_guide_fixed", {"base": zb, "guide": zg, "neg": zg}, 1), [],
        temperature=0.6, top_p=0.95, penalty=1.03, greedy=True, rng=None,
    )
    assert engine == reference
