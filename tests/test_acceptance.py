"""Acceptance gate: one test per release criterion, each printing a verdict line.

These are end-to-end checks at fixed tolerances; the unit suites cover the
same ground in finer grain. Run with `pytest tests/test_acceptance.py -v`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from scipy.special import rel_entr

from omniguide import (
    LN2,
    DecodeJob,
    GuidanceConfig,
    LatencyModel,
    OmniPayload,
    PromptInput,
    RemoteSource,
    SamplerConfig,
    bench,
    decode,
    extract_choice,
    js_divergence,
    load_config,
    parse_toy_spec,
    read_traces,
    serve,
    stepwise_mix,
)
from omniguide.cli import main as cli_main

from conftest import (
    CONFIG_DIR,
    EOS,
    FUSION_BASE_SPEC,
    FUSION_GUIDE_SPEC,
    THINK,
    WHAT,
    random_dist,
    random_prompt,
    random_toy_model,
    scene_prompt,
)


@contextmanager
def criterion(capsys, number: int, label: str):
    """Print one PASS/FAIL line per criterion on the real terminal."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] FAIL criterion {number}: {label}")
        raise
    with capsys.disabled():
        print(f"[acceptance] PASS criterion {number}: {label}")


def test_criterion_1_closed_form_equivalence(capsys):
    with criterion(capsys, 1, "closed-form mix equals the two-contrast expansion"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            size = int(rng.integers(2, 33))
            z_base, z_guide, z_neg = rng.normal(0, 5, size=(3, size))
            alpha_r = float(rng.uniform(0.0, 1.0))
            fused = stepwise_mix(z_base, z_guide, z_neg, alpha_r)
            expansion = (
                z_base
                + alpha_r * (z_guide - z_neg)
                + (1.0 - alpha_r) * (z_base - z_neg)
            )
            worst = max(worst, float(np.max(np.abs(fused - expansion))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"max deviation {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_divergence_suite(capsys):
    def naive_js(p: np.ndarray, q: np.ndarray) -> float:
        m = 0.5 * (p + q)
        return float(0.5 * rel_entr(p, m).sum() + 0.5 * rel_entr(q, m).sum())

    with criterion(capsys, 2, "divergence symmetry, bounds, and oracle agreement"):
        rng = np.random.default_rng(202)
        plan = [(2, 4000), (10, 4000), (1000, 2000)]
        for size, pairs in plan:
            for _ in range(pairs):
                p = random_dist(rng, size)
                q = random_dist(rng, size)
                forward = js_divergence(p, q)
                backward = js_divergence(q, p)
                assert abs(forward - backward) <= 1e-12
                assert -0.0 <= forward <= LN2 + 1e-12
                assert js_divergence(p, p) <= 1e-12
                assert abs(forward - naive_js(p, q)) <= 1e-10


def test_criterion_3_weight_contract(capsys):
    with criterion(capsys, 3, "adaptive weights stay in contract across decodes"):
        rng = np.random.default_rng(303)
        checked = 0
        job_seed = 0
        while checked < 1000:
            job_seed += 1
            base = random_toy_model(rng)
            guide = random_toy_model(rng)
            payload = OmniPayload(b"blob " + bytes(8)) if job_seed % 2 else None
            prompt = PromptInput(tokens=random_prompt(rng, 8), payload=payload)
            job = DecodeJob(
                base_source=base,
                guide_source=guide,
                prompt=prompt,
                guidance=GuidanceConfig(strategy="stepwise"),
                sampler=SamplerConfig(mode="sample", seed=job_seed, temperature=1.5),
                max_new_tokens=12,
            )
            result = decode(job)
            assert result.finish_reason == "length_limit"
            for trace in result.traces:
                assert 0.0 <= trace.alpha_r <= 1.0
                assert abs(trace.alpha_r + trace.alpha_p - 1.0) <= 1e-12
                if trace.t <= 5:
                    assert trace.alpha_r <= 0.1 * trace.t
                checked += 1
        assert checked >= 1000


def test_criterion_4_zero_strength_guide_degenerates(capsys):
    with criterion(capsys, 4, "guided decode at zero strength matches base-only"):
        rng = np.random.default_rng(404)
        greedy = SamplerConfig(mode="greedy")
        for _ in range(100):
            base = random_toy_model(rng)
            guide = random_toy_model(rng)
            prompt = PromptInput(tokens=random_prompt(rng, 8))
            plain = decode(
                DecodeJob(
                    base_source=base,
                    prompt=prompt,
                    guidance=GuidanceConfig(strategy="none"),
                    sampler=greedy,
                    max_new_tokens=8,
                )
            )
            guided = decode(
                DecodeJob(
                    base_source=base,
                    guide_source=guide,
                    prompt=prompt,
                    guidance=GuidanceConfig(strategy="lrm_guide_fixed", alpha=0.0),
                    sampler=greedy,
                    max_new_tokens=8,
                )
            )
            assert guided.tokens == plain.tokens


def test_criterion_5_fusion_testbed(capsys):
    with criterion(capsys, 5, "adaptive fusion solves what neither branch solves alone"):
        base = parse_toy_spec(FUSION_BASE_SPEC, name="base")
        guide = parse_toy_spec(FUSION_GUIDE_SPEC, name="guide")
        greedy = SamplerConfig(mode="greedy")
        cases = [("scene_metal", "sinks"), ("scene_plastic", "floats")]
        options = ["sinks", "floats"]

        def run(job: DecodeJob) -> str:
            result = decode(job)
            assert result.finish_reason == "stop_token"
            return result.text

        scores = {"stepwise": 0, "base_only": 0, "guide_only": 0}
        expected_fused = {
            "scene_metal": "metal sinks <eos>",
            "scene_plastic": "plastic floats <eos>",
        }
        for key, gold in cases:
            fused_text = run(
                DecodeJob(
                    base_source=base,
                    guide_source=guide,
                    prompt=scene_prompt(key),
                    guidance=GuidanceConfig(strategy="stepwise"),
                    sampler=greedy,
                    stop_tokens=frozenset({EOS}),
                    think_tag=(THINK,),
                )
            )
            assert fused_text == expected_fused[key]
            base_text = run(
                DecodeJob(
                    base_source=base,
                    prompt=scene_prompt(key),
                    guidance=GuidanceConfig(strategy="none"),
                    sampler=greedy,
                    stop_tokens=frozenset({EOS}),
                )
            )
            guide_text = run(
                DecodeJob(
                    base_source=guide,
                    prompt=PromptInput(tokens=(WHAT, THINK)),
                    guidance=GuidanceConfig(strategy="none"),
                    sampler=greedy,
                    stop_tokens=frozenset({EOS}),
                )
            )
            for name, text in [
                ("stepwise", fused_text),
                ("base_only", base_text),
                ("guide_only", guide_text),
            ]:
                if extract_choice(text, options) == gold:
                    scores[name] += 1

        assert scores["stepwise"] == len(cases)
        assert scores["base_only"] < len(cases)
        assert scores["guide_only"] < len(cases)


def test_criterion_6_latency_structure(capsys):
    with criterion(
        capsys, 6, "text-only guide prefills cheaper than duplicated payload; step ratio near 3x"
    ):
        base_model = parse_toy_spec(FUSION_BASE_SPEC, name="base")
        guide_model = parse_toy_spec(FUSION_GUIDE_SPEC, name="guide")
        latency = LatencyModel(
            per_token_prefill=0.0003, per_step=0.020, omni_payload_factor=0.00008
        )
        accelerator = threading.Lock()
        payload = OmniPayload(b"scene_metal " + bytes(256 * 1024))
        greedy = SamplerConfig(mode="greedy")

        with serve(base_model, latency=latency, compute_lock=accelerator) as base_srv:
            with serve(guide_model, latency=latency, compute_lock=accelerator) as guide_srv:
                base = RemoteSource(base_srv.endpoint)
                guide = RemoteSource(guide_srv.endpoint)
                prompt = PromptInput(tokens=(WHAT,), payload=payload)
                jobs = {
                    "none": DecodeJob(
                        base_source=base,
                        prompt=prompt,
                        guidance=GuidanceConfig(strategy="none"),
                        sampler=greedy,
                        stop_tokens=frozenset({EOS}),
                        max_new_tokens=4,
                    ),
                    "stepwise": DecodeJob(
                        base_source=base,
                        guide_source=guide,
                        prompt=prompt,
                        guidance=GuidanceConfig(strategy="stepwise"),
                        sampler=greedy,
                        stop_tokens=frozenset({EOS}),
                        think_tag=(THINK,),
                        max_new_tokens=4,
                    ),
                    "dup_omni": DecodeJob(
                        base_source=base,
                        prompt=prompt,
                        guidance=GuidanceConfig(strategy="vcd_ablation"),
                        sampler=greedy,
                        stop_tokens=frozenset({EOS}),
                        neg_payload=payload,
                        max_new_tokens=4,
                    ),
                }
                report = bench(jobs, repetitions=2)

        rows = {row.name: row for row in report.rows}
        assert rows["stepwise"].prefill_ratio < rows["dup_omni"].prefill_ratio
        step_ratio = rows["stepwise"].step_ratio
        assert 2.0 <= step_ratio <= 3.5
        # One accelerator, three serialized branches, step cost dominated by
        # the configured per-step latency: expected ratio 3.0.
        assert abs(step_ratio - 3.0) <= 0.3


def test_criterion_7_cache_consistency(capsys):
    with criterion(capsys, 7, "incremental stepping equals fresh prefill, local and remote"):
        rng = np.random.default_rng(707)
        for _ in range(10):
            model = random_toy_model(rng)
            tokens = random_prompt(rng, 8, max_len=64)
            payload = OmniPayload(b"blob " + bytes(4)) if rng.integers(2) else None
            key = payload.key if payload else None
            session = model.open(PromptInput(tokens=tokens[:1], payload=payload))
            logits = session.logits()
            for pos in range(1, len(tokens) + 1):
                fresh = model.logits_for(tokens[:pos], key)
                assert np.max(np.abs(logits - fresh)) <= 1e-9
                if pos < len(tokens):
                    logits = session.step(tokens[pos])
            session.close()

        model = random_toy_model(np.random.default_rng(708))
        with serve(model) as srv:
            client = RemoteSource(srv.endpoint)
            for _ in range(3):
                tokens = random_prompt(rng, 8, max_len=12)
                incremental = []
                session = client.open(PromptInput(tokens=tokens[:1]))
                incremental.append(session.logits())
                for tok in tokens[1:]:
                    incremental.append(session.step(tok))
                session.close()
                for pos in range(1, len(tokens) + 1):
                    fresh_session = client.open(PromptInput(tokens=tokens[:pos]))
                    assert np.array_equal(fresh_session.logits(), incremental[pos - 1])
                    fresh_session.close()


def test_criterion_8_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "identical config and seed reproduce outputs exactly"):
        cfg = {
            "sources": {
                "base": {"toy_spec": str(CONFIG_DIR / "fusion_base.toy")},
                "guide": {"toy_spec": str(CONFIG_DIR / "fusion_guide.toy")},
            },
            "prompt": {
                "text": "what",
                "omni": {"key": "scene_metal", "pad_bytes": 64},
                "think_tag": "<think>",
                "stop": ["<eos>"],
            },
            "sampler": {"mode": "sample", "seed": 17, "temperature": 1.3},
            "decode": {"max_new_tokens": 10},
            "output": {
                "text": str(tmp_path / "out.txt"),
                "trace": str(tmp_path / "out.jsonl"),
            },
        }
        cfg_path = tmp_path / "job.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))

        outputs = []
        for _ in range(2):
            rc = cli_main(["decode", "--config", str(cfg_path)])
            assert rc == 0
            header, steps = read_traces(tmp_path / "out.jsonl")
            outputs.append(((tmp_path / "out.txt").read_bytes(), header, steps))

        (text_a, header_a, steps_a), (text_b, header_b, steps_b) = outputs
        assert text_a == text_b
        assert header_a.config_fingerprint == header_b.config_fingerprint
        assert header_a.seed == header_b.seed
        assert len(steps_a) == len(steps_b)
        timing_fields = {"lat_base_ms", "lat_neg_ms", "lat_guide_ms", "engine_ms"}
        for left, right in zip(steps_a, steps_b):
            rec_l = {k: v for k, v in left.to_record().items() if k not in timing_fields}
            rec_r = {k: v for k, v in right.to_record().items() if k not in timing_fields}
            assert rec_l == rec_r


def test_criterion_9_sampler_defaults_echoed(capsys, tmp_path):
    with criterion(capsys, 9, "factory sampler defaults appear in the effective echo"):
        cfg = {
            "sources": {"base": {"toy_spec": str(CONFIG_DIR / "fusion_base.toy")}},
            "prompt": {"text": "what", "stop": ["<eos>"]},
        }
        cfg_path = tmp_path / "minimal.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))

        effective = load_config(str(cfg_path), env={}).effective
        trace_path = tmp_path / "echo.jsonl"
        cli_main(["decode", "--config", str(cfg_path), "--trace-out", str(trace_path)])
        header, _ = read_traces(trace_path)

        for echo in (effective, header.effective_config):
            assert echo["sampler"]["temperature"] == 0.6
            assert echo["sampler"]["top_p"] == 0.95
            assert echo["sampler"]["repetition_penalty"] == 1.03
            assert echo["decode"]["max_new_tokens"] == 4096
