import io
import json

import numpy as np
import pytest

from omniguide import (
    StepTrace,
    TraceHeader,
    alpha_histogram,
    extract_choice,
    read_traces,
    render_attribution,
    tabulate,
)
from omniguide.numerics import DIVERGENCE_LOG_BASE
from omniguide.report import N_BUCKETS, bucket_of, emit_traces


def make_trace(t, alpha_r=0.0, token="tok", **kwargs):
    defaults = dict(
        t=t,
        token_id=t - 1,
        token=token,
        alpha_r=alpha_r,
        alpha_p=1.0 - alpha_r,
        d_r=0.1,
        d_p=0.05,
        lat_base_ms=1.5,
        lat_neg_ms=1.25,
        lat_guide_ms=2.0,
    )
    defaults.update(kwargs)
    return StepTrace(**defaults)


HEADER = TraceHeader(
    config_fingerprint="abc123",
    seed=7,
    effective_config={"sampler": {"temperature": 0.6}},
)


class TestTracePersistence:
    def test_file_has_header_plus_one_record_per_step(self, tmp_path):
        traces = [make_trace(t) for t in range(1, 6)]
        path = tmp_path / "run.jsonl"
        emit_traces(traces, path, HEADER)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        head = json.loads(lines[0])
        assert head["config_fingerprint"] == "abc123"
        assert head["log_base"] == DIVERGENCE_LOG_BASE
        assert head["seed"] == 7
        assert head["effective_config"]["sampler"]["temperature"] == 0.6

    def test_header_carries_no_wall_clock(self, tmp_path):
        path = tmp_path / "run.jsonl"
        emit_traces([], path, HEADER)
        head = json.loads(path.read_text().splitlines()[0])
        for key in head:
            assert "time" not in key and "date" not in key

    def test_empty_generation_is_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        emit_traces([], path, HEADER)
        header, steps = read_traces(path)
        assert steps == []
        assert header == HEADER

    def test_round_trip_preserves_every_field(self, tmp_path):
        traces = [
            make_trace(1, alpha_r=0.25, stage="caption"),
            make_trace(2, alpha_r=1.0, token="<eos>"),
        ]
        path = tmp_path / "run.jsonl"
        emit_traces(traces, path, HEADER)
        header, got = read_traces(path)
        assert header == HEADER
        assert got == traces

    def test_accepts_result_like_objects_and_handles(self):
        class FakeResult:
            traces = [make_trace(1)]

        buf = io.StringIO()
        emit_traces(FakeResult(), buf, HEADER)
        buf.seek(0)
        header, steps = read_traces(buf)
        assert header == HEADER and len(steps) == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_traces(io.StringIO(""))

    def test_stage_field_omitted_when_unset(self, tmp_path):
        path = tmp_path / "run.jsonl"
        emit_traces([make_trace(1)], path, HEADER)
        rec = json.loads(path.read_text().splitlines()[1])
        assert "stage" not in rec
        assert set(rec) == {
            "t",
            "token_id",
            "token",
            "alpha_r",
            "alpha_p",
            "d_r",
            "d_p",
            "lat_base_ms",
            "lat_neg_ms",
            "lat_guide_ms",
            "engine_ms",
            "nucleus",
        }

    def test_unicode_tokens_round_trip(self, tmp_path):
        traces = [make_trace(1, token="3·10⁸")]
        path = tmp_path / "run.jsonl"
        emit_traces(traces, path, HEADER)
        _, got = read_traces(path)
        assert got[0].token == "3·10⁸"


class TestBuckets:
    def test_four_levels(self):
        assert N_BUCKETS >= 4

    def test_endpoints(self):
        assert bucket_of(0.0) == 0
        assert bucket_of(1.0) == N_BUCKETS - 1

    def test_monotone_nondecreasing(self):
        alphas = np.linspace(0, 1, 101)
        buckets = [bucket_of(a) for a in alphas]
        assert buckets == sorted(buckets)
        assert set(buckets) == set(range(N_BUCKETS))

    def test_out_of_range_clipped(self):
        assert bucket_of(-0.5) == 0
        assert bucket_of(1.5) == N_BUCKETS - 1


class TestAttributionRendering:
    def test_all_zero_weights_render_uniform_lightest(self):
        traces = [make_trace(t, alpha_r=0.0) for t in range(1, 5)]
        out = render_attribution(traces, fmt="terminal")
        # Only the lightest background appears in the token area (the legend
        # always shows every bucket).
        token_area = out.split("guide weight buckets")[0]
        assert "\x1b[48;5;255m" in token_area
        for code in (251, 245, 238):
            assert f"\x1b[48;5;{code}m" not in token_area

    def test_full_weight_token_renders_darkest(self):
        traces = [make_trace(1, alpha_r=0.0), make_trace(2, alpha_r=1.0)]
        out = render_attribution(traces, fmt="terminal")
        token_area = out.split("guide weight buckets")[0]
        assert "\x1b[48;5;238m" in token_area

    def test_monotone_weights_give_nondecreasing_buckets(self):
        traces = [make_trace(t, alpha_r=a) for t, a in enumerate([0.0, 0.3, 0.6, 1.0], 1)]
        out = render_attribution(traces, fmt="html")
        order = [out.index(bg) for bg in ("#eef2ff", "#c7d2fe", "#818cf8", "#4338ca")]
        assert order == sorted(order)

    def test_html_is_self_contained(self):
        traces = [make_trace(1, alpha_r=0.5, token="<tag>")]
        out = render_attribution(traces, fmt="html")
        assert out.startswith("<!doctype html>")
        assert "http://" not in out and "https://" not in out
        assert "src=" not in out
        # Markup-significant token text is escaped.
        assert "&lt;tag&gt;" in out

    def test_missing_token_strings_fall_back_with_warning(self):
        traces = [make_trace(1, token=None, token_id=42)]
        with pytest.warns(UserWarning, match="token ids"):
            out = render_attribution(traces, fmt="terminal")
        assert "[42]" in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_attribution([make_trace(1)], fmt="latex")


class TestAlphaHistogram:
    @pytest.mark.parametrize("bins", [1, 2, 7, 10, 1000])
    def test_counts_conserved(self, bins):
        rng = np.random.default_rng(5)
        traces = [make_trace(t, alpha_r=float(a)) for t, a in enumerate(rng.random(500), 1)]
        counts = alpha_histogram(traces, bins=bins)
        assert counts.sum() == 500
        assert len(counts) == bins

    def test_full_weight_lands_in_last_bin(self):
        counts = alpha_histogram([make_trace(1, alpha_r=1.0)], bins=10)
        assert counts[-1] == 1 and counts.sum() == 1

    def test_uniform_alphas_within_binomial_bound(self):
        n, bins = 10_000, 10
        rng = np.random.default_rng(12)
        traces = [make_trace(t, alpha_r=float(a)) for t, a in enumerate(rng.random(n), 1)]
        counts = alpha_histogram(traces, bins=bins)
        expected = n / bins
        sigma = np.sqrt(n * (1 / bins) * (1 - 1 / bins))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            alpha_histogram([], bins=0)

    def test_empty_traces_give_zero_counts(self):
        counts = alpha_histogram([], bins=4)
        assert counts.sum() == 0


class TestExtractChoice:
    CORPUS = [
        ("The answer is B.", ["A", "B", "C"], "B"),
        ("Therefore the answer is B.", ["A", "B", "C"], "B"),
        ("answer: C", ["A", "B", "C"], "C"),
        ("Answer is (A)", ["A", "B", "C"], "A"),
        ("I think A at first, but the answer is C.", ["A", "B", "C"], "C"),
        ("The object B would float. Final answer: A", ["A", "B"], "A"),
        ("It must be B", ["A", "B", "C"], "B"),
        ("A then B", ["A", "B"], "B"),
        ("it sinks because metal is dense", ["A", "B"], None),
        ("completely unrelated text", ["A", "B", "C"], None),
        ("the ANSWER IS b", ["A", "B"], "B"),
        ("slab", ["A", "B"], None),
    ]

    @pytest.mark.parametrize("text, options, want", CORPUS)
    def test_corpus(self, text, options, want):
        assert extract_choice(text, options) == want

    def test_option_text_tier_fires_only_when_unique(self):
        options = {"A": "it sinks", "B": "it floats"}
        assert extract_choice("so i believe it sinks now", options) == "A"
        assert extract_choice("it sinks or it floats, who knows", options) is None

    def test_label_tier_beats_option_text_tier(self):
        options = {"A": "it sinks", "B": "it floats"}
        assert extract_choice("it floats... no wait, A", options) == "A"

    def test_marker_tier_beats_label_tier(self):
        assert extract_choice("B B B but the answer is A", ["A", "B"]) == "A"

    def test_word_answers_supported(self):
        assert extract_choice("the answer is sinks", ["sinks", "floats"]) == "sinks"
        assert extract_choice("metal sinks <eos>", ["sinks", "floats"]) == "sinks"

    def test_empty_or_duplicate_options_rejected(self):
        with pytest.raises(ValueError):
            extract_choice("text", [])
        with pytest.raises(ValueError):
            extract_choice("text", ["A", "A"])

    def test_never_raises_on_weird_text(self):
        for text in ["", "\x00\x01", "((((", "answer is", "🤖 " * 50]:
            extract_choice(text, ["A", "B"])


class TestTabulate:
    def test_single_split_accuracy(self):
        acc = tabulate(["A", "B", None, "A"], ["A", "B", "A", "B"])
        assert acc == {"overall": 0.5}

    def test_none_counts_as_wrong(self):
        acc = tabulate([None, None], ["A", "B"])
        assert acc == {"overall": 0.0}

    def test_per_split_breakdown(self):
        acc = tabulate(
            ["A", "B", "A", "B"],
            ["A", "A", "A", "B"],
            split=["easy", "easy", "hard", "hard"],
        )
        assert acc == {"easy": 0.5, "hard": 1.0}

    def test_empty_inputs_give_empty_table(self):
        assert tabulate([], []) == {}

    def test_length_mismatches_rejected(self):
        with pytest.raises(ValueError):
            tabulate(["A"], ["A", "B"])
        with pytest.raises(ValueError):
            tabulate(["A"], ["A"], split=["x", "y"])
