import numpy as np
import pytest

from omniguide import (
    CapacityError,
    OmniPayload,
    PromptInput,
    SessionStateError,
    TokenRangeError,
    ToySpecError,
    Vocabulary,
    VocabularyMismatchError,
    build_toy_model,
    parse_toy_spec,
)
from omniguide.sources import require_compatible

from conftest import random_prompt, random_toy_model


class TestVocabulary:
    def test_fingerprint_stable_and_order_sensitive(self):
        a = Vocabulary.from_tokens(["x", "y", "z"])
        b = Vocabulary.from_tokens(["x", "y", "z"])
        c = Vocabulary.from_tokens(["y", "x", "z"])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert a.size == 3
        assert a.index_of("y") == 1
        with pytest.raises(KeyError):
            a.index_of("w")

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Vocabulary.from_tokens([])
        with pytest.raises(ValueError):
            Vocabulary.from_tokens(["a", "a"])

    def test_compatibility_reports_primary_cause(self):
        a = Vocabulary.from_tokens(["a", "b", "c"])
        same = Vocabulary.from_tokens(["a", "b", "c"])
        renamed = Vocabulary.from_tokens(["a", "b", "d"])
        shorter = Vocabulary.from_tokens(["a", "b"])
        require_compatible(a, same)
        with pytest.raises(VocabularyMismatchError) as exc_info:
            require_compatible(a, renamed)
        assert exc_info.value.mismatches == ("fingerprint",)
        with pytest.raises(VocabularyMismatchError) as exc_info:
            require_compatible(a, shorter)
        assert exc_info.value.mismatches == ("size",)

    def test_require_compatible_raises_with_mismatches(self):
        a = Vocabulary.from_tokens(["a", "b"])
        b = Vocabulary.from_tokens(["a", "c"])
        with pytest.raises(VocabularyMismatchError) as exc_info:
            require_compatible(a, b, context="unit")
        assert exc_info.value.mismatches == ("fingerprint",)


class TestToySpecParsing:
    def test_single_rule_readback(self):
        m = parse_toy_spec("@vocab Q X Y\nQ | X | 5\n")
        z = m.open(PromptInput(tokens=(0,))).logits()
        assert z[1] == 5.0 and z[0] == 0.0 and z[2] == 0.0

    def test_comments_and_blank_lines_ignored(self):
        m = parse_toy_spec("# header\n@vocab a b\n\na | b | 1 # trailing\n")
        z = m.open(PromptInput(tokens=(0,))).logits()
        assert z[1] == 1.0

    def test_context_limit_directive(self):
        m = parse_toy_spec("@vocab a b\n@context_limit 3\na | b | 1\n")
        assert m.context_limit == 3
        with pytest.raises(CapacityError):
            m.open(PromptInput(tokens=(0, 1, 0, 1)))

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("a | b | 1\n", "before @vocab"),
            ("@vocab a b\n@vocab a b\n", "duplicate @vocab"),
            ("@vocab a b\na | c | 1\n", "not in vocabulary"),
            ("@vocab a b\na | b | lots\n", "not a number"),
            ("@vocab a b\na | b\n", "expected"),
            ("@vocab a b\n@omni\n", "@omni"),
            ("@vocab a b\n@omni k\n@omni k\n", "duplicate @omni"),
            ("@vocab a b\n@context_limit zero\n", "@context_limit"),
            ("@vocab a b\n@frobnicate x\n", "unknown directive"),
            ("@vocab a a\n", "unique"),
            ("", "no @vocab"),
        ],
    )
    def test_malformed_specs_rejected(self, text, fragment):
        with pytest.raises(ToySpecError, match=fragment):
            parse_toy_spec(text)

    def test_build_from_path(self, tmp_path):
        p = tmp_path / "m.toy"
        p.write_text("@vocab a b\na | b | 2\n")
        m = build_toy_model(str(p))
        assert m.vocabulary.tokens == ("a", "b")


class TestToyEvaluation:
    def test_longest_suffix_wins(self):
        m = parse_toy_spec("@vocab a b c\nb | c | 1\na b | c | 9\n")
        z = m.open(PromptInput(tokens=(0, 1))).logits()
        assert z[2] == 9.0
        z = m.open(PromptInput(tokens=(2, 1))).logits()
        assert z[2] == 1.0

    def test_unmatched_context_gives_uniform_zero(self):
        m = parse_toy_spec("@vocab a b\na | b | 3\n")
        z = m.open(PromptInput(tokens=(1,))).logits()
        assert np.array_equal(z, np.zeros(2))

    def test_omni_override_selected_by_payload_key(self):
        m = parse_toy_spec("@vocab q x y\nq | x | 5\n@omni alt\nq | y | 7\n")
        z_plain = m.open(PromptInput(tokens=(0,))).logits()
        assert int(np.argmax(z_plain)) == 1
        payload = OmniPayload(data=b"alt trailing bytes")
        z_omni = m.open(PromptInput(tokens=(0,), payload=payload)).logits()
        assert int(np.argmax(z_omni)) == 2
        # Unknown key falls back to base rules.
        z_other = m.open(PromptInput(tokens=(0,), payload=OmniPayload(data=b"nope"))).logits()
        assert np.array_equal(z_other, z_plain)

    def test_omni_miss_falls_back_to_base_rules(self):
        m = parse_toy_spec("@vocab q r x y\nr | x | 2\n@omni alt\nq | y | 7\n")
        payload = OmniPayload(data=b"alt")
        z = m.open(PromptInput(tokens=(1,), payload=payload)).logits()
        assert z[2] == 2.0


class TestSessionContract:
    def test_empty_prompt_rejected(self):
        m = parse_toy_spec("@vocab a b\na | b | 1\n")
        with pytest.raises(ValueError):
            m.open(PromptInput(tokens=()))

    def test_out_of_range_tokens_rejected(self):
        m = parse_toy_spec("@vocab a b\na | b | 1\n")
        with pytest.raises(TokenRangeError):
            m.open(PromptInput(tokens=(2,)))
        sess = m.open(PromptInput(tokens=(0,)))
        with pytest.raises(TokenRangeError):
            sess.step(2)

    def test_step_past_context_limit_rejected(self):
        m = parse_toy_spec("@vocab a b\n@context_limit 2\na | b | 1\n")
        sess = m.open(PromptInput(tokens=(0, 1)))
        with pytest.raises(CapacityError):
            sess.step(0)

    def test_close_then_step_errors_and_double_close_ok(self):
        m = parse_toy_spec("@vocab a b\na | b | 1\n")
        sess = m.open(PromptInput(tokens=(0,)))
        sess.close()
        sess.close()  # idempotent
        with pytest.raises(SessionStateError):
            sess.step(0)
        with pytest.raises(SessionStateError):
            sess.logits()

    def test_step_counts_increment(self):
        m = parse_toy_spec("@vocab a b\na | b | 1\n")
        sess = m.open(PromptInput(tokens=(0,)))
        assert sess.context_length == 1
        sess.step(1)
        assert sess.context_length == 2

    def test_cache_consistency_random_prompts(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_toy_model(rng)
            v = m.vocabulary.size
            tokens = tuple(int(t) for t in rng.integers(0, v, size=64))
            sess = m.open(PromptInput(tokens=tokens[:1]))
            z = sess.logits()
            for k in range(1, len(tokens)):
                fresh_sess = m.open(PromptInput(tokens=tokens[:k]))
                fresh = fresh_sess.logits()
                fresh_sess.close()
                np.testing.assert_allclose(z, fresh, rtol=0, atol=1e-9)
                assert np.array_equal(z, fresh)
                z = sess.step(tokens[k])
            sess.close()

    def test_interleaved_sessions_match_solo_runs(self):
        rng = np.random.default_rng(11)
        m = random_toy_model(rng)
        v = m.vocabulary.size
        prompt_a = random_prompt(rng, v)
        prompt_b = random_prompt(rng, v)
        steps_a = [int(t) for t in rng.integers(0, v, size=8)]
        steps_b = [int(t) for t in rng.integers(0, v, size=8)]

        def run_solo(prompt, steps):
            sess = m.open(PromptInput(tokens=prompt))
            z = sess.logits()
            out = [z]
            for t in steps:
                out.append(sess.step(t))
            sess.close()
            return out

        solo_a = run_solo(prompt_a, steps_a)
        solo_b = run_solo(prompt_b, steps_b)

        sa = m.open(PromptInput(tokens=prompt_a))
        za = sa.logits()
        sb = m.open(PromptInput(tokens=prompt_b))
        zb = sb.logits()
        inter_a, inter_b = [za], [zb]
        for ta, tb in zip(steps_a, steps_b):
            inter_a.append(sa.step(ta))
            inter_b.append(sb.step(tb))
        sa.close()
        sb.close()

        for got, want in zip(inter_a, solo_a):
            assert np.array_equal(got, want)
        for got, want in zip(inter_b, solo_b):
            assert np.array_equal(got, want)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(13)
        spec_rng = np.random.default_rng(13)
        m1 = random_toy_model(spec_rng)
        m2 = random_toy_model(np.random.default_rng(13))
        prompt = random_prompt(rng, m1.vocabulary.size)
        payload = OmniPayload(data=b"blob pad")
        z1 = m1.open(PromptInput(tokens=prompt, payload=payload)).logits()
        z2 = m2.open(PromptInput(tokens=prompt, payload=payload)).logits()
        assert np.array_equal(z1, z2)
