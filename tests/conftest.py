"""Shared fixtures: the fusion testbed tables, random toy-model factories and a
generated-row source of any vocabulary size."""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np
import pytest

from omniguide import OmniPayload, PromptInput, ToyModel, Vocabulary, parse_toy_spec

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"

# The demo testbed, also shipped under configs/. Vocabulary:
#   0 what  1 metal  2 plastic  3 sinks  4 floats  5 <eos>  6 <think>
FUSION_BASE_SPEC = (CONFIG_DIR / "fusion_base.toy").read_text()
FUSION_GUIDE_SPEC = (CONFIG_DIR / "fusion_guide.toy").read_text()

WHAT, METAL, PLASTIC, SINKS, FLOATS, EOS, THINK = range(7)


@pytest.fixture()
def fusion_base() -> ToyModel:
    return parse_toy_spec(FUSION_BASE_SPEC, name="fusion-base")


@pytest.fixture()
def fusion_guide() -> ToyModel:
    return parse_toy_spec(FUSION_GUIDE_SPEC, name="fusion-guide")


def scene_payload(key: str, pad: int = 64) -> OmniPayload:
    return OmniPayload(data=key.encode() + b" " + bytes(pad))


def scene_prompt(key: str | None = None) -> PromptInput:
    payload = scene_payload(key) if key else None
    return PromptInput(tokens=(WHAT,), payload=payload)


def random_dist(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def random_toy_spec(rng: np.random.Generator, vocab_size: int = 8) -> str:
    """A random but well-formed toy model over tokens t0..t{V-1}.

    Rules cover a sample of 1- and 2-token contexts with two scored
    continuations each, plus one omni table, so random decodes exercise
    both matched and fallback (uniform-zero) contexts.
    """
    tokens = [f"t{i}" for i in range(vocab_size)]
    lines = [f"@vocab {' '.join(tokens)}", "@context_limit 128"]
    n_rules = int(rng.integers(4, 10))
    for _ in range(n_rules):
        ctx_len = int(rng.integers(1, 3))
        ctx = " ".join(rng.choice(tokens, size=ctx_len))
        for tok in rng.choice(tokens, size=2, replace=False):
            score = float(rng.uniform(-3.0, 3.0))
            lines.append(f"{ctx} | {tok} | {score:.6f}")
    lines.append("@omni blob")
    ctx = str(rng.choice(tokens))
    tok = str(rng.choice(tokens))
    lines.append(f"{ctx} | {tok} | {float(rng.uniform(0.5, 4.0)):.6f}")
    return "\n".join(lines) + "\n"


def random_toy_model(rng: np.random.Generator, vocab_size: int = 8) -> ToyModel:
    return parse_toy_spec(random_toy_spec(rng, vocab_size))


def random_prompt(rng: np.random.Generator, vocab_size: int, max_len: int = 6) -> tuple[int, ...]:
    length = int(rng.integers(1, max_len + 1))
    return tuple(int(t) for t in rng.integers(0, vocab_size, size=length))


class RowModel:
    """An in-process source of any vocabulary size with generated rows.

    Logits are a pure function of (seed, the last two context tokens, the
    session's payload key), so ``logits_for(context, key)`` doubles as the
    reference decoder's model interface. One row kind is picked per
    context from ``kinds``:

    - "peaked": N(0, 1) plus eight peaks 9 nats up;
    - "ties": integers 0 to 3, so long runs of exactly tied entries;
    - "underflow": most entries 1,000 nats down, so their probabilities
      are exactly 0;
    - "flat": N(0, 0.01), so the nucleus holds most of the vocabulary.
    """

    def __init__(self, seed: int, size: int, kinds=("peaked",)) -> None:
        self.seed = seed
        self.name = f"rows-{seed}"
        self.kinds = tuple(kinds)
        self.vocabulary = Vocabulary.from_tokens([f"t{i}" for i in range(size)])
        self.context_limit = 1024

    def logits_for(self, context, key: str | None) -> np.ndarray:
        code = 0 if key is None else 1 + zlib.crc32(key.encode())
        rng = np.random.default_rng([self.seed, code, *(int(t) for t in context[-2:])])
        size = self.vocabulary.size
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        if kind == "ties":
            return rng.integers(0, 4, size=size).astype(np.float64)
        if kind == "underflow":
            z = np.full(size, -1000.0)
            live = rng.random(size) < 0.3
            live[rng.integers(size)] = True
            z[live] = rng.normal(0.0, 3.0, size=int(live.sum()))
            return z
        if kind == "flat":
            return rng.normal(0.0, 0.01, size=size)
        z = rng.normal(0.0, 1.0, size=size)
        z[rng.integers(0, size, size=8)] += 9.0
        return z

    def open(self, prompt: PromptInput) -> "RowSession":
        key = prompt.payload.key if prompt.payload is not None else None
        return RowSession(self, list(prompt.tokens), key)


class RowSession:
    def __init__(self, model: RowModel, context: list, key: str | None) -> None:
        self.model, self.context, self.key = model, context, key

    @property
    def context_length(self) -> int:
        return len(self.context)

    def logits(self) -> np.ndarray:
        return self.model.logits_for(self.context, self.key)

    def step(self, token_id: int) -> np.ndarray:
        self.context.append(int(token_id))
        return self.logits()

    def close(self) -> None:
        pass
