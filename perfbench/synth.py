"""A deterministic synthetic logit source at a real omni-model vocabulary size.

``SynthModel`` stands in for a ~152k-token backbone or reasoner that cannot
be downloaded offline. Its logits are a pure function of (model seed,
context suffix, payload key):

- a background row, picked from a small per-model bank of N(0, 1) rows;
- "common" peaks, seeded by the context suffix alone, so two models with
  different seeds can agree on a step;
- "own" peaks, seeded by (model seed, suffix) and blended against the
  common peaks with a per-step weight, so models agree on some steps and
  disagree on others;
- with a payload, on about a third of the steps, "payload" peaks seeded by
  (model seed, suffix, payload key): the perception steps on which the
  omni-conditioned branch departs from the text-only one.

The peaks sit 9 to 14 nats above the background, so after temperature 0.6
the top-p 0.95 nucleus holds tens to hundreds of tokens, and the guidance
weight alpha_r lands anywhere in [0, ln 2].

It implements the engine's ``LogitSource``/``Session`` protocol, works in
process and behind ``ModelServer``, and belongs to the benchmark: no
change to the engine may claim a gain from it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from omniguide import CapacityError, PromptInput, SessionStateError, TokenRangeError, Vocabulary

VOCAB_SIZE = 152_064
THINK_TOKEN = VOCAB_SIZE - 1
CONTEXT_LIMIT = 8192
SUFFIX = 4
BANK_ROWS = 8
PEAK_SETS = 256
PEAK_HEIGHT = 14.0
COMMON_SEED = 0x5EED
PAYLOAD_STEP_SHARE = 0.35


def _digest(*parts: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(p)
    return int.from_bytes(h.digest(), "little")


def _peak_bank(seed: int, vocab_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """PEAK_SETS (ids, log-weight) sets of 8 to 320 peaks each."""
    rng = np.random.default_rng([seed, 1])
    bank = []
    for _ in range(PEAK_SETS):
        n = int(rng.integers(8, 320))
        ids = rng.integers(0, vocab_size, size=n)
        vals = PEAK_HEIGHT - rng.exponential(1.5, size=n).clip(0.0, 5.0)
        bank.append((ids, vals))
    return bank


def _scatter(z: np.ndarray, bank, h: int, shift: float) -> None:
    # The hash picks a set and rotates its ids, so a few hundred stored sets
    # give distinct peak positions for every suffix.
    ids, vals = bank[h % PEAK_SETS]
    ids = (ids + (h >> 16)) % z.size
    z[ids] += vals + shift


def _unit(h: int) -> float:
    return ((h >> 40) & 0xFFFF) / 65536.0


def payload_key(payload) -> str | None:
    """The payload's first whitespace-delimited word; the rest is opaque."""
    if payload is None:
        return None
    words = payload.data.split(maxsplit=1)
    return words[0].decode("utf-8", errors="replace") if words else None


def synth_vocabulary() -> Vocabulary:
    return Vocabulary.from_tokens([f"<t{i}>" for i in range(VOCAB_SIZE)])


class SynthModel:
    """Seeded synthetic logit source; see the module docstring."""

    def __init__(self, seed: int, vocabulary: Vocabulary) -> None:
        """``vocabulary`` is ``synth_vocabulary()``, shared by a decode's models."""
        self.seed = int(seed)
        self._vocab = vocabulary
        self.name = f"synth-{self._vocab.size}-s{self.seed}"
        self._bank = np.random.default_rng([self.seed, 0]).standard_normal((BANK_ROWS, self._vocab.size))
        self._common = _peak_bank(COMMON_SEED, self._vocab.size)
        self._own = _peak_bank(self.seed, self._vocab.size)

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def context_limit(self) -> int:
        return CONTEXT_LIMIT

    def open(self, prompt: PromptInput) -> "SynthSession":
        tokens = [int(t) for t in prompt.tokens]
        if not tokens:
            raise ValueError("prompt must contain at least one token")
        for t in tokens:
            self._check_token(t)
        if len(tokens) > CONTEXT_LIMIT:
            raise CapacityError(f"context length {len(tokens)} exceeds limit {CONTEXT_LIMIT}")
        return SynthSession(self, tokens, payload_key(prompt.payload))

    def _check_token(self, token_id: int) -> None:
        if not (0 <= token_id < self._vocab.size):
            raise TokenRangeError(
                f"token id {token_id} outside vocabulary of size {self._vocab.size}"
            )

    def logits_for(self, context, omni_key: str | None) -> np.ndarray:
        """Logits for a full context: a pure function of seed, suffix and key."""
        suffix = np.asarray(context[-SUFFIX:], dtype="<i8").tobytes()
        h_text = _digest(b"text", suffix)
        h_own = _digest(b"own", self.seed.to_bytes(8, "little", signed=True), suffix)
        z = self._bank[h_own % BANK_ROWS].copy()
        # Peaks mix in probability space: log-weights log(1 - w) and log(w).
        w_own = min(max(_unit(h_own), 0.02), 0.98)
        _scatter(z, self._common, h_text, math.log1p(-w_own))
        _scatter(z, self._own, h_own >> 8, math.log(w_own))
        if omni_key:
            h_pay = _digest(b"pay", h_own.to_bytes(8, "little"), omni_key.encode("utf-8"))
            if _unit(h_pay) < PAYLOAD_STEP_SHARE:
                _scatter(z, self._own, h_pay >> 8, 0.0)
        return z


class SynthSession:
    """One branch's context against a ``SynthModel``."""

    def __init__(self, model: SynthModel, context: list[int], omni_key: str | None) -> None:
        self._model = model
        self._context = context
        self._omni_key = omni_key
        self._closed = False

    @property
    def context_length(self) -> int:
        return len(self._context)

    def _check_open(self) -> None:
        if self._closed:
            raise SessionStateError("session is closed")

    def logits(self) -> np.ndarray:
        self._check_open()
        return self._model.logits_for(self._context, self._omni_key)

    def step(self, token_id: int) -> np.ndarray:
        self._check_open()
        token_id = int(token_id)
        self._model._check_token(token_id)
        if len(self._context) + 1 > CONTEXT_LIMIT:
            raise CapacityError(f"context length {len(self._context) + 1} exceeds limit {CONTEXT_LIMIT}")
        self._context.append(token_id)
        return self.logits()

    def close(self) -> None:
        self._closed = True
