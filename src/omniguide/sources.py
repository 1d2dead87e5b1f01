"""Logit sources: the vocabulary contract, sessions, and the toy table model.

A logit source exposes next-token logits for an explicit token context via
stateful sessions (open with a prompt prefill, then advance one token at a
time). Sessions exist so remote engines can keep incremental state; the toy
model recomputes from the full context each step, which doubles as the
reference for cache-consistency checks.

Toy model files are plain text:

    @vocab what metal plastic sinks floats
    @context_limit 64
    # base rules: context tokens | next token | score
    what metal | floats | 2.0
    @omni scene_metal
    what | metal | 5

Rules after an ``@omni <key>`` line form a conditioning table that overrides
base rules (by longest context suffix match) only when the session was opened
with a payload whose key matches. Unmatched contexts fall back to uniform
zero logits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    CapacityError,
    SessionStateError,
    TokenRangeError,
    ToySpecError,
    VocabularyMismatchError,
)


@dataclass(frozen=True)
class Vocabulary:
    """An ordered token inventory shared by all branches of a decode."""

    tokens: tuple[str, ...]
    fingerprint: str

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        toks = tuple(tokens)
        if not toks:
            raise ValueError("vocabulary must contain at least one token")
        if len(set(toks)) != len(toks):
            raise ValueError("vocabulary tokens must be unique")
        digest = hashlib.sha256("\n".join(toks).encode("utf-8")).hexdigest()
        return cls(tokens=toks, fingerprint=digest)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index_of(self, token: str) -> int:
        try:
            return self.tokens.index(token)
        except ValueError:
            raise KeyError(f"token not in vocabulary: {token!r}") from None


@dataclass(frozen=True)
class OmniPayload:
    """Opaque non-text conditioning blob attached to a session at open time.

    The toy model reads only the key (the first whitespace-delimited word of
    the UTF-8 decoded payload); real engines would consume the full bytes.
    """

    data: bytes
    media_type: str = "application/octet-stream"

    @property
    def key(self) -> str:
        text = self.data.decode("utf-8", errors="replace").strip()
        return text.split()[0] if text else ""

    @property
    def size_bytes(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class PromptInput:
    """What a session is opened with: token ids plus an optional payload."""

    tokens: tuple[int, ...]
    payload: OmniPayload | None = None


def require_compatible(a: Vocabulary, b: Vocabulary, *, context: str = "") -> None:
    """Raise VocabularyMismatchError unless two vocabularies are identical.

    Only the primary cause is reported: a size difference alone (a
    different size forces a fingerprint difference, which would be noise),
    else a fingerprint mismatch for same-size vocabularies that differ.
    """
    if a.size != b.size:
        mismatches = ("size",)
    elif a.fingerprint != b.fingerprint:
        mismatches = ("fingerprint",)
    else:
        return
    where = f" ({context})" if context else ""
    raise VocabularyMismatchError(
        mismatches, f"vocabulary mismatch{where}: {', '.join(mismatches)}"
    )


class Session(Protocol):
    """A stateful decode session against one logit source.

    ``logits`` reflects the context as of the last open/step; ``step``
    appends one token and returns logits for the extended context. Closed
    sessions refuse further use.
    """

    @property
    def context_length(self) -> int: ...

    def logits(self) -> np.ndarray: ...

    def step(self, token_id: int) -> np.ndarray: ...

    def close(self) -> None: ...


@runtime_checkable
class LogitSource(Protocol):
    """Factory for sessions against one model."""

    @property
    def vocabulary(self) -> Vocabulary: ...

    @property
    def context_limit(self) -> int: ...

    def open(self, prompt: PromptInput) -> Session: ...


def _validate_context(tokens: Sequence[int], vocab_size: int, limit: int) -> None:
    if not len(tokens):
        raise ValueError("prompt must contain at least one token")
    for t in tokens:
        if not (0 <= int(t) < vocab_size):
            raise TokenRangeError(f"token id {t} outside vocabulary of size {vocab_size}")
    if len(tokens) > limit:
        raise CapacityError(f"context length {len(tokens)} exceeds limit {limit}")


@dataclass(frozen=True)
class _Rule:
    context: tuple[int, ...]
    token_id: int
    score: float


class _RuleTable:
    """Longest-suffix-match lookup over (context, next-token, score) rules."""

    def __init__(self) -> None:
        self._by_context: dict[tuple[int, ...], list[_Rule]] = {}

    def add(self, rule: _Rule) -> None:
        self._by_context.setdefault(rule.context, []).append(rule)

    def match(self, context: Sequence[int]) -> list[_Rule] | None:
        ctx = tuple(int(t) for t in context)
        for start in range(len(ctx) + 1):
            suffix = ctx[start:]
            if suffix in self._by_context:
                return self._by_context[suffix]
        return None

    def __bool__(self) -> bool:
        return bool(self._by_context)


class ToyModel:
    """Deterministic table-driven logit source for tests and demos."""

    def __init__(
        self,
        vocabulary: Vocabulary,
        base_rules: _RuleTable,
        omni_rules: dict[str, _RuleTable],
        context_limit: int = 256,
        name: str = "toy",
    ) -> None:
        self._vocab = vocabulary
        self._base = base_rules
        self._omni = omni_rules
        self._limit = int(context_limit)
        self.name = name

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def context_limit(self) -> int:
        return self._limit

    def open(self, prompt: PromptInput) -> "ToySession":
        _validate_context(prompt.tokens, self._vocab.size, self._limit)
        key = prompt.payload.key if prompt.payload is not None else None
        return ToySession(self, list(prompt.tokens), key)

    def logits_for(self, context: Sequence[int], omni_key: str | None) -> np.ndarray:
        """Full recompute from context; the reference for cache checks."""
        z = np.zeros(self._vocab.size, dtype=np.float64)
        rules = None
        if omni_key is not None and omni_key in self._omni:
            rules = self._omni[omni_key].match(context)
        if rules is None:
            rules = self._base.match(context)
        if rules is not None:
            for r in rules:
                z[r.token_id] = r.score
        return z


class ToySession:
    def __init__(self, model: ToyModel, context: list[int], omni_key: str | None) -> None:
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
        if not (0 <= token_id < self._model.vocabulary.size):
            raise TokenRangeError(
                f"token id {token_id} outside vocabulary of size {self._model.vocabulary.size}"
            )
        if len(self._context) + 1 > self._model.context_limit:
            raise CapacityError(
                f"context length {len(self._context) + 1} exceeds limit {self._model.context_limit}"
            )
        self._context.append(token_id)
        return self.logits()

    def close(self) -> None:
        self._closed = True


def parse_toy_spec(text: str, *, name: str = "toy") -> ToyModel:
    """Parse the toy model text format (see module docstring)."""
    vocab: Vocabulary | None = None
    context_limit = 256
    base = _RuleTable()
    omni: dict[str, _RuleTable] = {}
    current: _RuleTable = base

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@vocab"):
            parts = line.split()[1:]
            if not parts:
                raise ToySpecError(f"line {lineno}: @vocab needs at least one token")
            if vocab is not None:
                raise ToySpecError(f"line {lineno}: duplicate @vocab directive")
            try:
                vocab = Vocabulary.from_tokens(parts)
            except ValueError as exc:
                raise ToySpecError(f"line {lineno}: {exc}") from exc
            continue
        if line.startswith("@context_limit"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ToySpecError(f"line {lineno}: @context_limit needs a positive integer")
            context_limit = int(parts[1])
            continue
        if line.startswith("@omni"):
            parts = line.split()
            if len(parts) != 2:
                raise ToySpecError(f"line {lineno}: @omni needs exactly one key")
            key = parts[1]
            if key in omni:
                raise ToySpecError(f"line {lineno}: duplicate @omni key {key!r}")
            omni[key] = _RuleTable()
            current = omni[key]
            continue
        if line.startswith("@"):
            raise ToySpecError(f"line {lineno}: unknown directive {line.split()[0]!r}")

        if vocab is None:
            raise ToySpecError(f"line {lineno}: rule before @vocab directive")
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise ToySpecError(
                f"line {lineno}: expected 'context | next | score', got {raw.strip()!r}"
            )
        ctx_tokens = fields[0].split()
        try:
            ctx_ids = tuple(vocab.index_of(t) for t in ctx_tokens)
            next_id = vocab.index_of(fields[1])
        except KeyError as exc:
            raise ToySpecError(f"line {lineno}: {exc.args[0]}") from exc
        try:
            score = float(fields[2])
        except ValueError:
            raise ToySpecError(f"line {lineno}: score is not a number: {fields[2]!r}") from None
        if not np.isfinite(score):
            raise ToySpecError(f"line {lineno}: score must be finite")
        current.add(_Rule(context=ctx_ids, token_id=next_id, score=score))

    if vocab is None:
        raise ToySpecError("toy model text contains no @vocab directive")
    return ToyModel(vocab, base, omni, context_limit=context_limit, name=name)


def build_toy_model(path, *, name: str | None = None) -> ToyModel:
    """Build a toy model from a spec file (parse_toy_spec takes spec text)."""
    path = Path(path)
    return parse_toy_spec(path.read_text(encoding="utf-8"), name=name or path.name)
