"""Token selection from fused logits.

The pipeline order is fixed: repetition penalty on raw logits, then
temperature, then softmax, then nucleus (top-p) truncation, then either a
random draw or argmax. Penalty and temperature act on logits; top-p acts on
probabilities. Draws use a caller-owned numpy Generator so a seed fully
determines the token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import as_logits, softmax


@dataclass(frozen=True)
class SamplerConfig:
    temperature: float = 0.6
    top_p: float = 0.95
    repetition_penalty: float = 1.03
    mode: str = "sample"  # "sample" or "greedy"
    seed: int = 0
    penalize_prompt: bool = True

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")
        if not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if self.repetition_penalty < 1.0:
            raise ValueError("repetition_penalty must be >= 1")
        if self.mode not in ("sample", "greedy"):
            raise ValueError(f"mode must be 'sample' or 'greedy', got {self.mode!r}")


def apply_repetition_penalty(
    logits: np.ndarray, history: Sequence[int], penalty: float
) -> np.ndarray:
    """Damp logits of tokens already present in history.

    Positive logits are divided by the penalty and non-positive ones are
    multiplied by it, so the adjustment always moves the score toward
    lower probability when penalty > 1. Each distinct token is adjusted
    once regardless of how often it appears.
    """
    z = as_logits(logits).copy()
    if penalty == 1.0 or not len(history):
        return z
    ids = np.unique(np.asarray(history, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= z.size):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise IndexError(f"history token id {bad} outside vocabulary of size {z.size}")
    vals = z[ids]
    z[ids] = np.where(vals > 0, vals / penalty, vals * penalty)
    return z


# First candidate head of top_p_filter; it grows fourfold until the nucleus fits.
TOP_P_HEAD = 1024


def top_p_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out the tail outside the smallest nucleus with mass >= top_p.

    Tokens are ranked by probability descending with ties broken by lower
    token id. Only a head of the most probable tokens is ranked: it is
    found by partial selection (argpartition), starts at TOP_P_HEAD tokens
    and grows fourfold, up to the whole vocabulary, until its cumulative
    mass reaches top_p above its smallest value (whose ties may continue
    outside it). The kept set and the output are bit-identical to a full
    stable sort. The top-ranked token always survives, even when top_p is
    smaller than its probability. Survivors are renormalized.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not (0.0 < top_p <= 1.0):
        raise ValueError("top_p must be in (0, 1]")
    if top_p == 1.0:
        return p / p.sum()
    head = min(TOP_P_HEAD, p.size)
    while True:
        if head < p.size:
            ids = np.argpartition(p, p.size - head)[p.size - head :]
        else:
            ids = np.arange(p.size)
        order = ids[np.lexsort((ids, -p[ids]))]
        csum = np.cumsum(p[order])
        # First index where cumulative mass reaches top_p; keep through it.
        k = int(np.searchsorted(csum, top_p, side="left"))
        if head == p.size or (k < head and p[order[k]] > p[order[-1]]):
            break
        head = min(4 * head, p.size)
    keep = order[: min(k, p.size - 1) + 1]
    out = np.zeros_like(p)
    out[keep] = p[keep]
    out /= out.sum()
    return out


def sample_token(
    logits: np.ndarray,
    history: Sequence[int],
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Run the full pipeline on fused logits and pick one token id."""
    z = apply_repetition_penalty(logits, history, cfg.repetition_penalty)
    z = z / cfg.temperature
    p = softmax(z)
    p = top_p_filter(p, cfg.top_p)
    if cfg.mode == "greedy":
        return int(np.argmax(p))
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return int(rng.choice(p.size, p=p))


def make_rng(cfg: SamplerConfig) -> np.random.Generator:
    """The generator a decode loop should create once and thread through."""
    return np.random.default_rng(cfg.seed)
