"""Token selection from fused logits.

The pipeline order is fixed: repetition penalty on raw logits, then
temperature, then softmax, then nucleus (top-p) truncation, then either a
random draw or argmax. Penalty and temperature act on logits; top-p acts on
probabilities. Draws use a caller-owned numpy Generator so a seed fully
determines the token sequence.

``sample_into`` runs the pipeline in place on a buffer the caller owns (the
decoder's fused buffer); ``sample_token`` runs it on a copy. The draw looks
at the nucleus only, in id order, and picks the same id as a draw over the
whole filtered vector (see ``draw``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import as_logits, softmax_into


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


def penalize_into(z: np.ndarray, history: Sequence[int], penalty: float) -> np.ndarray:
    """apply_repetition_penalty in place on trusted logits z."""
    if penalty == 1.0 or not len(history):
        return z
    ids = np.unique(np.asarray(history, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= z.size):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise IndexError(f"history token id {bad} outside vocabulary of size {z.size}")
    vals = z[ids]
    z[ids] = np.where(vals > 0, vals / penalty, vals * penalty)
    return z


def apply_repetition_penalty(
    logits: np.ndarray, history: Sequence[int], penalty: float
) -> np.ndarray:
    """Damp logits of tokens already present in history.

    Positive logits are divided by the penalty and non-positive ones are
    multiplied by it, so the adjustment always moves the score toward
    lower probability when penalty > 1. Each distinct token is adjusted
    once regardless of how often it appears.
    """
    return penalize_into(as_logits(logits).copy(), history, penalty)


# First candidate head of the nucleus search; it grows fourfold until the nucleus fits.
TOP_P_HEAD = 1024


def _ranked_prefix(p: np.ndarray, ids: np.ndarray, top_p: float) -> tuple[np.ndarray, int]:
    """Rank ids, a prefix of p's ranking in ascending id order, far enough to cut.

    Returns the ranked ids and the index of the first one at which the
    cumulative mass reaches top_p (len(ids) when it never does).
    """
    head = min(TOP_P_HEAD, ids.size)
    while True:
        sub = ids
        if head < ids.size:
            sub = ids[np.argpartition(p[ids], ids.size - head)[ids.size - head :]]
        order = sub[np.lexsort((sub, -p[sub]))]
        csum = np.cumsum(p[order])
        k = int(np.searchsorted(csum, top_p, side="left"))
        # Done when the cut falls inside the head and above its smallest
        # value, whose ties may continue outside it.
        if head == ids.size or (k < head and p[order[k]] > p[order[-1]]):
            return order, k
        head = min(4 * head, ids.size)


def kept_ids(p: np.ndarray, top_p: float) -> np.ndarray:
    """Ids of the smallest nucleus with mass >= top_p, in ascending id order.

    Tokens are ranked by probability descending with ties broken by lower
    token id; the top-ranked token always survives, even when top_p is
    smaller than its probability. The kept set is that of a full stable
    sort, but only a few candidates are ranked:

    - Tokens below (1 - top_p) / V hold less than 1 - top_p of the mass
      together, so the nucleus lies among the rest, which form a prefix of
      the ranking, ties included. Only if rounding leaves that prefix short
      of top_p is the whole vocabulary searched.
    - Within the candidates, a head found by partial selection (argpartition)
      is ranked; it starts at TOP_P_HEAD tokens and grows fourfold until its
      cumulative mass reaches top_p above its smallest value.
    """
    if top_p == 1.0:
        return np.arange(p.size)
    order, k = _ranked_prefix(p, np.flatnonzero(p >= (1.0 - top_p) / p.size), top_p)
    if k == order.size < p.size:
        order, k = _ranked_prefix(p, np.arange(p.size), top_p)
    return np.sort(order[: min(k, p.size - 1) + 1])


def top_p_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out the tail outside the smallest nucleus with mass >= top_p.

    The kept set is ``kept_ids``; survivors are renormalized.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not (0.0 < top_p <= 1.0):
        raise ValueError("top_p must be in (0, 1]")
    ids = kept_ids(p, top_p)
    out = np.zeros_like(p)
    out[ids] = p[ids]
    out /= out.sum()
    return out


def draw(
    p: np.ndarray,
    top_p: float,
    greedy: bool,
    rng: np.random.Generator,
    zeros: np.ndarray | None = None,
) -> tuple[int, int]:
    """Pick a token from probabilities p; return it and the nucleus size.

    The result equals argmax, or ``rng.choice(p.size, p=...)``, of
    ``top_p_filter(p, top_p)``, while touching only the nucleus:

    - the kept probabilities are divided by the very sum top_p_filter
      divides by: that of the whole filtered vector, zeros included,
      because summation groups entries by position. It is taken over
      ``zeros`` (a zero buffer of p's length, left zero) when given;
    - Generator.choice builds a cumulative sum and consumes one random()
      draw. Summing the kept entries in id order gives the full cumulative
      sum at those ids, since adding zeros is exact, so the same random()
      falls on the same id;
    - argmax over the kept entries in id order takes the lowest id among
      equal maxima, as over the whole vector.
    """
    ids = kept_ids(p, top_p)
    if ids.size == p.size:
        kept = p / p.sum()
    else:
        buf = np.zeros_like(p) if zeros is None else zeros
        kept = p[ids]
        buf[ids] = kept
        total = buf.sum()
        buf[ids] = 0.0
        kept /= total
    if greedy:
        return int(ids[np.argmax(kept)]), ids.size
    return int(ids[rng.choice(ids.size, p=kept)]), ids.size


def sample_into(
    z: np.ndarray,
    history: Sequence[int],
    cfg: SamplerConfig,
    rng: np.random.Generator,
    zeros: np.ndarray | None = None,
) -> tuple[int, int]:
    """sample_token on trusted logits z, overwriting z; also returns the nucleus size."""
    penalize_into(z, history, cfg.repetition_penalty)
    z /= cfg.temperature
    return draw(softmax_into(z, z), cfg.top_p, cfg.mode == "greedy", rng, zeros)


def sample_token(
    logits: np.ndarray,
    history: Sequence[int],
    cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Run the full pipeline on fused logits and pick one token id."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return sample_into(as_logits(logits).copy(), history, cfg, rng)[0]


def make_rng(cfg: SamplerConfig) -> np.random.Generator:
    """The generator a decode loop should create once and thread through."""
    return np.random.default_rng(cfg.seed)
