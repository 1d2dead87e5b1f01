"""Logit fusion strategies for guided decoding.

Each strategy combines per-branch next-token logits into one fused vector:

- ``base``: the backbone model conditioned on text plus the non-text input.
- ``neg``: the same backbone on text only (the contrast/negative branch).
- ``guide``: a text-only reasoner given the same question.

Every strategy is a linear mix ``c_b * z_base + c_g * z_guide + c_n * z_neg``
and is one row of ``STRATEGIES``: the branches it opens plus a function
that gives its coefficients for a step. The fixed-weight rows use constant
coefficients. The stepwise row instead adapts the weight each step from how
far the base and guide branches deviate from the text-only backbone
distribution, measured by Jensen-Shannon divergence, with a short linear
warmup so early steps stay close to the backbone.

All functions operate on raw branch logits; sampling adjustments
(temperature, penalties) happen downstream on the fused vector only.

A decode fuses through a ``Workspace``: it validates each branch's row once,
prepares each branch the weights read once per step (its softmax and its
floored log, shared by every JS term), and mixes into a preallocated fused
buffer, with the kernels that ``softmax``, ``js_divergence`` and ``mix``
also call.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError
from .numerics import as_logits, js_divergence, js_prepared, log_floor_into, softmax_into


@dataclass(frozen=True)
class GuidanceConfig:
    """Which fusion strategy runs and its knobs.

    alpha applies to the fixed-weight strategies only. The warmup fields
    drive the stepwise strategy: for the first warmup_steps steps the
    reasoning weight is capped at warmup_slope * t (t is 1-based), after
    which only the clip range applies.
    """

    strategy: str = "stepwise"
    alpha: float = 1.0
    warmup_steps: int = 5
    warmup_slope: float = 0.1
    clip_lo: float = 0.0
    clip_hi: float = 1.0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {', '.join(STRATEGIES)}"
            )
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.warmup_slope < 0:
            raise ValueError("warmup_slope must be >= 0")
        if not (self.clip_lo <= self.clip_hi):
            raise ValueError("clip_lo must not exceed clip_hi")


@dataclass(frozen=True)
class StepWeights:
    """Per-step mixing weights plus the divergences that produced them."""

    alpha_r: float
    alpha_p: float
    d_r: float
    d_p: float


def reasoning_weights(
    d_r: float, d_p: float, t: int, cfg: GuidanceConfig | None = None
) -> StepWeights:
    """Turn divergence measurements into mixing weights for step t (1-based).

    alpha_r = clip(d_r - d_p, clip_lo, clip_hi), capped at warmup_slope * t
    for the first warmup_steps steps; alpha_p = 1 - alpha_r.
    """
    cfg = cfg or GuidanceConfig()
    if t < 1:
        raise ValueError("step index t is 1-based and must be >= 1")
    surplus = float(d_r) - float(d_p)
    alpha_r = float(min(max(surplus, cfg.clip_lo), cfg.clip_hi))
    if t <= cfg.warmup_steps:
        alpha_r = min(alpha_r, cfg.warmup_slope * t)
    return StepWeights(alpha_r=alpha_r, alpha_p=1.0 - alpha_r, d_r=float(d_r), d_p=float(d_p))


def stepwise_alpha(
    p_guide: np.ndarray,
    p_base: np.ndarray,
    p_neg: np.ndarray,
    t: int,
    cfg: GuidanceConfig | None = None,
) -> StepWeights:
    """Compute adaptive weights from branch distributions at step t.

    d_r measures how far the guide deviates from the text-only backbone;
    d_p measures how far the omni-conditioned base deviates from it. A
    positive surplus means the guide is adding information the base is not.
    """
    d_r = js_divergence(p_guide, p_neg)
    d_p = js_divergence(p_base, p_neg)
    return reasoning_weights(d_r, d_p, t, cfg)


def mix_into(
    coeffs: Sequence[float], rows: Sequence[np.ndarray], out: np.ndarray, term: np.ndarray | None
) -> np.ndarray:
    """mix of trusted rows of out's length into out; term holds each product after the first."""
    np.multiply(coeffs[0], rows[0], out=out)
    for c, z in zip(coeffs[1:], rows[1:]):
        out += np.multiply(c, z, out=term)
    return out


def mix(coeffs: Iterable[float], rows: Sequence[np.ndarray]) -> np.ndarray:
    """Sum coeffs[i] * rows[i] in the order given, into one new array.

    Each row is validated once. The order matters in the last bits:
    stepwise sums base, guide, neg, which reproduces its closed form
    (2 - alpha_r) * z_base + alpha_r * z_guide - z_neg bit for bit.
    """
    coeffs = tuple(coeffs)
    rows = [as_logits(z) for z in rows]
    if len(coeffs) != len(rows):
        raise ValueError(f"{len(coeffs)} coefficients for {len(rows)} logit rows")
    sizes = {z.shape[0] for z in rows}
    if len(sizes) > 1:
        raise DimensionError(f"branch logit lengths differ: {sorted(sizes)}")
    out = np.empty_like(rows[0])
    return mix_into(coeffs, rows, out, np.empty_like(out) if len(rows) > 1 else None)


def _stepwise_coeffs(alpha_r: float) -> dict[str, float]:
    if not (0.0 <= alpha_r <= 1.0):
        raise ValueError(f"alpha_r must be in [0, 1], got {alpha_r!r}")
    return {"base": 2.0 - alpha_r, "guide": alpha_r, "neg": -1.0}


def stepwise_mix(
    z_base: np.ndarray, z_guide: np.ndarray, z_neg: np.ndarray, alpha_r: float
) -> np.ndarray:
    """Fuse branch logits under the adaptive weights.

    With alpha_p = 1 - alpha_r, the two-contrast sum

        z_base + alpha_r * (z_guide - z_neg) + alpha_p * (z_base - z_neg)

    collapses to the closed form (2 - alpha_r) * z_base + alpha_r * z_guide
    - z_neg, which is what this computes.
    """
    return mix(_stepwise_coeffs(alpha_r).values(), (z_base, z_guide, z_neg))


@dataclass(frozen=True)
class Strategy:
    """One decoding strategy.

    branches are the sessions it opens, in open and trace order.
    divergences are the branch pairs (p, q) whose JS(p||q) the weights
    read, in the order weights takes them. weights maps those divergences,
    the 1-based step t and the config to the mixing coefficients by branch
    (summed in that order) and the trace tuple (alpha_r, alpha_p, d_r, d_p).
    Fixed strategies trace their configured alpha as alpha_r.
    """

    branches: tuple[str, ...]
    weights: Callable[[Sequence[float], int, GuidanceConfig], tuple[dict[str, float], tuple]]
    divergences: tuple[tuple[str, str], ...] = ()


_UNGUIDED = (0.0, 0.0, 0.0, 0.0)


def _stepwise(d: Sequence[float], t: int, cfg: GuidanceConfig):
    w = reasoning_weights(*d, t, cfg)
    return _stepwise_coeffs(w.alpha_r), (w.alpha_r, w.alpha_p, w.d_r, w.d_p)


# Strategy names accepted by the decode pipeline and CLI, one row each.
STRATEGIES: dict[str, Strategy] = {
    "none": Strategy(("base",), lambda d, t, g: ({"base": 1.0}, _UNGUIDED)),
    # Visual contrastive decoding: contrast against the text-only backbone.
    "vcd_ablation": Strategy(
        ("base", "neg"),
        lambda d, t, g: ({"base": 1.0 + g.alpha, "neg": -g.alpha}, (g.alpha, 0.0, 0.0, 0.0)),
    ),
    "average_fusion": Strategy(
        ("base", "guide"), lambda d, t, g: ({"base": 0.5, "guide": 0.5}, _UNGUIDED)
    ),
    # Fixed-weight contrast with the guide as the positive pole.
    "lrm_guide_fixed": Strategy(
        ("base", "neg", "guide"),
        lambda d, t, g: (
            {"base": 1.0, "guide": g.alpha, "neg": -g.alpha},
            (g.alpha, 0.0, 0.0, 0.0),
        ),
    ),
    # d_r = JS(guide || neg), d_p = JS(base || neg), as in stepwise_alpha.
    "stepwise": Strategy(
        ("base", "neg", "guide"), _stepwise, (("guide", "neg"), ("base", "neg"))
    ),
}


def share(lane: Executor | None, tasks: Sequence[Callable[[], object]]) -> list:
    """Run tasks on the calling thread and on lane, each taking the next one left.

    Returns the results in task order. Without a lane, or with one task,
    the calling thread runs them in order and the first failure raises at
    once. With one, the calling thread never waits for a lane that has not
    started yet: if the lane's thread is slow to wake or is descheduled,
    the calling thread does the work itself, so sharing costs at most one
    task's wait over running alone; once every started task has finished,
    the first failure in task order is raised.
    """
    if lane is None or len(tasks) < 2:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)
    errors: list = [None] * len(tasks)
    todo = iter(range(len(tasks)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except Exception as exc:  # raised below, in task order
                errors[i] = exc

    helper = lane.submit(work)
    work()
    if not helper.cancel():
        helper.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


class Workspace:
    """One decode's fusion state: its branch rows and preallocated buffers.

    Each step admits every branch's row, then fuses:

    - ``admit(name, z)`` validates the row as it enters the engine and, if
      a JS term of the strategy involves the branch, prepares it: its
      softmax and log(max(p, tiny)) go into the branch's own buffers, which
      every JS term involving the branch shares.
    - ``fuse(t, lane)`` computes the JS terms from the prepared buffers
      (shared with ``lane``, an executor, when one is given), turns them
      into coefficients with the strategy's row and mixes the rows into
      ``fused``, which the sampler may then overwrite. ``zeros`` is the
      sampler's normalizer buffer.

    Different branches may be admitted on different threads at once; every
    admit of a step must finish before that step's fuse.
    """

    def __init__(self, cfg: GuidanceConfig, size: int) -> None:
        self.cfg = cfg
        self.row = STRATEGIES[cfg.strategy]
        self.size = size
        self.z: dict[str, np.ndarray] = {}
        prepared = dict.fromkeys(b for pair in self.row.divergences for b in pair)
        self.dists = {b: (np.empty(size), np.empty(size)) for b in prepared}
        # Work buffers (m, r) per JS term, so the terms can run at once.
        self.js_buffers = [(np.empty(size), np.empty(size)) for _ in self.row.divergences]
        self.fused = np.empty(size)
        self.term = np.empty(size) if len(self.row.branches) > 1 else None
        self.zeros = np.zeros(size)

    def admit(self, name: str, z: np.ndarray) -> None:
        z = as_logits(z)
        if z.size != self.size:
            raise DimensionError(f"{name} logits have length {z.size}, expected {self.size}")
        self.z[name] = z
        dist = self.dists.get(name)
        if dist is not None:
            log_floor_into(softmax_into(z, dist[0]), dist[1])

    def _js(self, i: int) -> float:
        a, b = self.row.divergences[i]
        (p, log_p), (q, log_q) = self.dists[a], self.dists[b]
        return js_prepared(p, log_p, q, log_q, *self.js_buffers[i])

    def fuse(self, t: int, lane: Executor | None = None) -> tuple[np.ndarray, tuple]:
        """The fused logits of step t (1-based) and its (alpha_r, alpha_p, d_r, d_p)."""
        d = share(lane, [partial(self._js, i) for i in range(len(self.row.divergences))])
        coeffs, trace = self.row.weights(d, t, self.cfg)
        rows = [self.z[name] for name in coeffs]
        return mix_into(tuple(coeffs.values()), rows, self.fused, self.term), trace
