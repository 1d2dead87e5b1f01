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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError
from .numerics import as_logits, js_divergence, softmax


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
    out = coeffs[0] * rows[0]
    if len(rows) > 1:
        term = np.empty_like(out)
        for c, z in zip(coeffs[1:], rows[1:]):
            out += np.multiply(c, z, out=term)
    return out


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

    branches are the sessions it opens, in open and trace order. weights
    maps the step's branch logits, the 1-based step t and the config to
    the mixing coefficients by branch (summed in that order) and the trace
    tuple (alpha_r, alpha_p, d_r, d_p). Fixed strategies trace their
    configured alpha as alpha_r.
    """

    branches: tuple[str, ...]
    weights: Callable[[dict[str, np.ndarray], int, GuidanceConfig], tuple[dict[str, float], tuple]]


_UNGUIDED = (0.0, 0.0, 0.0, 0.0)


def _stepwise(z: dict[str, np.ndarray], t: int, cfg: GuidanceConfig):
    w = stepwise_alpha(softmax(z["guide"]), softmax(z["base"]), softmax(z["neg"]), t, cfg)
    return _stepwise_coeffs(w.alpha_r), (w.alpha_r, w.alpha_p, w.d_r, w.d_p)


# Strategy names accepted by the decode pipeline and CLI, one row each.
STRATEGIES: dict[str, Strategy] = {
    "none": Strategy(("base",), lambda z, t, g: ({"base": 1.0}, _UNGUIDED)),
    # Visual contrastive decoding: contrast against the text-only backbone.
    "vcd_ablation": Strategy(
        ("base", "neg"),
        lambda z, t, g: ({"base": 1.0 + g.alpha, "neg": -g.alpha}, (g.alpha, 0.0, 0.0, 0.0)),
    ),
    "average_fusion": Strategy(
        ("base", "guide"), lambda z, t, g: ({"base": 0.5, "guide": 0.5}, _UNGUIDED)
    ),
    # Fixed-weight contrast with the guide as the positive pole.
    "lrm_guide_fixed": Strategy(
        ("base", "neg", "guide"),
        lambda z, t, g: (
            {"base": 1.0, "guide": g.alpha, "neg": -g.alpha},
            (g.alpha, 0.0, 0.0, 0.0),
        ),
    ),
    "stepwise": Strategy(("base", "neg", "guide"), _stepwise),
}
