"""Numerically stable distribution arithmetic.

Logit vectors and probability distributions are 1-D float64 numpy arrays
over a shared vocabulary. All divergences use natural logarithms, so the
Jensen-Shannon divergence is bounded by ln 2. The log base is fixed here
(and stamped into trace headers) because the downstream clip-to-[0,1] of
divergence differences makes the base observable.

The public functions are pure; inputs are never mutated. Each formula is
stated once, in a kernel that takes trusted float64 arrays and writes into
caller-owned buffers (``softmax_into``, ``log_floor_into``,
``js_prepared``): the public functions validate, allocate and call them,
and the decoder's per-decode workspace calls them on its preallocated
buffers.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DimensionError, NonFiniteError

# Natural log everywhere; JS(p, q) <= ln 2.
DIVERGENCE_LOG_BASE = "e"
LN2 = float(np.log(2.0))

# Floor under log() in js_divergence: log(0) would be -inf and 0 * -inf NaN.
_TINY = float(np.finfo(np.float64).tiny)

# Per-step kernels reduce with np.einsum, not @/dot/vdot/inner/matmul: BLAS worker threads spin between calls.

# Probability vectors must renormalize to 1 within this absolute tolerance.
PROB_SUM_ATOL = 1e-9


def as_logits(values: Iterable[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D float64 logit vector.

    Raises NonFiniteError naming the first offending index if any entry
    is NaN or infinite.
    """
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError(f"expected a non-empty 1-D vector, got shape {z.shape}")
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteError(f"non-finite logit at index {i}: {z[i]!r}")
    return z


def as_prob_dist(values: Iterable[float] | np.ndarray) -> np.ndarray:
    """Coerce to a valid probability vector (entries >= 0, sum == 1)."""
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DimensionError(f"expected a non-empty 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonFiniteError("probability vector contains NaN or infinity")
    if np.any(p < 0):
        i = int(np.flatnonzero(p < 0)[0])
        raise ValueError(f"negative probability at index {i}: {p[i]!r}")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_ATOL}")
    return p


def softmax_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Softmax of trusted logits z into out (which may be z itself)."""
    np.subtract(z, z.max(), out=out)
    np.exp(out, out=out)
    out /= out.sum()
    return out


def log_floor_into(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(max(p, tiny)) into out (which may be p itself).

    The floor makes log(0) finite, so a term 0 * log(0) is exactly 0.
    """
    return np.log(np.maximum(p, _TINY, out=out), out=out)


def softmax(logits: Iterable[float] | np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction, invariant to constant shifts."""
    z = as_logits(logits)
    return softmax_into(z, np.empty_like(z))


def _masked_kl(p: np.ndarray, q: np.ndarray) -> float:
    # 0 * log(0/x) := 0; p_i > 0 with q_i == 0 yields +inf.
    mask = p > 0.0
    pm = p[mask]
    with np.errstate(divide="ignore"):
        terms = pm * np.log(pm / q[mask])
    return float(terms.sum())


def kl_divergence(p: Iterable[float] | np.ndarray, q: Iterable[float] | np.ndarray) -> float:
    """KL(p || q) in nats. Returns +inf where q lacks mass that p has."""
    p = as_prob_dist(p)
    q = as_prob_dist(q)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.size} vs {q.size}")
    return _masked_kl(p, q)


def js_prepared(
    p: np.ndarray,
    log_p: np.ndarray,
    q: np.ndarray,
    log_q: np.ndarray,
    m: np.ndarray,
    r: np.ndarray,
) -> float:
    """JS(p||q) from two trusted distributions and their log_floor_into logs.

    m and r are work buffers of the same length. log(m) is floored like
    the inputs, and rounding outside [0, ln 2] is clipped.
    """
    np.add(p, q, out=m)
    m *= 0.5
    log_floor_into(m, m)
    kl_p = float(np.einsum("i,i->", p, np.subtract(log_p, m, out=r)))
    kl_q = float(np.einsum("i,i->", q, np.subtract(log_q, m, out=r)))
    return min(max(0.5 * kl_p + 0.5 * kl_q, 0.0), LN2)


def js_divergence(p: Iterable[float] | np.ndarray, q: Iterable[float] | np.ndarray) -> float:
    """Jensen-Shannon divergence in nats: JS(p||q) in [0, ln 2].

    JS = (KL(p||m) + KL(q||m)) / 2 with m = (p + q) / 2. The mixture
    dominates both inputs, so the result is always finite. Logs are taken
    of max(x, tiny) on whole vectors, so a term with p_i = 0 is exactly
    0 * finite and no mask is needed; each entry below the smallest normal
    float moves the sum by less than 1e-305. Rounding outside [0, ln 2] is
    clipped.
    """
    p = as_prob_dist(p)
    q = as_prob_dist(q)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.size} vs {q.size}")
    log_p = log_floor_into(p, np.empty_like(p))
    log_q = log_floor_into(q, np.empty_like(q))
    # The logs are dead once subtracted, so they double as the work buffer r.
    return js_prepared(p, log_p, q, log_q, np.empty_like(p), log_p)
