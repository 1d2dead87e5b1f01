"""Reference decodes written from the paper's formulas, independent of ``src/``.

Nothing here imports the engine. Per step, in this order:

1. branch logits (toy rule tables parsed here, or ``SynthModel.logits_for``);
2. fusion: a fixed strategy, or the closed form
   ``(2 - alpha_r) * z_base + alpha_r * z_guide - z_neg`` with
   ``alpha_r = clip(JS(P_guide, P_neg) - JS(P_base, P_neg), 0, 1)``, natural
   log, capped at ``0.1 * t`` for ``t <= 5``;
3. repetition penalty (divide positive logits, multiply the rest, once per
   distinct token seen), temperature, softmax, top-p (rank by probability,
   lower id first on ties, keep through the token that reaches the mass),
   then argmax or one ``Generator.choice`` draw from a generator seeded
   with the sampler seed.

The draw consumes the same numpy generator stream as the engine, so a
sampled reference is the engine's token sequence, not a statistical match.
"""

from __future__ import annotations

import numpy as np

WARMUP_STEPS = 5
WARMUP_SLOPE = 0.1
FIXED_ALPHA = 1.0


# -- toy rule tables ---------------------------------------------------------


class ToyTable:
    """The toy spec format: longest-suffix rules, ``@omni`` tables first."""

    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        self.rules: dict[str | None, dict[tuple[int, ...], dict[int, float]]] = {None: {}}
        table = None
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            words = line.split()
            if words[0] == "@vocab":
                self.tokens = words[1:]
            elif words[0] == "@omni":
                table = words[1]
                self.rules[table] = {}
            elif words[0].startswith("@"):
                continue
            else:
                ctx, nxt, score = (f.strip() for f in line.split("|"))
                key = tuple(self.tokens.index(w) for w in ctx.split())
                self.rules[table].setdefault(key, {})[self.tokens.index(nxt)] = float(score)

    def _match(self, table, context):
        rules = self.rules.get(table, {})
        for start in range(len(context) + 1):
            hit = rules.get(tuple(context[start:]))
            if hit is not None:
                return hit
        return None

    def logits_for(self, context, key: str | None) -> np.ndarray:
        hit = self._match(key, context) if key is not None else None
        if hit is None:
            hit = self._match(None, context)
        z = np.zeros(len(self.tokens))
        for tok, score in (hit or {}).items():
            z[tok] = score
        return z


# -- divergences and fusion ----------------------------------------------------


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def js(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats; 0 * log 0 counts as 0."""
    m = 0.5 * (p + q)
    total = 0.0
    for a in (p, q):
        nz = a > 0
        total += 0.5 * float(np.sum(a[nz] * np.log(a[nz] / m[nz])))
    return total


def alpha_r(z_base, z_guide, z_neg, t: int) -> float:
    p_neg = softmax(z_neg)
    a = js(softmax(z_guide), p_neg) - js(softmax(z_base), p_neg)
    a = min(max(a, 0.0), 1.0)
    if t <= WARMUP_STEPS:
        a = min(a, WARMUP_SLOPE * t)
    return a


def fuse(strategy: str, z: dict, t: int) -> np.ndarray:
    b = z["base"]
    if strategy == "none":
        return b
    if strategy == "vcd_ablation":
        return b + FIXED_ALPHA * (b - z["neg"])
    if strategy == "average_fusion":
        return 0.5 * (b + z["guide"])
    if strategy in ("lrm_guide_fixed", "fixed_contrast"):
        return b + FIXED_ALPHA * (z["guide"] - z["neg"])
    if strategy == "stepwise":
        a = alpha_r(b, z["guide"], z["neg"], t)
        return (2.0 - a) * b + a * z["guide"] - z["neg"]
    raise ValueError(f"oracle does not know strategy {strategy!r}")


BRANCHES = {
    "none": ("base",),
    "vcd_ablation": ("base", "neg"),
    "average_fusion": ("base", "guide"),
    "lrm_guide_fixed": ("base", "neg", "guide"),
    "fixed_contrast": ("base", "neg", "guide"),
    "stepwise": ("base", "neg", "guide"),
}


# -- sampling ------------------------------------------------------------------


def pick(z, history, *, temperature, top_p, penalty, greedy, rng) -> int:
    z = np.array(z, dtype=np.float64)
    if penalty != 1.0 and history:
        seen = np.unique(np.asarray(history, dtype=np.int64))
        v = z[seen]
        z[seen] = np.where(v > 0, v / penalty, v * penalty)
    p = softmax(z / temperature)
    if top_p < 1.0:
        # Only the head can hold the nucleus: rank it, not the whole vocabulary.
        head = min(p.size, 4096)
        while True:
            cand = np.argpartition(-p, head - 1)[:head] if head < p.size else np.arange(p.size)
            order = cand[np.lexsort((cand, -p[cand]))]
            csum = np.cumsum(p[order])
            k = int(np.searchsorted(csum, top_p, side="left"))
            if k < head or head == p.size:
                break
            head = min(p.size, head * 4)
        keep = order[: min(k, p.size - 1) + 1]
        out = np.zeros_like(p)
        out[keep] = p[keep]
        p = out / out.sum()
    else:
        p = p / p.sum()
    if greedy:
        return int(np.argmax(p))
    return int(rng.choice(p.size, p=p))


def reference(
    strategy: str,
    base,
    guide,
    prompt: tuple[int, ...],
    key: str | None,
    think: tuple[int, ...],
    *,
    max_new_tokens: int,
    stop: frozenset[int] = frozenset(),
    greedy: bool,
    seed: int = 0,
    temperature: float = 0.6,
    top_p: float = 0.95,
    penalty: float = 1.03,
) -> tuple[int, ...]:
    """The token sequence a correct engine produces for this job.

    ``base`` and ``guide`` are anything with ``logits_for(context, key)``.
    """
    contexts = {"base": list(prompt), "neg": list(prompt), "guide": list(prompt) + list(think)}
    sources = {"base": (base, key), "neg": (base, None), "guide": (guide, None)}
    rng = np.random.default_rng(seed)
    history = list(prompt)
    out: list[int] = []
    for t in range(1, max_new_tokens + 1):
        z = {b: sources[b][0].logits_for(contexts[b], sources[b][1]) for b in BRANCHES[strategy]}
        tok = pick(
            fuse(strategy, z, t),
            history,
            temperature=temperature,
            top_p=top_p,
            penalty=penalty,
            greedy=greedy,
            rng=rng,
        )
        out.append(tok)
        history.append(tok)
        if tok in stop:
            break
        for ctx in contexts.values():
            ctx.append(tok)
    return tuple(out)

