"""Trace persistence and analysis.

Traces are line-delimited JSON (UTF-8): one header record followed by one
record per generated token. The header pins everything needed to interpret
and reproduce the run (config fingerprint, divergence log base, seed, the
full effective config) and deliberately carries no wall-clock timestamps so
two identical runs produce identical headers. Step records use fixed field
names: t, token_id, token, alpha_r, alpha_p, d_r, d_p, lat_base_ms,
lat_neg_ms, lat_guide_ms, engine_ms, nucleus (plus an optional stage marker
for multi-stage pipelines). The latency fields (lat_*_ms and engine_ms) are
measured wall-clock and are the only fields excluded from determinism
comparisons.
"""

from __future__ import annotations

import html as _html
import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .numerics import DIVERGENCE_LOG_BASE


@dataclass(frozen=True)
class StepTrace:
    """Everything recorded about one decode step."""

    t: int
    token_id: int
    token: str | None
    alpha_r: float
    alpha_p: float
    d_r: float
    d_p: float
    lat_base_ms: float = 0.0
    lat_neg_ms: float = 0.0
    lat_guide_ms: float = 0.0
    # The calling thread's wall time for this token outside branch calls:
    # validation and preparation done on it, waits for the helper lane,
    # weights, mix and sampling.
    engine_ms: float = 0.0
    nucleus: int = 0  # tokens kept by top-p for the draw
    stage: str | None = None

    def to_record(self) -> dict:
        rec = {
            "t": self.t,
            "token_id": self.token_id,
            "token": self.token,
            "alpha_r": self.alpha_r,
            "alpha_p": self.alpha_p,
            "d_r": self.d_r,
            "d_p": self.d_p,
            "lat_base_ms": self.lat_base_ms,
            "lat_neg_ms": self.lat_neg_ms,
            "lat_guide_ms": self.lat_guide_ms,
            "engine_ms": self.engine_ms,
            "nucleus": self.nucleus,
        }
        if self.stage is not None:
            rec["stage"] = self.stage
        return rec

    @classmethod
    def from_record(cls, rec: Mapping) -> "StepTrace":
        return cls(
            t=int(rec["t"]),
            token_id=int(rec["token_id"]),
            token=rec.get("token"),
            alpha_r=float(rec["alpha_r"]),
            alpha_p=float(rec["alpha_p"]),
            d_r=float(rec["d_r"]),
            d_p=float(rec["d_p"]),
            lat_base_ms=float(rec.get("lat_base_ms", 0.0)),
            lat_neg_ms=float(rec.get("lat_neg_ms", 0.0)),
            lat_guide_ms=float(rec.get("lat_guide_ms", 0.0)),
            engine_ms=float(rec.get("engine_ms", 0.0)),
            nucleus=int(rec.get("nucleus", 0)),
            stage=rec.get("stage"),
        )


@dataclass(frozen=True)
class TraceHeader:
    """First record of every trace file; no wall-clock fields."""

    config_fingerprint: str
    seed: int
    log_base: str = DIVERGENCE_LOG_BASE
    effective_config: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "config_fingerprint": self.config_fingerprint,
            "log_base": self.log_base,
            "seed": self.seed,
            "effective_config": self.effective_config,
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "TraceHeader":
        return cls(
            config_fingerprint=str(rec["config_fingerprint"]),
            seed=int(rec["seed"]),
            log_base=str(rec.get("log_base", DIVERGENCE_LOG_BASE)),
            effective_config=dict(rec.get("effective_config", {})),
        )


def emit_traces(result_or_traces, destination, header: TraceHeader) -> None:
    """Write header + step records as JSONL.

    Accepts a DecodeResult (anything with a .traces attribute) or a plain
    iterable of StepTrace. destination is a path or an open text handle.
    I/O failures surface with the path attached.
    """
    traces = getattr(result_or_traces, "traces", result_or_traces)
    lines = [json.dumps(header.to_record(), ensure_ascii=False)]
    lines.extend(json.dumps(tr.to_record(), ensure_ascii=False) for tr in traces)
    payload = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(payload)
        return
    path = Path(destination)
    try:
        path.write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed writing trace file {path}: {exc}") from exc


def read_traces(source: str | Path | IO[str]) -> tuple[TraceHeader, list[StepTrace]]:
    """Parse a trace file written by emit_traces."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("trace stream is empty (missing header record)")
    header = TraceHeader.from_record(json.loads(lines[0]))
    steps = [StepTrace.from_record(json.loads(ln)) for ln in lines[1:]]
    return header, steps


# ---------------------------------------------------------------------------
# Attribution rendering: tokens shaded by how much the guide drove them.

N_BUCKETS = 4

# Light-to-dark terminal backgrounds (256-color codes) and matching
# foregrounds chosen for contrast.
_TERM_BG = (255, 251, 245, 238)
_TERM_FG = (16, 16, 231, 231)

_HTML_BG = ("#eef2ff", "#c7d2fe", "#818cf8", "#4338ca")
_HTML_FG = ("#1e1b4b", "#1e1b4b", "#ffffff", "#ffffff")


def bucket_of(alpha_r: float, n_buckets: int = N_BUCKETS) -> int:
    """Map alpha in [0,1] to a bucket index; 1.0 lands in the last bucket."""
    a = min(max(float(alpha_r), 0.0), 1.0)
    return min(int(a * n_buckets), n_buckets - 1)


def _token_texts(traces: Sequence[StepTrace]) -> list[str]:
    texts = []
    missing = False
    for tr in traces:
        if tr.token is None:
            missing = True
            texts.append(f"[{tr.token_id}]")
        else:
            texts.append(tr.token)
    if missing:
        warnings.warn(
            "some traces lack token strings; rendering falls back to token ids",
            stacklevel=3,
        )
    return texts


def render_attribution(traces: Sequence[StepTrace], fmt: str = "terminal") -> str:
    """Render per-token guide-contribution shading.

    fmt="terminal" uses ANSI 256-color backgrounds; fmt="html" produces a
    self-contained single-file page with inline styles and a legend. Darker
    shading means a larger reasoning weight on that token.
    """
    if fmt not in ("terminal", "html"):
        raise ValueError(f"unknown attribution format: {fmt!r}")
    texts = _token_texts(traces)
    buckets = [bucket_of(tr.alpha_r) for tr in traces]

    if fmt == "terminal":
        parts = []
        for text, b in zip(texts, buckets):
            parts.append(f"\x1b[48;5;{_TERM_BG[b]}m\x1b[38;5;{_TERM_FG[b]}m{text}\x1b[0m")
        legend = "  ".join(
            f"\x1b[48;5;{_TERM_BG[b]}m\x1b[38;5;{_TERM_FG[b]}m {b} \x1b[0m" for b in range(N_BUCKETS)
        )
        return " ".join(parts) + "\n\nguide weight buckets (light=low, dark=high): " + legend + "\n"

    spans = []
    for tr, text, b in zip(traces, texts, buckets):
        style = f"background:{_HTML_BG[b]};color:{_HTML_FG[b]}"
        title = f"t={tr.t} alpha_r={tr.alpha_r:.4f}"
        spans.append(f'<span class="tok" style="{style}" title="{title}">{_html.escape(text)}</span>')
    legend_spans = "".join(
        f'<span class="tok" style="background:{_HTML_BG[b]};color:{_HTML_FG[b]}">bucket {b}</span>'
        for b in range(N_BUCKETS)
    )
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        "<title>Token attribution</title>"
        "<style>body{font-family:monospace;line-height:2;margin:2em}"
        ".tok{padding:2px 4px;margin:1px;border-radius:3px;display:inline-block}"
        ".legend{margin-top:2em;font-size:0.9em}</style></head><body>"
        "<h1>Guide contribution per token</h1><p>"
        + " ".join(spans)
        + '</p><p class="legend">Darker means a larger reasoning weight: '
        + legend_spans
        + "</p></body></html>\n"
    )


def alpha_histogram(traces: Sequence[StepTrace], bins: int = 10) -> np.ndarray:
    """Counts of alpha_r over [0,1] in uniform bins; 1.0 goes to the last bin.

    Values are clipped into [0,1] first so the counts always sum to the
    trace count.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    alphas = np.clip([tr.alpha_r for tr in traces], 0.0, 1.0)
    counts, _ = np.histogram(alphas, bins=bins, range=(0.0, 1.0))
    return counts


# ---------------------------------------------------------------------------
# Answer extraction and accuracy tabulation.

_ANSWER_MARKER = re.compile(
    r"\banswer\s*(?:is|:)\s*[\(\[]?([A-Za-z0-9]+)[\)\]]?", re.IGNORECASE
)


def extract_choice(text: str, options) -> str | None:
    """Pull a multiple-choice label out of free-form response text.

    options is either a sequence of labels or a mapping label -> option
    text. Matching tiers, first tier that fires wins:

    1. An explicit marker ("Answer: B", "the answer is B"); the last such
       marker in the text is authoritative.
    2. The last standalone occurrence of a label (word-boundary,
       case-sensitive, optionally parenthesized).
    3. Option text: fires only when exactly one option's text occurs in
       the response (case-insensitive substring).

    Returns None when nothing matches; never raises on arbitrary text.
    """
    if isinstance(options, Mapping):
        labels = list(options.keys())
        option_texts = {k: v for k, v in options.items() if v}
    else:
        labels = list(options)
        option_texts = {}
    if not labels:
        raise ValueError("options must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValueError("option labels must be distinct")
    by_lower = {str(l).lower(): str(l) for l in labels}
    text = str(text)

    # Tier 1: explicit answer marker, last one wins.
    hits = [m.group(1).lower() for m in _ANSWER_MARKER.finditer(text)]
    for h in reversed(hits):
        if h in by_lower:
            return by_lower[h]

    # Tier 2: last standalone label occurrence.
    best_pos, best_label = -1, None
    for label in labels:
        pat = re.compile(r"(?<![A-Za-z0-9])" + re.escape(str(label)) + r"(?![A-Za-z0-9])")
        for m in pat.finditer(text):
            if m.start() > best_pos:
                best_pos, best_label = m.start(), str(label)
    if best_label is not None:
        return best_label

    # Tier 3: unique option-text substring.
    low = text.lower()
    present = [label for label, opt in option_texts.items() if str(opt).lower() in low]
    if len(present) == 1:
        return str(present[0])
    return None


def tabulate(
    predicted: Sequence[str | None],
    gold: Sequence[str],
    split: Sequence[str] | None = None,
) -> dict[str, float]:
    """Per-split accuracy; a None prediction counts as wrong.

    Without split labels every item lands in "overall". Empty input gives
    an empty table.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted and gold must be the same length")
    if split is None:
        split = ["overall"] * len(gold)
    if len(split) != len(gold):
        raise ValueError("split labels must align with items")
    totals: dict[str, int] = {}
    correct: dict[str, int] = {}
    for s, p, g in zip(split, predicted, gold):
        totals[s] = totals.get(s, 0) + 1
        if p is not None and p == g:
            correct[s] = correct.get(s, 0) + 1
    return {s: correct.get(s, 0) / totals[s] for s in totals}
