"""Progress hooks on branch sessions, and the kernel tracer of the traced run.

``Hooks`` is always on. It replaces ``open`` on each source object the
benchmark builds, and ``logits``/``step``/``close`` on each session that
``open`` returns, by instance attributes that record (branch, op, start,
end, ok). The engine still sees the real session classes. The start of each
round of ``step`` calls, and of the first ``close``, is when a token became
ready; that is how the generator sees prefill and step latency.

``Tracer`` is installed only around the traced decodes of a ``--trace 1``
run. It wraps engine functions by rebinding the module-level names the
engine calls, records spans (id, parent, decode id, name, start, end) in
memory, and names any function it could not find, so that a layer which a
later change renamed is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from types import ModuleType

import numpy as np

perf = time.perf_counter

# (module, function, span name). Every binding of the function object in the
# engine's modules is wrapped, so a call is traced whichever module's name
# it goes through, and exactly once.
KERNELS = (
    ("decoder", "_gather", "decoder.round"),
    ("decoder", "_fuse", "guidance.fuse"),
    ("numerics", "softmax", "numerics.softmax"),
    ("numerics", "js_divergence", "numerics.js"),
    ("numerics", "as_logits", "numerics.validate"),
    ("numerics", "as_prob_dist", "numerics.validate"),
    ("sampler", "sample_token", "sampler.sample"),
    ("sampler", "apply_repetition_penalty", "sampler.penalty"),
    ("sampler", "top_p_filter", "sampler.top_p"),
    ("client", "_parse_json", "client.parse"),
)
# What a span records besides its times: the nucleus size of each top-p
# filter, and the body size of each response the client parses.
EXTRAS = {
    "sampler.top_p": lambda args, out: int(np.count_nonzero(out)),
    "client.parse": lambda args, out: len(getattr(args[0], "content", b"") if args else b""),
}


class Hooks:
    """Per-decode event lists fed by instance-attribute hooks."""

    def __init__(self) -> None:
        self.events: list = []

    def begin(self) -> list:
        self.events = []
        return self.events

    def attach(self, source, role_of) -> None:
        """Hook ``source.open``; ``role_of(prompt)`` names the branch."""
        real_open = source.open

        def open(prompt):
            role = role_of(prompt)
            events = self.events
            t0 = perf()
            try:
                session = real_open(prompt)
            except BaseException:
                events.append((role, "open", t0, perf(), False))
                raise
            events.append((role, "open", t0, perf(), True))
            for op in ("logits", "step", "close"):
                setattr(session, op, _timed(getattr(session, op), role, op, events))
            return session

        source.open = open


def _timed(fn, role, op, events):
    def call(*args):
        t0 = perf()
        ok = False
        try:
            out = fn(*args)
            ok = True
            return out
        finally:
            events.append((role, op, t0, perf(), ok))

    return call


def token_times(events) -> list[float]:
    """When each output token became ready (see the module docstring)."""
    steps: dict[str, list[float]] = {}
    closes = []
    for role, op, t0, _t1, _ok in events:
        if op == "step":
            steps.setdefault(role, []).append(t0)
        elif op == "close":
            closes.append(t0)
    rounds = max((len(v) for v in steps.values()), default=0)
    times = [min(v[r] for v in steps.values() if len(v) > r) for r in range(rounds)]
    if closes:
        times.append(min(closes))
    return times


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (span id, parent id, decode id, name, t0, t1, extra)
        self.missing: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self.decode_id = -1
        self.decode_span = 0
        importlib.import_module("omniguide")
        engine = [m for n, m in list(sys.modules.items()) if n.startswith("omniguide.")]
        for home, name, span in KERNELS:
            try:
                fn = getattr(importlib.import_module(f"omniguide.{home}"), name, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.missing.setdefault(span, f"omniguide.{home}.{name} not found")
                continue
            wrapper = self._wrap(fn, span)
            for mod in engine:
                for attr, val in vars(mod).items():
                    if val is fn:
                        self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, fn, name):
        local = self._local
        spans = self.spans
        ids = self._ids
        extra = EXTRAS.get(name)

        def call(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.decode_span
            sid = next(ids)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            info = extra(args, out) if extra is not None else None
            spans.append((sid, parent, self.decode_id, name, t0, t1, info))
            return out

        return call

    def add_method(self, obj, attr: str, span: str) -> None:
        """Also trace one object's method, such as an in-process model's."""
        self._patches.append((obj, attr, getattr(obj, attr), self._wrap(getattr(obj, attr), span)))

    def begin(self, decode_id: int, t0: float) -> None:
        self.decode_id = decode_id
        self.decode_span = next(self._ids)
        self._decode_t0 = t0

    def end(self, t1: float, events) -> None:
        """Close the decode span and keep the branch events as its children."""
        for role, op, s0, s1, ok in events:
            self.spans.append((next(self._ids), self.decode_span, self.decode_id, f"branch.{role}.{op}", s0, s1, ok))
        self.spans.append((self.decode_span, 0, self.decode_id, "decode", self._decode_t0, t1, None))

    def install(self) -> None:
        for target, attr, _fn, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, fn, _wrapper in self._patches:
            if isinstance(target, ModuleType):
                setattr(target, attr, fn)
            else:
                delattr(target, attr)

    def write(self, path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, did, name, t0, t1, info in self.spans:
                row = [sid, parent, did, name, round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1)]
                if info is not None:
                    row.append(info)
                fh.write(json.dumps(row) + "\n")


def union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total
