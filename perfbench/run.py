"""The repository's benchmark: closed-loop guided decodes, one in flight.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the engine is imported from its ``src/``.
One generator process sends the next decode only when the previous one has
returned. Workloads (why each exists is in BENCHMARK.json):

- ``synth152k_inproc``: ``stepwise`` with the default sampler over two
  in-process V=152,064 ``SynthModel`` sources, fixed-length outputs;
- ``synth152k_http``: the same jobs for the same seed, with both sources
  served from one child process (``child.py``) through ``RemoteSource``.

Every output is checked against ``oracle.py``, which recomputes the tokens
from the paper's formulas without the engine, right after the decode. That
check, the host-speed gauge that follows it (see GAUGE_REF_S) and warm-up
run outside the timed phase and outside ``setup_s``. The end-to-end timings
are scaled by the gauge; the lines printed before the JSON give each one
as timed too.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run in which every other decode is traced (see ``tracing.py``), and the
spans go to ``.perfbench_out/`` in the checkout. The lines before it print
every metric with its unit and sample count, including those the JSON
leaves out (p95 latencies, ``failed_frac``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
perf = time.perf_counter

MIN_P95_SAMPLES = 200
SYNTH_BASE_SEED = 11
SYNTH_GUIDE_SEED = 23
SYNTH_NEW_TOKENS = 4
SYNTH_PROMPT_TOKENS = (48, 112)
SYNTH_PAYLOAD_BYTES = 256 * 1024
WARMUP_JOB = 1_000_000  # warm-up jobs are numbered from here, apart from timed ones
# The host-speed gauge. The speed of a shared host's cores drifts by 15% to
# 35% over minutes, with the load of other tenants, and moves every timing
# with it. So right after each decode, outside the timed phase, the generator
# times a gauge: a fixed piece of the benchmark's own code doing the kind of
# work that the workload's step does, which no change to the engine can
# move. In process that is the oracle's reference decode (V-sized numpy
# kernels with Python between them). An HTTP step also spends most of its
# time in JSON transport, so there the gauge's slowness is the geometric mean
# of the oracle's and that of a JSON round trip of a logit row. Each decode's
# timings are divided by the slowness measured after it, the gauge's time
# over GAUGE_REF_S, so they read as on a host where the gauge takes that.
GAUGE_REF_S = {"oracle": 16e-3, "json": 250e-3}  # per reference token; per round trip


@dataclass
class Spec:
    """What one job asked for, kept to check its output afterwards."""

    strategy: str
    prompt: tuple
    key: str
    seed: int


@dataclass
class Env:
    base: object
    guide: object
    inproc: bool
    child: subprocess.Popen | None = None

    def command(self, cmd: str) -> dict:
        self.child.stdin.write(cmd + "\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited")
        return json.loads(line)

    def close(self) -> None:
        if self.child is None:
            return
        try:
            self.child.stdin.write("stop\n")
            self.child.stdin.close()
            self.child.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.child.kill()
            self.child.wait()
        finally:
            self.child.stdout.close()
            self.child = None


@dataclass
class Outcome:
    """One decode, reduced to what the metrics need."""

    index: int
    traced: bool
    error: str | None
    tokens: tuple
    t_job: float
    t_call: float
    t_end: float
    events: list
    alphas: list
    spec: Spec
    wall_x: float  # host slowness measured right after the decode
    failed: bool = False
    ready: list = field(default_factory=list)


class Tally:
    """Counts and latency samples of the timed phase, filled after it ends."""

    def __init__(self) -> None:
        self.outcomes: list[Outcome] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        # (seconds as timed, host slowness of the decode) per interval
        self.prefill: list[tuple[float, float]] = []
        self.steps: list[tuple[float, float]] = []

    def add(self, o: Outcome, expected: tuple) -> None:
        from tracing import token_times

        self.attempted += 1
        if o.error is None and o.tokens != tuple(expected):
            o.error = "tokens differ from the reference"
        if o.error is None:
            o.ready = token_times(o.events)
            if len(o.ready) != len(o.tokens):
                o.error = f"{len(o.ready)} session step/close rounds for {len(o.tokens)} tokens"
        if o.error is not None:
            o.failed = True
            self.failed += 1
            self.first_error = self.first_error or f"decode {o.index}: {o.error}"
        else:
            self.prefill.append((o.ready[0] - o.t_call, o.wall_x))
            self.steps.extend((b - a, o.wall_x) for a, b in zip(o.ready, o.ready[1:]))
        self.outcomes.append(o)


# -- workloads -----------------------------------------------------------------


def _timed(fn, *args):
    """``fn(*args)``, with the wall and CPU seconds it took."""
    w0, c0 = perf(), time.thread_time()
    out = fn(*args)
    return out, perf() - w0, time.thread_time() - c0


def _json_round_trip(row) -> list:
    """What the transport does to a logit row: encode it to JSON and parse it back."""
    return json.loads(json.dumps({"logits": row.tolist()}))["logits"]


class Synth152k:
    warmup_decodes = 1

    def __init__(self, name: str, http: bool) -> None:
        self.name = name
        self.http = http
        # One set-up varies by about 15% within a run; the median of many keeps
        # that out of setup_s. An HTTP set-up starts a child and takes about
        # 1.5 s with its gauge, so it gets fewer, to keep a run near a minute.
        self.setup_reps = 8 if http else 25

    def setup(self) -> Env:
        if not self.http:
            from synth import SynthModel, synth_vocabulary

            vocab = synth_vocabulary()
            return Env(
                SynthModel(SYNTH_BASE_SEED, vocabulary=vocab),
                SynthModel(SYNTH_GUIDE_SEED, vocabulary=vocab),
                inproc=True,
            )
        from omniguide import RemoteSource

        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(ROOT), str(SYNTH_BASE_SEED), str(SYNTH_GUIDE_SEED)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        env = Env(None, None, inproc=False, child=child)
        try:
            line = child.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before serving")
            endpoints = json.loads(line)["endpoints"]
            env.base = RemoteSource(endpoints["base"])
            env.guide = RemoteSource(endpoints["guide"])
        except BaseException:
            env.close()
            raise
        return env

    def job(self, env: Env, seed: int, i: int):
        import numpy as np
        from omniguide import DecodeJob, GuidanceConfig, OmniPayload, PromptInput, SamplerConfig
        from synth import THINK_TOKEN, VOCAB_SIZE

        rng = np.random.default_rng([seed, i])
        n = int(rng.integers(SYNTH_PROMPT_TOKENS[0], SYNTH_PROMPT_TOKENS[1] + 1))
        prompt = tuple(int(t) for t in rng.integers(0, VOCAB_SIZE - 1, size=n))
        key = f"scene{int(rng.integers(1000))}"
        head = key.encode() + b" "
        sampler_seed = int(rng.integers(2**31))
        job = DecodeJob(
            base_source=env.base,
            guide_source=env.guide,
            prompt=PromptInput(prompt, OmniPayload(head + rng.bytes(SYNTH_PAYLOAD_BYTES - len(head)))),
            guidance=GuidanceConfig(strategy="stepwise"),
            sampler=SamplerConfig(seed=sampler_seed),
            max_new_tokens=SYNTH_NEW_TOKENS,
            think_tag=(THINK_TOKEN,),
        )
        return job, Spec("stepwise", prompt, key, sampler_seed)

    def oracle(self):
        """The reference's own models, built apart from the engine's sources."""
        from synth import SynthModel, synth_vocabulary

        vocab = synth_vocabulary()
        return SynthModel(SYNTH_BASE_SEED, vocabulary=vocab), SynthModel(SYNTH_GUIDE_SEED, vocabulary=vocab)

    def check(self, models, spec: Spec) -> tuple[tuple, float, float]:
        """Reference tokens for ``spec``, and the host's wall and CPU slowness.

        Slowness is the gauge's time over its time on the reference host
        (see GAUGE_REF_S). The gauge is the reference decode itself, per
        token; over HTTP, the geometric mean of that and one JSON round trip
        of a logit row.
        """
        ref, wall, cpu = _timed(self.reference, models, spec)
        ref_s = GAUGE_REF_S["oracle"] * len(ref)
        wall_x, cpu_x = wall / ref_s, cpu / ref_s
        if self.http:
            row = models[0].logits_for(spec.prompt, spec.key)
            _, wall, cpu = _timed(_json_round_trip, row)
            wall_x = (wall_x * wall / GAUGE_REF_S["json"]) ** 0.5
            cpu_x = (cpu_x * cpu / GAUGE_REF_S["json"]) ** 0.5
        return ref, wall_x, cpu_x

    def reference(self, models, spec: Spec) -> tuple:
        import oracle
        from synth import THINK_TOKEN

        base, guide = models
        return oracle.reference(
            spec.strategy, base, guide, spec.prompt, spec.key, (THINK_TOKEN,),
            max_new_tokens=SYNTH_NEW_TOKENS, greedy=False, seed=spec.seed,
        )


WORKLOADS = {w.name: w for w in (Synth152k("synth152k_inproc", False), Synth152k("synth152k_http", True))}


# -- the run -------------------------------------------------------------------


def _settled_thread_count(baseline: int, timeout_s: float = 2.0) -> int:
    """Threads above ``baseline`` that are still alive after ``timeout_s``."""
    deadline = perf() + timeout_s
    while threading.active_count() > baseline and perf() < deadline:
        time.sleep(0.01)
    return threading.active_count() - baseline


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from omniguide import decode
    from tracing import Hooks, Tracer

    oracle_models = workload.oracle()
    setups: list[tuple[float, float]] = []  # (seconds, host slowness after it)
    env = None
    try:
        for _ in range(workload.setup_reps):
            if env is not None:
                env.close()
                env = None  # freed first, so set-ups do not stack up in peak_rss_mb
            t0 = perf()
            env = workload.setup()
            t1 = perf()
            setups.append((t1 - t0, workload.check(oracle_models, workload.job(env, seed, WARMUP_JOB)[1])[1]))
        hooks = Hooks()
        hooks.attach(env.base, lambda p: "base" if p.payload is not None else "neg")
        hooks.attach(env.guide, lambda p: "guide")
        tracer = Tracer() if trace else None
        if tracer is not None and env.inproc:
            tracer.add_method(env.base, "logits_for", "sources.eval")
            tracer.add_method(env.guide, "logits_for", "sources.eval")
        # Counted before the warm-up: a decode's branch threads outlive its
        # return by a moment, so a count taken after it can read too high.
        threads0 = threading.active_count()
        # Warm-up decodes are cut to two tokens: enough to run every path once.
        for i in range(workload.warmup_decodes):
            decode(replace(workload.job(env, seed, WARMUP_JOB + i)[0], max_new_tokens=2))
        if env.child is not None:
            env.command("reset")
            child_cpu0 = env.command("stats")["cpu_s"]

        outcomes: list[Outcome] = []
        expected: list[tuple] = []
        cpu_x: list[float] = []
        check_cpu_s = 0.0
        busy_s = 0.0
        cpu0 = time.process_time()
        t_start = perf()
        i = 0
        while busy_s < seconds:
            t_job = perf()
            job, spec = workload.job(env, seed, i)
            traced = tracer is not None and i % 2 == 0
            events = hooks.begin()
            error = None
            result = None
            t_call = perf()
            if traced:
                tracer.begin(i, t_call)
                tracer.install()
            try:
                result = decode(job)
                if result.finish_reason == "error":
                    error = result.error
            except Exception as exc:  # a raising decode is a failed decode
                error = f"{type(exc).__name__}: {exc}"
            finally:
                t_end = perf()
                if traced:
                    tracer.uninstall()
                    tracer.end(t_end, events)
            busy_s += t_end - t_job
            out = tuple(result.tokens) if result is not None else ()
            alphas = [t.alpha_r for t in result.traces] if trace and result is not None else []
            # The reference is computed here, paused out of the timed phase,
            # and its time is the host-speed gauge of this decode.
            c0 = time.thread_time()
            ref, wall_x, cx = workload.check(oracle_models, spec)
            check_cpu_s += time.thread_time() - c0
            expected.append(ref)
            cpu_x.append(cx)
            outcomes.append(Outcome(i, traced, error, out, t_job, t_call, t_end, events, alphas, spec, wall_x))
            i += 1
        cpu_s = time.process_time() - cpu0 - check_cpu_s
        vocab_size = env.base.vocabulary.size
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        leaked = _settled_thread_count(threads0)
        server = None
        if env.child is not None:
            server = env.command("stats")
            server["cpu_s_timed"] = server["cpu_s"] - child_cpu0
            cpu_s += server["cpu_s_timed"]
            rss_kb += server["peak_rss_kb"]
    finally:
        if env is not None:
            env.close()

    tally = Tally()
    for o, ref in zip(outcomes, expected):
        tally.add(o, ref)
    if tracer is not None:
        tracer.write(ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{seed}.jsonl", t_start)
    return {
        "tally": tally,
        "busy_s": busy_s,
        "setups": setups,
        "cpu_x": statistics.fmean(cpu_x),
        "cpu_s": cpu_s,
        "rss_kb": rss_kb,
        "leaked_threads": leaked,
        "server": server,
        "tracer": tracer,
        "vocab_size": vocab_size,
    }


# -- metrics -------------------------------------------------------------------


def pct(values, q: float) -> float:
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


class Report:
    """Metric lines for people, and the values for the JSON result."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}
        self.lines: list[str] = []

    def add(self, name: str, value: float, unit: str, n: int | None = None, note: str = "") -> None:
        self.values[name] = {"value": float(value), "unit": unit}
        count = f"n={n}" if n is not None else ""
        self.lines.append(f"{name:<36} {value:>14.6g} {unit:<6} {count:<10} {note}".rstrip())

    def timing(self, name: str, samples_s, q: float, note: str = "") -> None:
        n = len(samples_s)
        if q > 50 and n < MIN_P95_SAMPLES:
            self.add(name, 0.0, "ms", n, f"unsupported: fewer than {MIN_P95_SAMPLES} samples")
        elif n == 0:
            self.add(name, 0.0, "ms", 0, "unmeasured: no samples")
        else:
            self.add(name, pct(samples_s, q) * 1e3, "ms", n, note)

    def scaled(self, name: str, samples, q: float) -> None:
        """``timing`` of (seconds, host slowness) pairs, each divided by its slowness."""
        raw = pct([t for t, _ in samples], q) * 1e3
        self.timing(name, [t / x for t, x in samples], q, f"{raw:.6g} ms as timed")


def end_to_end(out: dict) -> Report:
    tally = out["tally"]
    rep = Report()
    tokens = sum(len(o.tokens) for o in tally.outcomes)
    busy_x = sum((o.t_end - o.t_job) / o.wall_x for o in tally.outcomes)
    n_x = len(tally.outcomes)
    rep.add("host.wall_x", statistics.median(o.wall_x for o in tally.outcomes), "x", n_x, "median wall slowness")
    rep.add("host.cpu_x", out["cpu_x"], "x", n_x, "mean CPU slowness")
    setups = out["setups"]
    raw = statistics.median(t for t, _ in setups)
    rep.add("setup_s", statistics.median(t / x for t, x in setups), "s", len(setups), f"median of set-ups; {raw:.6g} s as timed")
    rep.scaled("prefill_ms_p50", tally.prefill, 50)
    rep.scaled("prefill_ms_p95", tally.prefill, 95)
    rep.scaled("step_ms_p50", tally.steps, 50)
    rep.scaled("step_ms_p95", tally.steps, 95)
    rate = tokens / out["busy_s"]
    rep.add("tokens_per_s", tokens / busy_x, "1/s", tokens, f"{rate:.6g} over {out['busy_s']:.3f} s as timed")
    cpu_ms = out["cpu_s"] * 1e3 / max(tokens, 1)
    rep.add("cpu_ms_per_token", cpu_ms / out["cpu_x"], "ms", tokens, f"{cpu_ms:.6g} ms as timed")
    rep.add("failed_frac", tally.failed / max(tally.attempted, 1), "frac", tally.attempted)
    rep.add("peak_rss_mb", out["rss_kb"] / 1024.0, "MB", note="generator plus server child" if out["server"] else "")
    return rep


def per_layer(out: dict) -> Report:
    from tracing import union_length

    tracer = out["tracer"]
    server = out["server"]
    http = server is not None
    rep = Report()
    decodes = out["tally"].outcomes
    ok = [o for o in decodes if not o.failed]
    traced = [o for o in ok if o.traced]
    traced_ids = {o.index for o in traced}
    steps_traced = sum(len(o.tokens) for o in traced) or 1
    tokens_all = sum(len(o.tokens) for o in ok) or 1
    spans: dict[str, list] = {}
    by_decode: dict[int, list] = {}
    for span in tracer.spans:
        if span[2] in traced_ids:
            spans.setdefault(span[3], []).append(span)
            by_decode.setdefault(span[2], []).append(span)

    def calls(op, role=None):
        return [e[3] - e[2] for o in ok for e in o.events if e[1] == op and role in (None, e[0])]

    def unmeasured(metric, name, unit):
        if name in tracer.missing:
            rep.add(metric, 0.0, unit, 0, f"unmeasured: {tracer.missing[name]}")
            return True
        return False

    def kernel(metric, name, q=50):
        if not unmeasured(metric, name, "ms"):
            rep.timing(metric, [s[5] - s[4] for s in spans.get(name, [])], q)

    def per_step(metric, name):
        if not unmeasured(metric, name, "count"):
            n = len(spans.get(name, []))
            rep.add(metric, n / steps_traced, "count", n)

    na = "not applicable: no {} layer in this workload"
    # decoder: its self time is the decode's wall time that no branch call
    # and no engine kernel span covers.
    self_s = 0.0
    for o in traced:
        busy = [(e[2], e[3]) for e in o.events]
        busy += [(s[4], s[5]) for s in by_decode.get(o.index, []) if not s[3].startswith(("decode", "branch."))]
        self_s += (o.t_end - o.t_call) - union_length(busy)
    rep.add("decoder.self_ms_per_step", self_s * 1e3 / steps_traced, "ms", steps_traced)
    kernel("decoder.round_ms_p50", "decoder.round")
    n_calls = sum(len(o.events) for o in traced)
    rep.add("decoder.branch_calls_per_step", n_calls / steps_traced, "count", n_calls)
    rep.add("decoder.leaked_threads", out["leaked_threads"], "count")
    # sources: in-process sessions
    if http:
        for m, unit in (("sources.open_ms_p50", "ms"), ("sources.step_ms_p50", "ms"), ("sources.calls_per_step", "count")):
            rep.add(m, 0.0, unit, 0, na.format("in-process source"))
    else:
        rep.timing("sources.open_ms_p50", calls("open"), 50)
        rep.timing("sources.step_ms_p50", calls("step"), 50)
        per_step("sources.calls_per_step", "sources.eval")
    # guidance
    kernel("guidance.fuse_ms_p50", "guidance.fuse")
    alphas = [a for o in ok for a in o.alphas]
    rep.add("guidance.alpha_r_mean", statistics.fmean(alphas) if alphas else 0.0, "frac", len(alphas))
    rep.add("guidance.guided_step_frac", sum(a > 0 for a in alphas) / max(len(alphas), 1), "frac", len(alphas))
    # numerics
    kernel("numerics.softmax_ms_p50", "numerics.softmax")
    kernel("numerics.js_ms_p50", "numerics.js")
    per_step("numerics.softmax_calls_per_step", "numerics.softmax")
    per_step("numerics.js_calls_per_step", "numerics.js")
    per_step("numerics.validate_calls_per_step", "numerics.validate")
    if not unmeasured("numerics.validate_mb_per_step", "numerics.validate", "MB"):
        validate = len(spans.get("numerics.validate", [])) / steps_traced
        rep.add("numerics.validate_mb_per_step", validate * out["vocab_size"] * 8 / 1e6, "MB")
    # sampler
    kernel("sampler.sample_ms_p50", "sampler.sample")
    kernel("sampler.top_p_ms_p50", "sampler.top_p")
    nucleus = [s[6] for s in spans.get("sampler.top_p", [])]
    for q in (50, 95):
        name = f"sampler.nucleus_size_p{q}"
        if unmeasured(name, "sampler.top_p", "count"):
            continue
        if q > 50 and len(nucleus) < MIN_P95_SAMPLES:
            rep.add(name, 0.0, "count", len(nucleus), f"unsupported: fewer than {MIN_P95_SAMPLES} samples")
        else:
            rep.add(name, pct(nucleus, q), "count", len(nucleus))
    # client, server, transport
    if http:
        for role in ("base", "neg", "guide"):
            rep.timing(f"client.{role}.open_ms_p50", calls("open", role), 50)
        rep.timing("client.step_ms_p50", calls("step"), 50)
        rep.timing("client.step_ms_p95", calls("step"), 95)
        rep.timing("client.close_ms_p50", calls("close"), 50)
        wire = [e for o in decodes for e in o.events if e[1] in ("open", "step", "close")]
        rep.add("client.calls", len(wire), "count")
        rep.add("client.errors", sum(not e[4] for e in wire), "count")
        rep.timing("server.queue_ms_p50", server["wait_s"], 50)
        rep.timing("server.queue_ms_p95", server["wait_s"], 95)
        rep.timing("server.hold_ms_p50", server["hold_s"], 50)
        rep.timing("server.model_ms_p50", server["model_s"], 50)
        rep.add("server.requests", len(server["hold_s"]) + server["closes"], "count")
        rep.add("server.live_sessions_end", server["live_sessions"], "count")
        rep.add("server.cpu_ms_per_step", server["cpu_s_timed"] * 1e3 / tokens_all, "ms", tokens_all)
        # Open and step take the compute lock; the rest of their client time
        # is serialization, the round trip and parsing.
        locked = [e[3] - e[2] for o in decodes for e in o.events if e[1] in ("open", "step")]
        held = [w + h for w, h in zip(server["wait_s"], server["hold_s"])]
        overhead = statistics.fmean(locked) - statistics.fmean(held) if locked and held else 0.0
        rep.add("transport.overhead_ms_per_call", overhead * 1e3, "ms", len(locked))
        if not unmeasured("transport.resp_kb_per_call", "client.parse", "KiB"):
            sizes = [s[6] for s in spans.get("client.parse", [])]
            rep.add("transport.resp_kb_per_call", statistics.fmean(sizes) / 1024 if sizes else 0.0, "KiB", len(sizes))
    else:
        for m in CLIENT_SERVER_METRICS:
            rep.add(m, 0.0, "ms" if "_ms" in m else "count", 0, na.format("client/server"))
        rep.add("transport.overhead_ms_per_call", 0.0, "ms", 0, na.format("transport"))
        rep.add("transport.resp_kb_per_call", 0.0, "KiB", 0, na.format("transport"))
    # tracing cost: traced against untraced decodes of the same run
    on = [b - a for o in traced for a, b in zip(o.ready, o.ready[1:])]
    off = [b - a for o in ok if not o.traced for a, b in zip(o.ready, o.ready[1:])]
    frac = pct(on, 50) / pct(off, 50) - 1 if on and off else 0.0
    rep.add("trace.overhead_frac", frac, "frac", len(on), f"vs n={len(off)} untraced step intervals")
    return rep


CLIENT_SERVER_METRICS = (
    "client.base.open_ms_p50", "client.neg.open_ms_p50", "client.guide.open_ms_p50",
    "client.step_ms_p50", "client.step_ms_p95", "client.close_ms_p50", "client.calls", "client.errors",
    "server.queue_ms_p50", "server.queue_ms_p95", "server.hold_ms_p50", "server.model_ms_p50",
    "server.requests", "server.live_sessions_end", "server.cpu_ms_per_step",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    engine = ROOT / "src" / "omniguide" / "__init__.py"
    if not engine.is_file():
        print(f"perfbench: not a checkout of the engine, missing {engine.relative_to(ROOT)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    workload = WORKLOADS[args.workload]
    out = run(workload, args.seed, args.seconds, bool(args.trace))
    tally = out["tally"]
    e2e = end_to_end(out)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} decodes={tally.attempted}")
    for line in e2e.lines:
        print(line)
    if args.trace:
        layers = per_layer(out)
        print("-- per layer (every other decode traced) --")
        for line in layers.lines:
            print(line)
        metrics = layers.values
    else:
        metrics = {k: e2e.values[k] for k in END_TO_END}
    if tally.first_error:
        print(f"first failed {tally.first_error}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


END_TO_END = ("setup_s", "prefill_ms_p50", "step_ms_p50", "tokens_per_s", "cpu_ms_per_token", "peak_rss_mb")

if __name__ == "__main__":
    sys.exit(main())
