"""Three-branch autoregressive decoding.

One decode job drives up to three sessions over the same token stream:

- base: the backbone conditioned on the text prompt plus the omni payload,
- neg: the backbone on the text prompt alone (payload withheld),
- guide: the reasoner on the text prompt plus an optional think tag.

Each step gathers one logit vector per branch, fuses them under the
configured strategy, samples exactly one token, and broadcasts it to every
open session so all branches stay on the same prefix.

The engine work of a step runs in a per-decode ``guidance.Workspace``: each
branch's row is validated once as it arrives and, for a strategy weighted by
JS divergence (stepwise), prepared once (softmax and floored log, shared by
both JS terms) into preallocated buffers; the mix, penalty, temperature and
sampling softmax then overwrite one fused buffer, and the draw looks at the
nucleus only.

Branches run concurrently (on a thread pool, joined before fusion) only when
one of them is a remote source; in-process branches are called in turn on
the calling thread, where a pool would only add dispatch and lock
contention. From LANE_MIN_VOCAB tokens up, a divergence-weighted decode also
shares the preparations and the JS terms between two lanes, since numpy
releases the GIL in its kernels: the calling thread and one helper thread
(in process) or pool thread (over HTTP) each take the next task left
(``guidance.share``). In process, the preparations start once the branch
calls are done; over HTTP, each pool thread prepares its own branch as the
reply lands, and only the JS terms are shared.

Per-branch wall-clock latencies, the engine's share of each step and the
nucleus size land in the step traces; prefill and generate timings mirror
the two phases of cached inference.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .client import RemoteSource
from .errors import EngineError
from .guidance import STRATEGIES, GuidanceConfig, Workspace, share
from .report import StepTrace
from .sampler import SamplerConfig, make_rng, sample_into
from .sources import (
    LogitSource,
    OmniPayload,
    PromptInput,
    Session,
    require_compatible,
)


@dataclass(frozen=True)
class DecodeJob:
    """A complete description of one guided generation run.

    neg_payload is normally None (the negative branch sees text only); a
    payload here reproduces ablations whose contrast branch re-processes
    the omni input. think_tag tokens are appended to the guide branch's
    prompt only.
    """

    base_source: LogitSource
    prompt: PromptInput
    guide_source: LogitSource | None = None
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    max_new_tokens: int = 4096
    stop_tokens: frozenset[int] = frozenset()
    think_tag: tuple[int, ...] = ()
    neg_payload: OmniPayload | None = None

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    @property
    def branches(self) -> tuple[str, ...]:
        return STRATEGIES[self.guidance.strategy].branches


@dataclass
class DecodeResult:
    tokens: tuple[int, ...]
    text: str
    finish_reason: str  # stop_token | length_limit | error
    traces: list[StepTrace]
    prefill_s: float = 0.0
    generate_s: float = 0.0
    mean_step_s: float = 0.0
    branch_prefill_s: dict = field(default_factory=dict)
    branch_generate_s: dict = field(default_factory=dict)
    error: str | None = None


def _validate_job(job: DecodeJob) -> None:
    if not job.prompt.tokens:
        raise ValueError("prompt must contain at least one token")
    needs_guide = "guide" in job.branches
    if needs_guide and job.guide_source is None:
        raise ValueError(
            f"strategy {job.guidance.strategy!r} needs a guide source and none was given"
        )
    if job.guide_source is not None:
        require_compatible(
            job.base_source.vocabulary,
            job.guide_source.vocabulary,
            context="base vs guide",
        )


def _branch_prompts(job: DecodeJob) -> dict[str, tuple[LogitSource, PromptInput]]:
    prompts: dict[str, tuple[LogitSource, PromptInput]] = {}
    for name in job.branches:
        if name == "base":
            prompts[name] = (job.base_source, job.prompt)
        elif name == "neg":
            prompts[name] = (
                job.base_source,
                PromptInput(tokens=job.prompt.tokens, payload=job.neg_payload),
            )
        else:  # guide
            assert job.guide_source is not None
            prompts[name] = (
                job.guide_source,
                PromptInput(tokens=job.prompt.tokens + tuple(job.think_tag)),
            )
    return prompts


# Vocabulary size from which a divergence-weighted decode uses two lanes.
# Below it, waking the other lane costs more than it saves. Mean in-process
# stepwise step over 12-30 decodes of 16 tokens, one lane vs two, on 2 CPUs:
# V=32,768 1.67 vs 1.83 ms, V=40,960 2.07 vs 2.08 and 2.30 vs 2.16,
# V=49,152 2.68 vs 2.36, V=65,536 3.27 vs 2.69, V=152,064 8.74 vs 7.53.
LANE_MIN_VOCAB = 49_152


# Each thread keeps its last decode's workspace for its next one. Fresh
# buffers for every decode (about 16 MB at V=152,064) cost a page fault per
# 4 KiB once the allocator has handed the last decode's memory back to the
# system: about 4 ms of a 12 ms prefill, measured on 2 CPUs.
_spare = threading.local()


def _take_workspace(cfg: GuidanceConfig, size: int) -> Workspace:
    ws = getattr(_spare, "ws", None)
    _spare.ws = None  # a decode nested in this one gets its own
    if ws is None or ws.size != size or ws.row is not STRATEGIES[cfg.strategy]:
        return Workspace(cfg, size)
    ws.cfg = cfg
    ws.zeros.fill(0.0)
    return ws


def _timed_step(session: Session, token: int) -> tuple[np.ndarray, float]:
    t0 = time.perf_counter()
    z = session.step(token)
    return z, time.perf_counter() - t0


def _gather(pool: Executor | None, lane: Executor | None, ws: Workspace, calls: dict):
    """Run one round of branch calls, admit each row into ws, and return each call's seconds.

    With a pool the calls run concurrently and each pool thread admits its
    own row as it lands, so a branch's preparation overlaps the others'
    transport; every call finishes before the first failure (in branch
    order) is raised, so no branch is still using its session when the
    caller goes on to close it. Without one the calls run in turn, in
    branch order, on the calling thread, and the first failure raises at
    once; then the rows are admitted, shared with the lane when there is
    one. The lane starts only after the calls: run next to a source's many
    small numpy calls, it would hand the GIL back and forth at each of them.
    """
    if pool is not None:

        def call_and_admit(name, call):
            z, dt = call()
            ws.admit(name, z)
            return dt

        futures = {name: pool.submit(call_and_admit, name, call) for name, call in calls.items()}
        wait(futures.values())
        return {name: fut.result() for name, fut in futures.items()}
    seconds, rows = {}, {}
    for name, call in calls.items():
        rows[name], seconds[name] = call()
    share(lane, [partial(ws.admit, name, z) for name, z in rows.items()])
    return seconds


def decode(job: DecodeJob, *, stage: str | None = None, rng=None) -> DecodeResult:
    """Run one guided generation job to a stop token, the length limit, or error.

    Branch transport or lifecycle failures mid-run abort the job and return
    a partial result with finish_reason "error"; precondition violations
    (missing guide, vocabulary mismatch, empty prompt) raise before any
    session opens. A caller-supplied rng overrides the sampler seed, which
    lets multi-stage pipelines share one stream.
    """
    _validate_job(job)
    vocab = job.base_source.vocabulary
    prompts = _branch_prompts(job)
    if rng is None:
        rng = make_rng(job.sampler)
    ws = _take_workspace(job.guidance, vocab.size)

    sessions: dict[str, Session] = {}
    tokens: list[int] = []
    traces: list[StepTrace] = []
    finish = "length_limit"
    error_msg: str | None = None
    branch_prefill: dict[str, float] = {}
    branch_generate: dict[str, float] = dict.fromkeys(job.branches, 0.0)
    step_intervals: list[float] = []

    t_start = time.perf_counter()
    prefill_s = 0.0
    remote = any(isinstance(src, RemoteSource) for src, _ in prompts.values())
    pool = ThreadPoolExecutor(len(prompts)) if remote and len(prompts) > 1 else None
    lane = None
    if ws.row.divergences and vocab.size >= LANE_MIN_VOCAB:
        lane = pool or ThreadPoolExecutor(1, thread_name_prefix="omniguide-lane")
    try:
        try:
            def _open(name: str, src: LogitSource, prompt: PromptInput):
                t0 = time.perf_counter()
                # Registered at once, so the finally below closes it even
                # when a sibling branch fails to open.
                sess = sessions[name] = src.open(prompt)
                z = sess.logits()
                return z, time.perf_counter() - t0

            t_round = t_start
            lat = _gather(
                pool, lane, ws, {name: partial(_open, name, *sp) for name, sp in prompts.items()}
            )
            t_gathered = time.perf_counter()
            branch_prefill = dict(lat)

            history = list(job.prompt.tokens) if job.sampler.penalize_prompt else []
            t_prev = None
            for t in range(1, job.max_new_tokens + 1):
                fused, (alpha_r, alpha_p, d_r, d_p) = ws.fuse(t, lane)
                token, nucleus = sample_into(fused, history, job.sampler, rng, ws.zeros)
                tokens.append(token)
                history.append(token)
                now = time.perf_counter()
                if t == 1:
                    prefill_s = now - t_start
                else:
                    step_intervals.append(now - t_prev)
                t_prev = now
                # The engine's share is the round's time outside branch
                # calls; with a pool, the whole gather counts as calls.
                in_calls = t_gathered - t_round if pool is not None else sum(lat.values())
                traces.append(
                    StepTrace(
                        t=t,
                        token_id=token,
                        token=vocab.tokens[token],
                        alpha_r=alpha_r,
                        alpha_p=alpha_p,
                        d_r=d_r,
                        d_p=d_p,
                        lat_base_ms=lat.get("base", 0.0) * 1e3,
                        lat_neg_ms=lat.get("neg", 0.0) * 1e3,
                        lat_guide_ms=lat.get("guide", 0.0) * 1e3,
                        engine_ms=(now - t_round - in_calls) * 1e3,
                        nucleus=nucleus,
                        stage=stage,
                    )
                )
                if token in job.stop_tokens:
                    finish = "stop_token"
                    break
                if t == job.max_new_tokens:
                    finish = "length_limit"
                    break
                t_round = time.perf_counter()
                lat = _gather(
                    pool,
                    lane,
                    ws,
                    {name: partial(_timed_step, sessions[name], token) for name in prompts},
                )
                t_gathered = time.perf_counter()
                for name, dt in lat.items():
                    branch_generate[name] += dt
        except EngineError as exc:
            finish = "error"
            error_msg = f"{type(exc).__name__}: {exc}"
    finally:
        for sess in sessions.values():
            try:
                sess.close()
            except Exception:
                pass
        for executor in {pool, lane} - {None}:
            executor.shutdown(wait=True)
        ws.z.clear()
        _spare.ws = ws

    total = time.perf_counter() - t_start
    if finish == "error" and not tokens:
        prefill_s = total
    generate_s = max(total - prefill_s, 0.0)
    mean_step_s = float(np.mean(step_intervals)) if step_intervals else 0.0
    return DecodeResult(
        tokens=tuple(tokens),
        text=" ".join(vocab.tokens[t] for t in tokens),
        finish_reason=finish,
        traces=traces,
        prefill_s=prefill_s,
        generate_s=generate_s,
        mean_step_s=mean_step_s,
        branch_prefill_s=branch_prefill,
        branch_generate_s=branch_generate,
        error=error_msg,
    )


def caption_then_answer(job: DecodeJob) -> DecodeResult:
    """Two-stage pipeline baseline: describe the payload, then answer from text.

    Stage 1 decodes a caption from the base source alone (payload attached,
    no guidance). Stage 2 hands the stop-token-stripped caption plus the
    original question text to the guide source and decodes the answer, again
    without guidance. The information path is one-way: whatever the caption
    fails to express is lost to the answering model.
    """
    if job.guide_source is None:
        raise ValueError("caption_then_answer needs both a base and a guide source")
    require_compatible(
        job.base_source.vocabulary, job.guide_source.vocabulary, context="base vs guide"
    )
    rng = make_rng(job.sampler)

    caption_job = replace(job, guide_source=None, guidance=GuidanceConfig(strategy="none"))
    stage1 = decode(caption_job, stage="caption", rng=rng)
    if stage1.finish_reason == "error":
        return stage1

    caption_tokens = tuple(t for t in stage1.tokens if t not in job.stop_tokens)
    answer_prompt = PromptInput(
        tokens=caption_tokens + tuple(job.prompt.tokens) + tuple(job.think_tag)
    )
    answer_job = replace(
        job,
        base_source=job.guide_source,
        guide_source=None,
        prompt=answer_prompt,
        guidance=GuidanceConfig(strategy="none"),
        neg_payload=None,
        think_tag=(),
    )
    stage2 = decode(answer_job, stage="answer", rng=rng)

    return DecodeResult(
        tokens=stage2.tokens,
        text=stage2.text,
        finish_reason=stage2.finish_reason,
        traces=stage1.traces + stage2.traces,
        prefill_s=stage1.prefill_s + stage2.prefill_s,
        generate_s=stage1.generate_s + stage2.generate_s,
        mean_step_s=stage2.mean_step_s,
        branch_prefill_s={"caption": stage1.prefill_s, "answer": stage2.prefill_s},
        branch_generate_s={"caption": stage1.generate_s, "answer": stage2.generate_s},
        error=stage2.error,
    )


@dataclass(frozen=True)
class BenchRow:
    name: str
    strategy: str
    prefill_s: float
    mean_step_s: float
    prefill_ratio: float
    step_ratio: float


@dataclass
class BenchReport:
    baseline: str
    repetitions: int
    rows: list[BenchRow]

    def format_table(self) -> str:
        header = f"{'job':<16} {'strategy':<16} {'prefill':>12} {'per-step':>12} {'prefill x':>10} {'step x':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.name:<16} {r.strategy:<16} {r.prefill_s * 1e3:>10.2f}ms {r.mean_step_s * 1e3:>10.2f}ms"
                f" {r.prefill_ratio:>9.2f}x {r.step_ratio:>7.2f}x"
            )
        lines.append(f"(means over {self.repetitions} repetition(s); baseline: {self.baseline})")
        return "\n".join(lines)


def bench(jobs: dict[str, DecodeJob], repetitions: int = 1) -> BenchReport:
    """Time each job and report prefill / per-step means and ratios.

    jobs maps row names to fully configured DecodeJobs; exactly the rows
    given are run, and one of them must use the plain strategy "none" to
    serve as the ratio baseline (the first such row by insertion order).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not jobs:
        raise ValueError("bench needs at least one job")
    baseline_name = next(
        (name for name, job in jobs.items() if job.guidance.strategy == "none"), None
    )
    if baseline_name is None:
        raise ValueError("bench needs a strategy 'none' job as the ratio baseline")

    means: dict[str, tuple[float, float]] = {}
    for name, job in jobs.items():
        prefills, steps = [], []
        for _ in range(repetitions):
            res = decode(job)
            if res.finish_reason == "error":
                raise EngineError(f"bench job {name!r} failed: {res.error}")
            prefills.append(res.prefill_s)
            steps.append(res.mean_step_s)
        means[name] = (float(np.mean(prefills)), float(np.mean(steps)))

    base_prefill, base_step = means[baseline_name]
    rows = [
        BenchRow(
            name=name,
            strategy=jobs[name].guidance.strategy,
            prefill_s=p,
            mean_step_s=s,
            prefill_ratio=p / base_prefill if base_prefill > 0 else float("nan"),
            step_ratio=s / base_step if base_step > 0 else float("nan"),
        )
        for name, (p, s) in means.items()
    ]
    return BenchReport(baseline=baseline_name, repetitions=repetitions, rows=rows)
