"""Command-line interface.

Subcommands: decode (run one guided generation), compare (same job under
several strategies), bench (latency ratio table against a plain baseline),
render (trace visualization), serve (start the fixture model server).

Exit codes: 0 success, 2 usage (bad flags, missing files), 3 config
validation, 4 handshake/compatibility failure, 5 runtime decode error.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

from .config import _OVERRIDE_PATHS, BENCH_ROWS, LoadedConfig, build_runtime, load_config
from .client import RemoteSource
from .decoder import DecodeJob, DecodeResult, bench, decode
from .errors import (
    ConfigError,
    EngineError,
    ProtocolError,
    ToySpecError,
    TransportError,
    VocabularyMismatchError,
)
from .guidance import STRATEGIES, GuidanceConfig
from .report import TraceHeader, alpha_histogram, emit_traces, extract_choice, read_traces, render_attribution
from .sampler import SamplerConfig
from .server import LatencyModel, serve
from .sources import build_toy_model

# The dataclass whose field each override section sets; output paths are str.
_SECTION_FIELDS = {"guidance": GuidanceConfig, "sampler": SamplerConfig, "decode": DecodeJob}


def _add_override_flags(p: argparse.ArgumentParser, include_strategy: bool = True) -> None:
    for name, (section, key) in _OVERRIDE_PATHS.items():
        if name == "strategy":
            if include_strategy:
                p.add_argument("--strategy", choices=STRATEGIES, default=None)
            continue
        cls = _SECTION_FIELDS.get(section)
        kind = str if cls is None else type(getattr(cls, key))
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=None)


def _collect_overrides(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name, None) for name in _OVERRIDE_PATHS}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="omniguide",
        description="Guided decoding engine: fuse a reasoning model into an omni-modal backbone at inference time.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decode", help="run one decode job from a config file")
    p_dec.add_argument("--config", required=True)
    _add_override_flags(p_dec)
    p_dec.set_defaults(func=cmd_decode)

    p_cmp = sub.add_parser("compare", help="run the same job under several strategies")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument(
        "--strategy",
        dest="strategies",
        action="append",
        choices=STRATEGIES,
        default=None,
        help="strategy to include (repeatable); defaults to the config's compare list",
    )
    _add_override_flags(p_cmp, include_strategy=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="latency ratio table over strategy variants")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--reps", type=int, default=None, help="repetitions per row")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_ren = sub.add_parser("render", help="visualize a trace file")
    p_ren.add_argument("trace", help="trace file written by decode")
    p_ren.add_argument("--format", choices=("terminal", "html", "histogram"), default="terminal")
    p_ren.add_argument("--bins", type=int, default=10, help="histogram bin count")
    p_ren.add_argument("--out", default=None, help="write output here instead of stdout")
    p_ren.set_defaults(func=cmd_render)

    p_srv = sub.add_parser("serve", help="serve a toy model over the wire protocol")
    p_srv.add_argument("--toy-spec", required=True)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0)
    p_srv.add_argument("--per-token-prefill-ms", type=float, default=0.0)
    p_srv.add_argument("--per-step-ms", type=float, default=0.0)
    p_srv.add_argument("--per-kib-ms", type=float, default=0.0)
    p_srv.add_argument("--port-file", default=None, help="write the bound port here once listening")
    p_srv.set_defaults(func=cmd_serve)

    return ap


def _make_header(cfg: LoadedConfig) -> TraceHeader:
    return TraceHeader(
        config_fingerprint=cfg.fingerprint,
        seed=cfg.effective["sampler"]["seed"],
        effective_config=cfg.effective,
    )


def _write_outputs(cfg: LoadedConfig, result: DecodeResult, trace_path: str | None) -> None:
    text_path = cfg.effective["output"]["text"]
    if text_path:
        Path(text_path).write_text(result.text + "\n", encoding="utf-8")
    if trace_path:
        emit_traces(result, trace_path, header=_make_header(cfg))


def cmd_decode(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides=_collect_overrides(args))
    job = build_runtime(cfg)
    result = decode(job)
    _write_outputs(cfg, result, cfg.effective["output"]["trace"])
    print(f"strategy={job.guidance.strategy} finish={result.finish_reason} tokens={len(result.tokens)}")
    print(result.text)
    if result.finish_reason == "error":
        print(f"decode failed: {result.error}", file=sys.stderr)
        return 5
    return 0


def _row_job(job: DecodeJob, row: str) -> DecodeJob:
    """The config's job run as one BENCH_ROWS row."""
    strategy, dup_omni = BENCH_ROWS[row]
    return replace(
        job,
        guidance=replace(job.guidance, strategy=strategy),
        neg_payload=job.prompt.payload if dup_omni else None,
    )


def _strategy_trace_path(base: str, strategy: str) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}.{strategy}{p.suffix or '.jsonl'}"))


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides=_collect_overrides(args))
    strategies = args.strategies or cfg.effective["compare"]["strategies"]
    if not strategies:
        raise ConfigError("no strategies to compare (set compare.strategies or --strategy)")
    job = build_runtime(cfg)
    gold = cfg.effective["compare"]["gold"]
    options = cfg.effective["compare"]["options"] or ([gold] if gold else None)
    trace_base = cfg.effective["output"]["trace"]

    rows = []
    seen_outputs: dict[tuple, str] = {}
    for strategy in strategies:
        result = decode(_row_job(job, strategy))
        if result.finish_reason == "error":
            print(f"strategy {strategy} failed: {result.error}", file=sys.stderr)
            return 5
        if trace_base:
            emit_traces(result, _strategy_trace_path(trace_base, strategy), header=_make_header(cfg))
        same_as = seen_outputs.setdefault(result.tokens, strategy)
        verdict = "-"
        if gold:
            choice = extract_choice(result.text, options)
            verdict = "yes" if choice == gold else "no"
        rows.append(
            (
                strategy,
                len(result.tokens),
                result.prefill_s * 1e3,
                result.mean_step_s * 1e3,
                verdict,
                "" if same_as == strategy else f"= {same_as}",
                result.text,
            )
        )

    header = f"{'strategy':<18} {'tokens':>6} {'prefill':>10} {'per-step':>10} {'correct':>8}  {'same':<12} output"
    print(header)
    print("-" * len(header))
    for strategy, n, pre, step, verdict, same, text in rows:
        print(
            f"{strategy:<18} {n:>6} {pre:>8.2f}ms {step:>8.2f}ms {verdict:>8}  {same:<12} {text}"
        )
    return 0


def _latency_model(
    per_token_prefill_ms: float, per_step_ms: float, per_kib_ms: float
) -> LatencyModel:
    """LatencyModel from the millisecond figures of bench.latency and serve's flags."""
    return LatencyModel(per_token_prefill_ms / 1e3, per_step_ms / 1e3, per_kib_ms / 1e3)


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, overrides=_collect_overrides(args))
    bench_cfg = cfg.effective["bench"]
    latency = _latency_model(**bench_cfg["latency"])
    servers = []
    # One compute lock across both fixture servers: all branches contend
    # for a single simulated accelerator, so N-branch stepping costs N
    # baseline steps and the measured ratios are analytically predictable.
    accelerator = threading.Lock()
    try:
        sources = {}
        for name, entry in cfg.effective["sources"].items():
            if entry is not None and "toy_spec" in entry:
                model = build_toy_model(entry["toy_spec"], name=name)
                srv = serve(model, latency, compute_lock=accelerator)
                servers.append(srv)
                sources[f"{name}_source"] = RemoteSource(srv.endpoint)
        job = build_runtime(cfg, **sources)
        jobs = {row: _row_job(job, row) for row in bench_cfg["rows"]}
        reps = args.reps if args.reps is not None else bench_cfg["repetitions"]
        print(bench(jobs, repetitions=reps).format_table())
        return 0
    finally:
        for srv in servers:
            srv.stop()


def cmd_render(args: argparse.Namespace) -> int:
    header, steps = read_traces(args.trace)
    if args.format == "histogram":
        counts = alpha_histogram(steps, bins=args.bins)
        width = 1.0 / args.bins
        lines = [
            f"[{i * width:.3f}, {(i + 1) * width:.3f}{']' if i == args.bins - 1 else ')'} {int(c)}"
            for i, c in enumerate(counts)
        ]
        out = "\n".join(lines) + "\n"
    else:
        out = render_attribution(steps, fmt=args.format)
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(out, end="" if out.endswith("\n") else "\n")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    model = build_toy_model(args.toy_spec)
    latency = _latency_model(args.per_token_prefill_ms, args.per_step_ms, args.per_kib_ms)
    server = serve(model, latency, host=args.host, port=args.port)
    host, port = server.address
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n", encoding="utf-8")
    print(f"serving {model.name} at http://{host}:{port} (Ctrl-C to stop)", flush=True)

    stop_event = threading.Event()

    def _on_signal(signum, frame):
        stop_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
    try:
        stop_event.wait()
    except KeyboardInterrupt:
        pass
    server.stop()
    print("drained and stopped")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ToySpecError as exc:
        print(f"model spec error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (VocabularyMismatchError, ProtocolError, TransportError) as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
