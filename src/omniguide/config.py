"""Declarative job configuration: YAML file -> validated runtime objects.

The config schema is strict: unknown keys anywhere fail fast instead of
being ignored, so a typo can never silently run with defaults. Precedence
is command-line flags over environment variables over the file over
built-in defaults. Loading materializes every default into an "effective"
config dict that is echoed into trace headers, fingerprinted, and valid as
a config file itself (feeding it back reproduces the run).

Input paths (toy specs, payload files) resolve relative to the config
file's directory; output paths resolve against the working directory at
use time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .client import RemoteSource
from .decoder import DecodeJob
from .errors import ConfigError
from .guidance import STRATEGIES, GuidanceConfig
from .sampler import SamplerConfig
from .sources import LogitSource, OmniPayload, PromptInput, Vocabulary, build_toy_model

ENV_BASE_ENDPOINT = "OMNIGUIDE_BASE_ENDPOINT"
ENV_GUIDE_ENDPOINT = "OMNIGUIDE_GUIDE_ENDPOINT"
ENV_SEED = "OMNIGUIDE_SEED"

# Bench and compare rows by name: (strategy, whether the neg branch
# re-processes the omni payload). Every strategy runs under its own name;
# vcd_dup_omni is the two-branch ablation re-processing the payload on its
# contrast branch.
BENCH_ROWS = {name: (name, False) for name in STRATEGIES} | {
    "vcd_dup_omni": ("vcd_ablation", True)
}

# Bench rows run by default: the plain baseline, the two-branch ablation
# with and without the duplicated payload, and the full adaptive strategy.
DEFAULT_BENCH_ROWS = ("none", "vcd_ablation", "vcd_dup_omni", "stepwise")

_TOP_KEYS = {"sources", "prompt", "guidance", "sampler", "decode", "output", "bench", "compare"}
_SOURCE_KEYS = {"toy_spec", "endpoint"}
_PROMPT_KEYS = {"text", "tokens", "omni", "think_tag", "stop"}
_OMNI_KEYS = {"path", "key", "pad_bytes", "media_type"}
_DECODE_KEYS = {"max_new_tokens"}
_OUTPUT_KEYS = {"text", "trace"}
_BENCH_KEYS = {"repetitions", "rows", "latency"}
_LATENCY_KEYS = {"per_token_prefill_ms", "per_step_ms", "per_kib_ms"}
_COMPARE_KEYS = {"strategies", "gold", "options"}


def _dataclass_section(cls, section, where: str, **defaults) -> dict:
    """Read a section whose keys, kinds and defaults are cls's fields."""
    section = _require_map(section, where)
    _check_keys(section, {f.name for f in fields(cls)}, where)
    return {
        f.name: _get(section, f.name, defaults.get(f.name, f.default), type(f.default), where)
        for f in fields(cls)
    }


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require_map(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return dict(value)


def _get(section: dict, key: str, default, kind, where: str):
    value = section.get(key, default)
    if value is None:
        if default is not None:
            raise ConfigError(f"{where}.{key} must not be null")
        return None
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        return int(value)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key} must be a string, got {value!r}")
        return value
    raise AssertionError(kind)


@dataclass(frozen=True)
class LoadedConfig:
    effective: dict
    fingerprint: str
    config_dir: Path


def _resolve_input(path_value: str, config_dir: Path) -> str:
    p = Path(path_value)
    if not p.is_absolute():
        p = config_dir / p
    return str(p.resolve())


def _normalize_source(entry, where: str, config_dir: Path) -> dict:
    entry = _require_map(entry, where)
    _check_keys(entry, _SOURCE_KEYS, where)
    toy = _get(entry, "toy_spec", None, str, where)
    endpoint = _get(entry, "endpoint", None, str, where)
    if (toy is None) == (endpoint is None):
        raise ConfigError(f"{where} must set exactly one of toy_spec or endpoint")
    if toy is not None:
        return {"toy_spec": _resolve_input(toy, config_dir)}
    return {"endpoint": endpoint}


def _normalize_prompt(section, config_dir: Path) -> dict:
    section = _require_map(section, "prompt")
    _check_keys(section, _PROMPT_KEYS, "prompt")
    text = _get(section, "text", None, str, "prompt")
    tokens = section.get("tokens")
    if (text is None) == (tokens is None):
        raise ConfigError("prompt must set exactly one of text or tokens")
    out: dict = {}
    if text is not None:
        out["text"] = text
    else:
        if not isinstance(tokens, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in tokens
        ):
            raise ConfigError("prompt.tokens must be a list of integers")
        out["tokens"] = list(tokens)

    omni = section.get("omni")
    if omni is not None:
        omni = _require_map(omni, "prompt.omni")
        _check_keys(omni, _OMNI_KEYS, "prompt.omni")
        path = _get(omni, "path", None, str, "prompt.omni")
        key = _get(omni, "key", None, str, "prompt.omni")
        if (path is None) == (key is None):
            raise ConfigError("prompt.omni must set exactly one of path or key")
        media_type = _get(omni, "media_type", "application/octet-stream", str, "prompt.omni")
        if path is not None:
            if "pad_bytes" in omni:
                raise ConfigError("prompt.omni.pad_bytes applies only with key")
            out["omni"] = {"path": _resolve_input(path, config_dir), "media_type": media_type}
        else:
            pad = _get(omni, "pad_bytes", 0, int, "prompt.omni")
            if pad < 0:
                raise ConfigError("prompt.omni.pad_bytes must be >= 0")
            out["omni"] = {"key": key, "pad_bytes": pad, "media_type": media_type}
    else:
        out["omni"] = None

    out["think_tag"] = _get(section, "think_tag", "", str, "prompt")
    stop = section.get("stop", [])
    if not isinstance(stop, list) or not all(
        isinstance(s, (str, int)) and not isinstance(s, bool) for s in stop
    ):
        raise ConfigError("prompt.stop must be a list of token strings or ids")
    out["stop"] = list(stop)
    return out


def load_config(path, env=None, overrides: dict | None = None) -> LoadedConfig:
    """Read, override, validate, and materialize a config file.

    env defaults to os.environ; overrides maps names of _OVERRIDE_PATHS
    to values, applied last (None leaves the value as it is).
    """
    env = os.environ if env is None else env
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {p} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    config_dir = p.parent.resolve()
    _check_keys(raw, _TOP_KEYS, "config")

    sources = _require_map(raw.get("sources"), "sources")
    _check_keys(sources, {"base", "guide"}, "sources")

    # Environment overrides replace whole source entries.
    if env.get(ENV_BASE_ENDPOINT):
        sources["base"] = {"endpoint": env[ENV_BASE_ENDPOINT]}
    if env.get(ENV_GUIDE_ENDPOINT):
        sources["guide"] = {"endpoint": env[ENV_GUIDE_ENDPOINT]}
    if "base" not in sources:
        raise ConfigError("sources.base is required")
    eff_sources = {"base": _normalize_source(sources["base"], "sources.base", config_dir)}
    if sources.get("guide") is not None:
        eff_sources["guide"] = _normalize_source(sources["guide"], "sources.guide", config_dir)
    else:
        eff_sources["guide"] = None

    if "prompt" not in raw:
        raise ConfigError("prompt section is required")
    eff_prompt = _normalize_prompt(raw["prompt"], config_dir)

    have_guide = eff_sources["guide"] is not None
    eff_guidance = _dataclass_section(
        GuidanceConfig,
        raw.get("guidance"),
        "guidance",
        strategy="stepwise" if have_guide else "none",
    )
    eff_sampler = _dataclass_section(SamplerConfig, raw.get("sampler"), "sampler")
    if env.get(ENV_SEED):
        try:
            eff_sampler["seed"] = int(env[ENV_SEED])
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env[ENV_SEED]!r}") from None

    decode_sec = _require_map(raw.get("decode"), "decode")
    _check_keys(decode_sec, _DECODE_KEYS, "decode")
    max_new_tokens = _get(decode_sec, "max_new_tokens", DecodeJob.max_new_tokens, int, "decode")
    eff_decode = {"max_new_tokens": max_new_tokens}

    output = _require_map(raw.get("output"), "output")
    _check_keys(output, _OUTPUT_KEYS, "output")
    eff_output = {
        "text": _get(output, "text", None, str, "output"),
        "trace": _get(output, "trace", None, str, "output"),
    }

    bench_sec = _require_map(raw.get("bench"), "bench")
    _check_keys(bench_sec, _BENCH_KEYS, "bench")
    rows = bench_sec.get("rows", list(DEFAULT_BENCH_ROWS))
    if not isinstance(rows, list) or not all(isinstance(r, str) for r in rows):
        raise ConfigError("bench.rows must be a list of row names")
    latency = _require_map(bench_sec.get("latency"), "bench.latency")
    _check_keys(latency, _LATENCY_KEYS, "bench.latency")
    eff_bench = {
        "repetitions": _get(bench_sec, "repetitions", 3, int, "bench"),
        "rows": rows,
        "latency": {
            "per_token_prefill_ms": _get(latency, "per_token_prefill_ms", 0.3, float, "bench.latency"),
            "per_step_ms": _get(latency, "per_step_ms", 20.0, float, "bench.latency"),
            "per_kib_ms": _get(latency, "per_kib_ms", 0.08, float, "bench.latency"),
        },
    }

    compare_sec = _require_map(raw.get("compare"), "compare")
    _check_keys(compare_sec, _COMPARE_KEYS, "compare")
    strategies = compare_sec.get("strategies")
    if strategies is None:
        strategies = ["none"] + (["stepwise"] if have_guide else [])
    if not isinstance(strategies, list) or not all(isinstance(s, str) for s in strategies):
        raise ConfigError("compare.strategies must be a list of strategy names")
    options = compare_sec.get("options")
    if options is not None and (
        not isinstance(options, list) or not all(isinstance(o, str) for o in options)
    ):
        raise ConfigError("compare.options must be a list of strings")
    eff_compare = {
        "strategies": list(strategies),
        "gold": _get(compare_sec, "gold", None, str, "compare"),
        "options": options,
    }

    effective = {
        "sources": eff_sources,
        "prompt": eff_prompt,
        "guidance": eff_guidance,
        "sampler": eff_sampler,
        "decode": eff_decode,
        "output": eff_output,
        "bench": eff_bench,
        "compare": eff_compare,
    }

    _apply_overrides(effective, overrides or {})
    _validate_effective(effective)
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return LoadedConfig(effective=effective, fingerprint=fingerprint, config_dir=config_dir)


# The one list of command-line overrides: flag name -> (section, key) of
# the effective config. The CLI makes one --flag-with-dashes per entry, in
# this order, typed like the dataclass field it overrides.
_OVERRIDE_PATHS = {
    "strategy": ("guidance", "strategy"),
    "alpha": ("guidance", "alpha"),
    "seed": ("sampler", "seed"),
    "temperature": ("sampler", "temperature"),
    "top_p": ("sampler", "top_p"),
    "repetition_penalty": ("sampler", "repetition_penalty"),
    "max_new_tokens": ("decode", "max_new_tokens"),
    "warmup_steps": ("guidance", "warmup_steps"),
    "warmup_slope": ("guidance", "warmup_slope"),
    "trace_out": ("output", "trace"),
}


def _apply_overrides(effective: dict, overrides: dict) -> None:
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in _OVERRIDE_PATHS:
            raise ConfigError(f"unknown override: {name}")
        section, key = _OVERRIDE_PATHS[name]
        effective[section][key] = value


def _validate_effective(effective: dict) -> None:
    try:
        GuidanceConfig(**effective["guidance"])
        SamplerConfig(**effective["sampler"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if effective["decode"]["max_new_tokens"] < 1:
        raise ConfigError("decode.max_new_tokens must be >= 1")
    b = effective["bench"]
    if b["repetitions"] < 1:
        raise ConfigError("bench.repetitions must be >= 1")
    for row in b["rows"]:
        if row not in BENCH_ROWS:
            raise ConfigError(
                f"bench.rows entry {row!r} unknown; expected one of {', '.join(sorted(BENCH_ROWS))}"
            )
    for key, value in b["latency"].items():
        if value < 0:
            raise ConfigError(f"bench.latency.{key} must be >= 0")
    for strat in effective["compare"]["strategies"]:
        if strat not in STRATEGIES:
            raise ConfigError(f"compare.strategies entry {strat!r} is not a strategy")


def tokenize(text: str, vocab: Vocabulary) -> tuple[int, ...]:
    """Whitespace tokenizer for demo prompts: every word must be in-vocabulary."""
    ids = []
    for word in text.split():
        try:
            ids.append(vocab.index_of(word))
        except KeyError:
            raise ConfigError(
                f"token {word!r} is not in the model vocabulary (demo tokenizer is whitespace-based)"
            ) from None
    return tuple(ids)


def _build_payload(omni: dict | None) -> OmniPayload | None:
    if omni is None:
        return None
    if "path" in omni:
        data = Path(omni["path"]).read_bytes()
        return OmniPayload(data=data, media_type=omni["media_type"])
    key = omni["key"]
    data = key.encode("utf-8") + b" " + bytes(omni["pad_bytes"])
    return OmniPayload(data=data, media_type=omni["media_type"])


def _build_source(entry: dict) -> LogitSource:
    if "toy_spec" in entry:
        path = Path(entry["toy_spec"])
        if not path.is_file():
            raise ConfigError(f"toy spec file not found: {path}")
        return build_toy_model(str(path))
    return RemoteSource(entry["endpoint"])


def build_runtime(cfg: LoadedConfig, base_source=None, guide_source=None) -> DecodeJob:
    """The decode job a loaded config describes: sources built, token ids resolved.

    Pre-built sources may be injected (the bench command points them at
    freshly started servers); otherwise they come from the config. Callers
    vary the job with dataclasses.replace.
    """
    eff = cfg.effective
    if base_source is None:
        base_source = _build_source(eff["sources"]["base"])
    if guide_source is None and eff["sources"]["guide"] is not None:
        guide_source = _build_source(eff["sources"]["guide"])
    vocab = base_source.vocabulary

    prompt_sec = eff["prompt"]
    if "text" in prompt_sec:
        tokens = tokenize(prompt_sec["text"], vocab)
    else:
        tokens = tuple(prompt_sec["tokens"])
        for t in tokens:
            if not (0 <= t < vocab.size):
                raise ConfigError(f"prompt token id {t} outside vocabulary of size {vocab.size}")
    if not tokens:
        raise ConfigError("prompt resolved to zero tokens")

    think_tag = tokenize(prompt_sec["think_tag"], vocab) if prompt_sec["think_tag"] else ()
    stop_ids = []
    for entry in prompt_sec["stop"]:
        if isinstance(entry, int):
            if not (0 <= entry < vocab.size):
                raise ConfigError(f"stop token id {entry} outside vocabulary")
            stop_ids.append(entry)
        else:
            try:
                stop_ids.append(vocab.index_of(entry))
            except KeyError:
                raise ConfigError(f"stop token {entry!r} is not in the vocabulary") from None

    return DecodeJob(
        base_source=base_source,
        guide_source=guide_source,
        prompt=PromptInput(tokens=tokens, payload=_build_payload(prompt_sec["omni"])),
        guidance=GuidanceConfig(**eff["guidance"]),
        sampler=SamplerConfig(**eff["sampler"]),
        max_new_tokens=eff["decode"]["max_new_tokens"],
        stop_tokens=frozenset(stop_ids),
        think_tag=think_tag,
    )
