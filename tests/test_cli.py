import copy
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import fields

import pytest
import yaml

from omniguide import ConfigError, GuidanceConfig, SamplerConfig, load_config, read_traces
from omniguide.cli import main
from omniguide.config import _OVERRIDE_PATHS, build_runtime
from omniguide.guidance import STRATEGIES

from conftest import CONFIG_DIR, REPO_ROOT

BASE_SPEC_PATH = str(CONFIG_DIR / "fusion_base.toy")
GUIDE_SPEC_PATH = str(CONFIG_DIR / "fusion_guide.toy")


def base_config() -> dict:
    return {
        "sources": {
            "base": {"toy_spec": BASE_SPEC_PATH},
            "guide": {"toy_spec": GUIDE_SPEC_PATH},
        },
        "prompt": {
            "text": "what",
            "omni": {"key": "scene_metal", "pad_bytes": 128},
            "think_tag": "<think>",
            "stop": ["<eos>"],
        },
        "sampler": {"mode": "greedy"},
        "decode": {"max_new_tokens": 16},
    }


def write_config(tmp_path, cfg: dict, name: str = "job.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


class TestConfigLoading:
    def test_defaults_materialized(self, tmp_path):
        cfg_dict = {
            "sources": {"base": {"toy_spec": BASE_SPEC_PATH}},
            "prompt": {"text": "what"},
        }
        cfg = load_config(write_config(tmp_path, cfg_dict), env={})
        assert cfg.effective["sampler"] == {
            "temperature": 0.6,
            "top_p": 0.95,
            "repetition_penalty": 1.03,
            "mode": "sample",
            "seed": 0,
        }
        assert cfg.effective["decode"]["max_new_tokens"] == 4096
        assert cfg.effective["guidance"]["strategy"] == "none"

    def test_strategy_defaults_to_adaptive_when_guide_present(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()), env={})
        assert cfg.effective["guidance"]["strategy"] == "stepwise"

    def test_unknown_keys_rejected_with_names(self, tmp_path):
        # A typo, and keys of settings that the engine fixes as constants:
        # load_config rejects each by name, and it builds no source.
        for section, key, value in [
            ("sampler", "temprature", 0.7),
            ("guidance", "clip_lo", -0.5),
            ("guidance", "warmup_slope", 0.1),
            ("sampler", "penalize_prompt", True),
        ]:
            bad = base_config()
            bad.setdefault(section, {})[key] = value
            with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
                load_config(write_config(tmp_path, bad), env={})

    def test_readme_config_block_loads_and_names_every_field(self, tmp_path):
        readme = (REPO_ROOT / "README.md").read_text()
        (block,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        load_config(str(path), env={})
        raw = yaml.safe_load(block)
        for section, cls in (("guidance", GuidanceConfig), ("sampler", SamplerConfig)):
            assert set(raw[section]) == {f.name for f in fields(cls)}, section

    def test_unknown_top_level_key_rejected(self, tmp_path):
        bad = base_config()
        bad["smapler"] = {}
        with pytest.raises(ConfigError, match="smapler"):
            load_config(write_config(tmp_path, bad), env={})

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "missing.yaml"), env={})

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("sources: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path), env={})

    def test_relative_input_paths_resolve_against_config_dir(self, tmp_path):
        spec = tmp_path / "local.toy"
        spec.write_text("@vocab a b\na | b | 1\n")
        cfg_dict = {
            "sources": {"base": {"toy_spec": "local.toy"}},
            "prompt": {"text": "a"},
        }
        cfg = load_config(write_config(tmp_path, cfg_dict), env={})
        assert cfg.effective["sources"]["base"]["toy_spec"] == str(spec.resolve())

    def test_source_needs_exactly_one_backend(self, tmp_path):
        bad = base_config()
        bad["sources"]["base"] = {"toy_spec": BASE_SPEC_PATH, "endpoint": "http://x"}
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(tmp_path, bad), env={})

    def test_env_endpoint_replaces_source_entry(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, base_config()),
            env={"OMNIGUIDE_BASE_ENDPOINT": "http://127.0.0.1:7777"},
        )
        assert cfg.effective["sources"]["base"] == {"endpoint": "http://127.0.0.1:7777"}
        # The guide entry is untouched.
        assert "toy_spec" in cfg.effective["sources"]["guide"]

    def test_env_seed_overrides_file(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["sampler"]["seed"] = 5
        path = write_config(tmp_path, cfg_dict)
        cfg = load_config(path, env={"OMNIGUIDE_SEED": "11"})
        assert cfg.effective["sampler"]["seed"] == 11

    def test_flag_overrides_beat_env_and_file(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["sampler"]["seed"] = 5
        path = write_config(tmp_path, cfg_dict)
        cfg = load_config(path, env={"OMNIGUIDE_SEED": "11"}, overrides={"seed": 99})
        assert cfg.effective["sampler"]["seed"] == 99

    def test_bad_env_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="OMNIGUIDE_SEED"):
            load_config(
                write_config(tmp_path, base_config()), env={"OMNIGUIDE_SEED": "soon"}
            )

    def test_invalid_values_rejected(self, tmp_path):
        for section, key, value in [
            ("sampler", "temperature", -1.0),
            ("sampler", "top_p", 2.0),
            ("sampler", "repetition_penalty", 0.5),
            ("sampler", "mode", "beam"),
            ("guidance", "strategy", "bogus"),
            ("guidance", "alpha", None),
            ("sampler", "seed", None),
            ("decode", "max_new_tokens", 0),
            ("decode", "max_new_tokens", None),
            ("prompt", "stop", [True]),
        ]:
            bad = base_config()
            bad.setdefault(section, {})[key] = value
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, bad), env={})

    def test_fingerprint_tracks_content_not_formatting(self, tmp_path):
        path_a = write_config(tmp_path, base_config(), "a.yaml")
        reformatted = yaml.safe_dump(base_config(), default_flow_style=True)
        path_b = tmp_path / "b.yaml"
        path_b.write_text(reformatted)
        fp_a = load_config(path_a, env={}).fingerprint
        fp_b = load_config(str(path_b), env={}).fingerprint
        assert fp_a == fp_b
        cfg_c = load_config(path_a, env={}, overrides={"seed": 1}).fingerprint
        assert cfg_c != fp_a

    def test_effective_echo_is_a_valid_config_and_idempotent(self, tmp_path):
        first = load_config(write_config(tmp_path, base_config()), env={})
        echo_dir = tmp_path / "elsewhere"
        echo_dir.mkdir()
        echo_path = echo_dir / "echo.yaml"
        echo_path.write_text(yaml.safe_dump(first.effective))
        second = load_config(str(echo_path), env={})
        assert second.effective == first.effective
        assert second.fingerprint == first.fingerprint

    def test_runtime_resolves_tokens_and_stops(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()), env={})
        rt = build_runtime(cfg)
        vocab = rt.base_source.vocabulary
        assert rt.prompt.tokens == (vocab.index_of("what"),)
        assert rt.think_tag == (vocab.index_of("<think>"),)
        assert rt.stop_tokens == frozenset({vocab.index_of("<eos>")})
        assert rt.prompt.payload is not None
        assert rt.prompt.payload.key == "scene_metal"
        assert rt.prompt.payload.size_bytes == len("scene_metal") + 1 + 128

    def test_unknown_prompt_word_rejected(self, tmp_path):
        bad = base_config()
        bad["prompt"]["text"] = "what gravity"
        with pytest.raises(ConfigError, match="gravity"):
            build_runtime(load_config(write_config(tmp_path, bad), env={}))


class TestDecodeCommand:
    def test_greedy_decode_writes_outputs(self, tmp_path, capsys):
        cfg = base_config()
        cfg["output"] = {
            "text": str(tmp_path / "out.txt"),
            "trace": str(tmp_path / "out.jsonl"),
        }
        rc = main(["decode", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "finish=stop_token" in out
        assert "metal sinks <eos>" in out
        assert (tmp_path / "out.txt").read_text() == "metal sinks <eos>\n"
        header, steps = read_traces(tmp_path / "out.jsonl")
        assert len(steps) == 3
        assert header.effective_config["guidance"]["strategy"] == "stepwise"
        assert header.log_base == "e"

    def test_trace_out_flag_overrides_config(self, tmp_path, capsys):
        trace = tmp_path / "flagged.jsonl"
        rc = main(
            [
                "decode",
                "--config",
                write_config(tmp_path, base_config()),
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        assert trace.exists()

    def test_strategy_flag_changes_run(self, tmp_path, capsys):
        rc = main(
            [
                "decode",
                "--config",
                write_config(tmp_path, base_config()),
                "--strategy",
                "none",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy=none" in out
        assert "metal floats <eos>" in out

    def test_seeded_sampling_reproducible_across_invocations(self, tmp_path, capsys):
        cfg = base_config()
        cfg["sampler"] = {"mode": "sample", "seed": 31, "temperature": 1.2}
        cfg["decode"]["max_new_tokens"] = 8
        path = write_config(tmp_path, cfg)
        assert main(["decode", "--config", path]) == 0
        first = capsys.readouterr().out
        assert main(["decode", "--config", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_every_override_flag_lands_in_effective(self, tmp_path, capsys):
        trace = str(tmp_path / "flagged.jsonl")
        values = {
            "strategy": "average_fusion",
            "alpha": 0.5,
            "seed": 7,
            "temperature": 0.9,
            "top_p": 0.8,
            "repetition_penalty": 1.2,
            "max_new_tokens": 5,
            "trace_out": trace,
        }
        argv = ["decode", "--config", write_config(tmp_path, base_config())]
        for name in _OVERRIDE_PATHS:
            argv += ["--" + name.replace("_", "-"), str(values[name])]
        assert main(argv) == 0
        header, _ = read_traces(trace)
        for name, (section, key) in _OVERRIDE_PATHS.items():
            landed = header.effective_config[section][key]
            assert landed == values[name] and type(landed) is type(values[name]), name

    def test_env_seed_honored_via_cli(self, tmp_path, capsys, monkeypatch):
        trace = tmp_path / "t.jsonl"
        monkeypatch.setenv("OMNIGUIDE_SEED", "123")
        rc = main(
            [
                "decode",
                "--config",
                write_config(tmp_path, base_config()),
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        header, _ = read_traces(trace)
        assert header.seed == 123
        assert header.effective_config["sampler"]["seed"] == 123


def table_rows(text: str) -> list:
    """The strategy rows of a compare table, split into words, timings left out."""
    rows = [re.sub(r"\d+\.\d+ms", "", ln).split() for ln in text.splitlines()]
    return [r for r in rows if r[:1] and r[0] in STRATEGIES]


class TestCompareCommand:
    def compare_config(self, tmp_path, **extra):
        cfg = base_config()
        cfg["compare"] = {
            "strategies": ["none", "vcd_ablation", "stepwise"],
            "gold": "sinks",
            "options": ["sinks", "floats"],
        }
        cfg.update(extra)
        return write_config(tmp_path, cfg)

    def test_table_reports_correctness_and_duplicates(self, tmp_path, capsys):
        rc = main(["compare", "--config", self.compare_config(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = {ln.split()[0]: ln for ln in out.splitlines() if ln and ln[0].isalpha()}
        # The two-branch ablation reproduces the plain output on this testbed
        # and is flagged as identical to it.
        assert "= none" in lines["vcd_ablation"]
        assert " no" in lines["none"]
        assert " yes" in lines["stepwise"]
        assert "metal sinks <eos>" in lines["stepwise"]

    def test_strategy_flags_limit_the_set(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--config",
                self.compare_config(tmp_path),
                "--strategy",
                "none",
                "--strategy",
                "average_fusion",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "average_fusion" in out
        assert "stepwise" not in out

    def test_per_strategy_trace_files(self, tmp_path, capsys):
        trace_base = tmp_path / "cmp.jsonl"
        cfg_path = self.compare_config(
            tmp_path, output={"trace": str(trace_base), "text": None}
        )
        rc = main(["compare", "--config", cfg_path])
        assert rc == 0
        for strategy in ("none", "vcd_ablation", "stepwise"):
            _, steps = read_traces(tmp_path / f"cmp.{strategy}.jsonl")
            assert steps

    def test_demo_config_prints_the_readme_table(self, tmp_path, monkeypatch, capsys):
        # The shipped config from a scratch directory, where its trace files land.
        monkeypatch.chdir(tmp_path)
        rc = main(["compare", "--config", str(CONFIG_DIR / "demo.yaml")])
        assert rc == 0
        readme = (REPO_ROOT / "README.md").read_text()
        example = readme.split("$ omniguide compare --config configs/demo.yaml\n")[1]
        out = capsys.readouterr().out
        assert table_rows(out) == table_rows(example.split("\n\n")[0])
        # Each row's output text starts under the header's "output".
        lines = out.splitlines()
        at = lines[0].index("output")
        for line in lines[2:]:
            assert line[at - 1] == " " and line[at] != " ", line
        assert (tmp_path / "trace.stepwise.jsonl").exists()

    def test_empty_strategy_list_rejected(self, tmp_path):
        cfg = base_config()
        cfg["compare"] = {"strategies": []}
        rc = main(["compare", "--config", write_config(tmp_path, cfg)])
        assert rc == 3


class TestBenchCommand:
    def bench_config(self, tmp_path, rows=("none", "stepwise")):
        cfg = base_config()
        cfg["prompt"]["stop"] = []
        cfg["decode"]["max_new_tokens"] = 3
        cfg["bench"] = {
            "repetitions": 1,
            "rows": list(rows),
            "latency": {
                "per_token_prefill_ms": 0.2,
                "per_step_ms": 5.0,
                "per_kib_ms": 0.05,
            },
        }
        return write_config(tmp_path, cfg)

    def test_ratio_table_printed(self, tmp_path, capsys):
        rc = main(["bench", "--config", self.bench_config(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline: none" in out
        row = next(ln for ln in out.splitlines() if ln.startswith("stepwise"))
        assert "x" in row

    def test_zero_reps_rejected(self, tmp_path):
        rc = main(["bench", "--config", self.bench_config(tmp_path), "--reps", "0"])
        assert rc == 3

    def test_unknown_row_rejected(self, tmp_path):
        rc = main(["bench", "--config", self.bench_config(tmp_path, rows=("none", "warp"))])
        assert rc == 3

    def test_baseline_row_required(self, tmp_path):
        rc = main(["bench", "--config", self.bench_config(tmp_path, rows=("stepwise",))])
        assert rc == 3

    def test_guide_row_without_guide_source_rejected(self, tmp_path):
        cfg = base_config()
        del cfg["sources"]["guide"]
        cfg["prompt"]["think_tag"] = ""
        cfg["prompt"]["stop"] = []
        cfg["decode"]["max_new_tokens"] = 2
        cfg["bench"] = {"repetitions": 1, "rows": ["none", "stepwise"]}
        rc = main(["bench", "--config", write_config(tmp_path, cfg)])
        assert rc == 3


class TestRenderCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        rc = main(
            [
                "decode",
                "--config",
                write_config(tmp_path, base_config()),
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        return str(trace)

    def test_terminal_rendering(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["render", trace_path]) == 0
        out = capsys.readouterr().out
        assert "\x1b[48;5;" in out
        assert "metal" in out and "sinks" in out

    def test_html_rendering_to_file(self, trace_path, tmp_path, capsys):
        out_file = tmp_path / "attr.html"
        assert main(["render", trace_path, "--format", "html", "--out", str(out_file)]) == 0
        html = out_file.read_text()
        assert html.startswith("<!doctype html>")
        assert "sinks" in html

    def test_histogram_rendering(self, trace_path, capsys):
        capsys.readouterr()
        assert main(["render", trace_path, "--format", "histogram", "--bins", "5"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert len(lines) == 5
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert sum(counts) == 3

    def test_missing_trace_exits_2(self, tmp_path):
        assert main(["render", str(tmp_path / "absent.jsonl")]) == 2


class TestServeCommand:
    def test_serve_runs_until_sigterm_and_drains(self, tmp_path):
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "omniguide",
                "serve",
                "--toy-spec",
                BASE_SPEC_PATH,
                "--port-file",
                str(port_file),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.time() + 10
            while not port_file.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert port_file.exists(), "server never wrote its port file"
            port = int(port_file.read_text().strip())
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/info", timeout=5) as resp:
                info = json.load(resp)
            assert info["protocol_version"] == "2"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0
            assert "drained and stopped" in out
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_bad_spec_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "broken.toy"
        spec.write_text("@vocab a b\na | b\n")
        assert main(["serve", "--toy-spec", str(spec)]) == 3


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path):
        assert main(["decode", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_usage_error_is_2(self, capsys):
        assert main(["decode"]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["decode", "--config", "x", "--strategy", "warp"]) == 2

    @pytest.mark.parametrize("command", ["decode", "bench", "serve"])
    def test_missing_toy_spec_is_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "absent" / "x.toy")
        if command == "serve":
            argv = ["serve", "--toy-spec", missing]
        else:
            cfg = base_config()
            cfg["sources"]["base"] = {"toy_spec": missing}
            cfg["bench"] = {"repetitions": 1, "rows": ["none"]}
            argv = [command, "--config", write_config(tmp_path, cfg)]
        assert main(argv) == 2
        assert missing in capsys.readouterr().err

    def test_config_validation_is_3(self, tmp_path):
        bad = base_config()
        bad["guidance"] = {"strategy": "warp"}
        assert main(["decode", "--config", write_config(tmp_path, bad)]) == 3

    def test_vocabulary_mismatch_is_4(self, tmp_path):
        other = tmp_path / "other.toy"
        other.write_text("@vocab x y\nx | y | 1\n")
        cfg = base_config()
        cfg["sources"]["guide"] = {"toy_spec": str(other)}
        assert main(["decode", "--config", write_config(tmp_path, cfg)]) == 4

    def test_unreachable_endpoint_is_4(self, tmp_path):
        cfg = base_config()
        cfg["sources"]["base"] = {"endpoint": "http://127.0.0.1:9"}
        assert main(["decode", "--config", write_config(tmp_path, cfg)]) == 4

    def test_runtime_decode_failure_is_5(self, tmp_path, capsys):
        # With no stop tokens the greedy loop runs into the context limit,
        # which surfaces as a runtime decode error, not a crash.
        cfg = base_config()
        cfg["prompt"]["stop"] = []
        cfg["decode"]["max_new_tokens"] = 200
        assert main(["decode", "--config", write_config(tmp_path, cfg)]) == 5
        err = capsys.readouterr().err
        assert "decode failed" in err
