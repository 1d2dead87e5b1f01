"""Collect result sets of the benchmark and compare two of them.

    python3 perfbench/compare.py collect --out A.json [--workloads w1,w2] [--seeds 1-10]
    python3 perfbench/compare.py diff A.json B.json

``collect`` runs ``run.py`` once per workload and seed, one run at a time,
for BENCHMARK.json's ``run_seconds``, and saves every result line.
``diff`` takes A as the parent and B as the change, and judges every
end-to-end metric of every workload in both by BENCHMARK.json's bound:

- ``incorrect``: a run of A or B on the workload has ``correct`` false, so
  its timings say nothing about the change;
- ``unresolved``: A's own spread (quartile distance over median) is wider
  than the bound, and B's runs do not all beat all of A's, so the sets
  cannot tell a change from noise;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better by more than A's spread and the bound;
- ``same``: anything else.

The exit status is 1 if any pair is incorrect, worse or unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results: dict[str, list] = {w: [] for w in workloads}
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = list(bench["command"]) + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[w].append(result)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{w} seed={seed} correct={result['correct']} {shown}", flush=True)
    Path(args.out).write_text(json.dumps(results, indent=1))
    return 0


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def diff(args) -> int:
    bench = load_benchmark()
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    bad = 0
    print(f"{'workload':<18} {'metric':<18} {'median A':>12} {'median B':>12} {'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in a or w not in b:
            continue
        correct = all(r["correct"] for r in a[w] + b[w])
        for m in bench["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = (mb - ma) / ma
            worse = sign * change  # > 0: B is worse
            sa, sb = spread(va), spread(vb)
            all_better = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
            if not correct:
                verdict = "incorrect"
            elif worse > m["bound"]:
                verdict = "worse"
            elif sa > m["bound"] and not all_better:
                verdict = "unresolved"
            elif -worse > max(sa, m["bound"]):
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict in ("incorrect", "worse", "unresolved")
            print(
                f"{w:<18} {m['name']:<18} {ma:>12.5g} {mb:>12.5g} {change * 100:>+7.1f}%"
                f" {sa:>9.3f} {sb:>9.3f} {m['bound']:>6}  {verdict}"
            )
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.set_defaults(func=collect)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=diff)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
