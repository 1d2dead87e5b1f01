#!/usr/bin/env python3
"""Sweep the fixed guidance strength on the fusion testbed.

At alpha 0 the guided decode collapses to the backbone (wrong on the metal
scene); large alphas hand control to the text-only reasoner (wrong whenever
the answer needs the omni payload). The sweep prints per-scene answers and
accuracy per alpha, plus the adaptive strategy's row for comparison.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from omniguide import OmniPayload, build_runtime, decode, extract_choice, load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCENES = [("scene_metal", "sinks"), ("scene_plastic", "floats")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=float, nargs="*", default=None)
    args = parser.parse_args()
    alphas = args.alphas if args.alphas is not None else list(np.round(np.arange(0.0, 1.01, 0.2), 2))

    job = build_runtime(load_config(CONFIG_DIR / "demo.yaml", env={}))
    options = [gold for _, gold in SCENES]

    def run(**guidance) -> tuple[list[str], float]:
        answers, correct = [], 0
        for key, gold in SCENES:
            prompt = replace(job.prompt, payload=OmniPayload(key.encode() + b" " + bytes(64)))
            guided = replace(job, prompt=prompt, guidance=replace(job.guidance, **guidance))
            text = decode(guided).text
            answers.append(text)
            if extract_choice(text, options) == gold:
                correct += 1
        return answers, correct / len(SCENES)

    print(f"{'guidance':<22} {'accuracy':>8}  metal scene / plastic scene")
    print("-" * 78)
    for alpha in alphas:
        answers, acc = run(strategy="lrm_guide_fixed", alpha=float(alpha))
        print(f"{'fixed alpha=' + format(alpha, '.2f'):<22} {acc:>8.0%}  {answers[0]!r} / {answers[1]!r}")
    answers, acc = run(strategy="stepwise")
    print(f"{'stepwise (adaptive)':<22} {acc:>8.0%}  {answers[0]!r} / {answers[1]!r}")


if __name__ == "__main__":
    main()
