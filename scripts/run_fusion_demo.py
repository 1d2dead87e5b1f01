#!/usr/bin/env python3
"""Run the two-scene fusion testbed under every strategy and show the traces.

The testbed is built so that neither branch alone can answer both scenes:
the base tables only know the material when the omni payload is attached,
and only the guide tables know the material -> behavior chain. The adaptive
strategy routes weight to whichever branch disagrees with the text-only
negative for the right reason, so it alone answers both scenes correctly.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

from omniguide import OmniPayload, build_runtime, decode, load_config, render_attribution
from omniguide.guidance import STRATEGIES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", choices=["scene_metal", "scene_plastic"], default="scene_metal")
    parser.add_argument("--show-attribution", action="store_true")
    args = parser.parse_args()

    job = build_runtime(load_config(CONFIG_DIR / "demo.yaml", env={}))
    payload = OmniPayload(args.scene.encode() + b" " + bytes(64))
    job = replace(job, prompt=replace(job.prompt, payload=payload))

    print(f"scene: {args.scene}")
    print(f"{'strategy':<18} output")
    print("-" * 50)
    stepwise_result = None
    for strategy in STRATEGIES:
        result = decode(replace(job, guidance=replace(job.guidance, strategy=strategy)))
        print(f"{strategy:<18} {result.text}")
        if strategy == "stepwise":
            stepwise_result = result

    print()
    print("stepwise per-step weights:")
    print(f"{'t':>3} {'token':<10} {'alpha_r':>8} {'alpha_p':>8} {'d_r':>8} {'d_p':>8}")
    for tr in stepwise_result.traces:
        print(
            f"{tr.t:>3} {tr.token:<10} {tr.alpha_r:>8.4f} {tr.alpha_p:>8.4f}"
            f" {tr.d_r:>8.4f} {tr.d_p:>8.4f}"
        )
    if args.show_attribution:
        print()
        print(render_attribution(stepwise_result.traces, fmt="terminal"))


if __name__ == "__main__":
    main()
