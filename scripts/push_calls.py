#!/usr/bin/env python3
"""Python-level calls per stream push, the overhead that bounds stream-tiny-rt.

Streams noise (rms 0.1) into a seed-0 model: 5 warm-up pushes, then
cProfile's ``total_calls`` over the next 50, divided by 50. The count is
deterministic, so it can be compared across commits without repeated runs.

    PYTHONPATH=src python scripts/push_calls.py tiny default
"""

import argparse
import cProfile
import pstats

import numpy as np

from fbse import model, streaming


def calls_per_push(cfg, pushes=50, warm_up=5):
    m = model.Enhancer(cfg, seed=0)
    n = warm_up + pushes
    noise = 0.1 * np.random.default_rng(0).standard_normal(n * streaming.BLOCK_SAMPLES)
    blocks = np.split(noise, n)
    state = streaming.stream_create(m)
    for block in blocks[:warm_up]:
        streaming.stream_push(state, block)
    prof = cProfile.Profile()
    prof.enable()
    for block in blocks[warm_up:]:
        streaming.stream_push(state, block)
    prof.disable()
    return pstats.Stats(prof).total_calls / pushes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("configs", nargs="*", default=["tiny", "default"],
                    help="ModelConfig constructors to count")
    for name in ap.parse_args().configs:
        print(f"{name}: {calls_per_push(getattr(model.ModelConfig, name)()):.0f} calls per push")


if __name__ == "__main__":
    main()
