#!/usr/bin/env python3
"""Peak memory of one offline ``Enhancer.forward`` against input duration.

For each duration a fresh process builds a seed-0 model of the config, makes
that much white noise (rms 0.1) at 48 kHz and runs ``forward`` twice: first
plain, for the process's peak resident set (``ru_maxrss``), then under
``tracemalloc``, for the peak of the allocations ``forward`` made (numpy
reports its arrays to ``tracemalloc``). A process per duration keeps each
``ru_maxrss`` its own. The last line is the traced growth per second of audio
between the shortest and the longest duration.

    PYTHONPATH=src python scripts/offline_memory.py default 1 4 16
    PYTHONPATH=src python scripts/offline_memory.py tiny 2 20
"""

import argparse
import json
import resource
import subprocess
import sys
import time
import tracemalloc

MB = 2.0**20


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def measure(config, seconds):
    import numpy as np

    from fbse import dsp, model

    m = model.Enhancer(getattr(model.ModelConfig, config)(), seed=0)
    x = 0.1 * np.random.default_rng(0).standard_normal(int(seconds * dsp.FULLBAND_RATE))
    audio = dsp.AudioBuffer(x, dsp.FULLBAND_RATE)
    before = rss_mb()
    t0 = time.perf_counter()
    m.forward(audio)
    wall = time.perf_counter() - t0
    peak = rss_mb()
    tracemalloc.start()
    m.forward(audio)
    traced = tracemalloc.get_traced_memory()[1] / MB
    tracemalloc.stop()
    return {"seconds": seconds, "traced_peak_mb": traced, "peak_rss_mb": peak,
            "rss_before_mb": before, "forward_s": wall}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", choices=("tiny", "default"), help="ModelConfig constructor")
    ap.add_argument("seconds", nargs="+", type=float, help="input durations in seconds")
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(measure(args.config, args.seconds[0])))
        return
    rows = []
    for secs in sorted(args.seconds):
        cmd = [sys.executable, __file__, "--one", args.config, str(secs)]
        rows.append(json.loads(subprocess.run(cmd, capture_output=True, text=True,
                                              check=True).stdout))
        r = rows[-1]
        print(f"{args.config} {secs:g} s: traced peak {r['traced_peak_mb']:.1f} MB, "
              f"peak RSS {r['peak_rss_mb']:.1f} MB (before forward {r['rss_before_mb']:.1f} MB), "
              f"forward {r['forward_s']:.2f} s", flush=True)
    if len(rows) > 1:
        lo, hi = rows[0], rows[-1]
        growth = (hi["traced_peak_mb"] - lo["traced_peak_mb"]) / (hi["seconds"] - lo["seconds"])
        print(f"traced growth: {growth:.2f} MB per second of audio")


if __name__ == "__main__":
    main()
