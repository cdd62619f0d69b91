#!/usr/bin/env python3
"""fbse benchmark: streaming, offline and training workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` makes the same untraced run (for the tracing overhead), then a
separate traced run, and prints the per-layer metrics. Either way the
correctness gate runs outside the timed region, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Metric names and units come from ``BENCHMARK.json``; a per-layer metric of
code the workload never calls reads 0. A full report (host and BLAS
description, roofline probe, tail percentile and sample counts, gate
results, MAC cross-check) is written to ``.bench_out/<workload>.report.json``
and, with tracing, every span to ``.bench_out/<workload>.spans.jsonl``.
Exits 2 without a result when the fbse sources are not next to it.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NOTES = ["weight_gb_s is computed from w.data.nbytes per step call, not measured"]


def limit_blas_threads(environ):
    """Cap BLAS threads at the CPUs this process may use; numpy must not be loaded yet."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            environ[var] = str(n)


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isfile(os.path.join(SRC, "fbse", "__init__.py")):
        print(f"perfbench: no fbse sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads(os.environ)
    sys.path.insert(0, SRC)
    import host
    import instrument
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), OUT_DIR)
    correct = res.failed == 0 and all(bad == 0 for _, bad in res.checks.values())
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host.describe(), "notes": NOTES,
              "gate": {"correct": correct, "attempted": res.attempted, "failed": res.failed,
                       "checks": res.checks, "failures": res.failures},
              "detail": res.detail}

    if args.trace:
        rows = instrument.mac_crosscheck()
        probe = host.roofline_probe()
        values = {"streaming.frames": 0, "streaming.deadline_misses": 0,
                  "bench.generator_lag_tail_ms": 0.0, **res.per_layer}
        values["check.mac_mismatches"] = sum(r["diff"] != 0 for r in rows)
        values["host.cpu_count"] = report["host"]["cpu_count"]
        values["host.blas_threads"] = report["host"]["blas_threads"]
        values.update({f"host.{k}": v for k, v in probe.items()})
        report.update(mac_crosscheck=rows, roofline=probe)
        res.tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"))
        kind = "per_layer"
    else:
        values = dict(res.e2e, ok_ratio=1.0 - res.failed / res.attempted)
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(values))}, "
                           f"extra {sorted(set(values) - set(units))}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    report["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{args.workload}.report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: gate {'passed' if correct else 'FAILED'} "
          f"({res.attempted} ops, {res.failed} failed) {res.failures}", file=sys.stderr)
    for row in report.get("mac_crosscheck", []):
        if row["diff"]:
            print(f"MAC disagreement {row['config']}.{row['module']}: traced {row['traced']} "
                  f"vs complexity_report {row['complexity_report']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
