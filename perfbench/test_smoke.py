"""Smoke test of the benchmark itself, on short runs of every workload.

Checks the result line's shape, that every metric of BENCHMARK.json is
present with its unit, and that the correctness gate ran and passed. It makes
no timing assertions. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

GATE_CHECKS = {
    "stream-default": {"no_exception", "latency_1440", "finite", "equals_forward",
                       "flush_length", "forward_length"},
    "offline-default": {"no_exception", "length", "finite", "equals_streaming"},
    "train-tiny": {"no_exception", "finite_loss", "loss_falls"},
}
GATE_CHECKS["stream-tiny-rt"] = GATE_CHECKS["stream-default"]


def _run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def test_workloads_cover_the_spec():
    assert set(GATE_CHECKS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GATE_CHECKS))
def test_short_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, ".bench_out", f"{workload}.report.json"), encoding="utf-8") as fh:
        gate = json.load(fh)["gate"]
    assert set(gate["checks"]) == GATE_CHECKS[workload]
    assert all(passed >= 1 and failed == 0 for passed, failed in gate["checks"].values())


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "train-tiny", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
