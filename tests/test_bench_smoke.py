"""Smoke runs of the benchmark harness at tiny sizes, so that a broken
workload or a rename of a traced function fails the test suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "extra",
    [
        ["--workload", "transform", "--trace", "1"],
        ["--workload", "cli"],
        # the only workload that drives the length scan and the bisection through the tracer
        ["--workload", "cli", "--trace", "1"],
    ],
    ids=["transform-traced", "cli", "cli-traced"],
)
def test_bench_smoke_run(extra):
    cmd = [sys.executable, "bench/run.py", *extra, "--seed", "1", "--seconds", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
