"""The benchmark's own answer gates, at smoke sizes: a change to the CLI's
output or exit codes that the benchmark cannot read fails here."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes_its_gates():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
         "--smoke", "--seconds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {"sweep", "enumerate", "mult"}
    for workload, result in results.items():
        assert result["correct"] is True, (workload, proc.stdout)
        assert result["failed"] == 0, (workload, proc.stdout)
        assert result["attempted"] > 0, workload


def test_traced_smoke_run_reaches_rank_and_the_exact_route():
    # the tracer reads the shape of every matrix `rank` receives and keys
    # the exact route on `laplacian_multiplicity_one`
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
         "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        assert result["correct"] is True, (workload, proc.stdout)
        assert result["failed"] == 0, (workload, proc.stdout)
    for workload in ("mult", "sweep"):
        metrics = results[workload]["metrics"]
        assert metrics["linalg.rank.calls"]["value"] > 0, workload
        assert metrics["reduction.exact_route_s"]["value"] > 0, workload
