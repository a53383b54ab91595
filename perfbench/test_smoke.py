"""The benchmark's own test: `run.py --smoke` runs every workload tiny in
both modes and fails unless every metric BENCHMARK.json names is printed
with its unit."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
