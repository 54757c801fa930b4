"""Smoke tests of the benchmark harness.

One traced and one untraced pass each of ``small2d`` and
``noisy_ingest``: the outputs must match the recorded references
(``small2d`` images to rel 1e-8) and the traced Hankel and kernel
counts must match the counts predicted from the problem sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_pass(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0, proc.stderr
    assert summary["metrics"]["trace.count_mismatches"]["value"] == 0, proc.stderr


def test_small2d_pass_is_correct_and_counts_match():
    run_pass("small2d")


def test_noisy_ingest_pass_is_correct_and_counts_match():
    run_pass("noisy_ingest")
