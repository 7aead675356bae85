"""The seeded outputs of the benchmark workloads against their stored
digests: a refactor that moves any of them fails here."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_golden_digests_match_for_seeds_0_and_1():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--golden", "check", "--seeds", "0-1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
