"""tools/same_seed.py prints the same fingerprint for the same checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def fingerprint() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_seed.py"), "--seeds", "1"],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_one_seed_twice_prints_equal_nonempty_families():
    first = fingerprint()
    assert fingerprint() == first
    lines = [line.split() for line in first.splitlines()]
    assert len(lines) == 15 * 3  # family/model
    for family, count, digest in lines:
        assert int(count) > 0, family
        assert len(digest) == 64
