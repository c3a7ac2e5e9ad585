"""tools/pair_trees.py runs the benchmark's operations on two src/ trees in
one process, each tree on its own copy of the library, and compares their
results."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "pair_trees.py"


def copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def pair(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "estimate-small",
         "--rounds", "2", "--ops", "3"],
        capture_output=True, text=True, timeout=300, cwd=parent.parent,
    )


def test_two_copies_pair_with_identical_results(tmp_path):
    proc = pair(copy_src(tmp_path / "a"), copy_src(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    rounds = [line.split() for line in proc.stdout.splitlines() if re.match(r"\s+\d+\s", line)]
    assert [int(r[0]) for r in rounds] == [0, 1]
    for _, parent_ms, change_ms, ratio in rounds:
        assert float(parent_ms) > 0 and float(change_ms) > 0
        assert float(ratio) == pytest.approx(float(change_ms) / float(parent_ms), rel=1e-2)
    assert "largest relative difference 0; 0 other mismatches" in proc.stdout


def test_each_tree_runs_its_own_library(tmp_path):
    # a change that moves the estimate's value shows as a float difference
    # between the trees; one that moves its cost is a mismatch, exit 1
    parent = copy_src(tmp_path / "a")
    change = copy_src(tmp_path / "b")
    estimator = change / "mlmc_evidence" / "estimator.py"
    text = estimator.read_text()
    assert text.count("value = n * float(mean)") == 1
    moved_value = text.replace("value = n * float(mean)", "value = n * float(mean) * (1 + 1e-9)")
    estimator.write_text(moved_value)
    moved = pair(parent, change)
    assert moved.returncode == 0, moved.stderr
    worst = float(re.search(r"largest relative difference (\S+);", moved.stdout).group(1))
    assert 1e-10 < worst < 1e-8
    assert "0 other mismatches" in moved.stdout

    estimator.write_text(text.replace("total_cost=total_cost,", "total_cost=total_cost + 1,"))
    costly = pair(parent, change)
    assert costly.returncode == 1
    assert "6 other mismatches" in costly.stdout and "mismatch: operation 0:" in costly.stdout
