"""Quick-mode tests of the benchmark: every workload runs a few rounds with
all its correctness checks, and its output follows BENCHMARK.json."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_all_workloads_pass_their_checks():
    proc = run("--workload", "all", "--seed", "5", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, r in results.items():
        assert r["correct"], (name, proc.stderr)
        assert r["attempted"] >= 1 and r["failed"] == 0, name
        assert {k: m["unit"] for k, m in r["metrics"].items()} == expected, name
        assert all(m["value"] > 0 for m in r["metrics"].values()), name


def test_same_seed_repeats_the_work():
    draws = []
    for _ in range(2):
        proc = run("--workload", "estimate-small", "--seed", "9", "--seconds", "1",
                   "--trace", "0", "--quick")
        assert proc.returncode == 0, proc.stderr
        draws.append(int(re.search(r"(\d+) latent draws", proc.stdout).group(1)))
    assert draws[0] == draws[1] > 0


def test_traced_run_reports_every_layer():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    useful = {}
    for name in ("estimate-small", "profile-levels"):
        proc = run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1", "--quick")
        assert proc.returncode == 0, proc.stderr
        r = json.loads(proc.stdout.splitlines()[-1])
        assert r["correct"], proc.stderr
        assert {k: m["unit"] for k, m in r["metrics"].items()} == expected
        useful[name] = r["metrics"]["gradients.useful_ratio"]["value"]
    assert useful == {"estimate-small": 0.0, "profile-levels": 1.0}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "estimate-small", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
