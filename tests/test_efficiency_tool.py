"""tools/efficiency.py prints the same figures for the same checkout, built
from the inputs the benchmark's workloads make."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "efficiency.py"


def run_tool(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(TOOL), "--k", "40", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_one_seed_twice_prints_equal_figures():
    first = run_tool()
    assert first.returncode == 0, first.stderr
    assert run_tool().stdout == first.stdout
    lines = first.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["evidence", lines[1].split()[0]]
    assert re.fullmatch(r"gradient\[[01]\]", lines[1].split()[0])
    for line in lines:
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        assert fields["k"] == "40"
        var, cost, fig = (float(fields[k]) for k in ("var", "cost", "var_x_cost"))
        assert var > 0 and cost > 0
        assert fig == pytest.approx(var * cost, rel=1e-5)  # each printed to 6 digits


def test_settings_reach_the_estimator():
    default = run_tool().stdout.splitlines()
    steep = run_tool("--ratio-log2", "-3").stdout.splitlines()
    small = run_tool("--n0", "4", "--batch", "8").stdout.splitlines()
    for lines in (steep, small):
        assert len(lines) == 2
        assert all(a != b for a, b in zip(lines, default))
    refused = run_tool("--n0", "0")
    assert refused.returncode == 2
    assert refused.stderr.endswith("error: n0 must be >= 1, got 0\n")


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inputs_are_the_workloads_own(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports reference
    workloads = load("workloads", ROOT / "perfbench" / "workloads.py")
    tool = load("efficiency", TOOL)
    small = workloads.EstimateSmall()
    small.setup(tool.WORKLOAD_SEED, tmp_path)
    train = workloads.TrainBernoulli()
    train.setup(tool.WORKLOAD_SEED, tmp_path)
    cases = [
        (tool.estimate_small(), (small.model, small.data, *small.pairs[0], small.cfg)),
        (tool.train_bernoulli(),
         (train.model, train.data, train.starts[0], np.zeros(4), train.cfg.estimator)),
    ]
    for (model, data, theta, phi, cfg), (want_model, want_data, want_theta, want_phi,
                                         want_cfg) in cases:
        assert type(model) is type(want_model) and model.x_dim == want_model.x_dim
        np.testing.assert_array_equal(data.x, want_data.x)
        np.testing.assert_array_equal(theta, want_theta)
        np.testing.assert_array_equal(phi, want_phi)
        assert cfg == want_cfg
