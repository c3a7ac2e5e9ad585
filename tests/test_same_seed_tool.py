"""tools/same_seed.py prints the same fingerprint for the same checkout, and
its tolerance mode compares integers exactly and floats within --rtol."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "same_seed.py"


def run_tool(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "1", *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def fingerprint() -> str:
    proc = run_tool()
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_seed_twice_prints_equal_nonempty_families():
    first = fingerprint()
    assert fingerprint() == first
    lines = [line.split() for line in first.splitlines()]
    assert len(lines) == 15 * 3  # family/model
    for family, count, digest in lines:
        assert int(count) > 0, family
        assert len(digest) == 64


def compared(proc: subprocess.CompletedProcess) -> dict[str, tuple[int, float, int]]:
    """family/model -> (cases, largest relative difference, mismatches)."""
    rows = {}
    for line in proc.stdout.splitlines():
        family, count, worst, mismatches = line.split()
        rows[family] = (int(count), float(worst), int(mismatches))
    return rows


def test_dump_matches_itself_and_catches_a_moved_float_or_integer(tmp_path):
    dump = tmp_path / "dump.json"
    written = run_tool("--dump", dump)
    assert written.returncode == 0, written.stderr
    assert written.stdout == fingerprint()

    same = run_tool("--against", dump)  # --rtol 0: every bit equal
    assert same.returncode == 0, same.stderr
    rows = compared(same)
    assert len(rows) == 15 * 3
    assert all(count > 0 and worst == 0.0 and bad == 0 for count, worst, bad in rows.values())

    raw = json.loads(dump.read_text())
    estimate = raw["evidence/gaussian1"][0][1]["fields"]
    estimate["value"] *= 1 + 1e-9
    dump.write_text(json.dumps(raw))
    assert run_tool("--against", dump, "--rtol", 1e-8).returncode == 0
    moved = run_tool("--against", dump, "--rtol", 1e-12)
    assert moved.returncode == 1
    rows = compared(moved)
    _, worst, bad = rows.pop("evidence/gaussian1")
    assert bad == 1 and 5e-10 < worst < 2e-9
    assert all(bad == 0 for _, _, bad in rows.values())

    estimate["value"] /= 1 + 1e-9
    estimate["total_cost"] += 1
    dump.write_text(json.dumps(raw))
    recounted = run_tool("--against", dump, "--rtol", 1.0)
    assert recounted.returncode == 1
    assert compared(recounted)["evidence/gaussian1"][2] == 1


def load_tool():
    spec = importlib.util.spec_from_file_location("same_seed", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_numbers_in_text_compare_as_integers_and_floats():
    tool = load_tool()
    found = []
    worst = tool.compare("level 3 value 0.5000000001\n", "level 3 value 0.5\n", "t", 1e-9, found)
    assert found == [] and 1e-10 < worst < 1e-9
    for got in ["level 4 value 0.5\n", "level 3 value 0.5001\n", "level 3 mean 0.5\n"]:
        found = []
        tool.compare(got, "level 3 value 0.5\n", "t", 1e-9, found)
        assert len(found) == 1, got
    found = []
    assert tool.compare([float("nan"), 1e-300], [float("nan"), 1e-300], "t", 0.0, found) == 0.0
    assert found == []
