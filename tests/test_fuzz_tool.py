"""tools/fuzz.py runs the command line's edge-value cases in process and
reports every case that ends in a traceback or off the exit-code contract."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "fuzz.py"
SIZE_CHECK = '    _check_bytes(n, row_bytes, "observation")\n'


def fuzz_gen_data(src: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, str(TOOL), "--command", "gen-data"],
        capture_output=True, text=True, env=env, timeout=300,
    )


def tally(stdout: str) -> list[int]:
    """gen-data's cases, exits 0, 1 and 2, alarms and faults."""
    (line,) = [line for line in stdout.splitlines() if line.startswith("gen-data ")]
    return [int(v) for v in line.split()[1:]]


def test_gen_data_cases_keep_the_exit_code_contract():
    proc = fuzz_gen_data(ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    cases, exit0, exit1, exit2, alarms, faults = tally(proc.stdout)
    assert faults == 0 and cases == exit0 + exit1 + exit2 + alarms
    assert min(exit0, exit1, exit2) > 0
    assert "FAULT" not in proc.stdout


def test_a_dataset_size_without_its_size_check_is_a_fault(tmp_path):
    # without the check, --n 2^62 and 2^63 - 1 end in numpy's bare
    # "array is too big" on both models
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    models = src / "mlmc_evidence" / "models.py"
    text = models.read_text()
    assert text.count(SIZE_CHECK) == 1
    models.write_text(text.replace(SIZE_CHECK, ""))
    proc = fuzz_gen_data(src)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    faults = [line for line in proc.stdout.splitlines() if line.startswith("FAULT ")]
    assert tally(proc.stdout)[-1] == len(faults) >= 4
    for model in ("gaussian", "bernoulli"):
        for n in (2**62, 2**63 - 1):
            case = f"FAULT gen-data --model={model} --n=5 --n={n}: raised ValueError"
            assert any(f.startswith(case) for f in faults), case
    assert all("raised ValueError: array is too big" in f for f in faults)
