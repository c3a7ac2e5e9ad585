"""tools/fuzz.py runs the command line's edge-value cases in process and
reports every case that ends in a traceback or off the exit-code contract."""

import importlib.util
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "fuzz.py"
SIZE_CHECK = '    _check_bytes(n, row_bytes, "observation")\n'


def fuzz_gen_data(src: Path, *commands: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, str(TOOL), "--command", "gen-data", *commands],
        capture_output=True, text=True, env=env, timeout=300,
    )


def tally(stdout: str, command: str = "gen-data") -> list[int]:
    """A command's cases, exits 0, 1 and 2, alarms and faults."""
    (line,) = [line for line in stdout.splitlines() if line.startswith(f"{command} ")]
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


def test_a_commands_cases_do_not_depend_on_the_commands_before_it(tmp_path):
    # one generator for every command's mixed cases made `--command
    # estimate` alone run other cases than a full run
    spec = importlib.util.spec_from_file_location("fuzz", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    data = tool._datasets(tmp_path)
    alone = list(tool.cases("estimate", data))
    for before in ("gen-data", "train"):
        list(tool.cases(before, data))
        assert list(tool.cases("estimate", data)) == alone, before


def test_rerun_cases_keep_the_exit_code_contract():
    # gen-data's base manifests, each key dropped and set to each JSON edge
    # value, an extra key, other commands and manifests that are no object
    proc = fuzz_gen_data(ROOT / "src", "rerun")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    cases, exit0, exit1, exit2, alarms, faults = tally(proc.stdout, "rerun")
    assert faults == 0 and cases == exit0 + exit1 + exit2 + alarms
    assert min(exit0, exit1) > 0
    assert "FAULT" not in proc.stdout


MANIFEST_OBJECT_CHECK = """    if not isinstance(manifest, dict):
        raise ContractViolation(f"manifest {path} is not a JSON object")
"""


def test_a_manifest_read_without_its_object_check_is_a_fault(tmp_path):
    # a manifest that is a list or a string ends in a bare TypeError or
    # AttributeError where the command is looked up
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "mlmc_evidence" / "cli.py"
    text = cli.read_text()
    assert text.count(MANIFEST_OBJECT_CHECK) == 1
    cli.write_text(text.replace(MANIFEST_OBJECT_CHECK, ""))
    proc = fuzz_gen_data(src, "rerun")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    faults = [line for line in proc.stdout.splitlines() if line.startswith("FAULT ")]
    assert tally(proc.stdout, "rerun")[-1] == len(faults) == 6  # three per model
    assert tally(proc.stdout)[-1] == 0
    for fault in faults:
        assert fault.startswith("FAULT rerun [") or fault.startswith('FAULT rerun "'), fault
        assert "raised TypeError" in fault or "raised AttributeError" in fault, fault


LEVEL_ENTRIES = ["EstimatorConfig.mass", "level_estimate"]
SINGLE_LEVEL_CHECK = '    level = _level("level", level)\n'
LEVEL_RULE_CALL = '    levels = _levels("levels", levels)\n'


def fuzz_api(src: Path, *entries: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, str(TOOL), "--api", *entries],
        capture_output=True, text=True, env=env, timeout=300,
    )


def api_tallies(stdout: str) -> dict[str, list[int]]:
    """Each entry's cases, calls returned and refused, alarms and faults."""
    rows = [line.rsplit(maxsplit=5) for line in stdout.splitlines()[1:]]
    return {row[0]: [int(v) for v in row[1:]] for row in rows if not row[0].startswith("FAULT")}


def test_level_entries_refuse_every_edge_level_with_a_library_error():
    start = time.monotonic()
    proc = fuzz_api(ROOT / "src", *LEVEL_ENTRIES)
    assert time.monotonic() - start < 15
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tallies = api_tallies(proc.stdout)
    assert set(tallies) == {"EstimatorConfig.mass", "level_estimate (gaussian)",
                            "level_estimate (bernoulli)"}
    for name, (cases, ok, refused, alarms, faults) in tallies.items():
        assert faults == alarms == 0 and cases == ok + refused and min(ok, refused) > 0, name
    assert "FAULT" not in proc.stdout


def test_a_hand_cast_level_is_a_fault(tmp_path):
    # the levels' former cast to int64 put back: None and complex levels
    # end in numpy's bare TypeError, 2^64 in a bare OverflowError
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    estimator = src / "mlmc_evidence" / "estimator.py"
    text = estimator.read_text()
    assert text.count(SINGLE_LEVEL_CHECK) == text.count(LEVEL_RULE_CALL) == 1
    text = text.replace(SINGLE_LEVEL_CHECK, "")
    estimator.write_text(
        text.replace(LEVEL_RULE_CALL, "    levels = np.asarray(levels, dtype=np.int64)\n")
    )
    proc = fuzz_api(src, "level_estimate")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    faults = [line for line in proc.stdout.splitlines() if line.startswith("FAULT ")]
    for model in ("gaussian", "bernoulli"):
        for level, error in [("None", "TypeError"), ("1j", "TypeError"),
                             ("18446744073709551616", "OverflowError")]:
            case = f"FAULT level_estimate ({model}) level={level}: raised {error}"
            assert any(f.startswith(case) for f in faults), case


PROFILE_CHECK = "    theta, phi = model._check_parameters(theta, phi)\n"


def test_profile_entries_refuse_before_spawning():
    proc = fuzz_api(ROOT / "src", "variance_profile")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tallies = api_tallies(proc.stdout)
    assert set(tallies) == {"variance_profile (gaussian)", "variance_profile (bernoulli)"}
    for name, (cases, ok, refused, alarms, faults) in tallies.items():
        assert faults == alarms == 0 and cases == ok + refused and min(ok, refused) > 0, name
    assert "FAULT" not in proc.stdout


def test_a_profile_without_its_parameter_check_is_a_fault(tmp_path):
    # without it, a NaN or wrong-length theta or phi is refused by the
    # levels, after one stream per level was spawned from the caller's
    # generator
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    diagnostics = src / "mlmc_evidence" / "diagnostics.py"
    text = diagnostics.read_text()
    assert text.count(PROFILE_CHECK) == 1
    diagnostics.write_text(text.replace(PROFILE_CHECK, ""))
    proc = fuzz_api(src, "variance_profile")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    faults = [line for line in proc.stdout.splitlines() if line.startswith("FAULT ")]
    for model in ("gaussian", "bernoulli"):
        for arg in ("theta", "phi"):
            case = f"FAULT variance_profile ({model}) {arg}=array([nan, nan"
            assert any(f.startswith(case) and f.endswith("refused after drawing from its generator")
                       for f in faults), case
