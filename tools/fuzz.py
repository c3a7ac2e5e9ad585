"""Seeded edge-value fuzz of the command line, run in process.

    PYTHONPATH=src python tools/fuzz.py [--command NAME ...]

Every command but `rerun` runs on both models from small base flags (five
observations, a batch of four, 100 replications, two training steps, ...),
which each case then overrides. First one flag at a time takes each value of
its type's edge set; then MIXED cases per command and model set two to four
flags at once, each to a value of its edge set, drawn by a `random.Random`
seeded with SEED, so a run's cases are fixed. The edge sets:

- counts and reals: 0, -1, 1, 1.5, 2^62, 2^63 - 1, nan, inf and empty;
- vectors: empty, one entry short, one entry over, and at the model's
  length 1e308s, -1e308s, 1.5s and a nan;
- level ranges: 0..0, 1..1, 0..62, 62..62, 3..1, 63, -1..2 and empty;
- `--data`: an absent file, a dataset with no rows, a malformed file, a
  valid dim-1 dataset of 0/1 observations and a valid dim-3 one;
- `--naive`: set.

Each case calls `cli.main` with `--out` in a fresh temporary directory,
with stdout and stderr captured, under a per-case alarm of ALARM_S
seconds. The whole run holds its own address space to HEADROOM_MIB MiB
over its size at start (`RLIMIT_AS`), so an allocation too large for the
host fails as a `MemoryError` instead of being made. A case is a fault
when `main` raises (a traceback), exits with a code other than 0, 1 or 2,
prints anything to stdout on a nonzero exit, prints to stderr on exit 0,
or, on a nonzero exit, prints other than one `error:` line: alone on
stderr where `main` returns the code, after argparse's usage lines where
argparse exits. A case that asks for unbounded work (`grad-check --reps
4611686018427387904`, say) ends at its alarm and is not a fault.

The tool prints one line per command with its case count, its counts of
exits 0, 1 and 2, of alarms and of faults, then one line per fault with
its arguments and what went wrong, and exits 1 if any case is a fault.
It sets no process count: only a variance profile starts processes, its
one worker per extra CPU, and one that an alarm stops mid-call is replaced
by the next profile.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import random
import resource
import shutil
import signal
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from mlmc_evidence import cli
from mlmc_evidence.models import Dataset, save_dataset

MODELS = ("gaussian", "bernoulli")
BASE = {
    "gen-data": ["--n=5"],
    "estimate": ["--n=5", "--batch=4"],
    "variance-profile": ["--n=5", "--reps=100", "--levels=1..3"],
    "grad-check": ["--n=4", "--points=2", "--reps=2", "--batch=2"],
    "moments": ["--n=5", "--draws=10000"],
    "train": ["--n=5", "--steps=2", "--batch=2", "--eval-every=1", "--eval-reps=1"],
}
SEED = 1
MIXED = 40
ALARM_S = 5.0
HEADROOM_MIB = 1024
COLUMNS = ("cases", "exit0", "exit1", "exit2", "alarm", "faults")
SCALARS = ["0", "-1", "1", "1.5", str(2**62), str(2**63 - 1), "nan", "inf", ""]
LEVELS = ["0..0", "1..1", "0..62", "62..62", "3..1", "63", "-1..2", ""]


class CaseAlarm(BaseException):
    """A case ran past its alarm; a BaseException, so `main` lets it through."""


def _ring(signum, frame):
    raise CaseAlarm


def _vectors(length: int) -> list[str]:
    entries = [
        ["0"] * (length - 1), ["0"] * (length + 1), ["1e308"] * length, ["-1e308"] * length,
        ["1.5"] * length, ["nan"] + ["0"] * (length - 1),
    ]
    return [""] + [",".join(e) for e in entries]


def _datasets(root: Path) -> list[str]:
    """The `--data` edge set, written under `root`."""
    empty, malformed = root / "empty.txt", root / "malformed.txt"
    empty.write_text("\n")
    Path(f"{empty}.json").write_text('{"dim": 1, "n_total": 0}\n')
    malformed.write_text("1 2\nx\n")
    save_dataset(root / "binary.txt", Dataset(np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])),
                 0, [1.0, 0.0])
    save_dataset(root / "wide.txt", Dataset(np.arange(15.0).reshape(5, 3) / 7.0), 0, [0.0] * 9)
    return [str(root / name) for name in ("absent.txt", "empty.txt", "malformed.txt",
                                          "binary.txt", "wide.txt")]


def edge_set(action: argparse.Action, model: str, data: list[str]) -> list[str | None]:
    """The values a case may give the flag of `action`; None sets a switch."""
    if action.nargs == 0:
        return [None]
    if action.type is cli.parse_vector:
        built = cli.build_model(model, 1)
        return _vectors(built.phi_dim if action.dest == "phi" else built.theta_dim)
    if action.type is cli.parse_level_range:
        return LEVELS
    if action.dest == "data":
        return data
    return SCALARS


def _flag(action: argparse.Action, value: str | None) -> str:
    # `--flag=value`, so that a value starting with '-' is not read as a flag
    name = action.option_strings[0]
    return name if value is None else f"{name}={value}"


def cases(command: str, rng: random.Random, data: list[str]):
    """Each case's arguments but `--out`: every (flag, edge value) alone,
    then MIXED cases of two to four flags, on each model."""
    actions = [a for k, a in cli.manifest_flags(command).items() if k != "model"]
    for model in MODELS:
        base = [command, f"--model={model}", *BASE[command]]
        for action in actions:
            for value in edge_set(action, model, data):
                yield base + [_flag(action, value)]
        for _ in range(MIXED):
            chosen = rng.sample(actions, min(len(actions), rng.randint(2, 4)))
            yield base + [_flag(a, rng.choice(edge_set(a, model, data))) for a in chosen]


def run_case(argv: list[str]) -> tuple[object, str, str, bool]:
    """`main`'s exit code (argparse's, where it exits), "alarm", or the line
    of the exception `main` raised; the case's stdout and stderr; and
    whether `main` returned, not argparse exited."""
    out, err = io.StringIO(), io.StringIO()
    returned = False
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            returned = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SystemExit as exc:
        code = exc.code
    except CaseAlarm:
        code = "alarm"
    except Exception as exc:
        code = "raised " + traceback.format_exception_only(exc)[-1].strip()
    return code, out.getvalue(), err.getvalue(), returned


def fault(code, stdout: str, stderr: str, returned: bool) -> str | None:
    """What is wrong with a case's outcome, as `run_case` gives it, or None."""
    if code == "alarm":
        return None
    if isinstance(code, str):
        return code
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code == 0:
        return f"stderr on exit 0: {stderr!r}" if stderr else None
    lines = stderr.splitlines()
    if stdout:
        return f"stdout on exit {code}: {stdout!r}"
    if "Traceback" in stderr or not lines:
        return f"stderr is not one error line: {stderr!r}"
    last = lines[-1]
    before = lines[:-1]
    one_line = not before and last.startswith("error: ")
    after_usage = (
        not returned and ": error: " in last and before and before[0].startswith("usage:")
        and not any("error:" in line for line in before)
    )
    return None if one_line or after_usage else f"stderr is not one error line: {stderr!r}"


def _limit_address_space(headroom_mib: int) -> None:
    """Hold this process's address space to `headroom_mib` MiB over its size now."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[0])
    except OSError:
        print("fuzz: no /proc/self/statm; running without an address-space limit")
        return
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = pages * resource.getpagesize() + (headroom_mib << 20)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--command", nargs="+", choices=list(BASE), default=list(BASE))
    args = parser.parse_args(argv)
    _limit_address_space(HEADROOM_MIB)
    signal.signal(signal.SIGALRM, _ring)
    rng = random.Random(SEED)
    faults = []
    print(f"{'command':<17}" + "".join(f"{c:>7}" for c in COLUMNS))
    with tempfile.TemporaryDirectory(prefix="fuzz-") as tmp:
        root = Path(tmp)
        data = _datasets(root)
        for command in args.command:
            tally = Counter()
            for i, case in enumerate(cases(command, rng, data)):
                out = root / f"case-{i}"
                code, *outcome = run_case(case + [f"--out={out}"])
                shutil.rmtree(out, ignore_errors=True)
                wrong = fault(code, *outcome)
                tally["cases"] += 1
                tally["faults" if wrong else code if code == "alarm" else f"exit{code}"] += 1
                if wrong:
                    faults.append((case, wrong))
            print(f"{command:<17}" + "".join(f"{tally[c]:>7}" for c in COLUMNS))
    for case, wrong in faults:
        print(f"FAULT {' '.join(case)}: {wrong}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
