"""Seeded edge-value fuzz of the command line, or of the library's public
API, run in process.

    PYTHONPATH=src python tools/fuzz.py [--command NAME ...]
    PYTHONPATH=src python tools/fuzz.py --api [ENTRY ...]

Every command but `rerun` runs on both models from small base flags (five
observations, a batch of four, 100 replications, two training steps, ...),
which each case then overrides. First one flag at a time takes each value of
its type's edge set; then MIXED cases per command and model set two to four
flags at once, each to a value of its edge set, drawn by a `random.Random`
seeded with SEED and the command's name, so a command's cases are the same
whether it runs alone or after others. The edge sets:

- counts and reals: 0, -1, 1, 1.5, 2^62, 2^63 - 1, nan, inf and empty;
- vectors: empty, one entry short, one entry over, and at the model's
  length 1e308s, -1e308s, 1.5s and a nan;
- level ranges: 0..0, 1..1, 0..62, 62..62, 3..1, 63, -1..2 and empty;
- `--data`: an absent file, a dataset with no rows, a malformed file, a
  valid dim-1 dataset of 0/1 observations and a valid dim-3 one;
- `--naive`: set.

`rerun` replays variants of base manifests: the manifest that a run of
each other command named, or of every command where `rerun` is named alone,
writes from its base flags on each model. Each key is dropped, and set to
each value of MANIFEST_VALUES (null, true, 0, -1, 1.5, 2^63, 2^64, "",
"x", [], [1], {}, NaN and +-Infinity); one extra key is added; the command
is renamed to each other command; and the manifest is replayed inside a
list, as the list of its keys and as a JSON string.

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

`--api` calls each entry of `api_entries` instead (every callable in
`mlmc_evidence.__all__` that takes a caller's value, on each model where it
takes one, plus `EstimatorConfig.mass`, `StreamingMoments.push` and, on each
model, `level_estimate`, `variance_profile`, `draw_weighed` and `sample_q`;
ENTRY names some of them), from small valid base arguments, one argument at
a time at each value of its kind's edge set (`EDGES`: bools, numpy scalars,
text, complex, None, empty, 2-d, 10**400 and NaN for every kind but paths,
plus each kind's own values). Arguments that take a library object (a
model, a dataset, a config, a generator) keep their base value; a
generator is made afresh per case from SEED. A case is a fault when the
call raises anything but the library's four exception types, or an
`OSError` where a path is varied, or when it refuses an argument after
drawing from or spawning off its generator (a refusal of a drawn value,
`DRAWN`, or a divergence may follow draws); it runs under the same alarm
and limit.

The tool prints one line per command or entry with its case count and
outcome counts (exits 0, 1 and 2 of a command; calls returned and refused
of an entry; alarms; faults), then one line per fault with its arguments
and what went wrong, and exits 1 if any case is a fault.
It sets no process count: only a variance profile starts processes, its
one worker per extra CPU, and one that an alarm stops mid-call is replaced
by the next profile.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
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

import mlmc_evidence
from mlmc_evidence import (
    BernoulliGaussianModel, ContractViolation, Dataset, DivergenceError, EstimatorConfig,
    GaussianConjugateModel, ResourceGuardExceeded, TrainConfig, UnsupportedOperation, cli,
    estimate_gradients, estimate_log_evidence, load_dataset, sample_levels, save_dataset, train,
)
from mlmc_evidence.diagnostics import variance_profile
from mlmc_evidence.estimator import level_estimate
from mlmc_evidence.logspace import StreamingMoments
from mlmc_evidence.rng import substream

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
MANIFEST_VALUES = [None, True, 0, -1, 1.5, 2**63, 2**64, "", "x", [], [1], {}, math.nan,
                   math.inf, -math.inf]


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


def cases(command: str, data: list[str]):
    """Each case's arguments but `--out`: every (flag, edge value) alone,
    then MIXED cases of two to four flags, on each model."""
    rng = random.Random(f"{SEED} {command}")
    actions = [a for k, a in cli.manifest_flags(command).items() if k != "model"]
    for model in MODELS:
        base = [command, f"--model={model}", *BASE[command]]
        for action in actions:
            for value in edge_set(action, model, data):
                yield base + [_flag(action, value)]
        for _ in range(MIXED):
            chosen = rng.sample(actions, min(len(actions), rng.randint(2, 4)))
            yield base + [_flag(a, rng.choice(edge_set(a, model, data))) for a in chosen]


def base_manifests(commands: list[str], root: Path):
    """The manifest that each command's base run writes, on each model."""
    out = root / "base"
    for command in commands:
        for model in MODELS:
            run_case([command, f"--model={model}", *BASE[command], f"--out={out}"])
            yield json.loads((out / "manifest.json").read_text())
            shutil.rmtree(out)


def manifests(base: dict):
    """The variants of the manifest `base` that rerun cases replay."""
    for key in base:
        yield {k: v for k, v in base.items() if k != key}
        for value in MANIFEST_VALUES:
            yield base | {key: value}
    yield base | {"extra": 0}
    for command in [*BASE, "rerun"]:
        if command != base["command"]:
            yield base | {"command": command}
    yield from ([base], list(base), json.dumps(base))


def rerun_cases(commands: list[str], root: Path):
    """Each rerun case's arguments but `--out`; its manifest is written to
    one file under `root` as the case is drawn."""
    path = root / "manifest.json"
    for base in base_manifests(commands, root):
        for manifest in manifests(base):
            path.write_text(json.dumps(manifest))
            yield ["rerun", f"--manifest={path}"]


def shown(case: list[str]) -> str:
    """A case as its fault line shows it; a rerun's by its manifest."""
    if case[0] != "rerun":
        return " ".join(case)
    return "rerun " + Path(case[1].removeprefix("--manifest=")).read_text()


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


LIBRARY_ERRORS = (ContractViolation, DivergenceError, ResourceGuardExceeded, UnsupportedOperation)
API_COLUMNS = ("cases", "ok", "refused", "alarm", "faults")
#: Refusals of a value drawn, not of an argument, which only a draw can
#: find; a `DivergenceError` is one too.
DRAWN = ("non-finite log weight",)
#: Public callables not called: result records, which store what they are
#: given, and the abstract model and the model with no arguments.
NOT_CALLED = {
    "EvidenceEstimate", "GradientEstimate", "RunRecord", "LatentVariableModel",
    "BernoulliGaussianModel",
}
#: Every kind's edge values but a path's: bools, numpy scalars, text,
#: complex, None, empty, 2-d, 10**400 and NaN.
COMMON = [True, np.bool_(False), np.float64(1.5), np.int64(1), "1", "", 1j, None, [],
          [[1, 0], [0, 1]], 10**400, math.nan]
EDGES = {
    "level": COMMON + [0, -1, 1.5, 2**64, np.uint64(2**64 - 1), np.array([1]), np.array([1.0])],
    "seed": COMMON + [-1, 2**64, 2**64 - 1, 1.5, np.uint64(2**64 - 1)],
    "count": COMMON + [0, -1, 1.5, 2**62, 2**63 - 1, 2**64, np.int32(2)],
    "real": COMMON + [0.0, -1.0, math.inf, -math.inf, np.float32(0.5)],
}
#: Each varied argument's kind by its name; any other is a vector.
KIND = {
    "level": "level", "seed": "seed", "level_ratio_log2": "real", "lr_theta": "real",
    "lr_phi": "real", "momentum": "real", "path": "path",
    **dict.fromkeys(["workers", "n0", "batch_size", "level_cap", "steps", "eval_every",
                     "eval_replications", "dim"], "count"),
}


def vector_edges(length: int) -> list:
    """The vector kind's edge values, about a base of `length` entries."""
    return COMMON + [
        0.5, np.zeros(length + 1), np.zeros(max(length - 1, 0)), np.ones((length, 1)),
        np.full(length, 1e308), np.full(length, math.nan), ["a"] * length, [1j] * length,
        [10**400] * length, [[0.0], [1.0, 2.0]], np.zeros(length, dtype=np.float32),
        np.ones(length, dtype=bool),
    ]


def api_entries(root: Path, made: list) -> dict:
    """Each entry's name, its call and its base arguments, the ones it varies:
    the call takes them as keywords and makes its own generator, appended
    to `made`."""
    def rng():
        made.append(substream(SEED, 0))
        return made[-1]

    entries = {
        "EstimatorConfig.mass": (lambda level: EstimatorConfig().mass(level), {"level": 2}),
        "StreamingMoments.push": (lambda value: StreamingMoments().push(value),
                                  {"value": [1.0, 2.0]}),
        "sample_levels": (lambda u: sample_levels(EstimatorConfig(), u), {"u": [0.5, 0.25]}),
        "Dataset": (Dataset, {"x": np.zeros((3, 2))}),
        "GaussianConjugateModel": (GaussianConjugateModel, {"dim": 2}),
        "EstimatorConfig": (EstimatorConfig, {"n0": 8, "batch_size": 1,
                                              "level_ratio_log2": -1.5, "level_cap": 40}),
        "TrainConfig": (TrainConfig, {
            "steps": 2, "lr_theta": 1e-3, "lr_phi": 1e-3, "momentum": 0.9, "eval_every": 1,
            "eval_replications": 1,
        }),
    }
    data = Dataset(np.array([[0.0], [1.0], [1.0]]))
    saved = root / "api.txt"
    save_dataset(saved, data, 0, [0.0, 0.0])
    entries["save_dataset"] = (
        lambda path, seed, true_theta: save_dataset(path, data, seed, true_theta),
        {"path": root / "api-out.txt", "seed": 0, "true_theta": [0.0, 0.0]},
    )
    entries["load_dataset"] = (load_dataset, {"path": saved})
    cfg = EstimatorConfig(n0=4, batch_size=4)
    train_cfg = TrainConfig(steps=2, eval_every=1, eval_replications=1, estimator=cfg)
    for name, model in zip(MODELS, [GaussianConjugateModel(1), BernoulliGaussianModel()]):
        theta, phi = np.zeros(model.theta_dim), np.zeros(model.phi_dim)
        entries |= {
            f"level_estimate ({name})": (
                lambda x, theta, phi, level, model=model: level_estimate(
                    model, x, theta, phi, level, cfg, rng()),
                {"x": [1.0], "theta": theta, "phi": phi, "level": 1},
            ),
            f"estimate_log_evidence ({name})": (
                lambda theta, phi, workers, model=model: estimate_log_evidence(
                    model, data, theta, phi, cfg, rng(), workers),
                {"theta": theta, "phi": phi, "workers": 1},
            ),
            f"estimate_gradients ({name})": (
                lambda theta, phi, model=model: estimate_gradients(
                    model, data, theta, phi, cfg, rng()),
                {"theta": theta, "phi": phi},
            ),
            f"train ({name})": (
                lambda theta0, phi0, model=model: train(
                    model, data, theta0, phi0, train_cfg, rng()),
                {"theta0": theta, "phi0": phi},
            ),
            f"variance_profile ({name})": (
                lambda theta, phi, model=model: variance_profile(
                    model, data, theta, phi, [1, 2, 3], 100, cfg, rng()),
                {"theta": theta, "phi": phi},
            ),
            f"draw_weighed ({name})": (
                lambda x, theta, phi, model=model: model.draw_weighed(
                    x, theta, phi, rng(), np.empty((4, model.z_dim))),
                {"x": [1.0], "theta": theta, "phi": phi},
            ),
            f"sample_q ({name})": (
                lambda x, phi, model=model: model.sample_q(x, phi, rng(), 4),
                {"x": [1.0], "phi": phi},
            ),
        }
    return entries


def uncalled(entries) -> list[str]:
    """Public callables that no entry calls and `NOT_CALLED` does not name."""
    called = {name.split()[0].split(".")[0] for name in entries}
    return sorted(
        name for name in mlmc_evidence.__all__
        if callable(obj := getattr(mlmc_evidence, name)) and name not in called | NOT_CALLED
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    )


def api_cases(base: dict, root: Path):
    """Each (argument, value) of an entry's cases: every argument of `base`
    at each value of its kind's edge set."""
    for arg, value in base.items():
        kind = KIND.get(arg, "vector")
        if kind == "path":
            edges = [root / "absent" / "d.txt", root, ""]
        elif kind == "vector":
            edges = vector_edges(len(value))
        else:
            edges = EDGES[kind]
        for edge in edges:
            yield arg, edge


def run_call(call, kwargs: dict, path: bool, untouched) -> str | None:
    """"ok", "refused" or "alarm" for a call, or what is wrong with it: an
    exception other than the library's, an `OSError` where `path` holds,
    or a refusal of an argument after `untouched()` turned false (the call
    drew from its generator)."""
    allowed = LIBRARY_ERRORS + ((OSError,) if path else ())
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            with np.errstate(all="ignore"):  # as the command line runs
                call(**kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseAlarm:
        return "alarm"
    except allowed as exc:
        drawn = isinstance(exc, DivergenceError) or str(exc).startswith(DRAWN)
        return "refused" if drawn or untouched() else "refused after drawing from its generator"
    except Exception as exc:
        return "raised " + traceback.format_exception_only(exc)[-1].strip()
    return "ok"


def _state(g: np.random.Generator) -> str:
    """A generator's bit-generator state and its seed's child count."""
    return repr((g.bit_generator.state, g.bit_generator.seed_seq.n_children_spawned))


def fuzz_api(names: list[str], root: Path) -> list[tuple[str, str]]:
    """Run the entries named (all, if none), printing a line per entry; the
    faults, each as (case, what went wrong)."""
    made = []
    entries = api_entries(root, made)
    fresh = _state(substream(SEED, 0))
    faults = [(name, "no API entry calls it") for name in uncalled(entries)]
    print(f"{'entry':<34}" + "".join(f"{c:>8}" for c in API_COLUMNS))
    for name, (call, base) in entries.items():
        if names and name.split()[0] not in names:
            continue
        tally = Counter()
        for arg, value in api_cases(base, root):
            made.clear()
            got = run_call(
                call, {**base, arg: value}, KIND.get(arg) == "path",
                lambda: all(_state(g) == fresh for g in made),
            )
            tally["cases"] += 1
            tally[got if got in API_COLUMNS else "faults"] += 1
            if got not in API_COLUMNS:
                faults.append((f"{name} {arg}={' '.join(repr(value).split()):.60}", got))
        print(f"{name:<34}" + "".join(f"{tally[c]:>8}" for c in API_COLUMNS))
    return faults


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
    commands = [*BASE, "rerun"]
    parser.add_argument("--command", nargs="+", choices=commands, default=commands)
    parser.add_argument("--api", nargs="*", metavar="ENTRY",
                        help="fuzz the public API's entries (all, or those named) instead")
    args = parser.parse_args(argv)
    _limit_address_space(HEADROOM_MIB)
    signal.signal(signal.SIGALRM, _ring)
    with tempfile.TemporaryDirectory(prefix="fuzz-") as tmp:
        root = Path(tmp)
        if args.api is not None:
            faults = fuzz_api(args.api, root)
        else:
            faults = fuzz_cli(args.command, root)
    for case, wrong in faults:
        print(f"FAULT {case}: {wrong}")
    return 1 if faults else 0


def fuzz_cli(commands: list[str], root: Path) -> list[tuple[str, str]]:
    """Run the commands' cases, printing a line per command; the faults,
    each as (case, what went wrong)."""
    faults = []
    print(f"{'command':<17}" + "".join(f"{c:>7}" for c in COLUMNS))
    data = _datasets(root)
    for command in commands:
        if command == "rerun":
            drawn = rerun_cases([c for c in commands if c != "rerun"] or list(BASE), root)
        else:
            drawn = cases(command, data)
        tally = Counter()
        for i, case in enumerate(drawn):
            out = root / f"case-{i}"
            code, *outcome = run_case(case + [f"--out={out}"])
            shutil.rmtree(out, ignore_errors=True)
            wrong = fault(code, *outcome)
            tally["cases"] += 1
            tally["faults" if wrong else code if code == "alarm" else f"exit{code}"] += 1
            if wrong:
                faults.append((shown(case), wrong))
        print(f"{command:<17}" + "".join(f"{tally[c]:>7}" for c in COLUMNS))
    return faults


if __name__ == "__main__":
    sys.exit(main())
