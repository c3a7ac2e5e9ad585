"""Same-seed fingerprint of the mlmc_evidence package on the import path.

Runs a fixed set of seeded cases and prints one line per case family and
model:

    family/model count sha256

where the hash covers every output bit of the cases of that family and
model, in order: each output in its raw JSON form (integers exact, floats
by their shortest round-trip repr, arrays with dtype and shape, a raised
error by type and message). Run it on two checkouts and compare the lines:
a line whose hash differs changed some output of some case of that model.

Where a change moves floats by rounding, compare with a tolerance instead:
`--dump PATH` writes every case's raw outputs as JSON, and a run on the
other checkout with `--against PATH --rtol R` compares its outputs with
them. Integers (costs, per-level counts, levels, exit codes and integers in
CLI text) must be equal and every other text and structure identical;
floats, numbers in CLI text included, may differ by R relative to the
larger magnitude. It prints one line per family and model,

    family/model count max-relative-difference mismatches

and exits 1 if any case mismatches. The models are gaussian1, gaussian3
(Gaussian dim 1 and 3) and bernoulli1; each family covers each model times
the seeds:

- evidence and gradients at (n0, batch) in (1, 1), (4, 8), (8, 64), (32, 4),
  at the library's chunk byte budget and at a budget of 64 draws' rows;
- one-member level estimates (`level_estimate`) at levels 0..4 for the
  first observation, drawn in turn from one stream;
- variance profiles at levels 0..5, and at twelve unsorted levels with
  duplicates (more levels than most hosts' CPUs, so each of the profile's
  processes runs several), antithetic and naive;
- tail moments;
- 20-step training records;
- exit code, stdout, stderr and artifacts of each CLI command at small sizes,
  and of manifest reruns of estimate, a naive variance profile and grad-check.

Usage:

    PYTHONPATH=src python tools/same_seed.py [--seeds N] [--dump PATH]
    PYTHONPATH=src python tools/same_seed.py [--seeds N] --against PATH --rtol R
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from mlmc_evidence import cli, estimator
from mlmc_evidence.diagnostics import estimate_moments, variance_profile
from mlmc_evidence.estimator import ALL_GRADS, EstimatorConfig, estimate_log_evidence, level_estimate
from mlmc_evidence.gradients import estimate_gradients
from mlmc_evidence.models import BernoulliGaussianModel, GaussianConjugateModel
from mlmc_evidence.rng import substream
from mlmc_evidence.trainer import TrainConfig, train

MODELS = [("gaussian", 1), ("gaussian", 3), ("bernoulli", 1)]
SHAPES = [(1, 1), (4, 8), (8, 64), (32, 4)]
SMALL_BUDGET = 64
# unsorted, with duplicates, and more levels than most hosts' CPUs
PROFILE_LEVELS = [5, 0, 3, 3, 1, 4, 2, 5, 0, 1, 4, 2]

# CLI cases, each run with --model, --dim and --seed appended; a rerun case
# runs the command after "rerun", then replays its manifest (between them,
# the reruns hold counts, reals, a level range, a switch and a choice)
CLI_CASES = [
    ["gen-data", "--n", "20"],
    ["estimate", "--n", "20", "--batch", "16"],
    ["variance-profile", "--n", "20", "--levels", "0..3", "--reps", "100"],
    ["variance-profile", "--n", "20", "--levels", "0..3", "--reps", "100", "--naive"],
    ["grad-check", "--n", "20", "--points", "2", "--reps", "20", "--batch", "4"],
    ["moments", "--n", "20", "--draws", "10000"],
    ["train", "--n", "20", "--steps", "5", "--eval-every", "5", "--eval-reps", "2"],
    ["rerun", "estimate", "--n", "20", "--batch", "16"],
    ["rerun", "variance-profile", "--n", "20", "--levels", "0..3", "--reps", "100", "--naive"],
    ["rerun", "grad-check", "--n", "20", "--points", "2", "--reps", "20", "--batch", "4",
     "--fd-tol", "1e-5"],
]


def raw(obj):
    """A JSON form of a result that keeps integers exact and floats to the
    bit (JSON writes a float by its shortest round-trip repr): equal forms
    mean equal outputs."""
    if isinstance(obj, np.ndarray):
        return {"dtype": obj.dtype.str, "shape": list(obj.shape), "values": obj.ravel().tolist()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (str, type(None))):
        return obj
    if isinstance(obj, bytes):
        return {"bytes": obj.decode("utf-8", "backslashreplace")}
    if dataclasses.is_dataclass(obj):
        fields = {f.name: raw(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"type": type(obj).__name__, "fields": fields}
    if isinstance(obj, dict):
        return {"items": [[raw(k), raw(obj[k])] for k in sorted(obj)]}
    if isinstance(obj, (list, tuple)):
        return [raw(v) for v in obj]
    raise TypeError(f"no raw form for {type(obj).__name__}")


class Family:
    def __init__(self, keep: bool = False):
        self.count = 0
        self.hash = hashlib.sha256()
        self.cases: list | None = [] if keep else None

    def add(self, case: str, run) -> None:
        """Run one case and fold its output, or the error it raised; keep
        its raw form too if the family keeps its cases."""
        try:
            result = raw(run())
        except Exception as exc:  # an error is an output too
            result = f"raised {type(exc).__name__}: {exc}"
        self.hash.update(f"{case}\n{json.dumps(result)}\n".encode())
        self.count += 1
        if self.cases is not None:
            self.cases.append([case, result])


# a number in text: an optional sign, digits with an optional point and
# exponent, or inf/nan
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan))")
INTEGER = re.compile(r"[-+]?\d+")


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values (NaNs
    included) and inf where exactly one is NaN or the infinities differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(got, want, path: str, rtol: float, found: list[str]) -> float:
    """The largest relative difference of a float of `got` from `want`;
    appends to `found` every place where they differ by more than rtol or
    differ at all in an integer, a text or their structure."""
    if isinstance(want, float) and isinstance(got, float):
        d = rel_diff(got, want)
        if d > rtol:
            found.append(f"{path}: {got!r} vs {want!r}")
        return d
    if isinstance(want, str) and isinstance(got, str):
        g, w = NUMBER.split(got), NUMBER.split(want)
        if len(g) != len(w):
            found.append(f"{path}: text {got[:80]!r} vs {want[:80]!r}")
            return 0.0
        worst = 0.0
        for j, (gt, wt) in enumerate(zip(g, w)):
            # the text between numbers, or an integer
            if j % 2 == 0 or INTEGER.fullmatch(gt) or INTEGER.fullmatch(wt):
                if gt != wt:
                    found.append(f"{path}: text {gt[:80]!r} vs {wt[:80]!r}")
            else:
                worst = max(worst, compare(float(gt), float(wt), path, rtol, found))
        return worst
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return max((compare(g, w, f"{path}[{j}]", rtol, found)
                    for j, (g, w) in enumerate(zip(got, want))), default=0.0)
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return max((compare(got[k], want[k], f"{path}.{k}", rtol, found) for k in want),
                   default=0.0)
    if type(got) is not type(want) or got != want:  # ints, bools, None, structure
        found.append(f"{path}: {str(got)[:80]} vs {str(want)[:80]}")
    return 0.0


def setting(name: str, dim: int, seed: int):
    """The model, a 20-row dataset and a (theta, phi) near its truth."""
    model = GaussianConjugateModel(dim) if name == "gaussian" else BernoulliGaussianModel()
    true_theta = np.asarray(cli.default_true_theta(name, dim))
    data = model.generate_data(true_theta, 20, substream(seed, 0))
    gen = substream(seed, 7)
    theta = true_theta + 0.1 * gen.standard_normal(model.theta_dim)
    phi = 0.3 * gen.standard_normal(model.phi_dim)
    return model, data, theta, phi


@contextlib.contextmanager
def chunk_draws(draws: int | None, model, grads):
    """Chunks of `draws` draws of `model`'s rows drawn with the gradient
    arrays `grads`; the library's own byte budget for None."""
    saved = estimator.CHUNK_BYTES
    if draws is not None:
        estimator.CHUNK_BYTES = draws * estimator.row_bytes(model, grads)
    try:
        yield
    finally:
        estimator.CHUNK_BYTES = saved


def run_cli(argv: list[str], out: Path) -> list:
    """Exit code, stdout, stderr and every artifact of one CLI run, with
    the temporary output directory's name written as <out>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    artifacts = [(str(p.relative_to(out)), p.read_bytes()) for p in files]
    texts = [t.getvalue().replace(str(out.parent), "<out>") for t in (stdout, stderr)]
    return [code, *texts, artifacts]


def cli_case(argv: list[str]) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] != "rerun":
            return run_cli(argv, tmp / "out")
        run_cli(argv[1:], tmp / "first")
        return run_cli(["rerun", "--manifest", str(tmp / "first" / "manifest.json")], tmp / "out")


def fingerprint(seeds: int, keep: bool = False) -> dict[str, Family]:
    """Every family's fingerprint; with `keep`, each keeps its cases' raw
    outputs as well."""
    families: dict[str, Family] = {}

    for seed in range(seeds):
        for name, dim in MODELS:

            def family(kind: str) -> Family:
                return families.setdefault(f"{kind}/{name}{dim}", Family(keep))

            model, data, theta, phi = setting(name, dim, seed)
            tag = f"{name}{dim} seed {seed}"
            for draws, suffix in [(None, ""), (SMALL_BUDGET, "-budget64")]:
                for n0, batch in SHAPES:
                    cfg = EstimatorConfig(n0=n0, batch_size=batch)
                    case = f"{tag} n0 {n0} batch {batch}"
                    with chunk_draws(draws, model, ()):
                        family("evidence" + suffix).add(case, lambda: estimate_log_evidence(
                            model, data, theta, phi, cfg, substream(seed, 1)))
                    with chunk_draws(draws, model, ALL_GRADS):
                        family("gradients" + suffix).add(case, lambda: estimate_gradients(
                            model, data, theta, phi, cfg, substream(seed, 1)))
            family("level-estimate").add(tag, lambda: [
                level_estimate(model, data.x[0], theta, phi, level, EstimatorConfig(), rng)
                for rng in [substream(seed, 9)] for level in range(5)])
            for antithetic, variant in [(True, "antithetic"), (False, "naive")]:
                family("profile-" + variant).add(tag, lambda: variance_profile(
                    model, data, theta, phi, range(0, 6), 100, EstimatorConfig(),
                    substream(seed, 3), antithetic=antithetic))
                family("profile-" + variant).add(f"{tag} levels {PROFILE_LEVELS}", lambda: (
                    variance_profile(model, data, theta, phi, PROFILE_LEVELS, 100,
                                     EstimatorConfig(), substream(seed, 5), antithetic=antithetic)))
            family("moments").add(tag, lambda: estimate_moments(
                model, data.x[0], theta, phi, 4.5, 3.0, 10_000, substream(seed, 3)))
            family("train").add(tag, lambda: train(
                model, data, theta, phi,
                TrainConfig(steps=20, eval_every=10, eval_replications=2,
                            estimator=EstimatorConfig(batch_size=4)),
                substream(seed, 1)))
            for case in CLI_CASES:
                argv = [*case, "--model", name, "--dim", str(dim), "--seed", str(seed)]
                family("cli-" + case[0]).add(" ".join(argv), lambda: cli_case(argv))
    return families


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=50, help="seeds per model (default 50)")
    parser.add_argument("--dump", metavar="PATH", help="write every case's raw outputs to PATH")
    parser.add_argument("--against", metavar="PATH",
                        help="compare with the raw outputs a --dump run wrote to PATH")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance on floats with --against (default 0)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if not args.rtol >= 0.0:
        parser.error(f"--rtol must be >= 0, got {args.rtol}")
    want = None
    if args.against:
        with open(args.against) as fh:
            want = json.load(fh)
    keep = bool(args.dump or args.against)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        families = fingerprint(args.seeds, keep)
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump({name: fam.cases for name, fam in families.items()}, fh)
    if want is None:
        for name, fam in families.items():
            print(name, fam.count, fam.hash.hexdigest())
        return 0
    bad = 0
    for name in [*families, *(n for n in want if n not in families)]:
        found: list[str] = []
        got = families[name].cases if name in families else None
        worst = compare(got, want.get(name), name, args.rtol, found)
        print(name, len(got or ()), format(worst, ".3g"), len(found))
        for place in found[:5]:
            print("  mismatch", place, file=sys.stderr)
        bad += len(found)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
