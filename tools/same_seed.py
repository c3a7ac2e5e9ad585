"""Same-seed fingerprint of the mlmc_evidence package on the import path.

Runs a fixed set of seeded cases and prints one line per case family and
model:

    family/model count sha256

where the hash covers every output bit of the cases of that family and
model, in order (floats by repr, arrays by dtype, shape and bytes, a raised
error by type and message). Run it on two checkouts and compare the lines:
a line whose hash differs changed some output of some case of that model.
Nothing is stored or read back. The models are gaussian1, gaussian3
(Gaussian dim 1 and 3) and bernoulli1; each family covers each model times
the seeds:

- evidence and gradients at (n0, batch) in (1, 1), (4, 8), (8, 64), (32, 4),
  at the library's chunk byte budget and at a budget of 64 draws' rows;
- variance profiles at levels 0..5, antithetic and naive;
- tail moments;
- 20-step training records;
- exit code, stdout, stderr and artifacts of each CLI command at small sizes.

Usage:

    PYTHONPATH=src python tools/same_seed.py [--seeds N]
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from mlmc_evidence import cli, estimator
from mlmc_evidence.diagnostics import estimate_moments, variance_profile
from mlmc_evidence.estimator import EstimatorConfig, estimate_log_evidence
from mlmc_evidence.gradients import estimate_gradients
from mlmc_evidence.models import ALL_GRADS, BernoulliGaussianModel, GaussianConjugateModel
from mlmc_evidence.rng import substream
from mlmc_evidence.trainer import TrainConfig, train

MODELS = [("gaussian", 1), ("gaussian", 3), ("bernoulli", 1)]
SHAPES = [(1, 1), (4, 8), (8, 64), (32, 4)]
SMALL_BUDGET = 64

# CLI cases, each run with --model, --dim and --seed appended; a rerun case
# runs the command after "rerun", then replays its manifest
CLI_CASES = [
    ["gen-data", "--n", "20"],
    ["estimate", "--n", "20", "--batch", "16"],
    ["variance-profile", "--n", "20", "--levels", "0..3", "--reps", "100"],
    ["variance-profile", "--n", "20", "--levels", "0..3", "--reps", "100", "--naive"],
    ["grad-check", "--n", "20", "--points", "2", "--reps", "20", "--batch", "4"],
    ["moments", "--n", "20", "--draws", "10000"],
    ["train", "--n", "20", "--steps", "5", "--eval-every", "5", "--eval-reps", "2"],
    ["rerun", "estimate", "--n", "20", "--batch", "16"],
]


def canon(obj) -> str:
    """An exact text form of a result: equal texts mean equal bits."""
    if isinstance(obj, np.ndarray):
        return f"array({obj.dtype.str},{obj.shape},{obj.tobytes().hex()})"
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (bool, int, str, bytes, type(None), np.integer, np.bool_)):
        return repr(obj)
    if dataclasses.is_dataclass(obj):
        fields = [f"{f.name}={canon(getattr(obj, f.name))}" for f in dataclasses.fields(obj)]
        return f"{type(obj).__name__}({','.join(fields)})"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canon(v) for v in obj) + "]"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


class Family:
    def __init__(self):
        self.count = 0
        self.hash = hashlib.sha256()

    def add(self, case: str, run) -> None:
        """Run one case and fold its output, or the error it raised."""
        try:
            text = canon(run())
        except Exception as exc:  # an error is an output too
            text = f"raised {type(exc).__name__}: {exc}"
        self.hash.update(f"{case}\n{text}\n".encode())
        self.count += 1


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


def fingerprint(seeds: int) -> dict[str, Family]:
    families: dict[str, Family] = {}

    for seed in range(seeds):
        for name, dim in MODELS:

            def family(kind: str) -> Family:
                return families.setdefault(f"{kind}/{name}{dim}", Family())

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
            for antithetic, variant in [(True, "antithetic"), (False, "naive")]:
                family("profile-" + variant).add(tag, lambda: variance_profile(
                    model, data, theta, phi, range(0, 6), 100, EstimatorConfig(),
                    substream(seed, 3), antithetic=antithetic))
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
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        families = fingerprint(args.seeds)
    for name, fam in families.items():
        print(name, fam.count, fam.hash.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
