"""Command-line front end: estimation, diagnostics, gradient checks and
training as reproducible runs with file outputs.

Each command's parser is its only schema and holds every default. A run
writes ``manifest.json`` with its first artifact (`RunDir`): the command
plus the parsed value of each of its flags except ``--out``, and nothing
else. ``rerun --manifest`` replays it
bit-exactly. It first rejects a manifest that lacks one of those keys,
holds any other key, or holds a value the flag could not have parsed to.
The output location is an execution detail and stays out of the
manifest, so a replay into any directory writes byte-identical artifacts.

Exit codes: 0 success, 1 usage or contract error, 2 divergence, resource
guard or an allocation that cannot be made. Commands run with numpy's
floating-point warnings off: every value that can overflow ends in a
finiteness check of its own, so a failed run prints its one `error:` line
and nothing before it.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import rng as _rng
from .diagnostics import (
    estimate_moments,
    fit_decay_rate,
    variance_profile,
    write_level_stats_csv,
)
from .errors import (
    ContractViolation,
    DivergenceError,
    ResourceGuardExceeded,
    UnsupportedOperation,
)
from .estimator import EstimatorConfig, estimate_log_evidence
from .gradients import estimate_gradients
from .logspace import StreamingMoments
from .models import (
    BernoulliGaussianModel,
    Dataset,
    GaussianConjugateModel,
    load_dataset,
    save_dataset,
)
from .trainer import TrainConfig, train, write_run_records_csv, write_summary_json


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_vector(text: str) -> list[float]:
    """Comma-separated finite reals; an empty vector or entry is an error,
    not the default, and so is nan or inf, which no manifest may hold."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ContractViolation(f"cannot parse vector {text!r}: empty entry")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ContractViolation(f"cannot parse vector {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ContractViolation(f"cannot parse vector {text!r}: non-finite entry")
    return values


# no EstimatorConfig admits a deeper level: n0.bit_length() + level_cap <= 63
_DEEPEST_LEVEL = 62


def parse_level_range(text: str) -> list[int]:
    """Inclusive 'a..b' range, or a single level, within 0..62."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = int(lo), int(hi)
    # checked before the list is built, which past 62 could be any size
    if not 0 <= lo <= hi <= _DEEPEST_LEVEL:
        raise ContractViolation(f"bad level range {text!r}")
    return list(range(lo, hi + 1))


def build_model(name: str, dim: int):
    if name == "gaussian":
        return GaussianConjugateModel(dim=dim)
    if name == "bernoulli":
        return BernoulliGaussianModel()
    raise ContractViolation(f"unknown model {name!r}")


def default_true_theta(name: str, dim: int) -> list[float]:
    if name == "gaussian":
        # mu0 = 1, sigma0 = 1, sigmax = 0.5 per coordinate
        return [1.0] * dim + [0.0] * dim + [math.log(0.5)] * dim
    return [1.0, 0.0]


def _resolve_model_params(params: dict):
    model = build_model(params["model"], params["dim"])
    theta = np.asarray(params["theta"] or [0.0] * model.theta_dim, dtype=np.float64)
    phi = np.asarray(params["phi"] or [0.0] * model.phi_dim, dtype=np.float64)
    return model, theta, phi


def _synthetic_data(params: dict, model, true_theta) -> tuple[Dataset, list[float]]:
    # drawn at `true_theta`, else at the default; returns the theta it used
    true_theta = true_theta or default_true_theta(params["model"], params["dim"])
    gen = _rng.substream(params["seed"], _rng.STREAM_DATA)
    return model.generate_data(np.asarray(true_theta), params["n"], gen), true_theta


def _resolve_data(params: dict, model) -> Dataset:
    if params["data"]:
        data, _header = load_dataset(params["data"])
        if data.x.shape[1] != model.x_dim:
            raise ContractViolation(
                f"dataset dim {data.x.shape[1]} does not match model dim {model.x_dim}"
            )
        return data
    return _synthetic_data(params, model, params["true_theta"])[0]


def _estimator_config(params: dict) -> EstimatorConfig:
    return EstimatorConfig(
        n0=params["n0"],
        batch_size=params["batch"],
        level_ratio_log2=params["ratio_log2"],
        level_cap=params["level_cap"],
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class RunDir:
    """A run's output directory. `artifact(name)` is the path to write the
    artifact `name` to, and the first call writes the run's manifest: a
    run that fails before its first artifact (on a bad `--n0`, say) leaves
    no manifest, and one that fails after it (a failed grad check) leaves
    the manifest that replays the failure."""

    def __init__(self, path: Path, command: str, params: dict):
        self._path = path
        self._manifest = (command, params)

    def artifact(self, name: str) -> Path:
        if self._manifest is not None:
            command, params = self._manifest
            # one flat object: the command plus every resolved semantic parameter
            _write_json(self._path / "manifest.json", {"command": command, **params})
            self._manifest = None
        return self._path / name


# Command runners. Each takes the resolved manifest params and the output
# directory, writes at least one artifact, and returns a one-line summary.


def run_gen_data(params: dict, out: RunDir) -> str:
    model = build_model(params["model"], params["dim"])
    data, theta = _synthetic_data(params, model, params["theta"])
    path = out.artifact("dataset.txt")
    save_dataset(path, data, params["seed"], theta)
    return f"wrote {data.n_total} observations to {path}"


def run_estimate(params: dict, out: RunDir) -> str:
    model, theta, phi = _resolve_model_params(params)
    data = _resolve_data(params, model)
    cfg = _estimator_config(params)
    rng = _rng.substream(params["seed"], _rng.STREAM_BATCH)
    result = estimate_log_evidence(model, data, theta, phi, cfg, rng)
    levels = sorted(result.per_level_counts)
    _write_json(
        out.artifact("estimate.json"),
        {
            "value": result.value,
            "std_error": result.std_error,
            "total_cost": result.total_cost,
            "levels": levels,
            "level_counts": [result.per_level_counts[l] for l in levels],
        },
    )
    return f"log-evidence estimate {_fmt(result.value)} +/- {_fmt(result.std_error)} (cost {result.total_cost} draws)"


def run_variance_profile(params: dict, out: RunDir) -> str:
    model, theta, phi = _resolve_model_params(params)
    data = _resolve_data(params, model)
    cfg = _estimator_config(params)
    levels = params["levels"]
    rng = _rng.substream(params["seed"], _rng.STREAM_DIAG)
    stats = variance_profile(
        model, data, theta, phi, levels, params["reps"], cfg, rng,
        antithetic=not params["naive"],
    )
    write_level_stats_csv(stats, out.artifact("profile.csv"))
    fit = fit_decay_rate(stats, "var_z")
    fit_grad = fit_decay_rate(stats, "var_grad_theta_max")
    _write_json(
        out.artifact("fit.json"),
        {
            "slope_var_z": fit.slope,
            "intercept_var_z": fit.intercept,
            "r2_var_z": fit.r2,
            "slope_var_grad_theta_max": fit_grad.slope,
            "r2_var_grad_theta_max": fit_grad.r2,
        },
    )
    return f"variance decay slope {_fmt(fit.slope)} (r2 {_fmt(fit.r2)}) over levels {levels[0]}..{levels[-1]}"


def run_moments(params: dict, out: RunDir) -> str:
    model, theta, phi = _resolve_model_params(params)
    data = _resolve_data(params, model)
    x_index = params["x_index"]
    if not 0 <= x_index < data.n_total:
        raise ContractViolation(f"x-index {x_index} is outside the rows [0, {data.n_total})")
    x = data.x[x_index]
    rng = _rng.substream(params["seed"], _rng.STREAM_DIAG)
    diag = estimate_moments(
        model, x, theta, phi, params["s"], params["t"], params["draws"], rng
    )
    _write_json(out.artifact("moments.json"), dataclasses.asdict(diag))
    flag = "TAIL-WARNING" if diag.tail_warning else "ok"
    return (
        f"log s-moment {_fmt(diag.log_s_moment_estimate)}"
        f" t-moment {_fmt(diag.t_moment_estimate)} [{flag}]"
    )


def run_grad_check(params: dict, out: RunDir) -> str:
    # checked before any draw: the replication spread needs two replications
    if params["reps"] < 2:
        raise ContractViolation(f"reps must be >= 2, got {params['reps']}")
    model, theta, phi = _resolve_model_params(params)
    data = _resolve_data(params, model)
    cfg = _estimator_config(params)
    rng = _rng.substream(params["seed"], _rng.STREAM_CHECK)

    fd_max = finite_difference_check(model, data, params["points"], params["fd_step"], rng)

    batch_rng = _rng.substream(params["seed"], _rng.STREAM_BATCH)
    z_theta, z_phi = estimator_mean_check(model, data, theta, phi, cfg, params["reps"], batch_rng)
    ok = fd_max <= params["fd_tol"] and z_theta <= 4.0 and z_phi <= 4.0
    _write_json(
        out.artifact("gradcheck.json"),
        {
            "fd_max_rel_err": fd_max,
            "fd_tolerance": params["fd_tol"],
            "max_zscore_grad_theta": z_theta,
            "max_zscore_grad_phi": z_phi,
            "passed": ok,
        },
    )
    status = "PASS" if ok else "FAIL"
    line = (
        f"{status} fd-max-err {_fmt(fd_max)} | z-theta {_fmt(z_theta)} | z-phi {_fmt(z_phi)}"
    )
    if not ok:
        raise ContractViolation(f"gradient check failed: {line}")
    return line


def finite_difference_check(model, data: Dataset, points: int, step: float, rng) -> float:
    """Worst guarded relative error between closed-form and central-difference
    gradients of log f (theta side) and log q (phi side, via -dlog f/dphi)."""
    if points < 1:
        raise ContractViolation(f"points must be >= 1, got {points}")
    if not 0.0 < step < math.inf:
        raise ContractViolation(f"fd-step must be finite and positive, got {step}")
    worst = 0.0
    for _ in range(points):
        x = data.x[rng.integers(data.n_total)]
        theta = 0.5 * rng.standard_normal(model.theta_dim)
        phi = 0.5 * rng.standard_normal(model.phi_dim)
        z, sample = model.draw_weighed(x, theta, phi, rng, np.empty((1, model.z_dim)))

        def log_f_at(theta_v, phi_v):
            return float(model.log_weight_batch(x, z, theta_v, phi_v, grads=()).log_f[0])

        for j in range(model.theta_dim):
            e = np.zeros(model.theta_dim)
            e[j] = step
            fd = (log_f_at(theta + e, phi) - log_f_at(theta - e, phi)) / (2 * step)
            g = sample.grad_theta_log_f[0, j]
            worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
        for j in range(model.phi_dim):
            e = np.zeros(model.phi_dim)
            e[j] = step
            # f depends on phi only through the q denominator
            fd = -(log_f_at(theta, phi + e) - log_f_at(theta, phi - e)) / (2 * step)
            g = sample.grad_phi_log_q[0, j]
            worst = max(worst, abs(fd - g) / max(1.0, abs(g)))
    return float(worst)  # a numpy scalar here makes `passed` a numpy bool, which JSON rejects


def _max_zscore(moments: StreamingMoments, oracle) -> float:
    """Largest |mean - oracle| / standard error over the components. A
    component whose replications never vary scores 0 if its mean is the
    oracle's value and inf otherwise."""
    dev = np.abs(moments.mean - oracle)
    se = np.sqrt(moments.variance() / moments.count)
    z = np.where(dev == 0.0, 0.0, np.inf)
    np.divide(dev, se, out=z, where=se > 0.0)
    return float(z.max())


def estimator_mean_check(model, data, theta, phi, cfg, reps, rng) -> tuple[float, float]:
    """Replication z-scores of both gradient estimators against the oracles."""
    oracle_theta = sum(model.oracle_evidence_grad_theta(x, theta) for x in data.x)
    oracle_phi = sum(model.oracle_elbo_grad_phi(x, theta, phi) for x in data.x)
    mom_t = StreamingMoments()
    mom_p = StreamingMoments()
    for stream in _rng.streams(rng, reps):
        est = estimate_gradients(model, data, theta, phi, cfg, stream)
        mom_t.push(est.grad_theta)
        mom_p.push(est.grad_phi)
    return _max_zscore(mom_t, oracle_theta), _max_zscore(mom_p, oracle_phi)


def run_train(params: dict, out: RunDir) -> str:
    model, theta0, phi0 = _resolve_model_params(params)
    data = _resolve_data(params, model)
    cfg = TrainConfig(
        steps=params["steps"],
        lr_theta=params["lr_theta"],
        lr_phi=params["lr_phi"],
        momentum=params["momentum"],
        eval_every=params["eval_every"],
        eval_replications=params["eval_reps"],
        estimator=_estimator_config(params),
    )
    rng = _rng.substream(params["seed"], _rng.STREAM_BATCH)
    records = train(model, data, theta0, phi0, cfg, rng)
    write_run_records_csv(records, out.artifact("records.csv"))
    write_summary_json(records, out.artifact("summary.json"), params["seed"])
    final = records[-1]
    oracle = "" if final.evidence_oracle is None else f" oracle {_fmt(final.evidence_oracle)}"
    kl = "" if final.kl_oracle is None else f" kl {_fmt(final.kl_oracle)}"
    return (
        f"trained {params['steps']} steps: evidence {_fmt(final.evidence_estimate)}"
        f"{oracle}{kl} (cost {final.cumulative_cost} draws)"
    )


_RUNNERS = {
    "gen-data": run_gen_data,
    "estimate": run_estimate,
    "variance-profile": run_variance_profile,
    "grad-check": run_grad_check,
    "moments": run_moments,
    "train": run_train,
}


def dispatch(command: str, params: dict, out: Path) -> str:
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[command](params, RunDir(out, command, params))


def manifest_flags(command: str) -> dict[str, argparse.Action]:
    """A manifest's keys, in parser order, with their flags: every dest of
    `command`'s parser except help and out."""
    actions = build_parser().commands[command]._actions
    return {a.dest: a for a in actions if a.dest not in ("help", "out")}


def _read_manifest(path) -> tuple[str, dict]:
    try:
        manifest = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ContractViolation(f"manifest {path} is not a JSON object")
    command = manifest.pop("command", None)
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ContractViolation(f"manifest names unknown command {command!r}")
    flags = manifest_flags(command)
    for key, action in flags.items():
        if key not in manifest:
            raise ContractViolation(f"manifest has no {key!r}")
        expected = _unparsable_as(action, manifest[key])
        if expected:
            raise ContractViolation(f"manifest value {key}={manifest[key]!r} is not {expected}")
    unknown = [key for key in manifest if key not in flags]
    if unknown:
        raise ContractViolation(f"manifest has unknown key {unknown[0]!r}")
    return command, manifest


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _unparsable_as(action: argparse.Action, value) -> str | None:
    """What a manifest value should be, if it is not what the flag of
    `action` parses to; None if it is."""
    if value is None and action.default is None and not action.required:
        return None
    if action.choices is not None:
        return None if value in action.choices else f"one of {list(action.choices)}"
    if action.nargs == 0:  # a switch
        return None if isinstance(value, bool) else "true or false"
    if action.type is int:
        return None if _is_int(value) else "an integer"
    if action.type is float:
        return None if _is_real(value) else "a number"
    if action.type is parse_vector:
        ok = isinstance(value, list) and value
        ok = ok and all(_is_real(v) and math.isfinite(v) for v in value)
        return None if ok else "a nonempty list of finite numbers"
    if action.type is parse_level_range:
        ok = isinstance(value, list) and value and all(_is_int(v) for v in value)
        ok = ok and 0 <= value[0] and value[-1] <= _DEEPEST_LEVEL
        ok = ok and all(b == a + 1 for a, b in zip(value, value[1:]))
        return None if ok else f"a range of levels a..b with 0 <= a <= b <= {_DEEPEST_LEVEL}"
    return None if isinstance(value, str) else "a string"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _model_flags(p):
    p.add_argument("--model", choices=["gaussian", "bernoulli"], default="gaussian")
    p.add_argument("--dim", type=int, default=1, help="latent dimension (gaussian only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--theta", type=parse_vector, default=None)


def _common_flags(p):
    _model_flags(p)
    p.add_argument("--phi", type=parse_vector, default=None)
    p.add_argument("--data", default=None, help="dataset file (with sidecar header)")
    p.add_argument("--n", type=int, default=50, help="synthetic dataset size")
    p.add_argument("--true-theta", type=parse_vector, default=None,
                   help="generating parameters for synthetic data")


def _estimator_flags(p):
    p.add_argument("--n0", type=int, default=8)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--ratio-log2", type=float, default=-1.5)
    p.add_argument("--level-cap", type=int, default=40)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlmc-evidence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset with sidecar header")
    _model_flags(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("estimate", help="unbiased log-evidence estimate")
    _common_flags(p)
    _estimator_flags(p)

    p = sub.add_parser("variance-profile", help="per-level variance/cost profile and decay fit")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--levels", type=parse_level_range, default=list(range(1, 8)),
                   help="inclusive range a..b")
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--naive", action="store_true",
                   help="profile the non-antithetic difference instead")

    p = sub.add_parser("grad-check", help="finite-difference and estimator-mean validation")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--fd-tol", type=float, default=1e-6)
    p.add_argument("--reps", type=int, default=2000)

    p = sub.add_parser("moments", help="importance-weight tail moment diagnostics")
    _common_flags(p)
    p.add_argument("--s", type=float, default=4.5)
    p.add_argument("--t", type=float, default=3.0)
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--x-index", type=int, default=0)

    p = sub.add_parser("train", help="two-objective ascent with shared sample batches")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr-theta", type=float, default=1e-3)
    p.add_argument("--lr-phi", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--eval-every", type=int, default=100)
    p.add_argument("--eval-reps", type=int, default=8)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    parser.commands = sub.choices  # each command's parser, by name
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in manifest_flags(args.command)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            command, params = _read_manifest(args.manifest)
        else:
            command, params = args.command, _params_from_args(args)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            summary = dispatch(command, params, Path(args.out))
    except (ContractViolation, UnsupportedOperation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ResourceGuardExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
