"""Command-line front end: estimation, diagnostics, gradient checks and
training as reproducible runs with file outputs.

Each command's parser is its only schema and holds every default. A run
writes ``manifest.json`` with its first artifact (`RunDir`): the command
plus the parsed value of each of its flags except ``--out``, and nothing
else. ``rerun --manifest`` replays it bit-exactly. It first rejects a
manifest that lacks one of those keys, holds any other key, or holds a
value that its flag's own type does not parse back to itself from the
text the flag reads (counts must fit in int64), then runs on what the
type parsed. A replay into any directory writes byte-identical artifacts.

Exit codes: 0 success, 1 usage or contract error, 2 divergence, resource
guard or an allocation that cannot be made. Commands run with numpy's
floating-point warnings off: every value that can overflow ends in a
finiteness check of its own, so a failed run prints its one `error:` line
and nothing before it.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import rng as _rng
from .diagnostics import estimate_moments, fit_decay_rate, variance_profile
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
from .trainer import TrainConfig, train


def _fmt(x: float | None) -> str:
    """A real as every artifact and summary line writes it: 17 significant
    digits, and None as the empty string."""
    return "" if x is None else format(float(x), ".17g")


class FlagValueError(ContractViolation, argparse.ArgumentTypeError):
    """Text a flag's type rejects: argparse prints this error's reason (for a
    plain ValueError it names the type), and a manifest check catches it."""


def parse_vector(text: str) -> list[float]:
    """Comma-separated finite reals; an empty vector or entry is an error,
    not the default, and so is nan or inf, which no manifest may hold."""
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise FlagValueError(f"cannot parse vector {text!r}: empty entry")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise FlagValueError(f"cannot parse vector {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise FlagValueError(f"cannot parse vector {text!r}: non-finite entry")
    return values


def parse_int64(text: str) -> int:
    """An integer within int64, as every count numpy sizes by must be."""
    # int() reads the sign and at most 20 significant digits: 20 are past
    # int64 already, and past 4300 digits int() fails with no reason
    m = re.fullmatch(r"\s*([+-]?)(?:0_?)*([0-9](?:_?[0-9])*)\s*", text)
    try:
        value = int(m[1] + m[2].replace("_", "")[:20] if m else text)
    except ValueError:
        raise FlagValueError(f"{text!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise FlagValueError(f"{text!r} does not fit in int64")
    return value


# no EstimatorConfig admits a deeper level: n0.bit_length() + level_cap <= 63
_DEEPEST_LEVEL = 62


def parse_level_range(text: str) -> list[int]:
    """Inclusive 'a..b' range, or a single level, within 0..62."""
    m = re.fullmatch(r"0*(\d{1,2})(?:\.\.0*(\d{1,2}))?", text)  # int() is given 2 digits at most
    # checked before the list is built, which past 62 could be any size
    if not (m and int(m[1]) <= int(m[2] or m[1]) <= _DEEPEST_LEVEL):
        raise FlagValueError(f"bad level range {text!r}")
    return list(range(int(m[1]), int(m[2] or m[1]) + 1))


def build_model(name: str, dim: int):
    if name == "gaussian":
        return GaussianConjugateModel(dim=dim)
    if name == "bernoulli":
        if dim != 1:
            raise ContractViolation(f"the bernoulli model has dim 1, got --dim {dim}")
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


def _law_note(cfg: EstimatorConfig) -> str:
    """A summary line's note on a level law at ratio r <= 1/4: with level
    variances falling like 4^-l, sum_l 4^-l / mass(l) diverges there, so
    the estimator's variance is not finite; empty for any other law."""
    if cfg.ratio > 0.25:
        return ""
    return (f" [level ratio 2^{_fmt(cfg.level_ratio_log2)} <= 1/4: the variance is not"
            " finite where level variances fall like 4^-l]")


def _write_json(path: Path, payload: dict) -> None:
    """Write `payload` as strict JSON: a NaN or an infinity in it is an error."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        bad = [k for k, v in payload.items() if isinstance(v, float) and not math.isfinite(v)]
        raise ContractViolation(f"cannot write {path.name}: non-finite {bad or 'value'}") from None
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class RunDir:
    """A run's output directory. `artifact(name)` is the path to write the
    artifact `name` to, and the first call writes the run's manifest: a
    run that fails before its first artifact (on a bad `--n0`, say) leaves
    no manifest, and one that fails after it (a failed grad check) leaves
    the manifest that replays the failure."""

    def __init__(self, path: Path, command: str, params: dict):
        path.mkdir(parents=True, exist_ok=True)
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
    if not (math.isfinite(result.value) and math.isfinite(result.std_error)):
        raise ContractViolation(
            f"estimate overflows: value {result.value}, std error {result.std_error}"
        )
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
    return (
        f"log-evidence estimate {_fmt(result.value)} +/- {_fmt(result.std_error)}"
        f" (cost {result.total_cost} draws){_law_note(cfg)}"
    )


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
    _write_csv(
        out.artifact("profile.csv"),
        ["level", "replications", "mean_z", "var_z", "var_grad_theta_max", "mean_cost"],
        [[s.level, s.replications, _fmt(s.mean_z), _fmt(s.var_z), _fmt(s.var_grad_theta_max),
          _fmt(s.mean_cost)] for s in stats],
    )
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
    if not math.isfinite(params["fd_tol"]):  # gradcheck.json could not hold it as JSON
        raise ContractViolation(f"fd-tol must be finite, got {params['fd_tol']}")
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
            # null: a component never varied and its mean is not the oracle's
            "max_zscore_grad_theta": None if z_theta == math.inf else z_theta,
            "max_zscore_grad_phi": None if z_phi == math.inf else z_phi,
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
    gradients of log f (theta side) and log q (phi side, via -dlog f/dphi).
    A point whose log weight, closed-form gradient or central difference is
    not finite fails the check, since no error can be read there."""
    if points < 1:
        raise ContractViolation(f"points must be >= 1, got {points}")
    if data.n_total < 1:
        raise ContractViolation("dataset is empty")
    if not 0.0 < step < math.inf:
        raise ContractViolation(f"fd-step must be finite and positive, got {step}")
    worst = 0.0
    k = model.theta_dim
    for point in range(points):
        x = data.x[rng.integers(data.n_total)]
        theta = 0.5 * rng.standard_normal(k)
        phi = 0.5 * rng.standard_normal(model.phi_dim)
        g = np.empty(k + model.phi_dim)  # d(log f)/d(theta), then d(log q)/d(phi)
        z, log_f = model.draw_weighed(
            x, theta, phi, rng, np.empty((1, model.z_dim)), g[None, :k], g[None, k:]
        )

        def log_f_at(theta_v, phi_v):
            return float(model.log_weight_batch(x, z, theta_v, phi_v)[0])

        fd = np.array([
            log_f_at(theta + e[:k], phi + e[k:]) - log_f_at(theta - e[:k], phi - e[k:])
            for e in step * np.eye(g.size)
        ]) / (2 * step)
        fd[k:] *= -1.0  # f depends on phi only through the q denominator
        if not (np.isfinite(log_f[0]) and np.isfinite(g).all() and np.isfinite(fd).all()):
            raise ContractViolation(
                f"finite-difference point {point}: log weight or gradient is not finite"
                f" at x={x!r}, theta={theta!r}, phi={phi!r}"
            )
        # a numpy scalar here makes `passed` a numpy bool, which JSON rejects
        worst = max(worst, float((np.abs(fd - g) / np.maximum(1.0, np.abs(g))).max()))
    return worst


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
    try:
        oracle_theta = sum(model.oracle_evidence_grad_theta(x, theta) for x in data.x)
        oracle_phi = sum(model.oracle_elbo_grad_phi(x, theta, phi) for x in data.x)
        finite = np.isfinite(oracle_theta).all() and np.isfinite(oracle_phi).all()
    except OverflowError:  # math.exp of q's log scale in a quadrature oracle
        finite = False
    if not finite:
        raise ContractViolation("the gradient oracles are not finite at this theta and phi")
    mom_t = StreamingMoments()
    mom_p = StreamingMoments()
    for stream in _rng.streams(rng, reps):
        est = estimate_gradients(model, data, theta, phi, cfg, stream)
        mom_t.push(est.grad_theta)
        mom_p.push(est.grad_phi)
    for name, mom in (("theta", mom_t), ("phi", mom_p)):
        if not (np.isfinite(mom.mean).all() and np.isfinite(mom.variance()).all()):
            raise ContractViolation(f"the {name}-gradient estimates or their spread are not finite")
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
    _write_csv(
        out.artifact("records.csv"),
        ["step", "evidence_estimate", "evidence_oracle", "kl_oracle", "grad_norm_theta",
         "grad_norm_phi", "cumulative_cost"]
        + [f"theta_{i}" for i in range(model.theta_dim)]
        + [f"phi_{i}" for i in range(model.phi_dim)],
        [[r.step, _fmt(r.evidence_estimate), _fmt(r.evidence_oracle), _fmt(r.kl_oracle),
          _fmt(r.grad_norms[0]), _fmt(r.grad_norms[1]), r.cumulative_cost]
         + [_fmt(v) for v in (*r.theta, *r.phi)] for r in records],
    )
    final = records[-1]
    _write_json(
        out.artifact("summary.json"),
        {
            "final_theta": final.theta.tolist(),
            "final_phi": final.phi.tolist(),
            "final_evidence": final.evidence_estimate,
            "total_cost": final.cumulative_cost,
            "seed": params["seed"],
        },
    )
    oracle = "" if final.evidence_oracle is None else f" oracle {_fmt(final.evidence_oracle)}"
    kl = "" if final.kl_oracle is None else f" kl {_fmt(final.kl_oracle)}"
    return (
        f"trained {params['steps']} steps: evidence {_fmt(final.evidence_estimate)}"
        f"{oracle}{kl} (cost {final.cumulative_cost} draws){_law_note(cfg.estimator)}"
    )


_RUNNERS = {
    "gen-data": run_gen_data,
    "estimate": run_estimate,
    "variance-profile": run_variance_profile,
    "grad-check": run_grad_check,
    "moments": run_moments,
    "train": run_train,
}


def manifest_flags(command: str) -> dict[str, argparse.Action]:
    """A manifest's keys, in parser order, with their flags: every dest of
    `command`'s parser except help and out."""
    actions = build_parser().commands[command]._actions
    return {a.dest: a for a in actions if a.dest not in ("help", "out")}


def _read_manifest(path) -> tuple[str, dict]:
    try:
        manifest = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # also an int too long or nesting too deep
        raise ContractViolation(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ContractViolation(f"manifest {path} is not a JSON object")
    command = manifest.pop("command", None)
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ContractViolation(f"manifest names unknown command {command!r}")
    params = {}
    for key, action in manifest_flags(command).items():
        if key not in manifest:
            raise ContractViolation(f"manifest has no {key!r}")
        value = manifest.pop(key)
        try:
            params[key] = _manifest_value(action, value)
        except ValueError:
            raise ContractViolation(f"manifest value {key}={value!r} is not "
                                    f"a {action.option_strings[0]} value") from None
    if manifest:  # a key no flag took
        raise ContractViolation(f"manifest has unknown key {next(iter(manifest))!r}")
    return command, params


def _manifest_value(action: argparse.Action, value):
    """What the flag of `action` parses the text of `value` to, as from the
    command line: the flag's type is its one grammar. A ValueError unless
    that equals `value` and is among the flag's choices."""
    if value is None and action.default is None and not action.required:
        return None
    if action.nargs == 0:  # a switch
        if isinstance(value, bool):
            return value
        raise ValueError(value)
    if action.type is parse_level_range and isinstance(value, list) and value:
        text = f"{value[0]}..{value[-1]}"
    else:
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    parsed = (action.type or str)(text)
    if parsed != value or action.choices is not None and parsed not in action.choices:
        raise ValueError(value)
    return parsed


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _model_flags(p):
    p.add_argument("--model", choices=["gaussian", "bernoulli"], default="gaussian")
    p.add_argument("--dim", type=parse_int64, default=1, help="latent dimension (1 for bernoulli)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--theta", type=parse_vector, default=None)


def _common_flags(p):
    _model_flags(p)
    p.add_argument("--phi", type=parse_vector, default=None)
    p.add_argument("--data", default=None, help="dataset file (with sidecar header)")
    p.add_argument("--n", type=parse_int64, default=50, help="synthetic dataset size")
    p.add_argument("--true-theta", type=parse_vector, default=None,
                   help="generating parameters for synthetic data")


def _estimator_flags(p):
    defaults = EstimatorConfig()
    p.add_argument("--n0", type=parse_int64, default=defaults.n0)
    p.add_argument("--batch", type=parse_int64, default=8)
    p.add_argument("--ratio-log2", type=float, default=defaults.level_ratio_log2)
    p.add_argument("--level-cap", type=parse_int64, default=defaults.level_cap)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlmc-evidence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset with sidecar header")
    _model_flags(p)
    p.add_argument("--n", type=parse_int64, required=True)

    p = sub.add_parser("estimate", help="unbiased log-evidence estimate")
    _common_flags(p)
    _estimator_flags(p)

    p = sub.add_parser("variance-profile", help="per-level variance/cost profile and decay fit")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--levels", type=parse_level_range, default=list(range(1, 8)),
                   help="inclusive range a..b")
    p.add_argument("--reps", type=parse_int64, default=10_000)
    p.add_argument("--naive", action="store_true",
                   help="profile the non-antithetic difference instead")

    p = sub.add_parser("grad-check", help="finite-difference and estimator-mean validation")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--points", type=parse_int64, default=100)
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--fd-tol", type=float, default=1e-6)
    p.add_argument("--reps", type=parse_int64, default=2000)

    p = sub.add_parser("moments", help="importance-weight tail moment diagnostics")
    _common_flags(p)
    p.add_argument("--s", type=float, default=4.5)
    p.add_argument("--t", type=float, default=3.0)
    p.add_argument("--draws", type=parse_int64, default=100_000)
    p.add_argument("--x-index", type=parse_int64, default=0)

    p = sub.add_parser("train", help="two-objective ascent with shared sample batches")
    _common_flags(p)
    _estimator_flags(p)
    p.add_argument("--steps", type=parse_int64, default=2000)
    p.add_argument("--lr-theta", type=float, default=1e-3)
    p.add_argument("--lr-phi", type=float, default=1e-3)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--eval-every", type=parse_int64, default=100)
    p.add_argument("--eval-reps", type=parse_int64, default=8)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    parser.commands = sub.choices  # each command's parser, by name
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            command, params = _read_manifest(args.manifest)
        else:
            command = args.command
            params = {key: getattr(args, key) for key in manifest_flags(command)}
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            summary = _RUNNERS[command](params, RunDir(Path(args.out), command, params))
    except (ContractViolation, UnsupportedOperation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, ResourceGuardExceeded, MemoryError, OverflowError) as exc:
        # a MemoryError of a size Python refuses outright has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
