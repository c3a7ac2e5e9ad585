"""Training loop: ascend the unbiased evidence gradient in theta while
ascending the lower-bound gradient in phi, one shared sample batch per step.

The optimizer is plain SGD with optional momentum so that the estimator,
not the optimizer, stays the object under test. Updates use the
per-observation gradients (the batch estimates divided by the dataset
size): the optima are unchanged and step sizes stay meaningful across
dataset sizes, where the summed-objective scale makes any fixed learning
rate divergent once N is large.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ContractViolation, DivergenceError, UnsupportedOperation
from .estimator import EstimatorConfig, estimate_log_evidence
from .gradients import estimate_gradients
from .models import Dataset, LatentVariableModel


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    lr_theta: float = 1e-3
    lr_phi: float = 1e-3
    momentum: float = 0.9
    eval_every: int = 100
    eval_replications: int = 8
    estimator: EstimatorConfig = EstimatorConfig()

    def __post_init__(self):
        if self.steps < 1:
            raise ContractViolation(f"steps must be >= 1, got {self.steps}")
        # Learning rates of exactly 0 are allowed so one side can be frozen.
        if not (0.0 <= self.lr_theta < math.inf and 0.0 <= self.lr_phi < math.inf):
            raise ContractViolation(
                f"learning rates must be finite and nonnegative, got {self.lr_theta}, {self.lr_phi}"
            )
        if not (0.0 <= self.momentum < 1.0):
            raise ContractViolation(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.eval_every < 1 or self.eval_replications < 1:
            raise ContractViolation("eval_every and eval_replications must be >= 1")


@dataclass
class RunRecord:
    """Per-evaluation snapshot of a training run."""

    step: int
    theta: np.ndarray
    phi: np.ndarray
    evidence_estimate: float
    evidence_oracle: float | None
    kl_oracle: float | None
    grad_norms: tuple[float, float]
    cumulative_cost: int


def _oracle_metrics(model, rows, counts, theta, phi):
    # The oracles depend on an observation only through its value, so each
    # distinct row of the data, `rows`, is evaluated once and weighted by
    # how often it occurs, `counts` (binary data has at most two distinct
    # rows). Parameters that overflow an oracle are a contract error, not a
    # record.
    try:
        evidence = float(counts @ np.array([model.oracle_log_evidence(x, theta) for x in rows]))
    except UnsupportedOperation:
        return None, None
    try:
        kl = counts @ np.array([model.oracle_posterior_kl(x, theta, phi) for x in rows])
        kl = float(kl / counts.sum())
    except UnsupportedOperation:
        kl = None
    if not (math.isfinite(evidence) and (kl is None or math.isfinite(kl))):
        raise ContractViolation(f"oracle evidence {evidence!r} or KL {kl!r} is not finite")
    return evidence, kl


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of `v`: numpy's, except where the squares of finite
    components overflow it, where `v` is first scaled by its largest |entry|."""
    norm = float(np.linalg.norm(v))
    if norm == math.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def train(
    model: LatentVariableModel,
    data: Dataset,
    theta0,
    phi0,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[RunRecord]:
    """Run the two-objective ascent and return the evaluation records.

    Each step consumes one gradient batch (theta and phi gradients computed
    from the same draws), drawn in order from that step's own generator,
    spawned from the training branch shortly before use. Evaluations run on
    a generator branch spawned before training starts, so metric noise
    never perturbs the training stream. Records are written at
    step 0, every `eval_every` steps, and at the final step. A non-finite
    parameter aborts with a divergence error rather than clamping:
    heavy-tailed weights are a failure mode that must surface.
    """
    theta = np.array(theta0, dtype=np.float64)
    phi = np.array(phi0, dtype=np.float64)
    if theta.shape != (model.theta_dim,) or phi.shape != (model.phi_dim,):
        raise ContractViolation("initial parameters have wrong dimensions")
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ContractViolation("initial parameters must be finite")

    train_rng, eval_rng = _rng.spawn(rng, 2)
    # the data are fixed, so their distinct rows are found once per run
    rows, counts = np.unique(data.x, axis=0, return_counts=True)
    vel_theta = np.zeros_like(theta)
    vel_phi = np.zeros_like(phi)
    cumulative_cost = 0
    last_norms = (0.0, 0.0)

    def evaluate(step: int) -> RunRecord:
        values = [
            estimate_log_evidence(model, data, theta, phi, cfg.estimator, stream).value
            for stream in _rng.streams(eval_rng, cfg.eval_replications)
        ]
        evidence_oracle, kl_oracle = _oracle_metrics(model, rows, counts, theta, phi)
        return RunRecord(
            step=step,
            theta=theta.copy(),
            phi=phi.copy(),
            evidence_estimate=float(np.mean(values)),
            evidence_oracle=evidence_oracle,
            kl_oracle=kl_oracle,
            grad_norms=last_norms,
            cumulative_cost=cumulative_cost,
        )

    records = [evaluate(0)]
    for step, stream in enumerate(_rng.streams(train_rng, cfg.steps), start=1):
        try:
            grads = estimate_gradients(model, data, theta, phi, cfg.estimator, stream)
        except ContractViolation as exc:
            # inputs were validated up front, so a non-finite weight
            # mid-training means the parameters ran away
            raise DivergenceError(step, *last_norms) from exc
        cumulative_cost += grads.total_cost
        g_theta = grads.grad_theta / data.n_total
        g_phi = grads.grad_phi / data.n_total
        last_norms = (_norm(g_theta), _norm(g_phi))
        vel_theta = cfg.momentum * vel_theta + g_theta
        vel_phi = cfg.momentum * vel_phi + g_phi
        theta = theta + cfg.lr_theta * vel_theta
        phi = phi + cfg.lr_phi * vel_phi
        if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
            raise DivergenceError(step, *last_norms)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            records.append(evaluate(step))
    return records
