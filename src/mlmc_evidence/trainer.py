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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ContractViolation, DivergenceError, UnsupportedOperation
from .estimator import EstimatorConfig, estimate_log_evidence
from .gradients import estimate_gradients
from .models import (
    Dataset, LatentVariableModel, _all_finite, _check_fields, _count, _real,
)


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
        _check_fields(self, _count, "steps", "eval_every", "eval_replications")
        _check_fields(self, _real, "lr_theta", "lr_phi", "momentum")
        if not isinstance(self.estimator, EstimatorConfig):
            raise ContractViolation(f"estimator must be an EstimatorConfig, got {self.estimator!r}")
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
    """Euclidean norm of the vector `v`, sqrt(v @ v) as numpy's norm forms
    it, except where the squares of finite components overflow it, where
    `v` is first scaled by its largest |entry|."""
    norm = math.sqrt(v @ v)
    if norm == math.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        v = v / scale
        norm = scale * math.sqrt(v @ v)
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
    from the same draws), drawn in order from that step's own child stream
    of the training branch (`rng.streams`). Evaluation replications take
    the children of a branch spawned before training starts, in order, so
    metric noise never perturbs the training stream. Records are written at
    step 0, every `eval_every` steps, and at the final step. A non-finite
    parameter aborts with a divergence error rather than clamping:
    heavy-tailed weights are a failure mode that must surface. theta0 and
    phi0 are checked by the model's rule before `rng` is spawned from.
    """
    # one stacked (theta, phi) vector, its velocity and its learning rates,
    # so a step updates both with one operation each; theta and phi are views
    params = np.concatenate(model._check_parameters(theta0, phi0))
    k = model.theta_dim
    theta, phi = params[:k], params[k:]
    velocity = np.zeros_like(params)
    lr = np.repeat([cfg.lr_theta, cfg.lr_phi], [k, model.phi_dim])

    train_rng, eval_rng = _rng.spawn(rng, 2)
    # the data are fixed, so their distinct rows are found once per run
    rows, counts = np.unique(data.x, axis=0, return_counts=True)
    cumulative_cost = 0
    last_norms = (0.0, 0.0)
    # every evaluation takes its replications' streams from one iterator:
    # `streams` leaves eval_rng's child counter as it was, so a second call
    # would take the same children again; records are made at step 0 and
    # ceil(steps / eval_every) steps after it
    evaluations = 1 + -(-cfg.steps // cfg.eval_every)
    eval_streams = _rng.streams(eval_rng, evaluations * cfg.eval_replications)

    def evaluate(step: int) -> RunRecord:
        values = [
            estimate_log_evidence(model, data, theta, phi, cfg.estimator, stream).value
            for stream in itertools.islice(eval_streams, cfg.eval_replications)
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
        g = np.concatenate([grads.grad_theta, grads.grad_phi])
        g /= data.n_total
        last_norms = (_norm(g[:k]), _norm(g[k:]))
        velocity *= cfg.momentum
        velocity += g
        g = np.multiply(lr, velocity, out=g)
        params += g
        if not _all_finite(params):
            raise DivergenceError(step, *last_norms)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            records.append(evaluate(step))
    return records
