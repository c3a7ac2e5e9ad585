"""Randomized multilevel core for unbiased log-evidence estimation.

A level-l estimate draws n0 * 2^l latents from q, forms the log of their
mean importance weight, and subtracts the average of the log-means of the
two contiguous half-buffers of the same draws. The expectation of these
antithetic differences telescopes across levels to the exact log evidence,
so drawing the level from a geometric distribution and reweighting each
difference by its level probability gives an estimator of log p(X) with no
bias at any finite cost.

A batch is one shared draw buffer per member (`run_batch`). Each estimator
reduces those buffers to the one quantity it returns: the evidence
estimate folds the level values here, and `gradients.estimate_gradients`
folds the level gradients of the same buffers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gradients as _gradients
from .errors import ContractViolation, ResourceGuardExceeded
from .logspace import log_mean_exp_unchecked
from .models import Dataset, LatentVariableModel

#: Geometric ratio 2^(-3/2): level mass decays fast enough for finite
#: variance (weight 1/mass grows slower than the difference variance decays)
#: and slow enough for finite expected cost (mass decays faster than 2^-l).
DEFAULT_LEVEL_RATIO = 2.0 ** -1.5

DEFAULT_LEVEL_CAP = 40


@dataclass(frozen=True)
class LevelDistribution:
    """Geometric distribution over levels: mass(l) = (1 - r) * r^l.

    Normalizing the geometric family keeps the support unbounded (no
    truncation bias) and makes inverse-CDF sampling exact.
    """

    ratio: float = DEFAULT_LEVEL_RATIO

    def __post_init__(self):
        if not (0.0 < self.ratio < 0.5):
            raise ContractViolation(
                f"level ratio must lie in (0, 1/2) for finite expected cost, got {self.ratio}"
            )

    def mass(self, level: int) -> float:
        if level < 0:
            raise ContractViolation(f"level must be >= 0, got {level}")
        return (1.0 - self.ratio) * self.ratio**level

    @property
    def expected_cost_factor(self) -> float:
        """E[2^level] = (1 - r) / (1 - 2r), the per-draw cost multiplier."""
        return (1.0 - self.ratio) / (1.0 - 2.0 * self.ratio)


def sample_level(dist: LevelDistribution, u: float, level_cap: int = DEFAULT_LEVEL_CAP) -> int:
    """Exact inverse-CDF sample: floor(ln u / ln r) has survival r^l.

    Exceeding `level_cap` raises instead of clamping, which preserves the
    no-truncation-bias property; at the default ratio the cap sits at
    probability r^40 ~ 1e-18, so a trip means misconfiguration, not bad
    luck.
    """
    if not (0.0 < u < 1.0):
        raise ContractViolation(f"uniform variate must lie strictly in (0, 1), got {u}")
    level = int(math.floor(math.log(u) / math.log(dist.ratio)))
    if level > level_cap:
        raise ResourceGuardExceeded(
            f"sampled level {level} exceeds level cap {level_cap}"
        )
    return level


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the randomized multilevel estimator.

    n0 is the latent count at level 0 (level l uses n0 * 2^l); batch_size
    is the number of (data point, level) terms averaged per estimate.
    """

    n0: int = 8
    batch_size: int = 1
    level_ratio_log2: float = -1.5
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
        if self.n0 < 1:
            raise ContractViolation(f"n0 must be >= 1, got {self.n0}")
        if self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")
        if self.level_cap < 1:
            raise ContractViolation(f"level_cap must be >= 1, got {self.level_cap}")
        self.distribution()  # validates the ratio

    def distribution(self) -> LevelDistribution:
        return LevelDistribution(ratio=2.0**self.level_ratio_log2)


@dataclass
class LevelDraws:
    """Shared latent draws for one (x, level): the single sample set from
    which the level estimate and both gradient estimates are computed."""

    level: int
    log_f: np.ndarray  # (n,)
    grad_theta_log_f: np.ndarray  # (n, theta_dim)
    grad_phi_log_q: np.ndarray  # (n, phi_dim)

    @property
    def n(self) -> int:
        return self.log_f.shape[0]


def draw_level_samples(
    model: LatentVariableModel,
    x,
    theta,
    phi,
    level: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> LevelDraws:
    """Draw n0 * 2^level latents from q and evaluate log f and gradients."""
    if level < 0:
        raise ContractViolation(f"level must be >= 0, got {level}")
    if level > cfg.level_cap:
        raise ResourceGuardExceeded(f"level {level} exceeds level cap {cfg.level_cap}")
    n = cfg.n0 << level
    z = model.sample_q(x, phi, rng, n)
    batch = model.log_weight_batch(x, z, theta, phi)
    if not np.isfinite(batch.log_f).all():
        i = int(np.flatnonzero(~np.isfinite(batch.log_f))[0])
        raise ContractViolation(
            f"non-finite log weight at x={np.asarray(x)!r}, z={z[i]!r} (level {level})"
        )
    return LevelDraws(
        level=level,
        log_f=batch.log_f,
        grad_theta_log_f=batch.grad_theta_log_f,
        grad_phi_log_q=batch.grad_phi_log_q,
    )


def antithetic_difference(draws: LevelDraws) -> float:
    """The level value: log-mean of all draws minus the averaged half log-means.

    At level 0 there is nothing to subtract and the value is the plain
    log-mean. The two halves are the first and second contiguous halves of
    the same draw buffer, which is what makes the averaged half-means equal
    the full mean identically (the antithetic cancellation). Draw buffers
    were validated when drawn, so the raw reduction applies.
    """
    p_full = log_mean_exp_unchecked(draws.log_f)
    if draws.level == 0:
        return p_full
    half = draws.n // 2
    p_a = log_mean_exp_unchecked(draws.log_f[:half])
    p_b = log_mean_exp_unchecked(draws.log_f[half:])
    return p_full - 0.5 * (p_a + p_b)


@dataclass
class LevelEstimate:
    """One realized level difference with its gradients."""

    level: int
    z_value: float
    grad_theta: np.ndarray
    phi_grad_term: np.ndarray
    cost: int  # latent draws consumed = n0 * 2^level


def level_estimate(
    model: LatentVariableModel,
    x,
    theta,
    phi,
    level: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> LevelEstimate:
    """Level value, its theta-gradient and the level phi-gradient average,
    all from one shared set of latent draws."""
    draws = draw_level_samples(model, x, theta, phi, level, cfg, rng)
    return LevelEstimate(
        level=level,
        z_value=antithetic_difference(draws),
        grad_theta=_gradients.grad_theta_level(draws),
        phi_grad_term=_gradients.grad_phi_elbo_level(draws),
        cost=draws.n,
    )


def draw_batch_indices(
    data: Dataset, cfg: EstimatorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, list[int]]:
    """The batch's (data index, level) pairs: indices uniform with
    replacement, levels by exact inverse-CDF from the level distribution."""
    if data.n_total < 1:
        raise ContractViolation("dataset is empty")
    dist = cfg.distribution()
    indices = rng.integers(0, data.n_total, size=cfg.batch_size)
    levels = [sample_level(dist, float(u), cfg.level_cap) for u in rng.random(cfg.batch_size)]
    return indices, levels


def run_batch(
    model: LatentVariableModel,
    data: Dataset,
    theta,
    phi,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> list[LevelDraws]:
    """Draw one batch's shared latent buffers, one per member, in batch order.

    Every (data index, level) pair is drawn from `rng` before any latent,
    then the members draw their latents from `rng` in batch order. The
    caller folds the ordered list into whichever quantities it returns.
    """
    indices, levels = draw_batch_indices(data, cfg, rng)
    return [
        draw_level_samples(model, data.x[i], theta, phi, level, cfg, rng)
        for i, level in zip(indices, levels)
    ]


def batch_cost(batch: list[LevelDraws]) -> tuple[int, dict[int, int]]:
    """Latent draws a batch consumed, and its member count per level."""
    counts: dict[int, int] = {}
    for draws in batch:
        counts[draws.level] = counts.get(draws.level, 0) + 1
    return sum(draws.n for draws in batch), counts


@dataclass
class EvidenceEstimate:
    """Unbiased estimate of log p(X) with batch-level noise accounting."""

    value: float
    std_error: float
    total_cost: int
    per_level_counts: dict[int, int] = field(default_factory=dict)


def estimate_log_evidence(
    model: LatentVariableModel,
    data: Dataset,
    theta,
    phi,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    workers: int = 1,
) -> EvidenceEstimate:
    """(N/M) * sum_m z_m / mass(level_m): unbiased for log p(X).

    The reported std_error is N * std(z/mass) / sqrt(M) over the M batch
    terms, an estimate of this batch estimator's own noise (0 when M = 1).
    `workers` is accepted only as 1: batches run in order on one thread.
    """
    if workers != 1:
        raise ContractViolation(f"workers must be 1, got {workers}")
    batch = run_batch(model, data, theta, phi, cfg, rng)
    dist = cfg.distribution()
    terms = np.array([antithetic_difference(d) / dist.mass(d.level) for d in batch])
    n = data.n_total
    m = len(terms)
    value = n * float(terms.mean())
    std_error = 0.0 if m < 2 else n * float(terms.std(ddof=1)) / math.sqrt(m)
    total_cost, counts = batch_cost(batch)
    return EvidenceEstimate(
        value=value,
        std_error=std_error,
        total_cost=total_cost,
        per_level_counts=counts,
    )
