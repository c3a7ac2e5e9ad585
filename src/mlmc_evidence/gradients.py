"""Unbiased gradient estimators sharing one set of latent draws per batch
member: the multilevel antithetic estimator for the evidence gradient in
theta, and the single-level score-function estimator for the lower-bound
gradient in phi.

A batch is reduced chunk by chunk as it is drawn (`estimator.run_batch`):
both level gradients are formulas of each chunk's segment statistics
(`estimator.LevelDraws`: the halves' log-sums, R of each half and each
member's phi score sums, formed where the chunk was drawn), one row per
member with no loop over members, and `estimate_gradients` folds those
rows with the level masses and the accounting `run_batch` returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimator as _estimator
from .logspace import softmax_weights_unchecked  # noqa: F401  perfbench/tracer.py wraps this name here


def grad_theta_level(draws) -> np.ndarray:
    """Theta-gradient of each member's level value, (M, theta_dim).

    Each weighted mean of per-draw gradients of log f equals the ratio of
    the gradient-weight mean to the weight mean (since df = f dlog f), so
    the level-0 gradient is the softmax-weighted gradient average R of the
    member's draws. A deeper member subtracts the averaged half-buffer
    ratios R_a, R_b from the full-buffer ratio, which weights the halves by
    their shares of the total weight; with the halves' log-sums differing
    by d that leaves tanh(d / 2) / 2 * (R_a - R_b), from the identical
    draws and with each half reduced once.
    """
    r = draws.theta_avg
    diff = r.take(draws.a, axis=0) - r.take(draws.b, axis=0)
    return draws.merge(r, 0.5 * np.tanh(0.5 * draws.d)[:, None] * diff)


def grad_phi_elbo_level(draws) -> np.ndarray:
    """Score-function phi-gradient term averaged over each member's draws,
    (M, phi_dim).

    Per draw the integrand is (log f - 1) * dlog q/dphi: the -1 comes from
    the phi-dependence of f through the q denominator and has expectation
    zero, the log f * score part is the likelihood-ratio gradient of the
    expected log weight. A plain (unweighted) average at any level is
    unbiased for the lower-bound gradient, so no level reweighting applies:
    each member's sum of the integrand over its draws, divided by its size.
    """
    # row-major rows, as the batch fold and the concatenation of chunks sum them
    return np.divide(draws.phi_sums, (draws.n0 << draws.levels)[:, None], order="C")


@dataclass
class GradientEstimate:
    """Batch gradient estimates for theta and phi with cost accounting."""

    grad_theta: np.ndarray
    grad_phi: np.ndarray
    total_cost: int
    per_level_counts: dict[int, int] = field(default_factory=dict)


def estimate_gradients(
    model,
    data,
    theta,
    phi,
    cfg,
    rng: np.random.Generator,
) -> GradientEstimate:
    """Both parameter gradients from the common stochastic samples.

    One batch of (data index, level, latent draws) feeds both outputs:
    grad_theta is the level-reweighted average (N/M) sum_m dZ_m / mass_m,
    grad_phi is the plain average (N/M) sum_m of the per-member
    score-function term (each level average is unbiased on its own).
    """
    masses, (rows_theta, rows_phi), total_cost, counts = _estimator.run_batch(
        model, data, theta, phi, cfg, rng,
        reducers=[grad_theta_level, grad_phi_elbo_level], grads=("theta", "phi"),
    )
    scale = data.n_total / masses.size
    return GradientEstimate(
        grad_theta=scale * np.add.reduce(rows_theta / masses[:, None], axis=0),
        grad_phi=scale * np.add.reduce(rows_phi, axis=0),
        total_cost=total_cost,
        per_level_counts=counts,
    )
