"""Unbiased gradient estimators sharing one set of latent draws per batch
member: the multilevel antithetic estimator for the evidence gradient in
theta, and the single-level score-function estimator for the lower-bound
gradient in phi.

`estimate_gradients` reduces a batch by `estimator.run_batch` with the two
level-gradient reducers of `estimator` (`grad_theta_level`,
`grad_phi_elbo_level`), one row per member, and folds those rows with the
level masses and the accounting `run_batch` returns.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimator as _estimator
from .estimator import grad_phi_elbo_level, grad_theta_level
from .logspace import softmax_weights_unchecked  # noqa: F401  perfbench/tracer.py wraps this name here


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
