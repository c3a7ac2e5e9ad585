"""Unbiased gradient estimators sharing one set of latent draws per batch
member: the multilevel antithetic estimator for the evidence gradient in
theta, and the single-level score-function estimator for the lower-bound
gradient in phi.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimator as _estimator
from .logspace import softmax_weights_unchecked


def _ratio(log_f: np.ndarray, grads: np.ndarray) -> np.ndarray:
    # sum_i f_i g_i / sum_i f_i, in log-stable form: softmax(log f) . g
    # (log_f comes from draw buffers validated at draw time)
    return softmax_weights_unchecked(log_f) @ grads


def grad_theta_level(draws) -> np.ndarray:
    """Theta-gradient of the level value from shared draws.

    Each weighted mean of per-draw gradients of log f equals the ratio of
    the gradient-weight mean to the weight mean (since df = f dlog f), so
    the level-0 gradient is the softmax-weighted gradient average and the
    higher-level gradient subtracts the averaged half-buffer ratios built
    from the identical draws.
    """
    full = _ratio(draws.log_f, draws.grad_theta_log_f)
    if draws.level == 0:
        return full
    half = draws.n // 2
    ra = _ratio(draws.log_f[:half], draws.grad_theta_log_f[:half])
    rb = _ratio(draws.log_f[half:], draws.grad_theta_log_f[half:])
    return full - 0.5 * (ra + rb)


def grad_phi_elbo_level(draws) -> np.ndarray:
    """Score-function phi-gradient term averaged over the level's draws.

    Per draw the integrand is (log f - 1) * dlog q/dphi: the -1 comes from
    the phi-dependence of f through the q denominator and has expectation
    zero, the log f * score part is the likelihood-ratio gradient of the
    expected log weight. A plain (unweighted) average at any level is
    unbiased for the lower-bound gradient, so no level reweighting applies.
    """
    return ((draws.log_f - 1.0) @ draws.grad_phi_log_q) / draws.n


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
    batch = _estimator.run_batch(model, data, theta, phi, cfg, rng)
    dist = cfg.distribution()
    grad_theta = np.zeros(model.theta_dim)
    grad_phi = np.zeros(model.phi_dim)
    for draws in batch:
        grad_theta += grad_theta_level(draws) / dist.mass(draws.level)
        grad_phi += grad_phi_elbo_level(draws)
    scale = data.n_total / len(batch)
    total_cost, counts = _estimator.batch_cost(batch)
    return GradientEstimate(
        grad_theta=scale * grad_theta,
        grad_phi=scale * grad_phi,
        total_cost=total_cost,
        per_level_counts=counts,
    )
