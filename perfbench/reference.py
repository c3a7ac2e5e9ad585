"""Reference values computed apart from the library under test.

Every formula here is written out with plain numpy from the model
definitions, so a fault in the library's own oracles cannot hide a fault
in its estimators. Parameter layouts follow the library's models:

    Gaussian:   theta = (mu0, log s0, log sx),  phi = (a, b, log s), per coordinate
    Bernoulli:  theta = (w, c),  x | z ~ Bernoulli(sigmoid(w z + c)),  z ~ N(0, 1)
"""
from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def _split3(v: np.ndarray, dim: int):
    return v[:dim], v[dim : 2 * dim], v[2 * dim :]


def gaussian_log_evidence(x: np.ndarray, theta: np.ndarray) -> float:
    """sum_i log N(x_i; mu0, s0^2 + sx^2) over the rows of x, shape (n, dim)."""
    dim = x.shape[1]
    mu0, log_s0, log_sx = _split3(theta, dim)
    v = np.exp(2.0 * log_s0) + np.exp(2.0 * log_sx)
    r = x - mu0
    return float(-0.5 * (x.shape[0] * (dim * LOG_2PI + np.log(v).sum()) + (r * r / v).sum()))


def gaussian_evidence_grad_theta(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Gradient of gaussian_log_evidence in theta (log-scale parameters)."""
    dim = x.shape[1]
    mu0, log_s0, log_sx = _split3(theta, dim)
    v0 = np.exp(2.0 * log_s0)
    vx = np.exp(2.0 * log_sx)
    v = v0 + vx
    r = x - mu0
    d_mu = (r / v).sum(axis=0)
    d_v = (-1.0 / v + r * r / (v * v)).sum(axis=0)  # 2 * d/dv, summed over rows
    return np.concatenate([d_mu, v0 * d_v, vx * d_v])


def gaussian_posterior_phi(theta: np.ndarray, dim: int) -> np.ndarray:
    """The (a, b, log s) for which q(z|x) is the exact posterior p(z|x)."""
    mu0, log_s0, log_sx = _split3(theta, dim)
    v0 = np.exp(2.0 * log_s0)
    vx = np.exp(2.0 * log_sx)
    vp = v0 * vx / (v0 + vx)
    return np.concatenate([vp / vx, vp * mu0 / v0, 0.5 * np.log(vp)])


def gaussian_elbo_grad_phi(x: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gradient in phi of sum_i [log p(x_i) - KL(q(.|x_i) || p(.|x_i))]."""
    dim = x.shape[1]
    mu0, log_s0, log_sx = _split3(theta, dim)
    a, b, log_s = _split3(phi, dim)
    v0 = np.exp(2.0 * log_s0)
    vx = np.exp(2.0 * log_sx)
    vp = v0 * vx / (v0 + vx)
    mp = vp * (mu0 / v0 + x / vx)  # (n, dim)
    dm = (a * x + b - mp) / vp  # d KL / d(q mean)
    d_logs = np.exp(2.0 * log_s) / vp - 1.0
    return -np.concatenate([(dm * x).sum(axis=0), dm.sum(axis=0), x.shape[0] * d_logs])


_HERMITE_NODES = 96


def bernoulli_log_p1(theta: np.ndarray) -> tuple[float, float]:
    """(log P(x=1), log P(x=0)) under the Bernoulli-Gaussian model, each by
    its own Gauss-Hermite quadrature so neither suffers cancellation."""
    t, w = np.polynomial.hermite.hermgauss(_HERMITE_NODES)
    z = math.sqrt(2.0) * t
    log_w = np.log(w) - 0.5 * math.log(math.pi)
    eta = theta[0] * z + theta[1]

    def log_integral(sign: float) -> float:
        v = log_w + np.minimum(sign * eta, 0.0) - np.log1p(np.exp(-np.abs(eta)))
        m = v.max()
        return float(m + math.log(np.exp(v - m).sum()))

    return log_integral(1.0), log_integral(-1.0)


def bernoulli_log_evidence(x: np.ndarray, theta: np.ndarray) -> float:
    """N1 log P(x=1) + N0 log P(x=0) for a 0/1 column of observations."""
    n1 = int((x == 1.0).sum())
    log_p1, log_p0 = bernoulli_log_p1(theta)
    return n1 * log_p1 + (x.size - n1) * log_p0


def bernoulli_max_log_evidence(x: np.ndarray) -> float:
    """N1 log p + N0 log(1 - p) at p = N1 / N: the evidence of the best
    Bernoulli rate, which bounds the model's evidence at every theta."""
    n = x.size
    n1 = int((x == 1.0).sum())
    n0 = n - n1
    total = 0.0
    if n1:
        total += n1 * math.log(n1 / n)
    if n0:
        total += n0 * math.log(n0 / n)
    return total


def decay_slope(levels, variances) -> float:
    """Least-squares slope of log2(variance) against level."""
    x = np.asarray(levels, dtype=np.float64)
    y = np.log2(np.asarray(variances, dtype=np.float64))
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())
