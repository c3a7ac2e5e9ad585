"""Latent-variable models: log densities, the posterior approximation q,
closed-form gradients of the log importance weight, and ground-truth oracles.

A model states its joint density log p(x|z) + log p(z) with the theta
gradient (`log_joint`), q(z|x, phi) as a diagonal Gaussian's location and
log scale (`q_loc_log_scale`), and q's chain rule to phi (`q_grad_phi`).
The base class draws and weighs every model's latents under that q:

    log f(x, z) = log p(x|z) + log p(z) - log q(z|x)

with d(log f)/d(theta) and d(log q)/d(phi) per draw. `draw_weighed` is
the one way the library draws fresh latents: it draws standard normals eps
into an array the caller lends and weighs the latents z = loc + scale * eps
from eps (the location-scale form of Kingma and Welling, "Auto-Encoding
Variational Bayes", 2014), and may build the theta gradient in rows the
caller lends (`grad_theta_out`). `log_weight_batch` weighs latents a caller
holds at fixed z by recovering eps = (z - loc) / scale. A caller names the
gradient arrays it reads, a subset of {"theta", "phi"} (both by default),
and only those are built: an unrequested field of the returned
`WeightBatch` is None, and log f is the same whichever are asked for. The
evidence estimate asks for none. The observation x is either one
observation (x_dim,) shared by every draw or one row per draw (n, x_dim),
so a chunk of batch members, each with its own observation, is drawn and
weighted in one call. Everything is parameterized so that theta and phi
are unconstrained real vectors: standard deviations enter as their
logarithms and gradients are taken with respect to the log-parameters.

Two concrete models are provided. The conjugate Gaussian model has closed
forms for the evidence, the posterior and the KL term, which makes it the
ground-truth vehicle for statistical verification. The Bernoulli-Gaussian
model is deliberately non-conjugate; its evidence oracle integrates the
likelihood against the prior by Gauss-Hermite quadrature.
"""
from __future__ import annotations

import abc
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, UnsupportedOperation

_LOG_2PI = math.log(2.0 * math.pi)


#: Every gradient array `log_weight_batch` can build, by name.
ALL_GRADS = frozenset({"theta", "phi"})


class WeightBatch(NamedTuple):
    """Per-draw log weights and the requested gradients at one (theta, phi);
    a gradient the caller did not ask for is None."""

    log_f: np.ndarray  # (n,)
    grad_theta_log_f: np.ndarray | None  # (n, theta_dim)
    grad_phi_log_q: np.ndarray | None  # (n, phi_dim)


@dataclass(frozen=True)
class Dataset:
    """Observations stacked row-wise, (n_total, x_dim)."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=np.float64)))
        if not np.isfinite(self.x).all():
            raise ContractViolation("dataset contains non-finite entries")

    @property
    def n_total(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_rows(cls, x) -> "Dataset":
        return cls(x)


class LatentVariableModel(abc.ABC):
    """Interface every model implements.

    A model states q(z|x, phi) as a location and a log scale; it neither
    samples nor evaluates it. `draw_weighed`, `sample_q` and
    `log_weight_batch` are shared by every model, and the two that weigh
    share one weighing from the standard normals (`_weigh`).
    Implementations are immutable after construction; all operations are
    pure given an explicit generator, so concurrent calls with independent
    streams are safe.
    """

    x_dim: int
    z_dim: int
    theta_dim: int
    phi_dim: int

    @abc.abstractmethod
    def q_loc_log_scale(self, x, phi) -> tuple[np.ndarray, np.ndarray]:
        """q(z|x, phi)'s location and log scale, each (z_dim,) or (n, z_dim),
        for x checked by `_check_x`. A location of shape (n, z_dim) belongs
        to the caller, which may overwrite it: never one the model keeps."""

    @abc.abstractmethod
    def log_joint(self, x, z, theta, grad_theta) -> np.ndarray:
        """log p(x|z) + log p(z), a fresh (n,) array, for z (n, z_dim) and x
        checked by `_check_x`; writes d(log p(x, z))/d(theta) into
        `grad_theta`, an (n, theta_dim) float64 array, unless it is None.
        A chunk lends it component-major, as the transposed view of a
        (theta_dim, n) array, so writes by column run along the draws."""

    @abc.abstractmethod
    def q_grad_phi(self, x, dloc, dlog_scale) -> np.ndarray:
        """d(log q)/d(phi), (n, phi_dim), by the chain rule from
        d(log q)/d(location) and d(log q)/d(log scale), each (n, z_dim),
        for x checked by `_check_x`."""

    def sample_q(self, x, phi, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n latents from q(z|x, phi); returns (n, z_dim).

        x is one observation (x_dim,) for every draw, or one row per draw
        (n, x_dim). Kept only for perfbench/tracer.py to wrap.
        """
        x = _check_x(x, self.x_dim, n)
        loc, log_scale = self.q_loc_log_scale(x, phi)
        z = rng.standard_normal((n, self.z_dim))
        z *= np.exp(log_scale)
        z += loc
        return z

    def draw_weighed(
        self, x, theta, phi, rng: np.random.Generator, eps: np.ndarray,
        grads=ALL_GRADS, grad_theta_out=None,
    ) -> tuple[np.ndarray, WeightBatch]:
        """Draw n = len(eps) latents z, (n, z_dim), from q(z|x, phi) and
        weigh them, checking x and evaluating q once: (z, `WeightBatch`).

        The standard normals are drawn into `eps`, a C-contiguous
        (n, z_dim) float64 array, which the weighing overwrites. z is what
        `sample_q` draws from the same stream, bit for bit, and the weights
        are those of `log_weight_batch`, up to rounding; x and `grads` are
        as there. `grad_theta_out` is None or, when "theta" is named, an
        (n, theta_dim) float64 array, or a transposed view of a
        (theta_dim, n) one, the theta gradient is built in; no value
        depends on it.
        """
        _check_grads(grads)
        if eps.ndim != 2 or eps.shape[1] != self.z_dim:
            raise ContractViolation(f"eps must have shape (n, {self.z_dim}), got {eps.shape}")
        x = _check_x(x, self.x_dim, eps.shape[0])
        loc, log_scale = self.q_loc_log_scale(x, phi)
        scale = np.exp(log_scale)
        rng.standard_normal(out=eps)
        z = eps * scale
        z += loc
        return z, self._weigh(x, z, eps, scale, log_scale, theta, grads, grad_theta_out)

    def log_weight_batch(self, x, z, theta, phi, grads=ALL_GRADS) -> WeightBatch:
        """log f and the gradients named in `grads` for every row of z,
        shape (n, z_dim), at latents the caller holds.

        x is one observation (x_dim,) for every row of z, or one row per
        row of z (n, x_dim). `grads` is a subset of {"theta", "phi"}:
        "theta" builds d(log f)/d(theta), "phi" builds d(log q)/d(phi), and
        each gradient not named is None in the result. log f does not
        depend on `grads`.
        """
        _check_grads(grads)
        z = np.asarray(z, dtype=np.float64)
        x = _check_x(x, self.x_dim, z.shape[0])
        loc, log_scale = self.q_loc_log_scale(x, phi)
        scale = np.exp(log_scale)
        eps = np.subtract(z, loc, out=loc if loc.shape == z.shape else None)
        eps /= scale
        return self._weigh(x, z, eps, scale, log_scale, theta, grads, None)

    def _weigh(self, x, z, eps, scale, log_scale, theta, grads, grad_theta_out) -> WeightBatch:
        """The `WeightBatch` of the latents z = loc + scale * eps, weighed
        from the standard normals eps, which it overwrites:

            log q = -1/2 sum_j eps_j^2 - sum_j log scale_j - (z_dim / 2) log 2pi,
            d(log q)/d(loc) = eps / scale,  d(log q)/d(log scale) = eps^2 - 1.
        """
        gt = None
        if "theta" in grads:
            gt = np.empty((z.shape[0], self.theta_dim)) if grad_theta_out is None else grad_theta_out
        log_f = self.log_joint(x, z, theta, gt)
        dloc = eps / scale if "phi" in grads else None
        eps *= eps
        gq = None
        if "phi" in grads:
            gq = self.q_grad_phi(x, dloc, eps - 1.0)
        half = _coordinate_sum(eps)  # for one coordinate, a view of eps
        half *= 0.5
        log_f += half
        log_f += _coordinate_sum(log_scale) + 0.5 * self.z_dim * _LOG_2PI
        return WeightBatch(log_f, gt, gq)

    @abc.abstractmethod
    def generate_data(self, theta, n: int, rng: np.random.Generator) -> Dataset:
        """Synthesize n >= 1 observations from the model at parameters theta."""

    # Optional oracles. Models with closed forms override these.

    def oracle_log_evidence(self, x, theta) -> float:
        raise UnsupportedOperation(f"{type(self).__name__} has no evidence oracle")

    def oracle_evidence_grad_theta(self, x, theta) -> np.ndarray:
        raise UnsupportedOperation(f"{type(self).__name__} has no evidence-gradient oracle")

    def oracle_elbo_grad_phi(self, x, theta, phi) -> np.ndarray:
        raise UnsupportedOperation(f"{type(self).__name__} has no analytic lower-bound gradient")

    def oracle_posterior_kl(self, x, theta, phi) -> float:
        raise UnsupportedOperation(f"{type(self).__name__} has no analytic posterior")


def _check_vector(name: str, v, length: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != length:
        raise ContractViolation(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return v


def _coordinate_sum(a: np.ndarray) -> np.ndarray:
    """`a` summed over its last axis, the latent coordinates: for one, a view
    of `a`, so in-place arithmetic on the sum writes into `a`."""
    return a[..., 0] if a.shape[-1] == 1 else a.sum(axis=-1)


def _check_grads(grads) -> None:
    unknown = set(grads) - ALL_GRADS
    if unknown:
        raise ContractViolation(f"unknown gradients {sorted(unknown)}; choose from theta, phi")


def _check_size(n) -> None:
    if n < 1:
        raise ContractViolation(f"dataset size must be >= 1, got {n}")


def _check_x(x, x_dim: int, n: int) -> np.ndarray:
    """One observation (x_dim,), or one row per draw (n, x_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        return _check_vector("x", x, x_dim)
    if x.shape != (n, x_dim):
        raise ContractViolation(f"x rows must have shape {(n, x_dim)}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ContractViolation("x contains non-finite entries")
    return x


class GaussianConjugateModel(LatentVariableModel):
    """Fully conjugate diagonal Gaussian model with analytic everything.

    Structure (dim d, elementwise across coordinates):

        z ~ Normal(mu0, diag(s0^2))         theta = (mu0, log s0, log sx)
        x | z ~ Normal(z, diag(sx^2))
        q(z|x) = Normal(a*x + b, diag(s^2))  phi = (a, b, log s)

    Evidence:  p(x) = Normal(x; mu0, diag(s0^2 + sx^2)).
    Posterior: Normal with variance (1/s0^2 + 1/sx^2)^-1, mean affine in x,
    so a single phi reproduces the exact posterior for every x at once.
    """

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ContractViolation(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.x_dim = dim
        self.z_dim = dim
        self.theta_dim = 3 * dim
        self.phi_dim = 3 * dim

    def split_theta(self, theta):
        theta = _check_vector("theta", theta, self.theta_dim)
        d = self.dim
        return theta[:d], theta[d : 2 * d], theta[2 * d :]

    def split_phi(self, phi):
        phi = _check_vector("phi", phi, self.phi_dim)
        d = self.dim
        return phi[:d], phi[d : 2 * d], phi[2 * d :]

    def q_loc_log_scale(self, x, phi):
        a, b, log_s = self.split_phi(phi)
        return a * x + b, log_s

    def log_joint(self, x, z, theta, grad_theta):
        mu0, log_s0, log_sx = self.split_theta(theta)
        d = self.dim
        v0 = np.exp(2.0 * log_s0)
        vx = np.exp(2.0 * log_sx)

        # q accumulates the two squared standardized residuals; `r` holds
        # each residual in turn, then its square
        r = z - mu0
        if grad_theta is not None:
            np.divide(r, v0, out=grad_theta[:, :d])
        q = r * r
        q /= v0
        if grad_theta is not None:
            np.subtract(q, 1.0, out=grad_theta[:, d : 2 * d])
        np.subtract(x, z, out=r)
        r *= r
        r /= vx
        if grad_theta is not None:
            np.subtract(r, 1.0, out=grad_theta[:, 2 * d :])
        q += r

        log_p = _coordinate_sum(q)
        log_p *= -0.5
        log_p -= log_s0.sum() + log_sx.sum() + d * _LOG_2PI
        return log_p

    def q_grad_phi(self, x, dloc, dlog_scale):
        # location a x + b, log scale log s
        return np.concatenate([dloc * x, dloc, dlog_scale], axis=1)

    def generate_data(self, theta, n, rng):
        _check_size(n)
        mu0, log_s0, log_sx = self.split_theta(theta)
        z = mu0 + np.exp(log_s0) * rng.standard_normal((n, self.dim))
        x = z + np.exp(log_sx) * rng.standard_normal((n, self.dim))
        return Dataset.from_rows(x)

    # Closed-form oracles.

    def oracle_log_evidence(self, x, theta):
        mu0, log_s0, log_sx = self.split_theta(theta)
        x = _check_vector("x", x, self.x_dim)
        v = np.exp(2.0 * log_s0) + np.exp(2.0 * log_sx)
        return float(-0.5 * (self.dim * _LOG_2PI + np.log(v).sum() + ((x - mu0) ** 2 / v).sum()))

    def oracle_evidence_grad_theta(self, x, theta):
        mu0, log_s0, log_sx = self.split_theta(theta)
        x = _check_vector("x", x, self.x_dim)
        v0 = np.exp(2.0 * log_s0)
        vx = np.exp(2.0 * log_sx)
        v = v0 + vx
        dx = x - mu0
        dv = -1.0 / v + dx * dx / (v * v)  # d/dv of log evidence, times 2
        return np.concatenate([dx / v, v0 * dv, vx * dv])

    def posterior_params(self, x, theta):
        """Mean and variance vectors of the exact posterior p(z|x)."""
        mu0, log_s0, log_sx = self.split_theta(theta)
        x = _check_vector("x", x, self.x_dim)
        v0 = np.exp(2.0 * log_s0)
        vx = np.exp(2.0 * log_sx)
        var_p = v0 * vx / (v0 + vx)
        mean_p = var_p * (mu0 / v0 + x / vx)
        return mean_p, var_p

    def posterior_phi(self, theta) -> np.ndarray:
        """The phi for which q(z|x) equals the exact posterior for all x."""
        mu0, log_s0, log_sx = self.split_theta(theta)
        v0 = np.exp(2.0 * log_s0)
        vx = np.exp(2.0 * log_sx)
        var_p = v0 * vx / (v0 + vx)
        return np.concatenate([var_p / vx, var_p * mu0 / v0, 0.5 * np.log(var_p)])

    def oracle_posterior_kl(self, x, theta, phi):
        """KL(q(.|x) || p(.|x)) between two diagonal Gaussians; >= 0."""
        x = _check_vector("x", x, self.x_dim)
        m, log_s = self.q_loc_log_scale(x, phi)
        mean_p, var_p = self.posterior_params(x, theta)
        vq = np.exp(2.0 * log_s)
        kl = 0.5 * np.log(var_p) - log_s + (vq + (m - mean_p) ** 2) / (2.0 * var_p) - 0.5
        return float(kl.sum())

    def oracle_elbo_grad_phi(self, x, theta, phi):
        """Gradient of log p(x) - KL(q||posterior) in phi (= -grad KL)."""
        x = _check_vector("x", x, self.x_dim)
        m, log_s = self.q_loc_log_scale(x, phi)
        mean_p, var_p = self.posterior_params(x, theta)
        vq = np.exp(2.0 * log_s)
        dkl_dm = (m - mean_p) / var_p
        dkl_dlogs = vq / var_p - 1.0
        return -np.concatenate([dkl_dm * x, dkl_dm, dkl_dlogs])


@lru_cache(maxsize=8)
def _hermgauss(n_nodes: int):
    t, w = np.polynomial.hermite.hermgauss(n_nodes)
    # nodes/log-weights for integrating against a standard normal
    return math.sqrt(2.0) * t, np.log(w) - 0.5 * math.log(math.pi)


def _log_sigmoid(eta: np.ndarray) -> np.ndarray:
    # min(eta, 0) - log1p(exp(-|eta|))
    tail = np.abs(eta)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.minimum(eta, 0.0)
    out -= tail
    return out


class BernoulliGaussianModel(LatentVariableModel):
    """Non-conjugate scalar model: logistic observation of a Gaussian latent.

        z ~ Normal(0, 1)                       (fixed prior, no parameters)
        x | z ~ Bernoulli(sigmoid(w z + c))    theta = (w, c)
        q(z|x) = Normal(m_x, s_x^2)            phi = (m_0, log s_0, m_1, log s_1)

    The variational family keeps an independent Gaussian per observed class.
    The evidence oracle integrates the likelihood against the prior with
    Gauss-Hermite quadrature (64 nodes by default; agreement with 128 nodes
    is checked in the test suite).
    """

    x_dim = 1
    z_dim = 1
    theta_dim = 2
    phi_dim = 4

    def q_loc_log_scale(self, x, phi):
        # the parameters of each observation's class k: 0 for x = 0, else 1
        phi = _check_vector("phi", phi, self.phi_dim)
        k = (x[..., :1] != 0.0).astype(np.intp)
        return phi[2 * k], phi[2 * k + 1]

    def log_joint(self, x, z, theta, grad_theta):
        w, c = _check_vector("theta", theta, self.theta_dim)
        xv = x[..., 0]
        bad = (xv != 0.0) & (xv != 1.0)
        if bad.any():
            raise ContractViolation(f"observation must be 0 or 1, got {xv[bad].flat[0]}")
        zs = z[:, 0]
        eta = w * zs
        eta += c
        sign = 2.0 * xv - 1.0

        log_p = _log_sigmoid(sign * eta)  # log p(x|z), then log p(x, z)
        log_prior = zs * zs
        log_prior += _LOG_2PI
        log_prior *= -0.5
        log_p += log_prior
        if grad_theta is not None:
            resid = grad_theta[:, 1]  # x - sigmoid(eta)
            np.negative(eta, out=resid)
            np.exp(resid, out=resid)
            resid += 1.0
            np.divide(1.0, resid, out=resid)
            np.subtract(xv, resid, out=resid)
            np.multiply(zs, resid, out=grad_theta[:, 0])
        return log_p

    def q_grad_phi(self, x, dloc, dlog_scale):
        # only the observed class's q parameters move log q; the other
        # class's columns stay +0.0
        one = x[..., :1] != 0.0
        gq = np.zeros((dloc.shape[0], self.phi_dim))
        for cls, on in enumerate((~one, one)):
            np.copyto(gq[:, 2 * cls : 2 * cls + 1], dloc, where=on)
            np.copyto(gq[:, 2 * cls + 1 : 2 * cls + 2], dlog_scale, where=on)
        return gq

    def generate_data(self, theta, n, rng):
        _check_size(n)
        theta = _check_vector("theta", theta, self.theta_dim)
        z = rng.standard_normal(n)
        p1 = 1.0 / (1.0 + np.exp(-(theta[0] * z + theta[1])))
        x = (rng.random(n) < p1).astype(np.float64)
        return Dataset.from_rows(x.reshape(-1, 1))

    def oracle_log_evidence(self, x, theta, n_nodes: int = 64):
        theta = _check_vector("theta", theta, self.theta_dim)
        x = _check_vector("x", x, self.x_dim)
        if n_nodes < 64:
            raise ContractViolation("evidence quadrature needs at least 64 nodes")
        nodes, log_wts = _hermgauss(n_nodes)
        sign = 2.0 * x[0] - 1.0
        log_lik = _log_sigmoid(sign * (theta[0] * nodes + theta[1]))
        v = log_wts + log_lik
        m = v.max()
        return float(m + np.log(np.exp(v - m).sum()))

    def oracle_evidence_grad_theta(self, x, theta):
        """Posterior expectation of the likelihood score, by quadrature:
        grad log p(x) = E[ grad log p(x|z) | x ]."""
        theta = _check_vector("theta", theta, self.theta_dim)
        x = _check_vector("x", x, self.x_dim)
        nodes, log_wts = _hermgauss(64)
        sign = 2.0 * x[0] - 1.0
        eta = theta[0] * nodes + theta[1]
        v = log_wts + _log_sigmoid(sign * eta)
        post = np.exp(v - v.max())
        post /= post.sum()
        resid = x[0] - 1.0 / (1.0 + np.exp(-eta))
        return np.array([post @ (nodes * resid), post @ resid])

    def oracle_elbo_grad_phi(self, x, theta, phi):
        """Quadrature of E_q[log f * dlog q/dphi], the lower-bound gradient.

        Independent of the sampling path: nodes come from Gauss-Hermite
        against q's Gaussian, not from Monte Carlo draws.
        """
        theta = _check_vector("theta", theta, self.theta_dim)
        x = _check_vector("x", x, self.x_dim)
        (m,), (log_s,) = self.q_loc_log_scale(x, phi)
        k = int(x[0] != 0.0)
        nodes, log_wts = _hermgauss(64)
        s = math.exp(log_s)
        z = (m + s * nodes).reshape(-1, 1)
        batch = self.log_weight_batch(x, z, theta, phi)
        wts = np.exp(log_wts)
        grad = np.zeros(self.phi_dim)
        grad[2 * k] = wts @ (batch.log_f * batch.grad_phi_log_q[:, 2 * k])
        grad[2 * k + 1] = wts @ (batch.log_f * batch.grad_phi_log_q[:, 2 * k + 1])
        return grad


def save_dataset(path, dataset: Dataset, seed: int, true_theta) -> None:
    """Write observations one per line plus a sidecar JSON header.

    The sidecar lives at `<path>.json` and records dim, n_total, the
    generation seed and the true parameter vector. Reals are formatted at
    17 significant digits so a reload reproduces the array bit-exactly.
    """
    path = Path(path)
    lines = [" ".join(format(v, ".17g") for v in row) for row in dataset.x]
    path.write_text("\n".join(lines) + "\n")
    header = {
        "dim": int(dataset.x.shape[1]),
        "n_total": int(dataset.n_total),
        "seed": int(seed),
        "true_theta": [float(v) for v in np.asarray(true_theta, dtype=np.float64)],
    }
    Path(str(path) + ".json").write_text(json.dumps(header, indent=2) + "\n")


def load_dataset(path) -> tuple[Dataset, dict]:
    """Inverse of save_dataset; returns the data and the sidecar header.

    Raises ContractViolation naming the file when the data file is not
    UTF-8 rows of equally many numbers, or the sidecar is not a JSON
    object holding `dim` and `n_total`.
    """
    path = Path(path)
    sidecar = Path(str(path) + ".json")
    try:  # UnicodeDecodeError, a bad token and ragged rows are ValueErrors
        rows = [
            [float(tok) for tok in line.split()]
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        x = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:
        raise ContractViolation(f"dataset file {path} is malformed: {exc}") from None
    try:
        header = json.loads(sidecar.read_text())
    except ValueError as exc:
        raise ContractViolation(f"sidecar {sidecar} is not valid JSON: {exc}") from None
    if not (isinstance(header, dict) and {"dim", "n_total"} <= header.keys()):
        raise ContractViolation(f"sidecar {sidecar} is not a JSON object with dim and n_total")
    data = Dataset.from_rows(x)
    if data.n_total != header["n_total"] or data.x.shape[1] != header["dim"]:
        raise ContractViolation(f"dataset file {path} does not match its sidecar header")
    return data, header
