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
Variational Bayes", 2014), returning z and log f. `log_weight_batch` weighs
latents a caller holds at fixed z by recovering eps = (z - loc) / scale and
returns log f. Both build exactly the gradients whose rows the caller lends
(`grad_theta_out`, `grad_phi_out`: a chunk cuts both from its block,
component-major, so they hold until its next chunk), and log f is the same
whichever are lent; a model sees rows or None, never gradient names. The
observation x is either one observation (x_dim,) shared by every draw or
one row per draw (n, x_dim), so a chunk of batch members, each with its own
observation, is drawn and weighted in one call. Everything is
parameterized so that theta and phi are unconstrained real vectors:
standard deviations enter as their logarithms and gradients are taken with
respect to the log-parameters.

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
import numbers
import reprlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ContractViolation, ResourceGuardExceeded, UnsupportedOperation

_LOG_2PI = math.log(2.0 * math.pi)
_FLOAT64 = np.dtype(np.float64)
_SEED_MAX = (1 << 64) - 1  # a seed is one 64-bit word


@dataclass(frozen=True)
class Dataset:
    """Observations stacked row-wise, (n_total, x_dim) with x_dim >= 1."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_2d(_real_array("dataset", self.x)))
        if self.x.ndim > 2 or self.x.shape[1] == 0:
            raise ContractViolation(f"dataset must be (n, d) with d >= 1, got shape {self.x.shape}")
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
    `log_weight_batch` are shared by every model; the two that weigh share
    one weighing from the standard normals (`_weigh`) and build exactly the
    gradients whose rows the caller lends.
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
        for x and phi checked; it refuses an x the model cannot observe. A
        location (n, z_dim) is the caller's to overwrite: never one it keeps."""

    @abc.abstractmethod
    def log_joint(self, x, z, theta, grad_theta) -> np.ndarray:
        """log p(x|z) + log p(z), a fresh (n,) array, for z (n, z_dim), x and
        theta checked; writes d(log p(x, z))/d(theta) into `grad_theta`, an
        (n, theta_dim) float64 array, unless it is None. A chunk lends it
        component-major, as the transposed view of a (theta_dim, n) array,
        so writes by column run along the draws."""

    @abc.abstractmethod
    def q_grad_phi(self, x, dloc, dlog_scale, out) -> None:
        """Writes d(log q)/d(phi) into `out`, an (n, phi_dim) float64 array,
        by the chain rule from d(log q)/d(location) and d(log q)/d(log
        scale), each (n, z_dim), for x checked by `_check_x`. Every entry
        of `out` must be written. A chunk lends it component-major, as the
        transposed view of a (phi_dim, n) array, so writes by column run
        along the draws."""

    def _check_parameters(self, theta, phi) -> tuple[np.ndarray, np.ndarray]:
        """theta and phi checked, phi first: the rule each model call runs before drawing."""
        phi = _check_vector("phi", phi, self.phi_dim)
        return _check_vector("theta", theta, self.theta_dim), phi

    def sample_q(self, x, phi, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n latents from q(z|x, phi); returns (n, z_dim).

        x is one observation (x_dim,) for every draw, or one row per draw
        (n, x_dim). Kept only for perfbench/tracer.py to wrap.
        """
        x = _check_x(x, self.x_dim, n)
        loc, log_scale = self.q_loc_log_scale(x, _check_vector("phi", phi, self.phi_dim))
        z = rng.standard_normal((n, self.z_dim))
        z *= np.exp(log_scale)
        z += loc
        return z

    def draw_weighed(
        self, x, theta, phi, rng: np.random.Generator, eps: np.ndarray,
        grad_theta_out=None, grad_phi_out=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw n = len(eps) latents z, (n, z_dim), from q(z|x, phi) and
        weigh them, every input checked first, q evaluated once: (z, log f (n,)).

        The standard normals are drawn into `eps`, a C-contiguous
        (n, z_dim) float64 array, which the weighing overwrites. z is what
        `sample_q` draws from the same stream, bit for bit, and the values
        are those of `log_weight_batch`, up to rounding; x is as there.
        Exactly the gradients whose rows are lent are built: d(log f)/d(theta)
        in `grad_theta_out`, an (n, theta_dim) float64 array or a transposed
        view of a (theta_dim, n) one, and d(log q)/d(phi) in `grad_phi_out`,
        likewise (n, phi_dim). No value depends on which are lent.
        """
        if eps.ndim != 2 or eps.shape[1] != self.z_dim:
            raise ContractViolation(f"eps must have shape (n, {self.z_dim}), got {eps.shape}")
        x = _check_x(x, self.x_dim, eps.shape[0])
        theta, phi = self._check_parameters(theta, phi)
        loc, log_scale = self.q_loc_log_scale(x, phi)
        scale = np.exp(log_scale)
        rng.standard_normal(out=eps)
        z = eps * scale
        z += loc
        return z, self._weigh(x, z, eps, scale, log_scale, theta, grad_theta_out, grad_phi_out)

    def log_weight_batch(self, x, z, theta, phi, grad_theta_out=None, grad_phi_out=None):
        """log f (n,) of the rows of z, (n, z_dim), latents the caller holds.
        x is one observation (x_dim,) for every row of z, or one row per
        row of z (n, x_dim). The gradients whose rows are lent are built as
        in `draw_weighed`, and log f does not depend on which are lent."""
        z = _real_array("z", z)
        x = _check_x(x, self.x_dim, z.shape[0])
        theta, phi = self._check_parameters(theta, phi)
        loc, log_scale = self.q_loc_log_scale(x, phi)
        scale = np.exp(log_scale)
        eps = np.subtract(z, loc, out=loc if loc.shape == z.shape else None)
        eps /= scale
        return self._weigh(x, z, eps, scale, log_scale, theta, grad_theta_out, grad_phi_out)

    def _weigh(self, x, z, eps, scale, log_scale, theta, grad_theta, grad_phi) -> np.ndarray:
        """log f of the latents z = loc + scale * eps, weighed from the
        standard normals eps, which it overwrites, and the gradients whose
        rows are given (`grad_theta`, `grad_phi`: not None) built in them:

            log q = -1/2 sum_j eps_j^2 - sum_j log scale_j - (z_dim / 2) log 2pi,
            d(log q)/d(loc) = eps / scale,  d(log q)/d(log scale) = eps^2 - 1.
        """
        log_f = self.log_joint(x, z, theta, grad_theta)
        dloc = None if grad_phi is None else eps / scale
        eps *= eps
        if grad_phi is not None:
            self.q_grad_phi(x, dloc, eps - 1.0, grad_phi)
        half = _coordinate_sum(eps)  # for one coordinate, a view of eps
        half *= 0.5
        log_f += half
        log_f += _coordinate_sum(log_scale) + 0.5 * self.z_dim * _LOG_2PI
        return log_f

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


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array `a` is finite. A finite sum
    proves it (an infinite or NaN entry makes the sum infinite or NaN), so
    the entrywise test runs only where the sum is not finite."""
    return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())


def _check_vector(name: str, v, length: int) -> np.ndarray:
    v = _real_array(name, v)
    if v.ndim > 2 or v.ndim == 2 and v.shape[1] > 1:
        raise ContractViolation(f"{name} must be a vector of length {length}, got shape {v.shape}")
    v = v.reshape(-1)
    if v.shape[0] != length:
        raise ContractViolation(f"{name} must have length {length}, got {v.shape[0]}")
    # `_all_finite` by a Python sum, a fifth of numpy's reduce's time on a
    # parameter vector's few entries
    if not (math.isfinite(sum(v.tolist())) or np.isfinite(v).all()):
        raise ContractViolation(f"{name} contains non-finite entries")
    return v


def _coordinate_sum(a: np.ndarray) -> np.ndarray:
    """`a` summed over its last axis, the latent coordinates: for one, a view
    of `a`, so in-place arithmetic on the sum writes into `a`."""
    return a[..., 0] if a.shape[-1] == 1 else a.sum(axis=-1)


def _count(name: str, value) -> int:
    """`value` as a Python int; raise unless it is an integer, Python or
    numpy, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """`value` as a Python float, an integer past float's range as an
    infinity; raise unless it is a real number, Python or numpy, and not a
    bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _real_array(name: str, v) -> np.ndarray:
    """`v` as a float64 array; raise unless its entries are real: bool,
    integer and float arrays convert, an array of objects converts entry by
    entry as `_real` converts one, and complex, text or ragged input is
    refused, not cast, as is a lone bool (Python, numpy or a 0-d array),
    which `_real` refuses too. A native float64 array is returned as it is,
    with no work; `==`, not `is`, so that an unpickled one, whose dtype is a
    copy, takes the same path."""
    if type(v) is np.ndarray and v.dtype == _FLOAT64:  # every chunk's rows
        return v
    try:
        a = np.asarray(v)
    except ValueError as exc:  # rows of unequal lengths
        raise ContractViolation(f"{name} is not an array of numbers: {exc}") from None
    if a.dtype.kind == "O":
        return np.array([_real(name, e) for e in a.flat], dtype=np.float64).reshape(a.shape)
    if a.dtype.kind not in "biuf":
        raise ContractViolation(f"{name} must hold real numbers, got {a.dtype} entries")
    if a.dtype.kind == "b" and not a.ndim:
        raise ContractViolation(f"{name} must be a real number, got {v!r}")
    return a.astype(np.float64, copy=False)


def _levels(name: str, levels) -> np.ndarray:
    """`levels` as an int64 array; raise unless each is an integer, Python
    or numpy, not a bool, and >= 0. A signed integer array passes as it is
    or in one cast, the cost of the cast every batch draw's levels once
    took; a bool, float, text or object array is refused. Any other
    iterable but text is checked entry by entry as `_count` checks one,
    each named `name[i]`, into a 1-d array, and any other value as one
    level, into a 0-d array."""
    if isinstance(levels, np.ndarray):
        kind = levels.dtype.kind
        if kind not in "iu":
            raise ContractViolation(f"{name} must hold integers, got {levels.dtype} entries")
        # unsigned levels go through Python ints, so none past 2^63 - 1 wraps
        values = levels if kind == "i" else levels.tolist()
    elif isinstance(levels, Iterable) and not isinstance(levels, (str, bytes)):
        values = [_count(f"{name}[{i}]", v) for i, v in enumerate(levels)]
    else:
        values = _count(name, levels)
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ContractViolation(
            f"{name} must lie in 0..2^63 - 1, got {reprlib.repr(values)}"
        ) from None
    if a.size and a.item(a.argmin()) < 0:  # a third of `np.minimum.reduce`'s time
        raise ContractViolation(f"{name} must be >= 0, got {reprlib.repr(a.tolist())}")
    return a


def _level(name: str, value) -> int:
    """One level, by `_levels`' rule, as a Python int."""
    level = _levels(name, value)
    if level.ndim:
        raise ContractViolation(f"{name} must be one integer, got {reprlib.repr(value)}")
    return int(level)


def _seed(value) -> int:
    """A run seed as a Python int; raise unless it is an integer, as
    `_count` checks one, in 0..2^64 - 1: one 64-bit word, so no two seeds
    name the same streams."""
    seed = _count("seed", value)
    if not 0 <= seed <= _SEED_MAX:
        raise ContractViolation(f"seed must lie in 0..2^64 - 1, got {seed}")
    return seed


def _check_bytes(
    count: int, item_bytes: int, item: str, counted: Callable[[], str] | None = None
) -> None:
    """Raise `ResourceGuardExceeded` unless `count` items of `item_bytes`
    bytes each, the bytes one item puts in its widest array, fit in 2^63 - 1
    bytes: past that numpy refuses the array with a bare ValueError, and
    offsets into it would overflow int64. The message names what `counted`,
    a function called only then, returns, "`count` `item`s" by default."""
    if (count * item_bytes) >> 63:
        raise ResourceGuardExceeded(
            f"{counted() if counted else f'{count} {item}s'} may need more than 2^63 - 1 bytes"
            f" at {item_bytes} bytes per {item}"
        )


def _check_fields(cfg, check, *names) -> None:
    """Store each named field of the frozen config `cfg` as `check` (`_count`
    or `_real`) returns it."""
    for name in names:
        object.__setattr__(cfg, name, check(name, getattr(cfg, name)))


def _check_size(n, row_bytes: int) -> int:
    """A synthetic dataset's size n >= 1, whose widest array holds
    `row_bytes` bytes per observation."""
    n = _count("dataset size", n)
    if n < 1:
        raise ContractViolation(f"dataset size must be >= 1, got {n}")
    _check_bytes(n, row_bytes, "observation")
    return n


def _check_x(x, x_dim: int, n: int) -> np.ndarray:
    """One observation (x_dim,), or one row per draw (n, x_dim)."""
    x = _real_array("x", x)
    if x.ndim < 2:
        return _check_vector("x", x, x_dim)
    if x.shape != (n, x_dim):
        raise ContractViolation(f"x rows must have shape {(n, x_dim)}, got {x.shape}")
    if not _all_finite(x):
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
        dim = _count("dim", dim)
        if dim < 1:
            raise ContractViolation(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.x_dim = dim
        self.z_dim = dim
        self.theta_dim = 3 * dim
        self.phi_dim = 3 * dim

    def _split(self, v):
        """A checked vector's three blocks of length dim."""
        d = self.dim
        return v[:d], v[d : 2 * d], v[2 * d :]

    def _theta(self, theta):
        """theta's (mu0, log s0, log sx) with the variances v0 = s0^2, vx = sx^2."""
        mu0, log_s0, log_sx = self._split(_check_vector("theta", theta, self.theta_dim))
        return mu0, log_s0, log_sx, np.exp(2.0 * log_s0), np.exp(2.0 * log_sx)

    def q_loc_log_scale(self, x, phi):
        a, b, log_s = self._split(phi)
        return a * x + b, log_s

    def log_joint(self, x, z, theta, grad_theta):
        (mu0, log_s0, log_sx), d = self._split(theta), self.dim
        v0, vx = np.exp(2.0 * log_s0), np.exp(2.0 * log_sx)

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
        log_p -= float(np.add.reduce(log_s0) + np.add.reduce(log_sx)) + d * _LOG_2PI
        return log_p

    def q_grad_phi(self, x, dloc, dlog_scale, out):
        # location a x + b, log scale log s
        d = self.dim
        np.multiply(dloc, x, out=out[:, :d])
        out[:, d : 2 * d] = dloc
        out[:, 2 * d :] = dlog_scale

    def generate_data(self, theta, n, rng):
        n = _check_size(n, 8 * self.dim)
        mu0, log_s0, log_sx = self._split(_check_vector("theta", theta, self.theta_dim))
        z = mu0 + np.exp(log_s0) * rng.standard_normal((n, self.dim))
        x = z + np.exp(log_sx) * rng.standard_normal((n, self.dim))
        return Dataset(x)

    # Closed-form oracles.

    def oracle_log_evidence(self, x, theta):
        mu0, _, _, v0, vx = self._theta(theta)
        x = _check_vector("x", x, self.x_dim)
        v = v0 + vx
        return float(-0.5 * (self.dim * _LOG_2PI + np.log(v).sum() + ((x - mu0) ** 2 / v).sum()))

    def oracle_evidence_grad_theta(self, x, theta):
        mu0, _, _, v0, vx = self._theta(theta)
        x = _check_vector("x", x, self.x_dim)
        v = v0 + vx
        dx = x - mu0
        dv = -1.0 / v + dx * dx / (v * v)  # d/dv of log evidence, times 2
        return np.concatenate([dx / v, v0 * dv, vx * dv])

    def posterior_params(self, x, theta):
        """Mean and variance vectors of the exact posterior p(z|x)."""
        mu0, _, _, v0, vx = self._theta(theta)
        x = _check_vector("x", x, self.x_dim)
        var_p = v0 * vx / (v0 + vx)
        mean_p = var_p * (mu0 / v0 + x / vx)
        return mean_p, var_p

    def posterior_phi(self, theta) -> np.ndarray:
        """The phi for which q(z|x) equals the exact posterior for all x."""
        mu0, _, _, v0, vx = self._theta(theta)
        var_p = v0 * vx / (v0 + vx)
        return np.concatenate([var_p / vx, var_p * mu0 / v0, 0.5 * np.log(var_p)])

    def oracle_posterior_kl(self, x, theta, phi):
        """KL(q(.|x) || p(.|x)) between two diagonal Gaussians; >= 0."""
        x = _check_vector("x", x, self.x_dim)
        m, log_s = self.q_loc_log_scale(x, _check_vector("phi", phi, self.phi_dim))
        mean_p, var_p = self.posterior_params(x, theta)
        vq = np.exp(2.0 * log_s)
        kl = 0.5 * np.log(var_p) - log_s + (vq + (m - mean_p) ** 2) / (2.0 * var_p) - 0.5
        return float(kl.sum())

    def oracle_elbo_grad_phi(self, x, theta, phi):
        """Gradient of log p(x) - KL(q||posterior) in phi (= -grad KL)."""
        x = _check_vector("x", x, self.x_dim)
        m, log_s = self.q_loc_log_scale(x, _check_vector("phi", phi, self.phi_dim))
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


def _check_binary(x: np.ndarray) -> np.ndarray:
    bad = (x != 0.0) & (x != 1.0)
    if np.logical_or.reduce(bad, axis=None):
        raise ContractViolation(f"observation must be 0 or 1, got {x[bad].flat[0]}")
    return x


class BernoulliGaussianModel(LatentVariableModel):
    """Non-conjugate scalar model: logistic observation of a Gaussian latent.

        z ~ Normal(0, 1)                       (fixed prior, no parameters)
        x | z ~ Bernoulli(sigmoid(w z + c))    theta = (w, c)
        q(z|x) = Normal(m_x, s_x^2)            phi = (m_0, log s_0, m_1, log s_1)

    The variational family keeps an independent Gaussian per observed class.
    The evidence oracle integrates the likelihood against the prior with
    64-node Gauss-Hermite quadrature; the test suite checks it against a
    trapezoid rule to 1e-10.
    """

    x_dim = 1
    z_dim = 1
    theta_dim = 2
    phi_dim = 4
    _nodes = 64  # Gauss-Hermite nodes of each quadrature

    def q_loc_log_scale(self, x, phi):
        # the parameters of each observation's class: 0 for x = 0, else 1
        m0, log_s0, m1, log_s1 = phi.tolist()
        one = _check_binary(x[..., :1]) != 0.0
        return np.where(one, m1, m0), np.where(one, log_s1, log_s0)

    def log_joint(self, x, z, theta, grad_theta):
        w, c = theta.tolist()
        xv = x[..., 0]
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

    def q_grad_phi(self, x, dloc, dlog_scale, out):
        # only the observed class's q parameters move log q; the other
        # class's entries stay +0.0
        one = x[..., 0] != 0.0
        out.fill(0.0)
        for cls, on in enumerate((~one, one)):
            np.copyto(out[:, 2 * cls], dloc[:, 0], where=on)
            np.copyto(out[:, 2 * cls + 1], dlog_scale[:, 0], where=on)

    def generate_data(self, theta, n, rng):
        n = _check_size(n, 8)
        theta = _check_vector("theta", theta, self.theta_dim)
        z = rng.standard_normal(n)
        p1 = 1.0 / (1.0 + np.exp(-(theta[0] * z + theta[1])))
        x = (rng.random(n) < p1).astype(np.float64)
        return Dataset(x.reshape(-1, 1))

    def _prior_quadrature(self, x, theta):
        """Quadrature of the joint against the prior: x's value, the nodes z_i,
        w z_i + c and log weight_i + log p(x|z_i), whose log-sum-exp is log p(x)."""
        theta = _check_vector("theta", theta, self.theta_dim)
        x = _check_binary(_check_vector("x", x, self.x_dim))
        nodes, log_wts = _hermgauss(self._nodes)
        eta = theta[0] * nodes + theta[1]
        return x[0], nodes, eta, log_wts + _log_sigmoid((2.0 * x[0] - 1.0) * eta)

    def oracle_log_evidence(self, x, theta):
        *_, v = self._prior_quadrature(x, theta)
        m = v.max()
        return float(m + np.log(np.exp(v - m).sum()))

    def oracle_evidence_grad_theta(self, x, theta):
        """Posterior expectation of the likelihood score, by quadrature:
        grad log p(x) = E[ grad log p(x|z) | x ]."""
        xv, nodes, eta, v = self._prior_quadrature(x, theta)
        post = np.exp(v - v.max())
        post /= post.sum()
        resid = xv - 1.0 / (1.0 + np.exp(-eta))
        return np.array([post @ (nodes * resid), post @ resid])

    def oracle_elbo_grad_phi(self, x, theta, phi):
        """Quadrature of E_q[log f * dlog q/dphi], the lower-bound gradient.

        Independent of the sampling path: nodes come from Gauss-Hermite
        against q's Gaussian, not from Monte Carlo draws.
        """
        theta = _check_vector("theta", theta, self.theta_dim)
        x = _check_vector("x", x, self.x_dim)
        (m,), (log_s,) = self.q_loc_log_scale(x, _check_vector("phi", phi, self.phi_dim))
        k = int(x[0] != 0.0)
        nodes, log_wts = _hermgauss(self._nodes)
        s = math.exp(log_s)
        z = (m + s * nodes).reshape(-1, 1)
        gq = np.empty((nodes.size, self.phi_dim))
        log_f = self.log_weight_batch(x, z, theta, phi, grad_phi_out=gq)
        wts = np.exp(log_wts)
        grad = np.zeros(self.phi_dim)
        grad[2 * k] = wts @ (log_f * gq[:, 2 * k])
        grad[2 * k + 1] = wts @ (log_f * gq[:, 2 * k + 1])
        return grad


def save_dataset(path, dataset: Dataset, seed: int, true_theta) -> None:
    """Write observations one per line plus a sidecar JSON header.

    The sidecar lives at `<path>.json` and records dim, n_total, the
    generation seed (an integer in 0..2^64 - 1) and the true parameter
    vector (finite, 1-d), both checked before either file is written.
    Reals are formatted at 17 significant digits so a reload reproduces the
    array bit-exactly.
    """
    seed = _seed(seed)
    true_theta = _real_array("true_theta", true_theta)
    if true_theta.ndim != 1:
        raise ContractViolation(f"true_theta must be 1-d, got shape {true_theta.shape}")
    if not _all_finite(true_theta):
        raise ContractViolation("true_theta contains non-finite entries")
    path = Path(path)
    lines = [" ".join(format(v, ".17g") for v in row) for row in dataset.x]
    path.write_text("\n".join(lines) + "\n")
    header = {
        "dim": int(dataset.x.shape[1]),
        "n_total": int(dataset.n_total),
        "seed": seed,
        "true_theta": true_theta.tolist(),
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
    if not rows and type(header["dim"]) is int and header["dim"] > 0:
        x = x.reshape(0, header["dim"])  # no rows: a (0, dim) dataset
    data = Dataset(x)
    if data.n_total != header["n_total"] or data.x.shape[1] != header["dim"]:
        raise ContractViolation(f"dataset file {path} does not match its sidecar header")
    return data, header
