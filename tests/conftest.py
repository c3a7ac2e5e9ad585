"""Session-level guards and reference arithmetic shared by the whole suite."""

import contextlib
import math
from typing import NamedTuple

import numpy as np
import pytest

from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.models import BernoulliGaussianModel


def trapezoid_log_evidence(model, x, theta, lo=-10.0, hi=10.0, points=100_000):
    """Independent evidence oracle: trapezoid rule on p(x|z)p(z) over z.

    Works for any scalar-latent model: log f + log q recovers the joint."""
    z = np.linspace(lo, hi, points).reshape(-1, 1)
    log_f = model.log_weight_batch(x, z, theta, _unit_phi(model))
    log_q = _unit_log_q(model, x, z)
    joint = np.exp(log_f + log_q)
    return math.log(np.trapezoid(joint[:, 0] if joint.ndim > 1 else joint, z[:, 0]))


def _unit_phi(model):
    return np.zeros(model.phi_dim)


def _unit_log_q(model, x, z):
    # both models use a standard normal q at phi = 0
    return -0.5 * (math.log(2 * math.pi) + z[:, 0] ** 2)


@pytest.fixture(scope="session", autouse=True)
def quadrature_nodes_are_sufficient():
    """The quadrature-backed oracles run on 64 nodes; refuse to test
    anything if they stray from the trapezoid rule by 1e-10 inside the
    parameter range the suite exercises (|theta| <= 1.5)."""
    model = BernoulliGaussianModel()
    for theta in (np.array([0.0, 0.0]), np.array([1.5, -0.7]), np.array([-1.5, 0.7])):
        for xv in (0.0, 1.0):
            x = np.array([xv])
            drift = abs(
                model.oracle_log_evidence(x, theta) - trapezoid_log_evidence(model, x, theta)
            )
            assert drift < 1e-10, f"quadrature drift {drift} at theta={theta}, x={xv}"


def refused_unmoved(rng, call, message=None):
    """`call()` raises ContractViolation (matching `message`, if given)
    without advancing `rng` or spawning from it."""
    state = rng.bit_generator.state
    spawned = rng.bit_generator.seed_seq.n_children_spawned
    with pytest.raises(ContractViolation, match=message):
        call()
    np.testing.assert_equal(rng.bit_generator.state, state)
    assert rng.bit_generator.seed_seq.n_children_spawned == spawned


def log_mean_exp(values) -> float:
    """log((1/n) sum_i exp(v_i)) by one max shift, in raw numpy: the
    reference the level values are checked against."""
    v = np.asarray(values, dtype=np.float64)
    m = v.max()
    return float(m + np.log(np.exp(v - m).mean()))


def lent_grads(grad_theta_out, grad_phi_out) -> frozenset:
    """The names of the gradients a `draw_weighed` or `log_weight_batch`
    call is lent rows for."""
    return frozenset(
        name for name, out in (("theta", grad_theta_out), ("phi", grad_phi_out))
        if out is not None
    )


class Drawn(NamedTuple):
    """One `draw_weighed` call: copies of the z and log f it returned and
    of the gradient rows it was lent, as the call left them (None where no
    row was lent), and the arrays it was lent, (eps, grad_theta_out,
    grad_phi_out), themselves."""

    z: np.ndarray
    log_f: np.ndarray
    grad_theta: np.ndarray | None  # (n, theta_dim), C-ordered
    grad_phi: np.ndarray | None  # (n, phi_dim), C-ordered
    lent: tuple


@contextlib.contextmanager
def recorded_draws(model):
    """While open, wrap `model.draw_weighed` on the instance, and append
    one `Drawn` per call to the list it yields: the per-draw values of
    what the estimator draws, which its records no longer hold."""
    calls = []
    draw = model.draw_weighed

    def recording(x, theta, phi, rng, eps, grad_theta_out=None, grad_phi_out=None):
        z, log_f = draw(x, theta, phi, rng, eps, grad_theta_out, grad_phi_out)
        grad_theta, grad_phi = (
            None if out is None else np.array(out) for out in (grad_theta_out, grad_phi_out)
        )
        calls.append(Drawn(
            z.copy(), log_f.copy(), grad_theta, grad_phi, (eps, grad_theta_out, grad_phi_out),
        ))
        return z, log_f

    model.draw_weighed = recording
    try:
        yield calls
    finally:
        del model.draw_weighed
