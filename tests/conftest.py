"""Session-level guards and reference arithmetic shared by the whole suite."""

import numpy as np
import pytest

from mlmc_evidence.models import BernoulliGaussianModel


@pytest.fixture(scope="session", autouse=True)
def quadrature_nodes_are_sufficient():
    """The quadrature-backed oracles run on 64 nodes; refuse to test
    anything if doubling the node count would move them past 1e-10 inside
    the parameter range the suite exercises (|theta| <= 1.5)."""
    model = BernoulliGaussianModel()
    for theta in (np.array([0.0, 0.0]), np.array([1.5, -0.7]), np.array([-1.5, 0.7])):
        for xv in (0.0, 1.0):
            x = np.array([xv])
            drift = abs(
                model.oracle_log_evidence(x, theta)
                - model.oracle_log_evidence(x, theta, n_nodes=128)
            )
            assert drift < 1e-10, f"quadrature drift {drift} at theta={theta}, x={xv}"


def log_mean_exp(values) -> float:
    """log((1/n) sum_i exp(v_i)) by one max shift, in raw numpy: the
    reference the level values are checked against."""
    v = np.asarray(values, dtype=np.float64)
    m = v.max()
    return float(m + np.log(np.exp(v - m).mean()))
