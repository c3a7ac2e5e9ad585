"""Each caller asks the model for only the gradient arrays it reads, and a
chunk is exponentiated once however many level reducers read it."""

import math

import numpy as np
import pytest

from conftest import lent_grads
from mlmc_evidence import estimator as estimator_module
from mlmc_evidence import trainer as trainer_module
from mlmc_evidence.cli import finite_difference_check
from mlmc_evidence.diagnostics import estimate_moments, variance_profile
from mlmc_evidence.estimator import ALL_GRADS, EstimatorConfig, estimate_log_evidence
from mlmc_evidence.gradients import estimate_gradients
from mlmc_evidence.models import BernoulliGaussianModel, GaussianConjugateModel
from mlmc_evidence.rng import substream
from mlmc_evidence.trainer import TrainConfig, train

THETA = np.zeros(3)
PHI_WIDE = np.array([0.0, 0.0, 0.5 * math.log(2.0)])  # q = N(0, 2)
DATA = GaussianConjugateModel(1).generate_data(THETA, 20, substream(601, 0))
CFG = EstimatorConfig(n0=8, batch_size=16)
NONE = frozenset()


class Recording:
    """Mixed into a model, records the gradients each weight call is lent
    rows for: a chunk's draw, or a weighing of latents the caller holds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def draw_weighed(self, x, theta, phi, rng, eps, grad_theta_out=None, grad_phi_out=None):
        self.asked.append(lent_grads(grad_theta_out, grad_phi_out))
        return super().draw_weighed(x, theta, phi, rng, eps, grad_theta_out, grad_phi_out)

    def log_weight_batch(self, x, z, theta, phi, grad_theta_out=None, grad_phi_out=None):
        self.asked.append(lent_grads(grad_theta_out, grad_phi_out))
        return super().log_weight_batch(x, z, theta, phi, grad_theta_out, grad_phi_out)


class RecordingModel(Recording, GaussianConjugateModel):
    """The Gaussian model, recording the gradients each weight call is lent."""


class RecordingBernoulliModel(Recording, BernoulliGaussianModel):
    """The Bernoulli-Gaussian model, recording the gradients each weight
    call is lent."""


def test_evidence_asks_for_none():
    model = RecordingModel()
    estimate_log_evidence(model, DATA, THETA, PHI_WIDE, CFG, substream(602, 0))
    assert set(model.asked) == {NONE}


def test_gradients_ask_for_both():
    model = RecordingModel()
    estimate_gradients(model, DATA, THETA, PHI_WIDE, CFG, substream(603, 0))
    assert set(model.asked) == {ALL_GRADS}


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "naive"])
def test_profile_asks_for_theta_only(antithetic):
    model = RecordingModel()
    variance_profile(
        model, DATA, THETA, PHI_WIDE, range(0, 3), 100, CFG, substream(604, 0),
        antithetic=antithetic,
    )
    assert set(model.asked) == {frozenset({"theta"})}


def test_training_evaluations_ask_for_none(monkeypatch):
    model = RecordingModel()
    evaluation_calls = []

    def recorded_evaluation(*args, **kwargs):
        before = len(model.asked)
        result = estimate_log_evidence(*args, **kwargs)
        evaluation_calls.extend(model.asked[before:])
        return result

    monkeypatch.setattr(trainer_module, "estimate_log_evidence", recorded_evaluation)
    cfg = TrainConfig(steps=4, eval_every=2, eval_replications=2, estimator=CFG)
    train(model, DATA, THETA, PHI_WIDE, cfg, substream(605, 0))
    assert evaluation_calls and set(evaluation_calls) == {NONE}
    steps = len(model.asked) - len(evaluation_calls)
    assert steps > 0 and model.asked.count(ALL_GRADS) == steps


def test_moments_ask_for_none():
    model = RecordingModel()
    estimate_moments(model, DATA.x[0], THETA, PHI_WIDE, 2.0, 3.0, 10_000, substream(606, 0))
    assert model.asked == [NONE]


def test_finite_differences_ask_for_none():
    # per point: one full call for the closed forms, then two log-f-only
    # calls per parameter component
    model = RecordingModel()
    finite_difference_check(model, DATA, 2, 1e-5, substream(607, 0))
    per_point = [ALL_GRADS] + [NONE] * 2 * (model.theta_dim + model.phi_dim)
    assert model.asked == 2 * per_point


@pytest.mark.parametrize("xv", [0.0, 1.0])
def test_quadrature_lower_bound_gradient_asks_for_phi_only(xv):
    model = RecordingBernoulliModel()
    model.oracle_elbo_grad_phi(np.array([xv]), np.array([1.3, -0.4]), np.full(4, 0.2))
    assert model.asked == [frozenset({"phi"})]


class ChunkCountingModel(GaussianConjugateModel):
    """The Gaussian model, counting its draws: one per chunk."""

    chunks = 0

    def draw_weighed(self, x, theta, phi, rng, eps, grad_theta_out=None, grad_phi_out=None):
        self.chunks += 1
        return super().draw_weighed(x, theta, phi, rng, eps, grad_theta_out, grad_phi_out)


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "naive"])
def test_profile_exponentiates_each_chunk_once(monkeypatch, antithetic):
    # the level value and its theta-gradient both read the chunk's
    # half-segment exp pass, which is made once per chunk
    passes = []
    shared_pass = estimator_module.segment_exp

    def counted_pass(buf, *args):
        passes.append(len(buf))
        return shared_pass(buf, *args)

    monkeypatch.setattr(estimator_module, "segment_exp", counted_pass)
    model = ChunkCountingModel(1)
    monkeypatch.setattr(
        estimator_module, "CHUNK_BYTES", 256 * estimator_module.row_bytes(model, ("theta",))
    )
    variance_profile(
        model, DATA, THETA, PHI_WIDE, range(0, 5), 100, CFG, substream(608, 0),
        antithetic=antithetic,
    )
    assert len(passes) == model.chunks > 5
