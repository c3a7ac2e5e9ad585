"""Gradient estimator contracts: the softmax-ratio identity, the
zero-variance fixed point at the exact posterior, stationarity of the
lower-bound gradient, unbiasedness against analytic oracles, and
shared-draw determinism."""

import math

import numpy as np
import pytest

from conftest import recorded_draws
from mlmc_evidence.estimator import (
    EstimatorConfig,
    antithetic_difference,
    draw_batch_indices,
    draw_level_samples,
    estimate_log_evidence,
    run_batch,
)
from mlmc_evidence.gradients import (
    estimate_gradients,
    grad_phi_elbo_level,
    grad_theta_level,
)
from mlmc_evidence.models import GaussianConjugateModel
from mlmc_evidence.rng import substream

MODEL = GaussianConjugateModel(1)
THETA = np.zeros(3)
PHI_POSTERIOR = MODEL.posterior_phi(THETA)
PHI_WIDE = np.array([0.0, 0.0, 0.5 * math.log(2.0)])
DATA = MODEL.generate_data(THETA, 20, substream(201, 0))
CFG = EstimatorConfig(n0=8, batch_size=4)


def mle_theta(data):
    """Closed-form maximizer of the evidence over theta (the variance split
    between prior and noise is unidentified; an even split is as good as
    any)."""
    x = data.x[:, 0]
    mean = x.mean()
    var = ((x - mean) ** 2).mean()
    half = math.log(var / 2.0) / 2.0
    return np.array([mean, half, half])


class TestGradThetaLevel:
    def test_softmax_ratio_matches_linear_space(self):
        # at magnitudes where raw weights are computable the level-0 output
        # must equal sum(f g) / sum(f)
        rng = substream(202, 0)
        for _ in range(50):
            with recorded_draws(MODEL) as calls:
                draws = draw_level_samples(
                    MODEL, DATA.x[0], THETA, PHI_WIDE, 0, CFG, rng
                )
            (drawn,) = calls
            assert np.all(np.abs(drawn.log_f) < 300)
            f = np.exp(drawn.log_f)
            direct = (f[:, None] * drawn.grad_theta).sum(0) / f.sum()
            np.testing.assert_allclose(
                grad_theta_level(draws)[0], direct, rtol=1e-10, atol=1e-12
            )

    def test_zero_vector_at_posterior_higher_levels(self):
        rng = substream(203, 0)
        for level in (1, 2, 4):
            draws = draw_level_samples(
                MODEL, DATA.x[1], THETA, PHI_POSTERIOR, level, CFG, rng
            )
            assert np.max(np.abs(grad_theta_level(draws))) < 1e-12

    def test_zero_variance_not_just_zero_mean(self):
        # sample variance of the level >= 1 contributions at the posterior
        values = []
        for r in range(500):
            draws = draw_level_samples(
                MODEL, DATA.x[r % DATA.n_total], THETA, PHI_POSTERIOR, 2, CFG,
                substream(204, r),
            )
            values.append(grad_theta_level(draws))
        assert np.var(np.array(values), axis=0).max() < 1e-20

    def test_level_zero_posterior_mean_is_evidence_gradient(self):
        # with q the exact posterior the per-draw gradient of log f is the
        # posterior score plus the evidence gradient, so only the mean (not
        # each draw) matches the oracle
        x = DATA.x[2]
        oracle = MODEL.oracle_evidence_grad_theta(x, THETA)
        acc = []
        for r in range(4000):
            draws = draw_level_samples(
                MODEL, x, THETA, PHI_POSTERIOR, 0, CFG, substream(205, r)
            )
            acc.append(grad_theta_level(draws))
        acc = np.array(acc)
        se = acc.std(axis=0, ddof=1) / math.sqrt(acc.shape[0])
        assert np.all(np.abs(acc.mean(axis=0) - oracle) < 4 * se)

    def test_single_draw_collapse(self):
        # n0 = 1 at level 0: the ratio is the lone per-draw gradient
        cfg = EstimatorConfig(n0=1, batch_size=1)
        with recorded_draws(MODEL) as calls:
            draws = draw_level_samples(
                MODEL, DATA.x[0], THETA, PHI_WIDE, 0, cfg, substream(206, 0)
            )
        np.testing.assert_array_equal(
            grad_theta_level(draws)[0], calls[0].grad_theta[0]
        )


class TestGradPhiLevel:
    def test_constant_log_f_form(self):
        # q = posterior makes log f constant c, so the average collapses to
        # (c - 1) * mean(score) exactly
        with recorded_draws(MODEL) as calls:
            draws = draw_level_samples(
                MODEL, DATA.x[3], THETA, PHI_POSTERIOR, 1, CFG, substream(207, 0)
            )
        (drawn,) = calls
        c = drawn.log_f[0]
        expected = (c - 1.0) * drawn.grad_phi.mean(axis=0)
        np.testing.assert_allclose(grad_phi_elbo_level(draws)[0], expected, atol=1e-12)

    def test_stationary_at_posterior(self):
        # the lower bound is maximized in phi at the posterior, so the
        # expectation of the term is zero; 1e5 draws at one level
        x = DATA.x[4]
        cfg = EstimatorConfig(n0=100_000, batch_size=1)
        with recorded_draws(MODEL) as calls:
            draw_level_samples(MODEL, x, THETA, PHI_POSTERIOR, 0, cfg, substream(208, 0))
        (drawn,) = calls
        per_draw = (drawn.log_f - 1.0)[:, None] * drawn.grad_phi
        se = per_draw.std(axis=0, ddof=1) / math.sqrt(drawn.log_f.size)
        np.testing.assert_array_less(np.abs(per_draw.mean(axis=0)), 4 * se)

    def test_mean_matches_analytic_lower_bound_gradient(self):
        x = DATA.x[5]
        oracle = MODEL.oracle_elbo_grad_phi(x, THETA, PHI_WIDE)
        cfg = EstimatorConfig(n0=100_000, batch_size=1)
        with recorded_draws(MODEL) as calls:
            draws = draw_level_samples(
                MODEL, x, THETA, PHI_WIDE, 0, cfg, substream(209, 0)
            )
        (drawn,) = calls
        per_draw = (drawn.log_f - 1.0)[:, None] * drawn.grad_phi
        se = per_draw.std(axis=0, ddof=1) / math.sqrt(drawn.log_f.size)
        np.testing.assert_array_less(np.abs(per_draw.mean(axis=0) - oracle), 4 * se)
        np.testing.assert_allclose(
            grad_phi_elbo_level(draws)[0], per_draw.mean(axis=0), atol=1e-12
        )


class TestEstimateGradients:
    def test_unbiased_against_analytic_oracles(self):
        oracle_t = sum(MODEL.oracle_evidence_grad_theta(x, THETA) for x in DATA.x)
        oracle_p = sum(MODEL.oracle_elbo_grad_phi(x, THETA, PHI_WIDE) for x in DATA.x)
        gt, gp = [], []
        for r in range(6000):
            est = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, CFG, substream(210, r))
            gt.append(est.grad_theta)
            gp.append(est.grad_phi)
        gt, gp = np.array(gt), np.array(gp)
        se_t = gt.std(axis=0, ddof=1) / math.sqrt(gt.shape[0])
        se_p = gp.std(axis=0, ddof=1) / math.sqrt(gp.shape[0])
        assert np.all(np.abs(gt.mean(axis=0) - oracle_t) < 4 * se_t)
        assert np.all(np.abs(gp.mean(axis=0) - oracle_p) < 4 * se_p)

    def test_both_gradients_vanish_at_mle_with_posterior_q(self):
        theta_hat = mle_theta(DATA)
        phi_hat = MODEL.posterior_phi(theta_hat)
        gt, gp = [], []
        for r in range(4000):
            est = estimate_gradients(MODEL, DATA, theta_hat, phi_hat, CFG, substream(211, r))
            gt.append(est.grad_theta)
            gp.append(est.grad_phi)
        gt, gp = np.array(gt), np.array(gp)
        se_t = gt.std(axis=0, ddof=1) / math.sqrt(gt.shape[0])
        se_p = gp.std(axis=0, ddof=1) / math.sqrt(gp.shape[0])
        assert np.all(np.abs(gt.mean(axis=0)) < 4 * se_t)
        assert np.all(np.abs(gp.mean(axis=0)) < 4 * se_p)

    @pytest.mark.parametrize("batch", [CFG.batch_size, 6])
    def test_shared_draws_with_batch_fold(self, batch):
        # from one seed, both estimators are exact folds of the same batch's
        # per-member rows: the gradients fold its gradient rows, the
        # evidence estimate folds its reweighted level values, and each
        # member's rows are the reductions of its own draws alone; at batch
        # 6, not a power of two, (N / M) * sum and N * (sum / M) round apart
        cfg = EstimatorConfig(n0=CFG.n0, batch_size=batch)
        reducers = [antithetic_difference, grad_theta_level, grad_phi_elbo_level]
        masses, (values, rows_t, rows_p), total_cost, _ = run_batch(
            MODEL, DATA, THETA, PHI_WIDE, cfg, substream(212, 0), reducers=reducers
        )
        n, m = DATA.n_total, cfg.batch_size
        assert rows_t.shape == (m, MODEL.theta_dim) and rows_p.shape == (m, MODEL.phi_dim)
        rng = substream(212, 0)
        indices, levels = draw_batch_indices(DATA, cfg, rng)
        np.testing.assert_array_equal(masses, cfg.mass(levels))
        with recorded_draws(MODEL) as calls:
            members = [
                draw_level_samples(MODEL, DATA.x[i], THETA, PHI_WIDE, level, cfg, rng)
                for i, level in zip(indices, levels)
            ]
        for i, alone in enumerate(members):
            np.testing.assert_array_equal(grad_theta_level(alone)[0], rows_t[i])
            np.testing.assert_array_equal(grad_phi_elbo_level(alone)[0], rows_p[i])
            assert antithetic_difference(alone)[0] == values[i]

        est = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(212, 0))
        np.testing.assert_array_equal(est.grad_theta, n / m * (rows_t / masses[:, None]).sum(axis=0))
        np.testing.assert_array_equal(est.grad_phi, n / m * rows_p.sum(axis=0))
        assert len(calls) == len(members)
        assert est.total_cost == sum(c.log_f.size for c in calls) == total_cost

        ev = estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(212, 0))
        terms = values / masses
        assert ev.value == n * float(terms.mean())
        assert ev.std_error == n * float(terms.std(ddof=1)) / math.sqrt(m)
        assert ev.total_cost == est.total_cost
        assert ev.per_level_counts == est.per_level_counts

    def test_bit_identical_reruns(self):
        a = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, CFG, substream(213, 0))
        b = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, CFG, substream(213, 0))
        np.testing.assert_array_equal(a.grad_theta, b.grad_theta)
        np.testing.assert_array_equal(a.grad_phi, b.grad_phi)
