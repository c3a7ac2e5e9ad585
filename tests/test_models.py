"""Model contracts: closed-form oracles against brute-force quadrature,
finite-difference gradient checks, sampler/density agreement, and the
dataset round trip."""

import math
import re

import numpy as np
import pytest

from conftest import refused_unmoved, trapezoid_log_evidence
from mlmc_evidence import estimator as estimator_module
from mlmc_evidence import models as models_module
from mlmc_evidence.cli import finite_difference_check
from mlmc_evidence.diagnostics import estimate_moments, variance_profile
from mlmc_evidence.errors import ContractViolation, ResourceGuardExceeded, UnsupportedOperation
from mlmc_evidence.estimator import (
    ALL_GRADS,
    EstimatorConfig,
    draw_chunks,
    estimate_log_evidence,
    level_estimate,
    row_bytes,
)
from mlmc_evidence.gradients import estimate_gradients
from mlmc_evidence.logspace import StreamingMoments
from mlmc_evidence.models import (
    BernoulliGaussianModel,
    Dataset,
    GaussianConjugateModel,
    LatentVariableModel,
    load_dataset,
    save_dataset,
)
from mlmc_evidence.rng import substream
from mlmc_evidence.trainer import TrainConfig, train

GAUSSIAN = GaussianConjugateModel(1)
BERNOULLI = BernoulliGaussianModel()
DATA = Dataset(np.linspace(-1.0, 1.0, 5).reshape(-1, 1))


def weigh_lending_both(model, x, z, theta, phi):
    """log f of the rows of z with both gradients, built in fresh lent rows:
    (log f, d(log f)/d(theta), d(log q)/d(phi))."""
    lent = [np.empty((len(z), k)) for k in (model.theta_dim, model.phi_dim)]
    return model.log_weight_batch(x, z, theta, phi, *lent), *lent


def central_difference(fn, v, j, step=1e-5):
    e = np.zeros_like(v)
    e[j] = step
    return (fn(v + e) - fn(v - e)) / (2 * step)


class TestGaussianOracles:
    def test_standard_case_value(self):
        # mu0 = 0, sigma0 = sigmax = 1, x = 0: convolution variance 2
        val = GAUSSIAN.oracle_log_evidence(np.array([0.0]), np.zeros(3))
        assert val == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-12)

    def test_matches_trapezoid(self):
        theta = np.array([0.3, 0.2, -0.4])
        x = np.array([0.7])
        quad = trapezoid_log_evidence(GAUSSIAN, x, theta)
        assert GAUSSIAN.oracle_log_evidence(x, theta) == pytest.approx(quad, abs=1e-8)

    def test_posterior_q_makes_log_f_the_evidence(self):
        theta = np.zeros(3)
        phi = GAUSSIAN.posterior_phi(theta)
        x = np.array([0.8])
        rng = substream(1, 0)
        z = GAUSSIAN.sample_q(x, phi, rng, 16)
        log_f = GAUSSIAN.log_weight_batch(x, z, theta, phi)
        np.testing.assert_allclose(
            log_f, GAUSSIAN.oracle_log_evidence(x, theta), rtol=1e-10
        )

    def test_posterior_q_log_f_constant_in_z(self):
        theta = np.array([0.5, -0.3, 0.2])
        phi = GAUSSIAN.posterior_phi(theta)
        x = np.array([-1.4])
        z = GAUSSIAN.sample_q(x, phi, substream(2, 0), 10_000)
        log_f = GAUSSIAN.log_weight_batch(x, z, theta, phi)
        assert log_f.var() < 1e-20

    def test_evidence_gradient_matches_fd_of_oracle(self):
        theta = np.array([0.3, 0.2, -0.4])
        x = np.array([0.7])
        grad = GAUSSIAN.oracle_evidence_grad_theta(x, theta)
        for j in range(3):
            fd = central_difference(
                lambda t: GAUSSIAN.oracle_log_evidence(x, t), theta, j
            )
            assert grad[j] == pytest.approx(fd, abs=1e-8)


class TestGaussianKL:
    def test_zero_at_posterior(self):
        theta = np.array([0.2, 0.1, -0.1])
        phi = GAUSSIAN.posterior_phi(theta)
        assert GAUSSIAN.oracle_posterior_kl(np.array([1.1]), theta, phi) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_standard_normal_vs_half_variance_posterior(self):
        # q = N(0,1) against posterior N(0, 1/2) at x = 0
        kl = GAUSSIAN.oracle_posterior_kl(np.array([0.0]), np.zeros(3), np.zeros(3))
        assert kl == pytest.approx((1.0 - math.log(2.0)) / 2.0, abs=1e-12)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            theta = rng.standard_normal(3)
            phi = rng.standard_normal(3)
            x = rng.standard_normal(1)
            assert GAUSSIAN.oracle_posterior_kl(x, theta, phi) >= 0.0

    def test_elbo_identity(self):
        # evidence - KL equals the q-expectation of log f (the lower bound)
        theta = np.array([0.3, 0.2, -0.4])
        phi = np.array([0.4, -0.1, 0.25])
        x = np.array([0.7])
        elbo = GAUSSIAN.oracle_log_evidence(x, theta) - GAUSSIAN.oracle_posterior_kl(
            x, theta, phi
        )
        # independent route: Gauss-Legendre-free trapezoid of q * log f
        a, b, ls = phi
        mq, sq = a * x[0] + b, math.exp(ls)
        z = np.linspace(mq - 40 * sq, mq + 40 * sq, 200_001).reshape(-1, 1)
        log_f = GAUSSIAN.log_weight_batch(x, z, theta, phi)
        qz = np.exp(-0.5 * ((z[:, 0] - mq) / sq) ** 2) / (sq * math.sqrt(2 * math.pi))
        assert elbo == pytest.approx(np.trapezoid(qz * log_f, z[:, 0]), abs=1e-10)

    def test_elbo_grad_phi_matches_fd_of_kl(self):
        theta = np.array([0.3, 0.2, -0.4])
        phi = np.array([0.4, -0.1, 0.25])
        x = np.array([0.7])
        grad = GAUSSIAN.oracle_elbo_grad_phi(x, theta, phi)
        for j in range(3):
            fd = central_difference(
                lambda p: -GAUSSIAN.oracle_posterior_kl(x, theta, p), phi, j
            )
            assert grad[j] == pytest.approx(fd, abs=1e-8)

    def test_unsupported_on_nonconjugate(self):
        with pytest.raises(UnsupportedOperation):
            BERNOULLI.oracle_posterior_kl(np.array([1.0]), np.zeros(2), np.zeros(4))


class TestBernoulliOracles:
    def test_flat_likelihood(self):
        # w = c = 0 makes x independent of z
        assert BERNOULLI.oracle_log_evidence(np.array([1.0]), np.zeros(2)) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_sigmoid_symmetry(self):
        # sigmoid(z) + sigmoid(-z) = 1 and the prior is symmetric
        val = BERNOULLI.oracle_log_evidence(np.array([1.0]), np.array([1.0, 0.0]))
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_trapezoid(self):
        theta = np.array([1.3, -0.4])
        for xv in (0.0, 1.0):
            x = np.array([xv])
            quad = trapezoid_log_evidence(BERNOULLI, x, theta)
            assert BERNOULLI.oracle_log_evidence(x, theta) == pytest.approx(quad, abs=1e-8)

    def test_node_count_drift(self):
        # documented bound: the 64-node quadrature and the trapezoid rule
        # agree to 1e-10
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rng.standard_normal(2)
            for xv in (0.0, 1.0):
                x = np.array([xv])
                drift = abs(
                    BERNOULLI.oracle_log_evidence(x, theta)
                    - trapezoid_log_evidence(BERNOULLI, x, theta)
                )
                assert drift < 1e-10

    def test_classes_sum_to_one(self):
        theta = np.array([0.7, 0.3])
        p1 = math.exp(BERNOULLI.oracle_log_evidence(np.array([1.0]), theta))
        p0 = math.exp(BERNOULLI.oracle_log_evidence(np.array([0.0]), theta))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_evidence_grad_matches_fd_of_oracle(self):
        theta = np.array([1.3, -0.4])
        x = np.array([1.0])
        grad = BERNOULLI.oracle_evidence_grad_theta(x, theta)
        for j in range(2):
            fd = central_difference(
                lambda t: BERNOULLI.oracle_log_evidence(x, t), theta, j
            )
            assert grad[j] == pytest.approx(fd, abs=1e-8)

    def test_elbo_grad_matches_gaussian_style_fd(self):
        # cross-check the quadrature lower-bound gradient against a denser
        # quadrature differentiated numerically
        theta = np.array([1.3, -0.4])
        phi = np.array([0.3, -0.2, -0.5, 0.1])
        x = np.array([1.0])
        grad = BERNOULLI.oracle_elbo_grad_phi(x, theta, phi)

        def elbo(p):
            m, ls = p[2], p[3]
            s = math.exp(ls)
            z = np.linspace(m - 40 * s, m + 40 * s, 400_001).reshape(-1, 1)
            log_f = BERNOULLI.log_weight_batch(x, z, theta, p)
            qz = np.exp(-0.5 * ((z[:, 0] - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            return np.trapezoid(qz * log_f, z[:, 0])

        for j in range(4):
            fd = central_difference(elbo, phi, j, step=1e-6)
            assert grad[j] == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("oracle", ["oracle_log_evidence", "oracle_evidence_grad_theta"])
    @pytest.mark.parametrize("x, theta", [(0.5, [0.0, 0.0]), (2.0, [1.3, -0.4])])
    def test_observation_must_be_0_or_1(self, oracle, x, theta):
        # both quadrature oracles once answered for observations that
        # `log_joint` refuses: 0.5 at w = c = 0 gave log(1/2) and a zero gradient
        with pytest.raises(ContractViolation, match=f"^observation must be 0 or 1, got {x}$"):
            getattr(BERNOULLI, oracle)(np.array([x]), np.array(theta))


class SumOfTwoModel(LatentVariableModel):
    """Test-only model with two latents and a location depending on x; it
    states its joint density, q and q's chain rule, nothing more:

        z ~ Normal(0, I_2),  x | z ~ Normal(z_0 + z_1 + theta, 1),
        q(z|x) = Normal(phi[:2] + x / 3, diag(exp(2 phi[2:]))),

    so p(x) = Normal(x; theta, 3)."""

    x_dim = 1
    z_dim = 2
    theta_dim = 1
    phi_dim = 4

    def q_loc_log_scale(self, x, phi):
        return phi[:2] + x / 3, phi[2:]

    def log_joint(self, x, z, theta, grad_theta):
        resid = x[..., 0] - z.sum(axis=1) - theta[0]
        if grad_theta is not None:
            grad_theta[:, 0] = resid
        return -0.5 * ((z * z).sum(axis=1) + resid * resid + 3 * math.log(2 * math.pi))

    def q_grad_phi(self, x, dloc, dlog_scale, out):
        out[:, :2] = dloc
        out[:, 2:] = dlog_scale

    def generate_data(self, theta, n, rng):
        z = rng.standard_normal((n, 2))
        return Dataset(z.sum(axis=1, keepdims=True) + theta[0] + rng.standard_normal((n, 1)))


class TestLogWeightGradients:
    """Closed-form gradients against central finite differences, step 1e-5."""

    @pytest.mark.parametrize("model", [GAUSSIAN, BERNOULLI, SumOfTwoModel()],
                             ids=["gaussian", "bernoulli", "sum-of-two"])
    def test_fd_agreement_at_random_points(self, model: LatentVariableModel):
        rng = substream(5, 0)
        for _ in range(100):
            theta = 0.5 * rng.standard_normal(model.theta_dim)
            phi = 0.5 * rng.standard_normal(model.phi_dim)
            if model is BERNOULLI:
                x = np.array([float(rng.integers(2))])
            else:
                x = rng.standard_normal(model.x_dim)
            z = model.sample_q(x, phi, rng, 1)
            _, grad_theta, grad_phi = weigh_lending_both(model, x, z, theta, phi)

            for j in range(model.theta_dim):
                fd = central_difference(
                    lambda t: model.log_weight_batch(x, z, t, phi)[0], theta, j
                )
                g = grad_theta[0, j]
                assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))
            for j in range(model.phi_dim):
                # f carries phi only through the q denominator, so
                # d(log f)/dphi = -d(log q)/dphi
                fd = -central_difference(
                    lambda p: model.log_weight_batch(x, z, theta, p)[0], phi, j
                )
                g = grad_phi[0, j]
                assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))

    def test_log_f_recomputes(self):
        # the stored log_f is log p(x|z) + log p(z) - log q(z|x)
        theta = np.array([0.3, 0.2, -0.4])
        phi = np.array([0.4, -0.1, 0.25])
        x = np.array([0.7])
        z = np.array([[0.9]])
        log_f = GAUSSIAN.log_weight_batch(x, z, theta, phi)
        mu0, s0, sx = 0.3, math.exp(0.2), math.exp(-0.4)
        mq, sq = 0.4 * 0.7 - 0.1, math.exp(0.25)

        def norm_logpdf(v, mean, sd):
            return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((v - mean) / sd) ** 2

        expected = (
            norm_logpdf(0.7, 0.9, sx) + norm_logpdf(0.9, mu0, s0) - norm_logpdf(0.9, mq, sq)
        )
        assert log_f[0] == pytest.approx(expected, abs=1e-10)


class TestSampler:
    def test_gaussian_q_moments(self):
        phi = np.array([0.4, -0.1, 0.25])
        x = np.array([0.7])
        n = 100_000
        z = GAUSSIAN.sample_q(x, phi, substream(6, 0), n)[:, 0]
        mean_t = 0.4 * 0.7 - 0.1
        sd_t = math.exp(0.25)
        se_mean = sd_t / math.sqrt(n)
        assert abs(z.mean() - mean_t) < 4 * se_mean
        se_var = sd_t**2 * math.sqrt(2.0 / (n - 1))
        assert abs(z.var(ddof=1) - sd_t**2) < 4 * se_var

    def test_bernoulli_q_selects_class_params(self):
        phi = np.array([0.3, -0.2, -0.5, 0.1])
        n = 100_000
        for xv, m_t, ls_t in [(0.0, 0.3, -0.2), (1.0, -0.5, 0.1)]:
            z = BERNOULLI.sample_q(np.array([xv]), phi, substream(7, int(xv)), n)[:, 0]
            sd_t = math.exp(ls_t)
            assert abs(z.mean() - m_t) < 4 * sd_t / math.sqrt(n)
            assert abs(z.var(ddof=1) - sd_t**2) < 4 * sd_t**2 * math.sqrt(2.0 / (n - 1))

    @pytest.mark.parametrize("model", [GAUSSIAN, BERNOULLI], ids=["gaussian", "bernoulli"])
    def test_score_has_zero_mean(self, model):
        # E_q[dlog q / dphi] = 0 componentwise
        rng = substream(8, 0)
        theta = 0.3 * rng.standard_normal(model.theta_dim)
        phi = 0.3 * rng.standard_normal(model.phi_dim)
        x = np.array([1.0]) if model is BERNOULLI else rng.standard_normal(model.x_dim)
        n = 100_000
        z = model.sample_q(x, phi, rng, n)
        scores = weigh_lending_both(model, x, z, theta, phi)[2]
        mean = scores.mean(axis=0)
        se = scores.std(axis=0, ddof=1) / math.sqrt(n)
        live = se > 0  # components of the unobserved class never move
        assert np.all(np.abs(mean[live]) < 4 * se[live])
        assert np.all(mean[~live] == 0.0)


class TestLocationScaleInterface:
    """A model that states only its joint density, q's location and log
    scale and q's chain rule gets the base class's sampler and weighing,
    and runs through the estimator."""

    MODEL = SumOfTwoModel()
    PHI = np.array([-0.15, -0.2, 0.0, 0.1])  # wider than the posterior at theta = 0.5

    @pytest.mark.parametrize("x", [np.array([0.7]), np.array([[0.7], [-1.2], [0.0]])],
                             ids=["one-observation", "rows"])
    def test_sample_q_is_loc_plus_scaled_normals(self, x):
        z = self.MODEL.sample_q(x, self.PHI, substream(18, 0), 3)
        loc, log_scale = self.MODEL.q_loc_log_scale(x, self.PHI)
        eps = substream(18, 0).standard_normal((3, 2))
        assert z.shape == (3, 2)
        np.testing.assert_array_equal(z, loc + np.exp(log_scale) * eps)

    def test_row_count_must_match(self):
        with pytest.raises(ContractViolation, match="x rows"):
            self.MODEL.sample_q(np.zeros((3, 1)), self.PHI, substream(18, 1), 4)

    def test_estimate_log_evidence_runs(self):
        theta = np.array([0.5])
        data = self.MODEL.generate_data(theta, 10, substream(18, 2))
        cfg = EstimatorConfig(n0=4, batch_size=64)
        est = estimate_log_evidence(self.MODEL, data, theta, self.PHI, cfg, substream(18, 3))
        oracle = (-0.5 * (np.log(6 * math.pi) + (data.x[:, 0] - theta[0]) ** 2 / 3)).sum()
        assert est.total_cost > 0
        assert abs(est.value - oracle) < 5 * est.std_error

    def test_chunk_after_chunk_gives_what_one_chunk_gives(self, monkeypatch):
        # each chunk's theta gradient is built in rows lent from one block
        # that every chunk of the draw reuses; chunks of at most 16 draws
        # give what one chunk per call gives
        theta = np.array([0.5])
        data = self.MODEL.generate_data(theta, 10, substream(18, 4))
        cfg = EstimatorConfig(n0=4, batch_size=64)

        def outputs():
            est = estimate_log_evidence(self.MODEL, data, theta, self.PHI, cfg, substream(18, 5))
            profile = variance_profile(
                self.MODEL, data, theta, self.PHI, range(0, 4), 100, cfg, substream(18, 6)
            )
            return est, profile

        one_chunk = outputs()
        monkeypatch.setattr(
            estimator_module, "CHUNK_BYTES", 16 * row_bytes(self.MODEL, ("theta",))
        )
        assert outputs() == one_chunk


class TestRowsPerDraw:
    """x as one row per draw gives what one observation per call gives."""

    def check_rows(self, model, x_rows, theta, phi, sizes, seed):
        rows = np.repeat(x_rows, sizes, axis=0)
        z = model.sample_q(rows, phi, substream(seed, 0), rows.shape[0])
        batch = weigh_lending_both(model, rows, z, theta, phi)
        rng = substream(seed, 0)
        start = 0
        for x, size in zip(x_rows, sizes):
            member = slice(start, start + size)
            z_one = model.sample_q(x, phi, rng, size)
            np.testing.assert_array_equal(z[member], z_one)
            one = weigh_lending_both(model, x, z_one, theta, phi)
            for got, want in zip(batch, one):
                np.testing.assert_allclose(got[member], want, rtol=1e-14, atol=1e-14)
            start += size

    def test_gaussian(self):
        model = GaussianConjugateModel(2)
        theta = np.array([0.1, -0.2, 0.3, 0.0, -0.5, -0.4])
        phi = np.array([0.4, 0.5, -0.1, 0.2, 0.25, 0.1])
        x_rows = np.array([[0.3, -1.0], [1.2, 0.4], [-0.7, 0.0]])
        self.check_rows(model, x_rows, theta, phi, [4, 1, 8], 11)

    def test_bernoulli_mixed_classes(self):
        theta = np.array([1.3, -0.4])
        phi = np.array([0.3, -0.2, -0.5, 0.1])
        x_rows = np.array([[1.0], [0.0], [0.0], [1.0]])
        self.check_rows(BERNOULLI, x_rows, theta, phi, [3, 5, 2, 6], 12)

    def test_bernoulli_rejects_any_bad_row(self):
        rows = np.array([[0.0], [1.0], [0.5]])
        with pytest.raises(ContractViolation, match="0 or 1"):
            BERNOULLI.log_weight_batch(rows, np.zeros((3, 1)), np.zeros(2), np.zeros(4))

    @pytest.mark.parametrize("model", [GAUSSIAN, BERNOULLI], ids=["gaussian", "bernoulli"])
    def test_row_count_must_match(self, model):
        rows = np.zeros((3, 1))
        with pytest.raises(ContractViolation, match="x rows"):
            model.sample_q(rows, np.zeros(model.phi_dim), substream(13, 0), 4)
        with pytest.raises(ContractViolation, match="x rows"):
            model.log_weight_batch(
                rows, np.zeros((4, 1)), np.zeros(model.theta_dim), np.zeros(model.phi_dim)
            )


class TestRequestedGradients:
    """A weighing at fixed z builds exactly the gradients whose rows it is
    lent, each bit-identical to the both-lent call's, and log f does not
    depend on which are lent."""

    @staticmethod
    def inputs(model, rows, seed):
        rng = substream(seed, 0)
        theta = 0.4 * rng.standard_normal(model.theta_dim)
        phi = 0.4 * rng.standard_normal(model.phi_dim)
        n = 48
        if model is BERNOULLI:
            x = rng.integers(2, size=(n, 1)).astype(np.float64) if rows else np.array([0.0])
        else:
            x = rng.standard_normal((n, model.x_dim) if rows else model.x_dim)
        return x, model.sample_q(x, phi, rng, n), theta, phi

    @pytest.mark.parametrize("lend", [(), ("theta",), ("phi",), ("theta", "phi")],
                             ids=["none", "theta", "phi", "both"])
    @pytest.mark.parametrize("rows", [False, True], ids=["one-observation", "rows"])
    @pytest.mark.parametrize("model", [GaussianConjugateModel(3), BERNOULLI],
                             ids=["gaussian-3", "bernoulli"])
    def test_subset_matches_full_call(self, model, rows, lend):
        x, z, theta, phi = self.inputs(model, rows, 14)
        full = weigh_lending_both(model, x, z, theta, phi)
        lent = {name: np.full((len(z), k), np.nan) if name in lend else None
                for name, k in [("theta", model.theta_dim), ("phi", model.phi_dim)]}
        log_f = model.log_weight_batch(x, z, theta, phi, lent["theta"], lent["phi"])
        assert log_f.tobytes() == full[0].tobytes()
        for got, want in zip(lent.values(), full[1:]):
            assert got is None or got.tobytes() == want.tobytes()

    def test_bernoulli_other_class_columns_are_positive_zero(self):
        x, z, theta, phi = self.inputs(BERNOULLI, True, 16)
        gq = np.full((len(z), BERNOULLI.phi_dim), np.nan)
        BERNOULLI.log_weight_batch(x, z, theta, phi, grad_phi_out=gq)
        one = x[:, 0] == 1.0
        assert 0 < one.sum() < one.size
        for off in (gq[one][:, :2], gq[~one][:, 2:]):
            assert np.all(off == 0.0) and not np.signbit(off).any()


class TestDrawWeighed:
    """A chunk is drawn and weighed in one call from the standard normals
    that draw it: the latents of `sample_q` and, up to rounding, the
    weights of `log_weight_batch`."""

    @pytest.mark.parametrize("rows", [False, True], ids=["one-observation", "rows"])
    @pytest.mark.parametrize(
        "model", [GAUSSIAN, GaussianConjugateModel(3), BERNOULLI, SumOfTwoModel()],
        ids=["gaussian-1", "gaussian-3", "bernoulli", "sum-of-two"],
    )
    def test_matches_sample_q_then_log_weight_batch(self, model, rows):
        x, _, theta, phi = TestRequestedGradients.inputs(model, rows, 19)
        n = 48
        z = model.sample_q(x, phi, substream(19, 1), n)
        eps = np.empty((n, model.z_dim))
        lent = [np.empty((n, k)) for k in (model.theta_dim, model.phi_dim)]
        drawn, log_f = model.draw_weighed(x, theta, phi, substream(19, 1), eps, *lent)
        assert drawn.shape == z.shape and drawn.tobytes() == z.tobytes()
        want = weigh_lending_both(model, x, z, theta, phi)
        for got, ref in zip([log_f, *lent], want, strict=True):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [False, True], ids=["one-observation", "rows"])
    @pytest.mark.parametrize(
        "model", [GAUSSIAN, GaussianConjugateModel(3), BERNOULLI, SumOfTwoModel()],
        ids=["gaussian-1", "gaussian-3", "bernoulli", "sum-of-two"],
    )
    def test_gradients_fill_lent_component_major_rows(self, model, rows):
        # lent as transposed views of (k, n) blocks, each gradient is built
        # in its block, every entry written, with the bits it has in
        # C-ordered (n, k) rows
        x, _, theta, phi = TestRequestedGradients.inputs(model, rows, 22)
        n = 48
        dims = (model.theta_dim, model.phi_dim)
        c_ordered = [np.empty((n, k)) for k in dims]
        _, log_f = model.draw_weighed(
            x, theta, phi, substream(22, 1), np.empty((n, model.z_dim)), *c_ordered
        )
        lent = [np.full((k, n), np.nan).T for k in dims]
        _, lent_log_f = model.draw_weighed(
            x, theta, phi, substream(22, 1), np.empty((n, model.z_dim)),
            grad_theta_out=lent[0], grad_phi_out=lent[1],
        )
        for got, want in zip([lent_log_f, *lent], [log_f, *c_ordered], strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", ["draw_weighed", "log_weight_batch"])
    @pytest.mark.parametrize("lend", [("theta",), ("phi",), (), ("theta", "phi")],
                             ids=["theta", "phi", "none", "both"])
    @pytest.mark.parametrize("rows", [False, True], ids=["one-observation", "rows"])
    @pytest.mark.parametrize(
        "model", [GAUSSIAN, GaussianConjugateModel(3), BERNOULLI, SumOfTwoModel()],
        ids=["gaussian-1", "gaussian-3", "bernoulli", "sum-of-two"],
    )
    def test_builds_exactly_the_lent_gradients(self, monkeypatch, model, rows, lend, method):
        # the model is handed the lent rows and no others: a gradient with
        # no lent rows is not built, each lent one has every entry written
        # with the bits of the both-lent call on the same stream, and z and
        # log f do not depend on which rows are lent; the latents are drawn
        # and weighed in one call, or drawn and then weighed at fixed z
        x, _, theta, phi = TestRequestedGradients.inputs(model, rows, 23)
        n = 48

        def weigh(grad_theta_out, grad_phi_out):
            if method == "draw_weighed":
                return model.draw_weighed(
                    x, theta, phi, substream(23, 1), np.empty((n, model.z_dim)),
                    grad_theta_out, grad_phi_out,
                )
            z = model.sample_q(x, phi, substream(23, 1), n)
            return z, model.log_weight_batch(x, z, theta, phi, grad_theta_out, grad_phi_out)

        dims = {"theta": model.theta_dim, "phi": model.phi_dim}
        both = [np.empty((n, k)) for k in dims.values()]
        want_z, want_log_f = weigh(*both)
        handed = []
        cls = type(model)
        log_joint, q_grad_phi = cls.log_joint, cls.q_grad_phi

        def recording_joint(self, x, z, theta, grad_theta):
            handed.append(("theta", grad_theta))
            return log_joint(self, x, z, theta, grad_theta)

        def recording_grad_phi(self, x, dloc, dlog_scale, out):
            handed.append(("phi", out))
            return q_grad_phi(self, x, dloc, dlog_scale, out)

        monkeypatch.setattr(cls, "log_joint", recording_joint)
        monkeypatch.setattr(cls, "q_grad_phi", recording_grad_phi)
        lent = {name: np.full((n, k), np.nan) if name in lend else None
                for name, k in dims.items()}
        z, log_f = weigh(lent["theta"], lent["phi"])
        assert z.tobytes() == want_z.tobytes() and log_f.tobytes() == want_log_f.tobytes()
        assert [name for name, _ in handed] == ["theta", "phi"][: 1 + ("phi" in lend)]
        assert all(out is lent[name] for name, out in handed)
        for name, full in zip(dims, both):
            if lent[name] is not None:
                assert lent[name].tobytes() == full.tobytes(), name

    @pytest.mark.parametrize("cls", [GaussianConjugateModel, BernoulliGaussianModel],
                             ids=["gaussian", "bernoulli"])
    def test_each_chunk_checks_x_and_evaluates_q_once(self, monkeypatch, cls):
        model = cls()
        theta = np.full(model.theta_dim, 0.3)
        phi = np.full(model.phi_dim, 0.2)
        data = model.generate_data(theta, 20, substream(20, 0))
        checks, evaluations = [], []
        check_x, q_loc_log_scale = models_module._check_x, model.q_loc_log_scale

        def counted_check(*args):
            checks.append(args)
            return check_x(*args)

        def counted_q(*args):
            evaluations.append(args)
            return q_loc_log_scale(*args)

        monkeypatch.setattr(models_module, "_check_x", counted_check)
        model.q_loc_log_scale = counted_q
        cfg = EstimatorConfig(n0=8)
        for grads in [(), ALL_GRADS]:
            monkeypatch.setattr(estimator_module, "CHUNK_BYTES", 64 * row_bytes(model, grads))
            del checks[:], evaluations[:]
            chunks = sum(1 for _ in draw_chunks(
                model, data.x[:12], np.arange(12) % 4, theta, phi, cfg, substream(20, 1), grads
            ))
            assert chunks > 1
            assert len(checks) == len(evaluations) == chunks, grads
        # the moments' one draw, then each finite-difference point's base draw
        # and its two re-weighings at fixed z per parameter component
        del checks[:], evaluations[:]
        estimate_moments(model, data.x[0], theta, phi, 2.0, 3.0, 10_000, substream(20, 2))
        assert len(checks) == len(evaluations) == 1
        del checks[:], evaluations[:]
        finite_difference_check(model, data, 3, 1e-5, substream(20, 3))
        per_point = 1 + 2 * (model.theta_dim + model.phi_dim)
        assert len(checks) == len(evaluations) == 3 * per_point

    def test_eps_must_hold_one_normal_per_latent(self):
        with pytest.raises(ContractViolation, match="eps"):
            SumOfTwoModel().draw_weighed(
                np.array([0.7]), np.zeros(1), np.zeros(4), substream(21, 0), np.empty((3, 1))
            )


class TestCounts:
    """A model's counts (dim, dataset size, quadrature nodes) are integers,
    Python or numpy, and not bools, by the rule the configs use."""

    @pytest.mark.parametrize("dim", [1.5, True, "2"])
    def test_dim_must_be_an_integer(self, dim):
        # 1.5 once built a model with theta_dim 4.5, and True one of dim 1
        with pytest.raises(ContractViolation, match=f"^dim must be an integer, got {dim!r}$"):
            GaussianConjugateModel(dim)

    @pytest.mark.parametrize("model", [GAUSSIAN, BERNOULLI], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("n", [2.5, True])
    def test_dataset_size_must_be_an_integer(self, model, n):
        # numpy once raised a bare TypeError
        with pytest.raises(ContractViolation, match=f"^dataset size must be an integer, got {n!r}$"):
            model.generate_data(np.zeros(model.theta_dim), n, substream(9, 2))

    def test_numpy_counts_are_accepted_as_python_ints(self):
        model = GaussianConjugateModel(np.int64(2))
        assert type(model.dim) is int and model.theta_dim == 6
        assert GAUSSIAN.generate_data(np.zeros(3), np.int32(5), substream(9, 3)).n_total == 5


class TestSizeRule:
    """`models._check_bytes` is the one rule for an array sized from a
    caller's count: past 2^63 - 1 bytes numpy refuses it with a bare
    ValueError."""

    @pytest.mark.parametrize("row", [1, 8, 24, 104])
    def test_the_largest_count_that_fits_passes_and_one_more_is_refused(self, row):
        fits = (2**63 - 1) // row
        models_module._check_bytes(fits, row, "member")
        message = (
            f"{fits + 1} members may need more than 2^63 - 1 bytes at {row} bytes per member"
        )
        with pytest.raises(ResourceGuardExceeded, match=f"^{re.escape(message)}$"):
            models_module._check_bytes(fits + 1, row, "member")

    def test_the_counted_text_is_built_only_to_refuse(self):
        def counted():
            raise AssertionError("text built for a count that fits")

        models_module._check_bytes(2**59, 8, "draw", counted)
        with pytest.raises(ResourceGuardExceeded, match=r"^two members may need more than"):
            models_module._check_bytes(2**60, 16, "draw", lambda: "two members")

    @pytest.mark.parametrize(
        "model, row", [(GAUSSIAN, 8), (GaussianConjugateModel(3), 24), (BERNOULLI, 8)],
        ids=["gaussian1", "gaussian3", "bernoulli"],
    )
    def test_an_oversized_dataset_is_refused_before_any_draw(self, model, row):
        # numpy once refused the observations with a bare "array is too big"
        rng = substream(9, 4)
        state = rng.bit_generator.state
        message = (
            f"{2**62} observations may need more than 2^63 - 1 bytes"
            f" at {row} bytes per observation"
        )
        with pytest.raises(ResourceGuardExceeded, match=f"^{re.escape(message)}$"):
            model.generate_data(np.zeros(model.theta_dim), 2**62, rng)
        np.testing.assert_equal(rng.bit_generator.state, state)


class TestSaveDatasetInput:
    """`save_dataset` checks its seed by the seed rule and its true theta as
    a finite 1-d real vector, before either file is written: the sidecar
    is JSON."""

    @pytest.mark.parametrize("seed", [None, 1.5, -1, "2", True, 2**70, 2**64, np.float64(3.0)],
                             ids=repr)
    def test_a_seed_outside_the_rule_is_refused(self, tmp_path, seed):
        # None once ended in a bare TypeError; 1.5 was written as 1, and
        # -1, "2", True and 2^70 as given
        with pytest.raises(ContractViolation, match="^seed must "):
            save_dataset(tmp_path / "d.txt", DATA, seed, np.zeros(3))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("true_theta", [
        [1j, 0.0], ["a", "b"], [[0.0, 1.0]], 0.5, None, [0.0, math.nan], [math.inf],
    ], ids=repr)
    def test_a_true_theta_that_is_not_a_finite_vector_is_refused(self, tmp_path, true_theta):
        # each ended in a bare TypeError or ValueError after the data file
        # was written, or NaN and inf were written as JSON's non-standard
        # NaN and Infinity
        with pytest.raises(ContractViolation, match="^true_theta "):
            save_dataset(tmp_path / "d.txt", DATA, 0, true_theta)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_seeds_and_integer_vectors_are_written_as_python_numbers(self, tmp_path):
        save_dataset(tmp_path / "d.txt", DATA, np.uint64(2**64 - 1), np.arange(3))
        _, header = load_dataset(tmp_path / "d.txt")
        assert header["seed"] == 2**64 - 1 and header["true_theta"] == [0.0, 1.0, 2.0]


class TestRealInput:
    """Complex and non-numeric input is refused where it is converted to
    float64 (`Dataset`, `_check_vector`, `_check_x`), not cast: numpy once
    dropped imaginary parts with only a warning and refused text with a
    bare ValueError. Bool and integer input converts."""

    def test_a_complex_dataset_is_refused(self):
        message = "^dataset must hold real numbers, got complex128 entries$"
        with pytest.raises(ContractViolation, match=message):
            Dataset(np.array([[1 + 2j], [3 + 0j]]))

    @pytest.mark.parametrize("name", ["theta", "phi"])
    def test_a_complex_parameter_vector_is_refused(self, name):
        vectors = {"theta": np.zeros(3), "phi": np.zeros(3)}
        vectors[name] = np.array([1j, 0.0, 0.0])
        with pytest.raises(ContractViolation, match=f"^{name} must hold real numbers"):
            GAUSSIAN.oracle_posterior_kl(np.zeros(1), vectors["theta"], vectors["phi"])

    @pytest.mark.parametrize("x", [np.full((2, 1), 1 + 1j), np.array([1 + 1j])],
                             ids=["rows", "one-observation"])
    def test_complex_observations_are_refused(self, x):
        with pytest.raises(ContractViolation, match="^x must hold real numbers"):
            GAUSSIAN.draw_weighed(x, np.zeros(3), np.zeros(3), substream(9, 5), np.empty((2, 1)))

    @pytest.mark.parametrize("theta", [["a", "b", "c"], [[0.0, 1.0], [2.0]], [0.0, {}, 1.0]],
                             ids=["text", "ragged", "object"])
    def test_a_non_numeric_vector_is_refused(self, theta):
        with pytest.raises(ContractViolation, match="^theta "):
            GAUSSIAN.oracle_log_evidence(np.zeros(1), theta)

    @pytest.mark.parametrize("name, call", [
        ("theta", lambda c: train(GAUSSIAN, DATA, c, np.zeros(3), TrainConfig(steps=1),
                                  substream(9, 6))),
        ("phi", lambda c: train(GAUSSIAN, DATA, np.zeros(3), c, TrainConfig(steps=1),
                                substream(9, 6))),
        ("z", lambda c: GAUSSIAN.log_weight_batch(np.zeros(1), c[:1, None], np.zeros(3),
                                                  np.zeros(3))),
        ("x", lambda c: level_estimate(GAUSSIAN, c[:1], np.zeros(3), np.zeros(3), 0,
                                       EstimatorConfig(), substream(9, 6))),
    ])
    def test_complex_input_is_refused_at_every_other_conversion(self, name, call):
        with pytest.raises(ContractViolation, match=f"^{name} must hold real numbers"):
            call(np.array([1j, 0.0, 0.0]))

    def test_bool_and_integer_input_converts(self):
        data = Dataset(np.array([[True], [False]]))
        assert data.x.dtype == np.float64 and data.x.tolist() == [[1.0], [0.0]]
        assert Dataset([[2**70], [1]]).x.tolist() == [[2.0**70], [1.0]]
        expected = GAUSSIAN.oracle_log_evidence(np.array([1.0]), np.zeros(3))
        assert GAUSSIAN.oracle_log_evidence(np.array([1], dtype=np.int32), [0, 0, 0]) == expected


class TestVectorShape:
    """A parameter vector is 0-d, 1-d or one column: a matrix is refused
    even where its entries would fill the vector."""

    @pytest.mark.parametrize("call", [
        lambda phi, rng: estimate_gradients(
            BERNOULLI, Dataset([[0.0], [1.0], [1.0]]), np.zeros(2), phi,
            EstimatorConfig(n0=4, batch_size=4), rng,
        ),
        lambda phi, rng: train(BERNOULLI, Dataset([[0.0], [1.0]]), np.zeros(2), phi,
                               TrainConfig(steps=1), rng),
        lambda phi, rng: BERNOULLI.draw_weighed([1.0], np.zeros(2), phi, rng, np.empty((4, 1))),
    ], ids=["estimate_gradients", "train", "draw_weighed"])
    def test_a_square_phi_is_refused_before_drawing(self, call):
        # four entries, as many as the Bernoulli model's phi has
        rng = substream(9, 8)
        refused_unmoved(rng, lambda: call([[1, 0], [0, 1]], rng),
                        r"^phi must be a vector of length 4, got shape \(2, 2\)$")

    def test_a_three_by_two_theta_is_refused(self):
        model = GaussianConjugateModel(2)
        rng = substream(9, 9)
        refused_unmoved(rng, lambda: model.draw_weighed(
            np.zeros(2), np.zeros((3, 2)), np.zeros(6), rng, np.empty((4, 2)),
        ), r"^theta must be a vector of length 6, got shape \(3, 2\)$")


class TestLoneBool:
    """A bool alone is not a real number, in `_real_array` as in `_real`;
    an array of bools still converts (`TestRealInput`)."""

    @pytest.mark.parametrize("value", [True, np.bool_(False), np.array(True)], ids=repr)
    @pytest.mark.parametrize("name, call", [
        ("u", lambda v: estimator_module.sample_levels(EstimatorConfig(), v)),
        ("value", lambda v: StreamingMoments().push(v)),
        ("theta", lambda v: GAUSSIAN.oracle_log_evidence(np.zeros(1), v)),
        ("theta", lambda v: BERNOULLI.oracle_log_evidence(np.ones(1), v)),
        ("x", lambda v: BERNOULLI.sample_q(v, np.zeros(4), substream(9, 7), 2)),
    ], ids=["sample_levels", "push", "gaussian-theta", "bernoulli-theta", "bernoulli-x"])
    def test_a_lone_bool_is_refused(self, name, call, value):
        # `sample_levels(cfg, True)` once returned level 0, `push(True)`
        # pushed 1.0 and a theta of True was refused only for its length
        with pytest.raises(ContractViolation, match=f"^{name} must be a real number, got "):
            call(value)


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            Dataset.from_rows([[0.0], [math.nan]])

    @pytest.mark.parametrize("x", [np.zeros((2, 2, 2)), np.array([]), np.zeros((3, 0))])
    def test_rejects_shapes_no_model_draws(self, x):
        # a 3-d array once failed only in the estimate, and an empty one
        # became one observation with no columns
        with pytest.raises(ContractViolation, match=r"^dataset must be \(n, d\) with d >= 1"):
            Dataset(x)

    def test_load_refuses_an_observation_with_no_columns(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        (tmp_path / "empty.txt.json").write_text('{"dim": 0, "n_total": 1}')
        with pytest.raises(ContractViolation, match=r"^dataset must be \(n, d\) with d >= 1"):
            load_dataset(path)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_round_trip_of_an_empty_dataset(self, tmp_path, dim):
        # a file with no rows once loaded as shape (0,) and was refused
        path = tmp_path / "empty.txt"
        save_dataset(path, Dataset(np.zeros((0, dim))), seed=4, true_theta=np.zeros(3))
        loaded, header = load_dataset(path)
        assert loaded.x.shape == (0, dim) and loaded.n_total == 0
        assert (header["dim"], header["n_total"]) == (dim, 0)

    def test_generate_shapes(self):
        data = GAUSSIAN.generate_data(np.zeros(3), 25, substream(9, 0))
        assert data.x.shape == (25, 1)
        assert data.n_total == 25
        data_b = BERNOULLI.generate_data(np.array([1.0, 0.0]), 25, substream(9, 1))
        assert set(np.unique(data_b.x)) <= {0.0, 1.0}

    @pytest.mark.parametrize("x", [
        np.array([[0.25]]),
        np.arange(64.0).reshape(1, 64) / 7.0,
        np.array([[1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
                   2.2250738585072014e-308]]),
        np.array([[-0.0], [0.0], [-0.0]]),
        np.zeros((0, 3)),
    ], ids=["one-row", "64-columns", "extremes", "signed-zeros", "empty"])
    def test_round_trip_keeps_every_bit_at_edge_values(self, tmp_path, x):
        # the largest and smallest normal and subnormal magnitudes and -0.0's
        # sign bit survive the 17-digit text
        path = tmp_path / "edge.txt"
        save_dataset(path, Dataset(x), seed=0, true_theta=[0.0])
        loaded, _ = load_dataset(path)
        assert loaded.x.shape == x.shape and loaded.x.dtype == np.float64
        assert loaded.x.tobytes() == x.tobytes()

    def test_round_trip_is_byte_identical(self, tmp_path):
        theta = np.array([1.0, 0.0, math.log(0.5)])
        data = GAUSSIAN.generate_data(theta, 40, substream(3, 0))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_dataset(p1, data, seed=3, true_theta=theta)
        loaded, header = load_dataset(p1)
        assert header["n_total"] == 40 and header["seed"] == 3
        np.testing.assert_array_equal(loaded.x, data.x)
        save_dataset(p2, loaded, seed=3, true_theta=header["true_theta"])
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.txt.json").read_bytes() == (tmp_path / "b.txt.json").read_bytes()
