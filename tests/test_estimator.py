"""Estimator core contracts: exact level-law arithmetic, the
antithetic cancellation at the zero-variance fixed point, the telescoping
identity against an independent vectorized oracle, and determinism."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import lent_grads, log_mean_exp, recorded_draws, refused_unmoved
from mlmc_evidence import diagnostics as diagnostics_module
from mlmc_evidence import estimator as estimator_module
from mlmc_evidence import models as models_module
from mlmc_evidence import rng as rng_module
from mlmc_evidence.diagnostics import naive_difference, naive_grad_theta, variance_profile
from mlmc_evidence.errors import ContractViolation, ResourceGuardExceeded
from mlmc_evidence.estimator import (
    ALL_GRADS,
    EstimatorConfig,
    antithetic_difference,
    draw_batch_indices,
    draw_chunks,
    draw_level_samples,
    estimate_log_evidence,
    level_estimate,
    row_bytes,
    run_batch,
    sample_levels,
    segment_exp,
)
from mlmc_evidence.gradients import estimate_gradients, grad_phi_elbo_level, grad_theta_level
from mlmc_evidence.models import BernoulliGaussianModel, GaussianConjugateModel
from mlmc_evidence.rng import substream

MODEL = GaussianConjugateModel(1)
THETA = np.zeros(3)
PHI_POSTERIOR = MODEL.posterior_phi(THETA)
PHI_WIDE = np.array([0.0, 0.0, 0.5 * math.log(2.0)])  # q = N(0, 2)
DATA = MODEL.generate_data(THETA, 20, substream(101, 0))


def sample_level(ratio: float, u: float) -> int:
    """Reference level of one uniform: floor(ln u / ln r), the textbook
    inverse CDF of the geometric law, in scalar math."""
    return math.floor(math.log(u) / math.log(ratio))


class TestLevelLaw:
    def test_default_masses(self):
        dist = EstimatorConfig()
        assert dist.mass(0) == pytest.approx(0.6464466094067263, abs=1e-12)
        assert dist.mass(1) == pytest.approx(0.2285533905932738, abs=1e-12)

    def test_masses_sum_to_one(self):
        dist = EstimatorConfig()
        total = sum(dist.mass(l) for l in range(61))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_expected_cost_factor(self):
        assert EstimatorConfig().expected_cost_factor == pytest.approx(
            2.2071067811865475, abs=1e-12
        )

    def test_ratio_must_allow_finite_cost(self):
        # ratios 0, 1/2, 0.7, nan, inf and 2^1100, past the largest float
        for bad in (-math.inf, -1.0, math.log2(0.7), math.nan, math.inf, 1100.0):
            with pytest.raises(ContractViolation, match="level ratio"):
                EstimatorConfig(level_ratio_log2=bad)

    def test_mass_rejects_negative_level(self):
        with pytest.raises(ContractViolation):
            EstimatorConfig().mass(-1)
        with pytest.raises(ContractViolation):
            EstimatorConfig().mass(np.array([0, 3, -1]))

    @pytest.mark.parametrize("ratio", [2**-1.5, 0.1, 0.3, 0.49])
    def test_mass_table_is_the_mass_expression_bit_for_bit(self, ratio):
        # the folds index the table where they evaluated (1 - r) * r**levels
        # on the batch's level array, so each level, alone or in a batch,
        # reads the same bits from both
        cfg = EstimatorConfig(level_ratio_log2=math.log2(ratio), level_cap=40)
        r = cfg.ratio
        table = cfg.mass_table
        levels = np.arange(cfg.level_cap + 1)
        assert table.shape == levels.shape and not table.flags.writeable
        assert table.tobytes() == ((1.0 - r) * r**levels).tobytes()
        for level in levels:
            one = levels[level : level + 1]
            assert table[one].tobytes() == ((1.0 - r) * r**one).tobytes(), level
        batch = substream(130, 0).integers(0, cfg.level_cap + 1, 64)
        assert table[batch].tobytes() == cfg.mass(batch).tobytes()
        assert cfg.mass_table is table  # built once per law


class TestSampleLevel:
    @pytest.mark.parametrize("u,expected", [(0.5, 0), (0.3, 1), (0.1, 2), (1.0, 0)])
    def test_inverse_cdf_values(self, u, expected):
        assert sample_levels(EstimatorConfig(), [u])[0] == expected

    @pytest.mark.parametrize("u", [0.0, float(np.nextafter(1.0, 2.0)), -0.2, 1.5, math.nan])
    def test_rejects_bad_uniforms(self, u):
        with pytest.raises(ContractViolation):
            sample_levels(EstimatorConfig(), [0.5, u])

    def test_level_cap_guard(self):
        dist = EstimatorConfig(level_cap=10)
        deep = dist.ratio**12  # survival at level 12
        with pytest.raises(ResourceGuardExceeded):
            sample_levels(dist, [deep * 0.9])

    def test_survival_matches_masses(self):
        # empirical frequencies against (1-r) r^l within 3 standard errors
        dist = EstimatorConfig()
        rng = substream(102, 0)
        n = 200_000
        levels = sample_levels(dist, rng.random(n))
        for l in range(7):
            p = dist.mass(l)
            freq = (levels == l).mean()
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3 * se, f"level {l}"

    def test_empirical_cost_factor(self):
        # 2^level has finite mean but infinite variance under the geometric
        # law (4r > 1), so sample means wander; the seed fixes a run whose
        # 200k-draw mean sits inside the 1% window
        dist = EstimatorConfig()
        rng = substream(120, 0)
        n = 200_000
        cost = 2.0 ** sample_levels(dist, rng.random(n))
        assert cost.mean() == pytest.approx(dist.expected_cost_factor, rel=0.01)


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            EstimatorConfig(n0=0)
        with pytest.raises(ContractViolation):
            EstimatorConfig(batch_size=0)
        with pytest.raises(ContractViolation):
            EstimatorConfig(level_cap=0)
        with pytest.raises(ContractViolation):
            EstimatorConfig(level_ratio_log2=-0.5)  # ratio 2^-0.5 > 1/2
        # a count that is no integer fails here, not at the first estimate
        for field, value in [("n0", 8.0), ("batch_size", 4.0), ("level_cap", 10.5),
                             ("n0", True), ("batch_size", "4")]:
            with pytest.raises(ContractViolation, match=f"{field} must be an integer"):
                EstimatorConfig(**{field: value})
        cfg = EstimatorConfig(n0=np.uint64(8), batch_size=np.int32(4), level_cap=np.int64(30))
        assert cfg == EstimatorConfig(n0=8, batch_size=4, level_cap=30)
        assert {type(v) for v in (cfg.n0, cfg.batch_size, cfg.level_cap)} == {int}

    def test_level_ratio_must_be_a_real_number(self):
        for value in ["-1.5", True, None, np.array([-1.5])]:
            with pytest.raises(ContractViolation, match="^level_ratio_log2 must be a real number"):
                EstimatorConfig(level_ratio_log2=value)
        for value in [np.float32(-1.5), np.int64(-2), -2]:
            cfg = EstimatorConfig(level_ratio_log2=value)
            assert type(cfg.level_ratio_log2) is float
            assert cfg == EstimatorConfig(level_ratio_log2=float(value))
        # an integer past float's range meets the ratio's own check
        for value in [10**400, -(10**400)]:
            with pytest.raises(ContractViolation, match="^level ratio must lie in"):
                EstimatorConfig(level_ratio_log2=value)

    def test_distribution_ratio(self):
        assert EstimatorConfig().ratio == pytest.approx(2.0**-1.5)

    @pytest.mark.parametrize("n0, level_cap", [(8, 59), (1, 62), (3, 61)])
    def test_deepest_draw_count_fits_int64(self, n0, level_cap):
        assert (n0 << level_cap) <= np.iinfo(np.int64).max
        EstimatorConfig(n0=n0, level_cap=level_cap)

    @pytest.mark.parametrize("n0, level_cap", [(8, 60), (8, 61), (1, 63), (1, 64), (3, 62)])
    def test_deepest_draw_count_beyond_int64_rejected(self, n0, level_cap):
        assert (n0 << level_cap) > np.iinfo(np.int64).max
        with pytest.raises(ContractViolation, match="int64"):
            EstimatorConfig(n0=n0, level_cap=level_cap)

    def test_distribution_is_built_once_and_is_no_field(self):
        cfg = EstimatorConfig(n0=4, batch_size=3)
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n0", "batch_size", "level_ratio_log2", "level_cap"]
        assert repr(cfg) == (
            "EstimatorConfig(n0=4, batch_size=3, level_ratio_log2=-1.5, level_cap=40)")
        twin = EstimatorConfig(n0=4, batch_size=3)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert cfg != EstimatorConfig(n0=4, batch_size=3, level_ratio_log2=-2.0)
        moved = dataclasses.replace(cfg, level_ratio_log2=-2.0)
        assert moved == EstimatorConfig(n0=4, batch_size=3, level_ratio_log2=-2.0)
        assert moved.ratio == 0.25
        assert cfg.ratio == 2.0**-1.5


class TestLevelEstimate:
    def test_cost_accounting(self):
        cfg = EstimatorConfig(n0=8)
        for level in (0, 1, 4):
            est = level_estimate(
                MODEL, DATA.x[0], THETA, PHI_WIDE, level, cfg, substream(104, level)
            )
            assert est.cost == 8 * 2**level
            assert est.level == level

    def test_zero_variance_fixed_point_higher_levels(self):
        # q equal to the exact posterior: all sub-averages coincide
        cfg = EstimatorConfig(n0=4)
        for level in (1, 2, 5):
            est = level_estimate(
                MODEL, DATA.x[3], THETA, PHI_POSTERIOR, level, cfg, substream(105, level)
            )
            assert abs(est.z_value) < 1e-12
            assert np.max(np.abs(est.grad_theta)) < 1e-12

    def test_level_zero_equals_oracle_at_posterior(self):
        cfg = EstimatorConfig(n0=4)
        est = level_estimate(
            MODEL, DATA.x[3], THETA, PHI_POSTERIOR, 0, cfg, substream(106, 0)
        )
        oracle = MODEL.oracle_log_evidence(DATA.x[3], THETA)
        assert est.z_value == pytest.approx(oracle, abs=1e-12)

    def test_antithetic_halves_recombine(self):
        # the level value plus the averaged half log-means reproduces the
        # full log-mean within 1e-12 relative on every draw set
        cfg = EstimatorConfig(n0=8)
        rng = substream(107, 0)
        for rep in range(300):
            level = 1 + rep % 5
            with recorded_draws(MODEL) as calls:
                draws = draw_level_samples(
                    MODEL, DATA.x[rep % DATA.n_total], THETA, PHI_WIDE, level, cfg, rng
                )
            ((_, log_f, *_),) = calls
            half = log_f.size // 2
            p_a = log_mean_exp(log_f[:half])
            p_b = log_mean_exp(log_f[half:])
            p_full = log_mean_exp(log_f)
            recombined = antithetic_difference(draws)[0] + (p_a + p_b) / 2
            assert recombined == pytest.approx(p_full, rel=1e-12, abs=1e-12)

    def test_level_cap_enforced(self):
        cfg = EstimatorConfig(n0=2, level_cap=5)
        with pytest.raises(ResourceGuardExceeded):
            level_estimate(MODEL, DATA.x[0], THETA, PHI_WIDE, 6, cfg, substream(108, 0))

    @pytest.mark.parametrize(
        "levels", [[59, 59], [56], [55]], ids=["offsets-wrap", "bytes-overflow", "workspace-bytes"]
    )
    def test_draws_beyond_addressable_bytes_rejected(self, levels):
        # a member's 2^62 draws fit in int64 but two members' do not; a
        # member's 2^59 draws do, but not their 24-byte gradient rows; a
        # member's 2^58 draws' gradient rows do, but not all their 104-byte
        # rows
        cfg = EstimatorConfig(n0=8, level_cap=59)
        x_rows = DATA.x[: len(levels)]
        with pytest.raises(ResourceGuardExceeded, match=f"{len(levels)} members up to level"):
            next(draw_chunks(MODEL, x_rows, levels, THETA, PHI_WIDE, cfg, substream(108, 1)))

    @pytest.mark.parametrize("grads", [("psi",), "theta"], ids=["unknown", "string"])
    def test_unknown_gradient_rejected(self, grads):
        # the names are checked where they enter the draw path, before any
        # draw; a bare string is a set of letters, not one name
        class NoDrawModel(GaussianConjugateModel):
            def draw_weighed(self, *args):
                raise AssertionError("drew before checking the gradient names")

        cfg = EstimatorConfig(n0=8, batch_size=4)
        with pytest.raises(ContractViolation, match="unknown gradients"):
            next(draw_chunks(
                NoDrawModel(1), DATA.x[:2], [0, 1], THETA, PHI_WIDE, cfg, substream(110, 0),
                grads,
            ))
        with pytest.raises(ContractViolation, match="unknown gradients"):
            run_batch(
                NoDrawModel(1), DATA, THETA, PHI_WIDE, cfg, substream(110, 1),
                reducers=[antithetic_difference], grads=grads,
            )

    def test_nonfinite_weight_identified(self):
        class BrokenModel(GaussianConjugateModel):
            def log_joint(self, x, z, theta, grad_theta):
                log_p = super().log_joint(x, z, theta, grad_theta)
                log_p[0] = -math.inf
                return log_p

        cfg = EstimatorConfig(n0=4)
        with pytest.raises(ContractViolation, match="non-finite log weight"):
            level_estimate(
                BrokenModel(1), DATA.x[0], THETA, PHI_WIDE, 0, cfg, substream(109, 0)
            )


def telescoping_oracle(x, theta, phi, levels, reps, seed):
    """Independent vectorized route for the telescoping identity: draw all
    replications at once, reduce rows with raw numpy, and return the mean
    and standard error of sum_l Z_l."""
    mu0, log_s0, log_sx = theta[0], theta[1], theta[2]
    a, b, log_s = phi[0], phi[1], phi[2]
    mq, sq = a * x + b, math.exp(log_s)
    total = np.zeros(reps)
    total_var = 0.0
    for level in levels:
        n = 8 * 2**level
        z_mean = np.empty(reps)
        z_a = np.empty(reps)
        z_b = np.empty(reps)
        rng = substream(seed, level)
        chunk = max(1, min(reps, 50_000_000 // n))
        for lo in range(0, reps, chunk):
            hi = min(reps, lo + chunk)
            z = mq + sq * rng.standard_normal((hi - lo, n))
            log_f = (
                -0.5 * ((x - z) ** 2) * math.exp(-2 * log_sx)
                - 0.5 * ((z - mu0) ** 2) * math.exp(-2 * log_s0)
                + 0.5 * ((z - mq) / sq) ** 2
                - log_sx
                - log_s0
                + log_s
                - 0.5 * math.log(2 * math.pi)
            )

            def row_lme(m):
                peak = m.max(axis=1, keepdims=True)
                return (peak + np.log(np.exp(m - peak).mean(axis=1, keepdims=True)))[:, 0]

            z_mean[lo:hi] = row_lme(log_f)
            z_a[lo:hi] = row_lme(log_f[:, : n // 2])
            z_b[lo:hi] = row_lme(log_f[:, n // 2 :])
        if level == 0:
            contrib = z_mean
        else:
            contrib = z_mean - 0.5 * (z_a + z_b)
        total += contrib
        total_var += contrib.var(ddof=1)
    return total.mean(), math.sqrt(total_var / reps)


class TestTelescoping:
    def test_partial_sums_approach_oracle(self):
        # E[sum_{l<=8} Z_l] equals log p(x) up to the level-8 tail bias,
        # which is far below the Monte Carlo resolution here
        x = 0.9
        mean, se = telescoping_oracle(
            x, THETA, np.zeros(3), levels=range(9), reps=100_000, seed=110
        )
        oracle = MODEL.oracle_log_evidence(np.array([x]), THETA)
        assert abs(mean - oracle) < 4 * se

    def test_independent_route_matches_level_estimate(self):
        # the vectorized test route and the production path must agree on
        # identical draws
        cfg = EstimatorConfig(n0=8)
        x = np.array([0.9])
        for level in (0, 2, 3):
            rng = substream(111, level)
            with recorded_draws(MODEL) as calls:
                draw_level_samples(MODEL, x, THETA, PHI_WIDE, level, cfg, rng)
            ((_, log_f, *_),) = calls
            p_full = log_mean_exp(log_f)
            if level == 0:
                expected = p_full
            else:
                half = log_f.size // 2
                expected = p_full - 0.5 * (
                    log_mean_exp(log_f[:half]) + log_mean_exp(log_f[half:])
                )
            est = level_estimate(MODEL, x, THETA, PHI_WIDE, level, cfg, substream(111, level))
            assert est.z_value == pytest.approx(expected, abs=1e-14)


class TestEstimateLogEvidence:
    def test_posterior_q_only_level_zero_contributes(self):
        cfg = EstimatorConfig(n0=8, batch_size=8)
        truth = sum(MODEL.oracle_log_evidence(x, THETA) for x in DATA.x)
        values = np.array(
            [
                estimate_log_evidence(
                    MODEL, DATA, THETA, PHI_POSTERIOR, cfg, substream(112, r)
                ).value
                for r in range(3000)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - truth) < 4 * se

    def test_mismatched_q_unbiased(self):
        # replication oracle with q = N(0, 4)
        phi = np.array([0.0, 0.0, math.log(2.0)])
        cfg = EstimatorConfig(n0=8, batch_size=4)
        truth = sum(MODEL.oracle_log_evidence(x, THETA) for x in DATA.x)
        values = np.array(
            [
                estimate_log_evidence(MODEL, DATA, THETA, phi, cfg, substream(113, r)).value
                for r in range(6000)
            ]
        )
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - truth) < 4 * se

    def test_batch_of_one_collapses(self):
        cfg = EstimatorConfig(n0=64, batch_size=1)
        est = estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(114, 0))
        assert est.std_error == 0.0
        assert sum(est.per_level_counts.values()) == 1
        # with one term the value is N * z / mass(level)
        (level, _count), = est.per_level_counts.items()
        assert est.total_cost == 64 * 2**level

    def test_deterministic(self):
        cfg = EstimatorConfig(n0=8, batch_size=16)
        a, b = (
            estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(115, 0))
            for _ in range(2)
        )
        assert a.value == b.value
        assert a.std_error == b.std_error
        assert a.total_cost == b.total_cost
        assert a.per_level_counts == b.per_level_counts

    def test_only_one_worker_accepted(self):
        cfg = EstimatorConfig(n0=8, batch_size=4)
        with pytest.raises(ContractViolation):
            estimate_log_evidence(
                MODEL, DATA, THETA, PHI_WIDE, cfg, substream(118, 0), workers=2
            )

    def test_workers_is_a_count(self):
        # workers is a count by the rule of every other count: a bool or a
        # float is refused, a numpy integer is not
        cfg = EstimatorConfig(n0=8, batch_size=4)
        for workers in (True, 1.0, np.float64(1)):
            rng = substream(118, 1)
            refused_unmoved(rng, lambda: estimate_log_evidence(
                MODEL, DATA, THETA, PHI_WIDE, cfg, rng, workers=workers,
            ), f"^workers must be an integer, got {re.escape(repr(workers))}$")
        one = estimate_log_evidence(
            MODEL, DATA, THETA, PHI_WIDE, cfg, substream(118, 1), workers=np.int64(1)
        )
        assert one == estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(118, 1))

    def test_members_draw_in_order_from_the_callers_generator(self, monkeypatch):
        # no member gets a child stream: the batch draws its (index, level)
        # pairs, then each member's latents in batch order, from one
        # generator, and each reducer's row for a member is that reducer
        # applied to the member's own draws, across several chunks
        def forbidden(rng, n):
            raise AssertionError("batch spawned child generators")

        monkeypatch.setattr(rng_module, "spawn", forbidden)
        cfg = EstimatorConfig(n0=8, batch_size=16)
        chunk_draws(monkeypatch, 64, MODEL, ())
        est = estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(119, 0))
        chunk_draws(monkeypatch, 64, MODEL, ALL_GRADS)
        grads = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(119, 0))
        assert est.per_level_counts == grads.per_level_counts

        rng = substream(119, 0)
        indices, levels = draw_batch_indices(DATA, cfg, rng)
        with recorded_draws(MODEL) as calls:
            expected = [
                draw_level_samples(MODEL, DATA.x[i], THETA, PHI_WIDE, level, cfg, rng)
                for i, level in zip(indices, levels)
            ]
        assert len(calls) == len(expected)
        assert est.total_cost == sum(call.log_f.size for call in calls) > 64
        reducers = [antithetic_difference, grad_theta_level, grad_phi_elbo_level]
        masses, rows, _, _ = run_batch(
            MODEL, DATA, THETA, PHI_WIDE, cfg, substream(119, 0), reducers=reducers
        )
        np.testing.assert_array_equal(masses, cfg.mass(levels))
        for reduce, got in zip(reducers, rows):
            assert len(got) == cfg.batch_size
            for row, want in zip(got, expected):
                np.testing.assert_array_equal(row, reduce(want)[0])

    def test_computes_no_gradients(self, monkeypatch):
        # the evidence path reduces each member's draws to its level value
        def forbidden(draws):
            raise AssertionError("evidence estimate computed a level gradient")

        monkeypatch.setattr(estimator_module, "grad_theta_level", forbidden)
        monkeypatch.setattr(estimator_module, "grad_phi_elbo_level", forbidden)
        cfg = EstimatorConfig(n0=8, batch_size=16)
        est = estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(117, 0))
        assert sum(est.per_level_counts.values()) == 16

    @pytest.mark.parametrize("m", [1, 2, 6, 64])
    def test_fold_is_numpy_mean_and_std(self, m):
        # the fold's mean and std(ddof=1) equal numpy's bit for bit, on
        # terms rebuilt from the same seed's per-member rows; at m = 6, not
        # a power of two, N * (sum / M) and (N / M) * sum round apart
        cfg = EstimatorConfig(n0=4, batch_size=m)
        for seed in range(20):
            est = estimate_log_evidence(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(127, seed))
            _, (values,), _, _ = run_batch(
                MODEL, DATA, THETA, PHI_WIDE, cfg, substream(127, seed),
                reducers=[antithetic_difference], grads=(),
            )
            _, levels = draw_batch_indices(DATA, cfg, substream(127, seed))
            terms = values / cfg.mass(levels)
            n = DATA.n_total
            assert est.value == n * np.mean(terms)
            if m == 1:
                assert est.std_error == 0.0
            else:
                assert est.std_error == n * np.std(terms, ddof=1) / math.sqrt(m)

    def test_empty_dataset_rejected(self):
        from mlmc_evidence.models import Dataset

        empty = Dataset(x=np.zeros((0, 1)))
        cfg = EstimatorConfig()
        with pytest.raises(ContractViolation):
            estimate_log_evidence(MODEL, empty, THETA, PHI_WIDE, cfg, substream(116, 0))


class FixedUniforms:
    """Stands in for a generator in draw_batch_indices: index 0 for every
    member, then the given uniforms as the level variates."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, size):
        assert size == self.u.size
        return self.u


class TestOversizedBatch:
    @pytest.mark.parametrize("estimate", [estimate_log_evidence, estimate_gradients])
    @pytest.mark.parametrize(
        "model, row", [(GaussianConjugateModel(3), 24), (BernoulliGaussianModel(), 8)],
        ids=["gaussian3", "bernoulli"],
    )
    def test_an_oversized_batch_is_refused_before_any_draw(self, estimate, model, row):
        # numpy once refused the index draw with a bare "array is too big"
        data = model.generate_data(np.zeros(model.theta_dim), 5, substream(115, 0))
        rng = substream(115, 1)
        state = rng.bit_generator.state
        message = (
            f"{2**62} members may need more than 2^63 - 1 bytes at {row} bytes per member"
        )
        with pytest.raises(ResourceGuardExceeded, match=f"^{re.escape(message)}$"):
            estimate(
                model, data, np.zeros(model.theta_dim), np.zeros(model.phi_dim),
                EstimatorConfig(batch_size=2**62), rng,
            )
        np.testing.assert_equal(rng.bit_generator.state, state)


class TestBatchLevels:
    def test_same_levels_as_sample_level(self):
        cfg = EstimatorConfig(batch_size=100_000)
        indices, levels = draw_batch_indices(DATA, cfg, substream(121, 0))
        rng = substream(121, 0)
        np.testing.assert_array_equal(indices, rng.integers(0, DATA.n_total, size=cfg.batch_size))
        ratio = cfg.ratio
        expected = [sample_level(ratio, float(u)) for u in rng.random(cfg.batch_size)]
        np.testing.assert_array_equal(levels, expected)

    def test_exact_powers_of_the_ratio(self):
        # level l holds exactly the uniforms r^(l+1) < u <= r^l, also at
        # the powers themselves and one ulp to either side of them; the
        # powers are numpy's, whose last bit may differ from scalar pow's
        for ratio_log2 in (-1.5, -2.0, -1.1):
            powers = (2.0**ratio_log2) ** np.arange(37)
            u = powers[1:36]
            u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
            cfg = EstimatorConfig(batch_size=u.size, level_ratio_log2=ratio_log2)
            _, levels = draw_batch_indices(DATA, cfg, FixedUniforms(u))
            for v, l in zip(u, levels):
                assert powers[l + 1] < v <= powers[l], (ratio_log2, v, l)

    def test_zero_uniform_is_level_zero(self):
        # rng.random() returns exactly 0.0 with probability 2^-53; it counts
        # as 1.0, so the level variates are uniform on (0, 1]
        cfg = EstimatorConfig(batch_size=2)
        _, levels = draw_batch_indices(DATA, cfg, FixedUniforms([0.0, 0.5]))
        np.testing.assert_array_equal(levels, [0, 0])

    def test_level_above_cap_raises(self):
        cfg = EstimatorConfig(batch_size=3, level_cap=10)
        u = [0.5, cfg.ratio**12 * 0.9, 0.5]
        with pytest.raises(ResourceGuardExceeded):
            draw_batch_indices(DATA, cfg, FixedUniforms(u))


def chunk_draws(monkeypatch, draws, model, grads):
    """Set the chunk byte budget to `draws` draws of `model`'s rows drawn
    with the gradient arrays `grads`."""
    monkeypatch.setattr(estimator_module, "CHUNK_BYTES", draws * row_bytes(model, grads))


class RowCountingModel(GaussianConjugateModel):
    """The Gaussian model, recording each chunk's row count with the most
    draws the byte budget allows a chunk drawn with the gradients it is
    lent rows for."""

    def __init__(self, dim):
        super().__init__(dim)
        self.calls = []

    def draw_weighed(self, x, theta, phi, rng, eps, grad_theta_out=None, grad_phi_out=None):
        grads = lent_grads(grad_theta_out, grad_phi_out)
        allowed = estimator_module.CHUNK_BYTES // row_bytes(self, grads)
        self.calls.append((eps.shape[0], allowed))
        return super().draw_weighed(x, theta, phi, rng, eps, grad_theta_out, grad_phi_out)


class TestDrawBudget:
    CFG = EstimatorConfig(n0=8, batch_size=32)
    GRADS = [(), ALL_GRADS, ("theta",)]  # evidence, gradients, profile

    def outputs(self, model, data=DATA, theta=THETA, phi=PHI_WIDE, budget=lambda grads: None):
        """Evidence, gradients and a profile, each drawn after
        `budget(grads)` is called with the gradient arrays it draws."""
        budget(self.GRADS[0])
        est = estimate_log_evidence(model, data, theta, phi, self.CFG, substream(122, 0))
        budget(self.GRADS[1])
        grads = estimate_gradients(model, data, theta, phi, self.CFG, substream(122, 1))
        budget(self.GRADS[2])
        profile = variance_profile(
            model, data, theta, phi, range(0, 4), 100, self.CFG, substream(122, 2)
        )
        return est, grads, profile

    @pytest.mark.parametrize("budget", [16, 40])
    def test_budget_changes_no_output(self, monkeypatch, budget):
        est, grads, profile = self.outputs(MODEL)
        est_b, grads_b, profile_b = self.outputs(
            MODEL, budget=lambda g: chunk_draws(monkeypatch, budget, MODEL, g)
        )
        assert est_b == est
        np.testing.assert_array_equal(grads_b.grad_theta, grads.grad_theta)
        np.testing.assert_array_equal(grads_b.grad_phi, grads.grad_phi)
        assert (grads_b.total_cost, grads_b.per_level_counts) == (
            grads.total_cost, grads.per_level_counts)
        assert profile_b == profile

    @pytest.mark.parametrize("budget", [16, 40])
    def test_budget_bounds_each_model_call(self, monkeypatch, budget):
        # each model call draws at most the byte budget over its rows'
        # bytes, or one member: at dim 1 a budget of `budget` draws per
        # call, and at dim 32 with gradients one byte budget, `budget`
        # draws of the widest rows, under which narrower rows draw more;
        # the profile runs every level here, where the model records its calls
        monkeypatch.setattr(diagnostics_module, "_cpu_count", lambda: 1)
        narrow = RowCountingModel(1)
        runs = [(narrow, self.outputs(
            narrow, budget=lambda g: chunk_draws(monkeypatch, budget, narrow, g)))]
        wide = RowCountingModel(32)
        theta = np.zeros(wide.theta_dim)
        phi = np.repeat([0.0, 0.0, 0.5 * math.log(2.0)], 32)  # q = N(0, 2) per coordinate
        data = wide.generate_data(theta, 20, substream(122, 3))
        chunk_draws(monkeypatch, budget, wide, ALL_GRADS)
        runs.append((wide, self.outputs(wide, data, theta, phi)))
        for model, (est, grads, _) in runs:
            deepest = max(*est.per_level_counts, *grads.per_level_counts, 3)
            largest = self.CFG.n0 << deepest
            for n, allowed in model.calls:
                assert 0 < n <= max(allowed, largest), (model.dim, n, allowed)
        widths = {estimator_module.CHUNK_BYTES // row_bytes(wide, g) for g in self.GRADS}
        assert {allowed for _, allowed in wide.calls} == widths and len(widths) > 1


def c_ordered_average(draws, drawn):
    """R of each segment of the chunk `draws`, (S, theta_dim), formed from
    the C-ordered copy of the theta rows `drawn` recorded: the products
    and segment sums of `draw_chunks`' formula, run down the (n, k) rows."""
    seg = ((draws.n0 << draws.levels) >> draws.split).repeat(1 + draws.split)
    starts = seg.cumsum() - seg
    shifted, total, _ = segment_exp(drawn.log_f, starts, seg, np.empty_like(drawn.log_f))
    weighted = drawn.grad_theta * shifted[:, None]
    return np.add.reduceat(weighted, starts, axis=0) / total[:, None]


class TestWorkspace:
    def test_two_averages_of_each_chunk_give_what_each_gives_alone(self, monkeypatch):
        # both reducers read each chunk's one R, formed in the block's
        # scratch rows before the next chunk overwrites them, so together in
        # chunks they give what each gives alone and what one chunk gives
        cfg = EstimatorConfig(n0=8, batch_size=16)
        reducers = [grad_theta_level, naive_grad_theta]

        def rows(reducers):
            return run_batch(
                MODEL, DATA, THETA, PHI_WIDE, cfg, substream(128, 0),
                reducers=reducers, grads=("theta",),
            )

        _, one_chunk, total_cost, _ = rows(reducers)
        chunk_draws(monkeypatch, 64, MODEL, ("theta",))
        assert total_cost > 64
        together = rows(reducers)[1]
        alone = [rows([reduce])[1][0] for reduce in reducers]
        for got in (together, alone):
            for row, want in zip(got, one_chunk, strict=True):
                np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_component_major_rows_reduce_as_c_ordered_copies(self, monkeypatch, dim):
        # each chunk draws its normals into its block and lends the model one
        # contiguous row of it per theta component; both theta reducers give,
        # bit for bit, what they give on R formed from C-ordered copies
        model = GaussianConjugateModel(dim)
        theta = np.zeros(model.theta_dim)
        phi = np.repeat([0.0, 0.0, 0.5 * math.log(2.0)], dim)
        data = model.generate_data(theta, 20, substream(129, 0))
        chunk_draws(monkeypatch, 48, model, ("theta",))
        levels = np.array([0, 3, 1, 2, 0, 4, 1, 2])
        with recorded_draws(model) as calls:
            chunks = list(draw_chunks(
                model, data.x[:8], levels, theta, phi, EstimatorConfig(n0=8), substream(129, 1),
                grads=("theta",),
            ))
        for draws, drawn in zip(chunks, calls, strict=True):
            normals, rows, _ = drawn.lent
            assert normals.base is rows.base
            assert rows.shape == (drawn.log_f.size, model.theta_dim)
            assert all(rows[:, j].flags.c_contiguous for j in range(model.theta_dim))
            copy = draws._replace(theta_avg=c_ordered_average(draws, drawn))
            for reduce in (grad_theta_level, naive_grad_theta):
                assert reduce(draws).tobytes() == reduce(copy).tobytes(), reduce.__name__
        assert len(chunks) > 1

    def test_chunks_reuse_one_workspace_and_results_never_alias_it(self, monkeypatch):
        # every chunk of a draw cuts the rows it lends the model from the
        # same block, and no result of a batch, an estimate or a profile is
        # a view of any lent row or of its block
        reduced = []
        real_reduce = estimator_module.reduce_chunks

        def recording_reduce(*args):
            rows = real_reduce(*args)
            reduced.extend(rows)
            return rows

        for module in (estimator_module, diagnostics_module):
            monkeypatch.setattr(module, "reduce_chunks", recording_reduce)
        chunk_draws(monkeypatch, 64, MODEL, ALL_GRADS)
        cfg = EstimatorConfig(n0=8, batch_size=16)
        reducers = [antithetic_difference, grad_theta_level, grad_phi_elbo_level]
        with recorded_draws(MODEL) as calls:
            masses, _, _, _ = run_batch(
                MODEL, DATA, THETA, PHI_WIDE, cfg, substream(127, 0), reducers=reducers
            )
            batch_chunks = len(calls)
            grads = estimate_gradients(MODEL, DATA, THETA, PHI_WIDE, cfg, substream(127, 1))
            variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, range(0, 3), 100, cfg, substream(127, 2)
            )
        assert batch_chunks > 1
        first, second = calls[:2]
        block = first.lent[1].base
        assert block is not None and block.nbytes >= first.lent[1].nbytes
        for row in second.lent:
            assert row.base is block

        results = [masses, *reduced, grads.grad_theta, grads.grad_phi]
        for drawn in calls:
            rows = [row for row in drawn.lent if row is not None]
            for row in rows + [row.base for row in rows]:
                for result in results:
                    assert not np.shares_memory(row, result)

    @pytest.mark.parametrize("grads", [(), ("theta",), ALL_GRADS], ids=["none", "theta", "both"])
    @pytest.mark.parametrize("model", [GaussianConjugateModel(3), BernoulliGaussianModel()],
                             ids=["gaussian-3", "bernoulli"])
    def test_reducers_leave_the_chunk_unchanged(self, monkeypatch, model, grads):
        # a reducer reads its chunk and writes only arrays of its own
        reducers = [antithetic_difference, naive_difference]
        if "theta" in grads:
            reducers += [grad_theta_level, naive_grad_theta]
        if "phi" in grads:
            reducers.append(grad_phi_elbo_level)
        theta = np.full(model.theta_dim, 0.3)
        phi = np.full(model.phi_dim, 0.2)
        data = model.generate_data(theta, 12, substream(131, 0))
        chunk_draws(monkeypatch, 48, model, grads)
        chunks = 0
        for draws in draw_chunks(
            model, data.x, np.arange(12) % 4, theta, phi, EstimatorConfig(n0=4),
            substream(131, 1), grads,
        ):
            before = {
                name: value.copy() for name, value in draws._asdict().items()
                if isinstance(value, np.ndarray)
            }
            for reduce in reducers:
                reduce(draws)
            for name, value in before.items():
                assert getattr(draws, name).tobytes() == value.tobytes(), name
            chunks += 1
        assert chunks > 1

    @pytest.mark.parametrize("grads", [(), ("theta",), ALL_GRADS], ids=["none", "theta", "both"])
    @pytest.mark.parametrize("model", [GaussianConjugateModel(3), BernoulliGaussianModel()],
                             ids=["gaussian-3", "bernoulli"])
    def test_records_hold_only_segment_statistics(self, monkeypatch, model, grads):
        # every array a chunk's record holds has one row per member (M) or
        # per segment (S), never one per draw (n), and none is a view of a
        # row the model was lent or of the block it was cut from
        theta = np.full(model.theta_dim, 0.3)
        phi = np.full(model.phi_dim, 0.2)
        data = model.generate_data(theta, 12, substream(133, 0))
        chunk_draws(monkeypatch, 48, model, grads)
        with recorded_draws(model) as calls:
            chunks = list(draw_chunks(
                model, data.x, np.arange(12) % 4, theta, phi, EstimatorConfig(n0=4),
                substream(133, 1), grads,
            ))
        assert len(chunks) == len(calls) > 1
        for draws, drawn in zip(chunks, calls):
            assert (draws.theta_avg is None) == ("theta" not in grads)
            assert (draws.phi_sums is None) == ("phi" not in grads)
            m = draws.levels.size
            s = m + int(draws.split.sum())
            assert drawn.log_f.size > s
            arrays = {
                name: value for name, value in draws._asdict().items()
                if isinstance(value, np.ndarray)
            }
            for name, value in arrays.items():
                assert value.shape[0] in (m, s), name
            lent = [row for row in drawn.lent if row is not None]
            for row in lent + [row.base for row in lent]:
                for name, value in arrays.items():
                    assert not np.shares_memory(value, row), name

    @pytest.mark.parametrize("model", [GaussianConjugateModel(3), BernoulliGaussianModel()],
                             ids=["gaussian-3", "bernoulli"])
    def test_phi_rows_are_rows_of_the_block(self, monkeypatch, model):
        # each chunk lends the model one contiguous row of its block per phi
        # component, and the phi reducer gives the row-major formula's values
        theta = np.full(model.theta_dim, 0.3)
        phi = np.full(model.phi_dim, 0.2)
        data = model.generate_data(theta, 12, substream(132, 0))
        chunk_draws(monkeypatch, 48, model, ALL_GRADS)
        with recorded_draws(model) as calls:
            chunks = list(draw_chunks(
                model, data.x, np.arange(12) % 4, theta, phi, EstimatorConfig(n0=4),
                substream(132, 1),
            ))
        for draws, drawn in zip(chunks, calls, strict=True):
            normals, theta_rows, rows = drawn.lent
            assert rows.shape == (drawn.log_f.size, model.phi_dim)
            assert rows.T.flags.c_contiguous
            assert rows.base is normals.base is theta_rows.base
            sizes = draws.n0 << draws.levels
            terms = (drawn.log_f - 1.0)[:, None] * drawn.grad_phi
            want = np.add.reduceat(terms, sizes.cumsum() - sizes, axis=0)
            want /= sizes[:, None]
            np.testing.assert_allclose(grad_phi_elbo_level(draws), want, rtol=1e-12, atol=0.0)
        assert len(chunks) > 1


def traced_peak(call) -> int:
    """Peak bytes `tracemalloc` traces while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_batch_peak_is_a_few_chunks(self, monkeypatch):
        # a batch of about 18 chunks is reduced chunk by chunk as drawn, so
        # its peak stays near one chunk's, not the whole batch's draws
        model = GaussianConjugateModel(4)
        theta = np.zeros(model.theta_dim)
        phi = np.repeat([0.0, 0.0, 0.5 * math.log(2.0)], 4)  # q = N(0, 2) per coordinate
        data = model.generate_data(theta, 50, substream(125, 0))
        cfg = EstimatorConfig(n0=16, batch_size=2048)
        one_chunk = traced_peak(
            lambda: draw_level_samples(model, data.x[0], theta, phi, 8, cfg, substream(125, 1))
        )
        for estimate, grads in [(estimate_log_evidence, ()), (estimate_gradients, ALL_GRADS)]:
            chunk_draws(monkeypatch, 4096, model, grads)
            peak = traced_peak(lambda: estimate(model, data, theta, phi, cfg, substream(125, 2)))
            assert peak <= 3 * one_chunk, (estimate.__name__, peak, one_chunk)

    def test_evidence_builds_no_gradient_arrays(self, monkeypatch):
        # at dim 32 a draw's two gradient rows (96 reals each) outweigh its
        # other temporaries, so the evidence path, which builds neither,
        # peaks well under the gradient path on the same one-chunk batch
        model = GaussianConjugateModel(32)
        theta = np.zeros(model.theta_dim)
        phi = np.repeat([0.0, 0.0, 0.5 * math.log(2.0)], 32)
        data = model.generate_data(theta, 50, substream(126, 0))
        cfg = EstimatorConfig(n0=256, batch_size=16)
        _, levels = draw_batch_indices(data, cfg, substream(126, 1))
        assert (cfg.n0 << levels).sum() <= 1 << 16  # one chunk of 2^16 draws
        peaks = []
        for estimate, grads in [(estimate_log_evidence, ()), (estimate_gradients, ALL_GRADS)]:
            chunk_draws(monkeypatch, 1 << 16, model, grads)
            peaks.append(
                traced_peak(lambda: estimate(model, data, theta, phi, cfg, substream(126, 1)))
            )
        evidence, gradient = peaks
        assert evidence < 2 / 3 * gradient, (evidence, gradient)


def raw_level_route(log_f, grad_theta_log_f, grad_phi_log_q, level):
    """Independent route for one member's reductions: raw numpy formulas
    on its own slice of draws, the full buffer and both halves each
    reduced directly. Returns the antithetic value, its theta-gradient, the
    phi term, and the naive value and theta-gradient."""

    def lme(v):
        return v.max() + np.log(np.exp(v - v.max()).mean())

    def ratio(v, g):
        w = np.exp(v - v.max())
        return w @ g / w.sum()

    full, r_full = lme(log_f), ratio(log_f, grad_theta_log_f)
    phi_term = (log_f - 1.0) @ grad_phi_log_q / log_f.size
    if level == 0:
        return full, r_full, phi_term, full, r_full
    h = log_f.size // 2
    a, b = slice(0, h), slice(h, None)
    r_a = ratio(log_f[a], grad_theta_log_f[a])
    r_b = ratio(log_f[b], grad_theta_log_f[b])
    return (
        full - 0.5 * (lme(log_f[a]) + lme(log_f[b])),
        r_full - 0.5 * (r_a + r_b),
        phi_term,
        full - lme(log_f[a]),
        r_full - r_a,
    )


class TestSegmentReducers:
    LEVELS = np.array([0, 2, 0, 1, 3, 0, 1, 0])

    def check_against_raw_route(self, model, x_rows, theta, phi, seed, levels=LEVELS):
        cfg = EstimatorConfig(n0=4)
        with recorded_draws(model) as calls:
            (draws,) = draw_chunks(model, x_rows, levels, theta, phi, cfg, substream(seed, 0))
        (drawn,) = calls
        got = [
            antithetic_difference(draws),
            grad_theta_level(draws),
            grad_phi_elbo_level(draws),
            naive_difference(draws),
            naive_grad_theta(draws),
        ]
        m = levels.size
        assert [g.shape for g in got] == [
            (m,), (m, model.theta_dim), (m, model.phi_dim), (m,), (m, model.theta_dim)]
        # the member layout, from the levels alone
        sizes = cfg.n0 << levels
        starts = sizes.cumsum() - sizes
        for i, (start, size) in enumerate(zip(starts, sizes)):
            member = slice(start, start + size)
            want = raw_level_route(
                drawn.log_f[member], drawn.grad_theta[member], drawn.grad_phi[member], levels[i],
            )
            for g, w in zip(got, want):
                np.testing.assert_allclose(g[i], w, rtol=1e-12, atol=1e-12)

    def test_gaussian_dim_three(self):
        model = GaussianConjugateModel(3)
        theta = np.array([0.2, -0.1, 0.4, 0.1, 0.0, -0.2, -0.5, -0.4, -0.6])
        phi = model.posterior_phi(theta) + np.array([0.1, 0.0, -0.1, 0.2, -0.2, 0.1, 0.3, 0.2, 0.4])
        data = model.generate_data(theta, self.LEVELS.size, substream(123, 0))
        self.check_against_raw_route(model, data.x, theta, phi, 124)

    def test_bernoulli_both_classes(self):
        # per-row q parameters: each member draws from its own class's q
        model = BernoulliGaussianModel()
        theta = np.array([1.3, -0.4])
        phi = np.array([0.3, -0.2, -0.5, 0.1])
        x_rows = np.array([[0.0], [1.0], [1.0], [0.0], [1.0], [0.0], [0.0], [1.0]])
        self.check_against_raw_route(model, x_rows, theta, phi, 125)

    @pytest.mark.parametrize(
        "levels", [np.array([0, 0, 0]), np.array([1, 2, 3, 1])], ids=["none-split", "all-split"]
    )
    def test_chunk_of_one_kind(self, levels):
        # every member takes the same branch of LevelDraws.merge: no split
        # member, or no level-0 member, in the chunk
        model = GaussianConjugateModel(3)
        theta = np.array([0.2, -0.1, 0.4, 0.1, 0.0, -0.2, -0.5, -0.4, -0.6])
        phi = model.posterior_phi(theta) + np.array([0.1, 0.0, -0.1, 0.2, -0.2, 0.1, 0.3, 0.2, 0.4])
        data = model.generate_data(theta, levels.size, substream(128, 0))
        self.check_against_raw_route(model, data.x, theta, phi, 129, levels)
        cfg = EstimatorConfig(n0=4)
        with recorded_draws(model) as calls:
            (draws,) = draw_chunks(model, data.x, levels, theta, phi, cfg, substream(129, 0))
        ((_, log_f, *_),) = calls
        np.testing.assert_array_equal(draws.split, levels > 0)
        want = np.concatenate([
            [size] if level == 0 else [size // 2, size // 2]
            for level, size in zip(levels, 4 << levels)
        ])
        # the log-sums are those of consecutive segments of these sizes
        assert want.sum() == log_f.size
        starts = want.cumsum() - want
        log_sums = segment_exp(log_f, starts, want, np.empty_like(log_f))[2]
        np.testing.assert_array_equal(draws.log_sums, log_sums)
        assert draws.log_sums.shape == want.shape
        # a level-0 member is its own second half, with d exactly 0; a
        # split member's halves are consecutive segments
        whole = levels == 0
        np.testing.assert_array_equal(draws.a[whole], draws.b[whole])
        assert (draws.d[whole] == 0.0).all()
        np.testing.assert_array_equal(draws.b[~whole], draws.a[~whole] + 1)
        np.testing.assert_array_equal(draws.d, draws.log_sums[draws.a] - draws.log_sums[draws.b])
        assert len(draws.log_sums) == levels.size + draws.split.sum()


LEVEL_CFG = EstimatorConfig(n0=4)
# each once drew, was cast, or ended in a bare TypeError, ValueError,
# OverflowError or UFuncTypeError
NOT_LEVELS = [1.5, 1.7, True, np.float64(2.0), np.bool_(True), "2", None, 1 + 0j, -1,
              np.int64(-1), 10**400]
# a level array is not one level
NOT_ONE_LEVEL = NOT_LEVELS + [[1], np.array([1])]


def short(value) -> str:
    return repr(value)[:24]


class TestLevelRule:
    """A level is an integer, Python or numpy, not a bool, and >= 0
    (`models._levels`), at every entry that takes one, checked before any
    generator is touched."""

    @pytest.mark.parametrize("level", NOT_ONE_LEVEL, ids=short)
    def test_level_estimate_refuses_a_non_level_before_drawing(self, level):
        # 1.5 once drew level-1 latents, then failed in `n0 << level`
        rng = substream(140, 0)
        refused_unmoved(
            rng, lambda: level_estimate(MODEL, DATA.x[0], THETA, PHI_WIDE, level, LEVEL_CFG, rng)
        )

    @pytest.mark.parametrize("level", NOT_ONE_LEVEL, ids=short)
    def test_draw_level_samples_refuses_a_non_level_before_drawing(self, level):
        # True and 1.7 once drew level 1
        rng = substream(140, 1)
        refused_unmoved(
            rng,
            lambda: draw_level_samples(MODEL, DATA.x[0], THETA, PHI_WIDE, level, LEVEL_CFG, rng),
        )

    @pytest.mark.parametrize("levels, message", [
        (np.array([1.0, 2.0]), "levels must hold integers, got float64 entries"),
        (np.array([True, False]), "levels must hold integers, got bool entries"),
        (np.array([1, 2], dtype=object), "levels must hold integers, got object entries"),
        (np.array(["1"]), "levels must hold integers, got <U1 entries"),
        ([1, 2.5], "levels[1] must be an integer, got 2.5"),
        (np.array([0, -3]), "levels must be >= 0, got [0, -3]"),
        (np.array([2**63], dtype=np.uint64), f"levels must lie in 0..2^63 - 1, got [{2**63}]"),
    ])
    def test_draw_chunks_refuses_non_levels_before_drawing(self, levels, message):
        # the float array was once cast to int64; the wide unsigned level
        # wrapped to a negative one
        rng = substream(140, 2)
        refused_unmoved(
            rng,
            lambda: next(draw_chunks(MODEL, DATA.x[:2], levels, THETA, PHI_WIDE, LEVEL_CFG, rng)),
            f"^{re.escape(message)}$",
        )

    @pytest.mark.parametrize("level", NOT_LEVELS + [
        np.array([1.0]), np.array([True]), np.array([1], dtype=object),
        np.array([2**64 - 1], dtype=np.uint64),
    ], ids=short)
    def test_mass_refuses_a_non_level(self, level):
        # 1.5 and True once had masses; "2" and None ended in bare errors
        with pytest.raises(ContractViolation):
            EstimatorConfig().mass(level)

    def test_integer_levels_keep_their_masses_and_shapes(self):
        cfg = EstimatorConfig()
        assert cfg.mass(np.int32(2)) == cfg.mass(2) == cfg.mass_table[2]
        grid = np.arange(6, dtype=np.uint8).reshape(2, 3)
        np.testing.assert_array_equal(cfg.mass(grid), cfg.mass_table[grid])
        assert cfg.mass([]).shape == (0,)

    def test_an_int64_level_array_passes_as_it_is(self):
        levels = np.array([0, 3, 1])
        assert models_module._levels("levels", levels) is levels

    @pytest.mark.parametrize("u", [[0.5j], ["0.5"], [10**400], [0.5, None], "0.5"], ids=short)
    def test_sample_levels_refuses_non_real_variates(self, u):
        # text was once parsed, complex and 10**400 ended in bare errors
        with pytest.raises(ContractViolation):
            sample_levels(EstimatorConfig(), u)


BERNOULLI = BernoulliGaussianModel()
BERNOULLI_DATA = BERNOULLI.generate_data(np.array([1.0, 0.0]), 20, substream(141, 0))


class TestParametersBeforeDrawing:
    """theta and phi are refused before a batch draws its indices, with the
    models' own messages, so a refused call leaves the caller's generator
    as it was."""

    @pytest.mark.parametrize("estimate", [estimate_log_evidence, estimate_gradients])
    @pytest.mark.parametrize("model, data", [(MODEL, DATA), (BERNOULLI, BERNOULLI_DATA)],
                             ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("name", ["theta", "phi"])
    @pytest.mark.parametrize("fault", ["nan", "long"])
    def test_estimates_refuse_before_drawing(self, estimate, model, data, name, fault):
        # each once drew the batch's indices and levels, and the phi
        # faults' latents too, before the model refused
        args = {"theta": np.zeros(model.theta_dim), "phi": np.zeros(model.phi_dim)}
        length = args[name].size
        if fault == "nan":
            args[name][-1] = math.nan
            message = f"^{name} contains non-finite entries$"
        else:
            args[name] = np.zeros(length + 1)
            message = f"^{name} must have length {length}, got {length + 1}$"
        rng = substream(142, 0)
        cfg = EstimatorConfig(n0=4, batch_size=4)
        refused_unmoved(rng, lambda: estimate(model, data, args["theta"], args["phi"], cfg, rng),
                        message)

    @pytest.mark.parametrize("model, x, theta, message", [
        (MODEL, [1.0], [0.0, 0.0, math.nan], "^theta contains non-finite entries$"),
        (BERNOULLI, [1.0], [0.0], "^theta must have length 2, got 1$"),
        (BERNOULLI, [0.5], [0.0, 0.0], "^observation must be 0 or 1, got 0.5$"),
    ], ids=["gaussian-theta", "bernoulli-theta", "bernoulli-x"])
    def test_level_estimate_refuses_before_drawing(self, model, x, theta, message):
        # each was refused by `log_joint`, after the member's latents were drawn
        rng = substream(142, 1)
        phi = np.zeros(model.phi_dim)
        refused_unmoved(rng, lambda: level_estimate(model, x, theta, phi, 1, LEVEL_CFG, rng), message)

    @pytest.mark.parametrize("model, data", [(MODEL, DATA), (BERNOULLI, BERNOULLI_DATA)],
                             ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("name", ["theta", "phi"])
    @pytest.mark.parametrize("fault", ["nan", "long"])
    def test_variance_profile_refuses_before_spawning(self, model, data, name, fault):
        # each once spawned one stream per level from the caller's
        # generator, then the levels refused
        args, message = bad_parameters(model, name, fault)
        rng = substream(142, 2)
        refused_unmoved(rng, lambda: variance_profile(
            model, data, args["theta"], args["phi"], [1, 2, 3], 100, LEVEL_CFG, rng,
        ), message)

    @pytest.mark.parametrize("model", [MODEL, BERNOULLI], ids=["gaussian", "bernoulli"])
    @pytest.mark.parametrize("fault", ["nan", "long"])
    def test_draw_weighed_refuses_a_bad_theta_before_drawing(self, model, fault):
        # `log_joint` once refused it after the normals were drawn
        args, message = bad_parameters(model, "theta", fault)
        rng = substream(142, 3)
        x = np.ones(model.x_dim)
        refused_unmoved(rng, lambda: model.draw_weighed(
            x, args["theta"], args["phi"], rng, np.empty((4, model.z_dim)),
        ), message)

    def test_draw_weighed_refuses_an_unobservable_x_before_drawing(self):
        # `log_joint` once refused it after the normals were drawn
        rng = substream(142, 4)
        refused_unmoved(rng, lambda: BERNOULLI.draw_weighed(
            [0.5], np.zeros(2), np.zeros(4), rng, np.empty((4, 1)),
        ), "^observation must be 0 or 1, got 0.5$")

    def test_sample_q_refuses_an_unobservable_x_before_drawing(self):
        # it once drew from class 1's q
        rng = substream(142, 5)
        refused_unmoved(rng, lambda: BERNOULLI.sample_q([0.5], np.zeros(4), rng, 4),
                        "^observation must be 0 or 1, got 0.5$")


def bad_parameters(model, name: str, fault: str) -> tuple[dict, str]:
    """Zero theta and phi for `model` with `name` made faulty, a NaN last
    entry or one entry too many, and the message that refuses it."""
    args = {"theta": np.zeros(model.theta_dim), "phi": np.zeros(model.phi_dim)}
    length = args[name].size
    if fault == "nan":
        args[name][-1] = math.nan
        return args, f"^{name} contains non-finite entries$"
    args[name] = np.zeros(length + 1)
    return args, f"^{name} must have length {length}, got {length + 1}$"
