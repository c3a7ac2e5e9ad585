"""Trainer contracts: frozen parameters under zero learning rates, seeded
determinism, stationarity of the variational side at the exact posterior,
ascent behaviour across seeds, gradient norms past float64's squares, and
the divergence guard."""

import math

import numpy as np
import pytest

from conftest import refused_unmoved
from mlmc_evidence.errors import ContractViolation, DivergenceError
from mlmc_evidence.estimator import EstimatorConfig, estimate_log_evidence
from mlmc_evidence.models import GaussianConjugateModel
from mlmc_evidence.rng import substream
from mlmc_evidence.trainer import TrainConfig, _norm, train

MODEL = GaussianConjugateModel(1)
TRUE_THETA = np.array([1.0, 0.0, math.log(0.5)])
DATA = MODEL.generate_data(TRUE_THETA, 60, substream(501, 0))


def quick_config(steps=50, **kw):
    defaults = dict(
        steps=steps,
        lr_theta=1e-3,
        lr_phi=1e-3,
        momentum=0.9,
        eval_every=25,
        eval_replications=2,
        estimator=EstimatorConfig(n0=8, batch_size=4),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ContractViolation):
            quick_config(steps=0)
        with pytest.raises(ContractViolation):
            quick_config(lr_theta=-1e-3)
        with pytest.raises(ContractViolation):
            quick_config(momentum=1.0)
        with pytest.raises(ContractViolation):
            quick_config(eval_every=0)
        for field, value in [("steps", 2.5), ("eval_every", 1.5), ("eval_replications", 2.0),
                             ("steps", True)]:
            with pytest.raises(ContractViolation, match=f"{field} must be an integer"):
                quick_config(**{field: value})
        cfg = quick_config(steps=np.int64(3), eval_every=np.uint8(2), eval_replications=np.int32(2))
        assert (cfg.steps, cfg.eval_every, cfg.eval_replications) == (3, 2, 2)
        assert {type(v) for v in (cfg.steps, cfg.eval_every, cfg.eval_replications)} == {int}

    @pytest.mark.parametrize("key", ["lr_theta", "lr_phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_learning_rates(self, key, value):
        with pytest.raises(ContractViolation, match="finite and nonnegative"):
            quick_config(**{key: value})

    @pytest.mark.parametrize("key", ["lr_theta", "lr_phi", "momentum"])
    def test_real_fields_must_be_real_numbers(self, key):
        for value in ["a", True, np.bool_(False), None, 1j]:
            with pytest.raises(ContractViolation, match=f"^{key} must be a real number, got"):
                quick_config(**{key: value})
        cfg = quick_config(**{key: np.float32(0.5)})
        assert type(getattr(cfg, key)) is float and getattr(cfg, key) == 0.5
        assert type(getattr(quick_config(**{key: 0}), key)) is float

    @pytest.mark.parametrize("value", [None, {"n0": 8}, 8])
    def test_estimator_must_be_an_estimator_config(self, value):
        # None was once accepted and failed at the first step
        with pytest.raises(ContractViolation, match="^estimator must be an EstimatorConfig, got"):
            quick_config(estimator=value)

    def test_learning_rate_past_float_range_reads_as_infinite(self):
        with pytest.raises(ContractViolation, match="finite and nonnegative"):
            quick_config(lr_theta=10**400)

    def test_zero_learning_rates_allowed(self):
        quick_config(lr_theta=0.0, lr_phi=0.0)


class TestTrain:
    def test_zero_learning_rates_freeze_parameters(self):
        theta0 = np.array([0.2, -0.1, 0.3])
        phi0 = np.array([0.5, 0.1, -0.2])
        records = train(
            MODEL, DATA, theta0, phi0,
            quick_config(lr_theta=0.0, lr_phi=0.0, eval_every=10),
            substream(502, 0),
        )
        for r in records:
            np.testing.assert_array_equal(r.theta, theta0)
            np.testing.assert_array_equal(r.phi, phi0)

    def test_deterministic_records(self):
        cfg = quick_config()
        a = train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(503, 0))
        b = train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(503, 0))
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.step == rb.step
            np.testing.assert_array_equal(ra.theta, rb.theta)
            np.testing.assert_array_equal(ra.phi, rb.phi)
            assert ra.evidence_estimate == rb.evidence_estimate
            assert ra.cumulative_cost == rb.cumulative_cost

    def test_record_schedule_and_cost_monotone(self):
        records = train(
            MODEL, DATA, np.zeros(3), np.zeros(3), quick_config(steps=55, eval_every=20),
            substream(504, 0),
        )
        assert [r.step for r in records] == [0, 20, 40, 55]
        costs = [r.cumulative_cost for r in records]
        assert costs == sorted(costs)
        assert costs[0] == 0
        assert all(r.kl_oracle >= 0 for r in records)

    def test_phi_stationary_at_posterior_of_initial_theta(self):
        # lr_theta = 0 keeps theta fixed; q starts at its posterior, where
        # the expected phi update is zero, so across seeds the drift of phi
        # stays within 4 standard errors of zero
        theta0 = np.array([0.3, 0.1, -0.2])
        phi0 = MODEL.posterior_phi(theta0)
        cfg = quick_config(steps=200, lr_theta=0.0, momentum=0.0, eval_every=200)
        drifts = []
        for seed in range(24):
            records = train(MODEL, DATA, theta0, phi0, cfg, substream(505, seed))
            drifts.append(records[-1].phi - phi0)
        drifts = np.array(drifts)
        se = drifts.std(axis=0, ddof=1) / math.sqrt(drifts.shape[0])
        np.testing.assert_array_less(np.abs(drifts.mean(axis=0)), 4 * se)

    def test_ascent_improves_oracle_evidence(self):
        # short desk-scale version of the ascent check: the final oracle
        # evidence beats the initial one in at least 19 of 20 seeded runs
        cfg = quick_config(steps=300, eval_every=300)
        wins = 0
        for seed in range(20):
            records = train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(506, seed))
            wins += records[-1].evidence_oracle > records[0].evidence_oracle
        assert wins >= 19

    def test_kl_decreases_with_theta_frozen(self):
        # phi-only training from a mismatched start shrinks the posterior
        # KL in at least 19 of 20 runs
        theta0 = np.zeros(3)
        cfg = quick_config(steps=300, lr_theta=0.0, eval_every=300)
        wins = 0
        for seed in range(20):
            records = train(MODEL, DATA, theta0, np.zeros(3), cfg, substream(507, seed))
            wins += records[-1].kl_oracle < records[0].kl_oracle
        assert wins >= 19

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = quick_config(steps=400, lr_theta=50.0, lr_phi=50.0, momentum=0.9)
        with pytest.raises(DivergenceError):
            train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(508, 0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grad_norm_of_finite_components_is_finite(self):
        # at phi_1 = 1e100 the gradients' components are finite (about 1e200)
        # but their squares overflow: numpy's norm read inf
        cfg = quick_config(steps=2, eval_every=1, lr_theta=0.0, lr_phi=0.0)
        records = train(
            MODEL, DATA, np.zeros(3), np.array([0.0, 1e100, 0.0]), cfg, substream(512, 0)
        )
        for norm in (n for r in records[1:] for n in r.grad_norms):
            assert 1e154 < norm < math.inf  # sqrt(float max) < norm
        assert _norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        v = np.array([3.0, -4.0, 1e-300])
        assert _norm(v) == float(np.linalg.norm(v))
        assert _norm(np.array([math.inf, 1.0])) == math.inf

    @pytest.mark.parametrize("theta0, phi0, message", [
        ([np.nan, 0.0, 0.0], np.zeros(3), "theta contains non-finite entries"),
        (np.zeros(2), np.zeros(3), "theta must have length 3, got 2"),
        (np.zeros(3), [0.0, np.inf, 0.0], "phi contains non-finite entries"),
        (np.zeros(3), np.zeros(4), "phi must have length 3, got 4"),
        (np.zeros(2), [np.nan, 0.0, 0.0], "phi contains non-finite entries"),  # phi first
    ], ids=["nan-theta", "short-theta", "inf-phi", "long-phi", "both"])
    def test_initial_parameter_validation(self, theta0, phi0, message):
        # by the model's rule, with its messages, before the branches are spawned
        rng = substream(509, 2)
        refused_unmoved(
            rng, lambda: train(MODEL, DATA, theta0, phi0, quick_config(), rng), f"^{message}$"
        )

    def test_a_column_of_initial_parameters_trains_as_a_vector(self):
        # estimate_gradients takes a (k, 1) theta at every step, so train does too
        cfg = quick_config(steps=4, eval_every=2)
        theta0 = np.array([0.2, -0.1, 0.3])
        column = train(MODEL, DATA, theta0[:, None], np.zeros((3, 1)), cfg, substream(509, 3))
        flat = train(MODEL, DATA, theta0, np.zeros(3), cfg, substream(509, 3))
        for a, b in zip(column, flat, strict=True):
            assert a.theta.shape == (3,) and a.phi.shape == (3,)
            assert a.theta.tobytes() == b.theta.tobytes() and a.phi.tobytes() == b.phi.tobytes()
            assert (a.evidence_estimate, a.grad_norms, a.cumulative_cost) == (
                b.evidence_estimate, b.grad_norms, b.cumulative_cost,
            )

    @staticmethod
    def children_taken(monkeypatch, cfg, seed):
        """The child count of every `rng.spawn` call one training run makes,
        and of every block of child keys `rng.streams` derives."""
        import mlmc_evidence.rng as rng_module

        spawned, derived = [], []
        spawn, child_keys = rng_module.spawn, rng_module._child_keys

        def counting_spawn(rng, n):
            spawned.append(n)
            return spawn(rng, n)

        def counting_keys(seq, start, n):
            derived.append(n)
            return child_keys(seq, start, n)

        monkeypatch.setattr(rng_module, "spawn", counting_spawn)
        monkeypatch.setattr(rng_module, "_child_keys", counting_keys)
        train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(seed, 0))
        return spawned, derived

    def test_step_streams_are_spawned_in_blocks(self, monkeypatch):
        # deriving every step's key up front costs memory in proportion to steps
        cfg = quick_config(steps=200, eval_every=100, eval_replications=3)
        spawned, derived = self.children_taken(monkeypatch, cfg, 510)
        assert spawned == [2]  # the branches
        assert max(derived) <= 64  # one block
        assert sum(spawned) + sum(derived) == 2 + 200 + 3 * 3  # branches, steps, three evaluations

    def test_eval_streams_are_spawned_in_blocks(self, monkeypatch):
        # each key is held until its replication runs
        cfg = quick_config(steps=2, eval_every=2, eval_replications=70)
        spawned, derived = self.children_taken(monkeypatch, cfg, 511)
        assert spawned == [2]  # the branches
        assert max(derived) <= 64  # one block
        assert sum(spawned) + sum(derived) == 2 + 2 + 2 * 70  # branches, steps, two evaluations

    def test_records_equal_a_loop_over_spawned_streams(self, monkeypatch):
        # records at steps 0, 2, 4 and 5; more replications than one block of keys
        import mlmc_evidence.rng as rng_module

        cfg = quick_config(steps=5, eval_every=2, eval_replications=70)
        derived = train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(512, 0))
        monkeypatch.setattr(rng_module, "streams", lambda rng, n: iter(rng.spawn(n)))
        spawned = train(MODEL, DATA, np.zeros(3), np.zeros(3), cfg, substream(512, 0))
        assert [r.step for r in derived] == [0, 2, 4, 5]
        for a, b in zip(derived, spawned, strict=True):
            assert a.theta.tobytes() == b.theta.tobytes() and a.phi.tobytes() == b.phi.tobytes()
            assert (a.evidence_estimate, a.grad_norms, a.cumulative_cost) == (
                b.evidence_estimate, b.grad_norms, b.cumulative_cost,
            )
        # evaluation k takes the eval branch's children 70k..70k + 69
        _, eval_rng = substream(512, 0).spawn(2)
        children = iter(eval_rng.spawn(4 * 70))
        for r in derived:
            values = [
                estimate_log_evidence(MODEL, DATA, r.theta, r.phi, cfg.estimator, next(children)).value
                for _ in range(70)
            ]
            assert r.evidence_estimate == float(np.mean(values))
