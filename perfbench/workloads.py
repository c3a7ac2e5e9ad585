"""The benchmark workloads.

Each workload makes its inputs from the workload seed with its own numpy
generator, passes the dataset through the library's save/load round trip,
computes its reference values with `reference`, and then serves operations
by index. Operation i always receives the same parameters and the same
random stream for a given seed, so two runs of the same code do the same
work and consume the same number of latent draws.

The library is reached through module attributes (`estimator.run_batch`
style) at call time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from mlmc_evidence import diagnostics, estimator, models, trainer

import reference as ref

_MASK64 = (1 << 64) - 1


def stream(seed: int, workload_id: int, phase: int, index: int) -> np.random.Generator:
    """The library's random stream for one operation. Phase 0 is timed,
    phase 1 is warm-up, so warm-up never repeats a timed operation."""
    seq = np.random.SeedSequence(seed & _MASK64, spawn_key=(workload_id, phase, index))
    return np.random.Generator(np.random.Philox(seq))


def _input_rng(seed: int, workload_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed & _MASK64, spawn_key=(workload_id, 99)))


def _gaussian_theta(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.concatenate([
        rng.uniform(-1.0, 1.0, dim),  # mu0
        rng.uniform(-0.3, 0.3, dim),  # log s0
        rng.uniform(-0.9, -0.3, dim),  # log sx
    ])


def _gaussian_data(rng: np.random.Generator, theta: np.ndarray, n: int) -> np.ndarray:
    dim = theta.size // 3
    z = theta[:dim] + np.exp(theta[dim : 2 * dim]) * rng.standard_normal((n, dim))
    return z + np.exp(theta[2 * dim :]) * rng.standard_normal((n, dim))


def _near_posterior_phi(rng, theta, dim, da, db, dlogs) -> np.ndarray:
    """A sampler close to the exact posterior but never equal to it (at the
    posterior every level difference is exactly 0 and nothing is measured).
    q is kept wider than the posterior so the importance weights stay
    bounded."""
    phi = ref.gaussian_posterior_phi(theta, dim)
    return phi + np.concatenate([
        rng.uniform(-da, da, dim),
        rng.uniform(-db, db, dim),
        rng.uniform(dlogs[0], dlogs[1], dim),
    ])


def _round_trip(x: np.ndarray, seed: int, true_theta, workdir: Path, name: str):
    """Save and reload through the library's dataset I/O and return the
    dataset with the seconds the round trip took. The reload must
    reproduce the generated array bit for bit."""
    path = workdir / f"{name}.txt"
    t0 = time.perf_counter()
    models.save_dataset(path, models.Dataset.from_rows(x), seed, true_theta)
    data, header = models.load_dataset(path)
    elapsed = time.perf_counter() - t0
    if not np.array_equal(data.x, x) or header["n_total"] != x.shape[0]:
        raise AssertionError(f"dataset round trip changed {path.name}")
    return data, elapsed


class Workload:
    """One workload. `setup` builds the inputs and references and sets
    `io_s` to its dataset round-trip time; it may run again mid-run and then
    rebuilds identical inputs. `call` runs operation i on the given stream
    and returns (result, draws), `record` keeps what the checks need and
    `check` returns the checks that failed."""

    name: str
    workload_id: int
    rounds_per_s: float  # nominal whole rounds per second on the reference host
    quick_rounds: int
    warmup_ops: int
    set_size: int = 1

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def call(self, i: int, rng: np.random.Generator):
        raise NotImplementedError

    def record(self, i: int, result) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


def _cost_identity(result, n0: int) -> bool:
    return result.total_cost == sum(c * (n0 << lvl) for lvl, c in result.per_level_counts.items())


class EstimateSmall(Workload):
    """Per-member overhead: 64 members of about 18 draws each."""

    name = "estimate-small"
    workload_id = 1
    rounds_per_s = 24.0
    quick_rounds = 8
    warmup_ops = 8
    set_size = 4
    n_data = 200
    z_bound = 4.0

    def __init__(self):
        self.values = [[] for _ in range(self.set_size)]
        self.bad_cost = 0

    def setup(self, seed, workdir):
        rng = _input_rng(seed, self.workload_id)
        true_theta = _gaussian_theta(rng, 1)
        x = _gaussian_data(rng, true_theta, self.n_data)
        self.data, self.io_s = _round_trip(x, seed, true_theta, workdir, self.name)
        self.model = models.GaussianConjugateModel(dim=1)
        self.cfg = estimator.EstimatorConfig(n0=8, batch_size=64)
        self.pairs = []
        for _ in range(self.set_size):
            theta = true_theta + rng.normal(0.0, 0.1, 3)
            phi = _near_posterior_phi(rng, theta, 1, 0.05, 0.1, (0.05, 0.25))
            self.pairs.append((theta, phi))
        self.truth = [ref.gaussian_log_evidence(x, theta) for theta, _ in self.pairs]

    def call(self, i, rng):
        theta, phi = self.pairs[i % self.set_size]
        est = estimator.estimate_log_evidence(self.model, self.data, theta, phi, self.cfg, rng, workers=1)
        return est, est.total_cost

    def record(self, i, result):
        self.values[i % self.set_size].append(result.value)
        self.bad_cost += not _cost_identity(result, self.cfg.n0)

    def check(self):
        problems = []
        if self.bad_cost:
            problems.append(f"{self.bad_cost} calls with total_cost != sum counts * n0 * 2^l")
        for k, (vals, truth) in enumerate(zip(self.values, self.truth)):
            v = np.asarray(vals)
            se = v.std(ddof=1) / math.sqrt(v.size)
            if not abs(v.mean() - truth) <= self.z_bound * se:
                problems.append(
                    f"pair {k}: mean {v.mean():.4f} vs closed form {truth:.4f}, "
                    f"{self.z_bound:g} SE = {self.z_bound * se:.4f}")
        return problems


class TrainBernoulli(Workload):
    """The training loop on the non-conjugate model, with quadrature
    evaluations every 10 steps."""

    name = "train-bernoulli"
    workload_id = 3
    rounds_per_s = 1.0
    quick_rounds = 2
    warmup_ops = 1
    set_size = 4
    n_data = 500
    gap_tolerance = 4.0  # nats, on the median over the run's calls

    def __init__(self):
        self.final = []

    def setup(self, seed, workdir):
        rng = _input_rng(seed, self.workload_id)
        w, c = rng.uniform(0.8, 1.5), rng.uniform(-1.0, 1.0)
        z = rng.standard_normal(self.n_data)
        p1 = 1.0 / (1.0 + np.exp(-(w * z + c)))
        x = (rng.random(self.n_data) < p1).astype(np.float64).reshape(-1, 1)
        self.data, self.io_s = _round_trip(x, seed, [w, c], workdir, self.name)
        self.model = models.BernoulliGaussianModel()
        self.cfg = trainer.TrainConfig(
            steps=50, lr_theta=0.5, lr_phi=0.05, momentum=0.5, eval_every=10,
            eval_replications=2, estimator=estimator.EstimatorConfig(n0=32, batch_size=16))
        # Starts two to three units of c away from the data's rate, so
        # every start sits far below the maximum.
        self.starts = [
            np.array([rng.uniform(0.2, 0.6), c + rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0)])
            for _ in range(self.set_size)
        ]
        self.max_evidence = ref.bernoulli_max_log_evidence(x[:, 0])
        self.start_evidence = [ref.bernoulli_log_evidence(x[:, 0], t) for t in self.starts]

    def call(self, i, rng):
        records = trainer.train(
            self.model, self.data, self.starts[i % self.set_size], np.zeros(4), self.cfg, rng)
        return records, records[-1].cumulative_cost

    def record(self, i, result):
        theta = result[-1].theta
        self.final.append((i % self.set_size, ref.bernoulli_log_evidence(self.data.x[:, 0], theta)))

    def check(self):
        problems = []
        slack = 1e-9 * abs(self.max_evidence)
        above = [e for _, e in self.final if e > self.max_evidence + slack]
        if above:
            problems.append(f"{len(above)} final evidences exceed the maximum {self.max_evidence:.6f}")
        worse = [e for k, e in self.final if not e > self.start_evidence[k]]
        if worse:
            problems.append(f"{len(worse)} calls ended at or below their start evidence")
        gap = float(np.median([self.max_evidence - e for _, e in self.final]))
        if not gap <= self.gap_tolerance:
            problems.append(f"median final gap {gap:.3f} nats > {self.gap_tolerance:g}")
        return problems


class ProfileLevels(Workload):
    """Fixed high levels: 100 replications at each of levels 1..8."""

    name = "profile-levels"
    workload_id = 4
    rounds_per_s = 6.0
    quick_rounds = 2
    warmup_ops = 1
    levels = tuple(range(1, 9))
    replications = 100
    n_data = 200
    slope_window = (-2.6, -1.6)

    def __init__(self):
        self.var_sum = np.zeros(len(self.levels))
        self.ops = 0
        self.bad_cost = 0

    def setup(self, seed, workdir):
        rng = _input_rng(seed, self.workload_id)
        true_theta = _gaussian_theta(rng, 1)
        x = _gaussian_data(rng, true_theta, self.n_data)
        self.data, self.io_s = _round_trip(x, seed, true_theta, workdir, self.name)
        self.model = models.GaussianConjugateModel(dim=1)
        self.cfg = estimator.EstimatorConfig(n0=8, batch_size=1)
        self.theta = true_theta
        self.phi = _near_posterior_phi(rng, true_theta, 1, 0.1, 0.3, (0.1, 0.3))

    def call(self, i, rng):
        stats = diagnostics.variance_profile(
            self.model, self.data, self.theta, self.phi, self.levels, self.replications,
            self.cfg, rng)
        return stats, sum(round(s.mean_cost * s.replications) for s in stats)

    def record(self, i, result):
        self.ops += 1
        for j, s in enumerate(result):
            self.var_sum[j] += s.var_z
            self.bad_cost += s.mean_cost != self.cfg.n0 << s.level or s.level != self.levels[j]

    def check(self):
        problems = []
        if self.bad_cost:
            problems.append(f"{self.bad_cost} level rows with mean_cost != n0 * 2^l")
        slope = ref.decay_slope(self.levels, self.var_sum / self.ops)
        lo, hi = self.slope_window
        if not lo <= slope <= hi:
            problems.append(f"pooled log2-variance slope {slope:.3f} outside [{lo}, {hi}]")
        return problems


WORKLOADS = {w.name: w for w in (EstimateSmall, TrainBernoulli, ProfileLevels)}
