"""Variance x cost of the estimators at the benchmark's shapes.

An unbiased estimator is measured by its variance times its expected cost
(Glynn & Whitt 1992, "The asymptotic efficiency of simulation estimators",
Operations Research 40(3)). The figure is a function of seeded outputs
alone, so it repeats exactly and needs no timing. The tool prints two:

- evidence: var(value) x mean `total_cost` of `estimate_log_evidence` at
  estimate-small's first (theta, phi) pair (Gaussian dim 1, 200 points,
  n0 = 8, batch 64);
- gradient: the largest per-component variance of `estimate_gradients`'
  `grad_theta` x mean `total_cost` at train-bernoulli's first start theta,
  with phi = 0 (Bernoulli, 500 points, n0 = 32, batch 16).

Both are built from the inputs `perfbench/workloads.py` makes at workload
seed 1, rebuilt here by the same generator calls. Each figure draws K
estimates, estimate k from the k-th stream of
`rng.streams(rng.substream(seed), K)`. Each line gives the figure's
variance and mean cost over all K, and beside the variance and the
figure an interval of 2 standard errors from batch means: the K estimates
are cut into 20 batches of consecutive ones and the figure is formed in
each. The gradient's component is the one whose variance over all K is
largest, and each batch reads that component.

`--n0`, `--batch` and `--ratio-log2` set `EstimatorConfig`'s `n0`,
`batch_size` and `level_ratio_log2` for both figures; left out, each
figure keeps its workload's own value (and the default level law).

Usage:

    PYTHONPATH=src python tools/efficiency.py [--k K] [--seed S] [--n0 N]
                                              [--batch M] [--ratio-log2 R]
"""
from __future__ import annotations

import argparse
import dataclasses
import math

import numpy as np

from mlmc_evidence import rng as _rng
from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.estimator import EstimatorConfig, estimate_log_evidence
from mlmc_evidence.gradients import estimate_gradients
from mlmc_evidence.models import BernoulliGaussianModel, Dataset, GaussianConjugateModel

WORKLOAD_SEED = 1
BATCHES = 20


def _input_rng(workload_id: int) -> np.random.Generator:
    """The generator `perfbench/workloads.py` makes a workload's inputs from."""
    seq = np.random.SeedSequence(WORKLOAD_SEED, spawn_key=(workload_id, 99))
    return np.random.default_rng(seq)


def estimate_small():
    """Model, data, theta, phi and config of estimate-small's first pair."""
    rng = _input_rng(1)
    true_theta = np.concatenate([
        rng.uniform(-1.0, 1.0, 1), rng.uniform(-0.3, 0.3, 1), rng.uniform(-0.9, -0.3, 1),
    ])
    z = true_theta[:1] + np.exp(true_theta[1:2]) * rng.standard_normal((200, 1))
    x = z + np.exp(true_theta[2:]) * rng.standard_normal((200, 1))
    theta = true_theta + rng.normal(0.0, 0.1, 3)
    # the exact posterior's phi, nudged so q stays wider than the posterior
    v0, vx = np.exp(2.0 * theta[1:2]), np.exp(2.0 * theta[2:])
    vp = v0 * vx / (v0 + vx)
    phi = np.concatenate([vp / vx, vp * theta[:1] / v0, 0.5 * np.log(vp)]) + np.concatenate([
        rng.uniform(-0.05, 0.05, 1), rng.uniform(-0.1, 0.1, 1), rng.uniform(0.05, 0.25, 1),
    ])
    cfg = EstimatorConfig(n0=8, batch_size=64)
    return GaussianConjugateModel(dim=1), Dataset(x), theta, phi, cfg


def train_bernoulli():
    """Model, data, theta, phi and estimator config of train-bernoulli's
    first start, with phi = 0."""
    rng = _input_rng(3)
    w, c = rng.uniform(0.8, 1.5), rng.uniform(-1.0, 1.0)
    z = rng.standard_normal(500)
    p1 = 1.0 / (1.0 + np.exp(-(w * z + c)))
    x = (rng.random(500) < p1).astype(np.float64).reshape(-1, 1)
    theta = np.array([rng.uniform(0.2, 0.6), c + rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 3.0)])
    cfg = EstimatorConfig(n0=32, batch_size=16)
    return BernoulliGaussianModel(), Dataset(x), theta, np.zeros(4), cfg


def draws(estimate, shape, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """K estimates' values, (K, ...), and costs, (K,)."""
    model, data, theta, phi, cfg = shape
    values, costs = [], []
    for stream in _rng.streams(_rng.substream(seed), k):
        value, cost = estimate(model, data, theta, phi, cfg, stream)
        values.append(value)
        costs.append(cost)
    return np.array(values), np.array(costs, dtype=np.float64)


def evidence(*args):
    est = estimate_log_evidence(*args)
    return est.value, est.total_cost


def gradient(*args):
    est = estimate_gradients(*args)
    return est.grad_theta, est.total_cost


def interval(values: np.ndarray, costs: np.ndarray) -> tuple[float, float, float, float]:
    """The variance and variance x mean cost over all rows, and 2 standard
    errors of each from the batch means."""
    var, fig = [], []
    for v, c in zip(np.array_split(values, BATCHES), np.array_split(costs, BATCHES)):
        var.append(v.var(ddof=1))
        fig.append(var[-1] * c.mean())
    whole = values.var(ddof=1)
    half = [2.0 * np.std(x, ddof=1) / math.sqrt(BATCHES) for x in (var, fig)]
    return whole, half[0], whole * costs.mean(), half[1]


def line(name: str, k: int, values: np.ndarray, costs: np.ndarray) -> str:
    var, var_half, fig, fig_half = interval(values, costs)
    return (
        f"{name} k={k} var={var:.6g} [{var - var_half:.6g}, {var + var_half:.6g}]"
        f" cost={costs.mean():.6g}"
        f" var_x_cost={fig:.6g} [{fig - fig_half:.6g}, {fig + fig_half:.6g}]"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=20_000, help="estimates per figure")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n0", type=int, default=None)
    ap.add_argument("--batch", type=int, default=None)
    ap.add_argument("--ratio-log2", type=float, default=None)
    args = ap.parse_args(argv)
    if args.k < 2 * BATCHES:
        ap.error(f"--k must be at least {2 * BATCHES}, two estimates per batch")
    knobs = {
        name: value for name, value in (
            ("n0", args.n0), ("batch_size", args.batch), ("level_ratio_log2", args.ratio_log2),
        ) if value is not None
    }

    shapes = []
    try:
        _rng.substream(args.seed)  # the seed rule, before any estimate
        for build in (estimate_small, train_bernoulli):
            model, data, theta, phi, cfg = build()
            shapes.append((model, data, theta, phi, dataclasses.replace(cfg, **knobs)))
    except ContractViolation as exc:
        ap.error(str(exc))

    print(line("evidence", args.k, *draws(evidence, shapes[0], args.k, args.seed)))
    values, costs = draws(gradient, shapes[1], args.k, args.seed)
    component = int(np.argmax(values.var(axis=0, ddof=1)))
    print(line(f"gradient[{component}]", args.k, values[:, component], costs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
