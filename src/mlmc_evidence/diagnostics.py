"""Empirical verification harness: per-level variance and cost profiles,
decay-rate regression, and tail/moment diagnostics for the importance
weights.

A profile draws each level's replications as the members of flat draw
buffers (`estimator.draw_chunks`), with the theta-gradient array only, and
reduces them by segment as they are drawn (`estimator.reduce_chunks`, the
batch's own loop), one row per replication, with no loop over
replications. The level value and its theta-gradient are formulas of the
chunk's one record (`estimator.LevelDraws`), so they share its one
exponentiation.

A profile's levels run concurrently, one task per level on up to one pool
thread per CPU, the costliest level first. Each level draws only from its
own spawned stream, so no output depends on the schedule. Peak memory is up
to one level's chunk block per worker, and where levels fail, the first
failing level in the caller's order is the one raised.

Cost is counted in latent draws (the only quantity that doubles per level);
wall clock is not asserted on anywhere.
"""
from __future__ import annotations

import contextvars
import logging
import math
import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import rng as _rng
from .errors import ContractViolation
from .estimator import EstimatorConfig, antithetic_difference, draw_chunks, reduce_chunks
from .estimator import draw_level_samples  # noqa: F401  perfbench/tracer.py wraps this name here
from .gradients import grad_theta_level
from .models import Dataset, LatentVariableModel

log = logging.getLogger(__name__)
# warnings reach stderr only where the application configures logging
log.addHandler(logging.NullHandler())

_LOG2 = math.log(2.0)


@dataclass
class LevelStats:
    """Replication moments of the level value and its theta-gradient."""

    level: int
    mean_z: float
    var_z: float
    var_grad_theta_max: float  # max over gradient components
    mean_cost: float
    replications: int


def naive_difference(draws) -> np.ndarray:
    """Level value without the antithetic half-average, (M,): full log-mean
    minus the first-half log-mean only. Decays one order slower in
    variance; kept as the contrast case the profile can instrument. With
    the halves' log-sums differing by d, the value is log((1 + e^-d) / 2)."""
    # level-0 members hold n0 draws
    return draws.merge(draws.log_sums - math.log(draws.n0), np.logaddexp(0.0, -draws.d) - _LOG2)


def naive_grad_theta(draws) -> np.ndarray:
    """Theta-gradient of `naive_difference`, (M, theta_dim): the full-buffer
    ratio minus the first half's, which is the second half's weight share
    times R_b - R_a."""
    r = draws.average(draws.grad_theta_log_f)
    return draws.merge(r, (0.5 - 0.5 * np.tanh(0.5 * draws.d))[:, None] * (r[draws.b] - r[draws.a]))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def variance_profile(
    model: LatentVariableModel,
    data: Dataset,
    theta,
    phi,
    levels: Iterable[int],
    replications: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    antithetic: bool = True,
) -> list[LevelStats]:
    """Replicate independent level estimates: per level, the mean and
    variance (ddof 1) of the replications' level values, and the largest
    variance of a theta-gradient component, in the order of `levels`.

    Each level gets one stream spawned from `rng`. It draws the level's
    replication data indices, then every replication's latents in order,
    in the batch draw's chunks of at most `estimator.CHUNK_BYTES` of rows.
    Replications get no streams of their own. The draw schedule depends
    only on the generator state, never on the `antithetic` flag, so
    profiling both variants from identically constructed generators
    compares them on the same latent draws.

    The levels run as tasks on min(len(levels), CPUs) pool threads, the
    costliest (deepest) submitted first, each in a copy of the caller's
    context (so numpy's error state applies). A level's values depend only
    on its own stream, so they are the same bits under any schedule. Peak
    memory is up to one level's chunk block per worker. If levels fail,
    the first failing level in the order of `levels` is the one raised.
    """
    if replications < 100:
        raise ContractViolation(f"need at least 100 replications, got {replications}")
    levels = list(levels)
    if any(l > cfg.level_cap for l in levels):
        raise ContractViolation(f"levels {levels} exceed level cap {cfg.level_cap}")
    level_streams = _rng.spawn(rng, len(levels))
    value_fn, grad_fn = (
        (antithetic_difference, grad_theta_level) if antithetic
        else (naive_difference, naive_grad_theta)
    )

    def level_stats(lvl: int, stream: np.random.Generator) -> LevelStats:
        indices = stream.integers(0, data.n_total, size=replications)
        chunks = draw_chunks(
            model, data.x[indices], np.full(replications, lvl), theta, phi, cfg, stream,
            grads=("theta",),
        )
        values, grads = reduce_chunks(chunks, [value_fn, grad_fn])
        return LevelStats(
            level=lvl,
            mean_z=float(values.mean()),
            var_z=float(values.var(ddof=1)),
            var_grad_theta_max=float(np.max(grads.var(axis=0, ddof=1))),
            mean_cost=float(cfg.n0 << lvl),
            replications=replications,
        )

    if not levels:
        return []
    # imported here: at module level it would add 5-7 ms (2-CPU host) to the
    # library import
    from concurrent.futures import ThreadPoolExecutor

    # a level's cost is n0 * 2^level; the stable sort keeps ties in caller order
    costliest_first = sorted(range(len(levels)), key=lambda i: -levels[i])
    with ThreadPoolExecutor(min(len(levels), _cpu_count())) as pool:
        futures = {
            i: pool.submit(contextvars.copy_context().run, level_stats, levels[i], level_streams[i])
            for i in costliest_first
        }
        return [futures[i].result() for i in range(len(levels))]


class DecayFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def fit_decay_rate(stats: list[LevelStats], field: str = "var_z") -> DecayFit:
    """Least-squares line through (level, log2 of the selected field).

    Levels with a nonpositive value cannot be log-transformed; they are
    reported and dropped, and the fit runs over the remainder (at least
    three points required).
    """
    pairs = [(s.level, getattr(s, field)) for s in stats]
    kept = [(lvl, v) for lvl, v in pairs if v > 0.0]
    dropped = [lvl for lvl, v in pairs if v <= 0.0]
    if dropped:
        log.warning("fit_decay_rate(%s): dropped nonpositive levels %s", field, dropped)
    if len(kept) < 3:
        raise ContractViolation(
            f"decay fit needs >= 3 positive values, have {len(kept)} for field {field!r}"
        )
    x = np.array([lvl for lvl, _ in kept], dtype=np.float64)
    y = np.log2([v for _, v in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((resid**2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(float(slope), float(intercept), r2)


@dataclass
class MomentDiagnostic:
    """Monte Carlo estimates of the normalized-weight tail moments.

    log_s_moment estimates log E_q[(f/p)^s], in log domain so that it stays
    finite where the moment itself overflows, and t_moment estimates
    E_q[|log(f/p)|^t] for the given data point. tail_warning trips when the
    top 0.1% of draws carries more than half of the s-moment sum, a
    heuristic flag for a non-integrable tail (a finite sample can never
    certify finiteness).
    """

    s_exponent: float
    t_exponent: float
    log_s_moment_estimate: float
    t_moment_estimate: float
    tail_warning: bool


def estimate_moments(
    model: LatentVariableModel,
    x,
    theta,
    phi,
    s_exponent: float,
    t_exponent: float,
    n_draws: int,
    rng: np.random.Generator,
) -> MomentDiagnostic:
    """Estimate both tail moments of f/p from n_draws importance samples.

    The oracle's log evidence, every draw's log weight and both estimates
    must be finite; parameters that overflow any of them are a contract
    error."""
    if not (0.0 < s_exponent < math.inf and 0.0 < t_exponent < math.inf):
        raise ContractViolation(
            f"moment exponents must be finite and positive, got s={s_exponent}, t={t_exponent}"
        )
    if n_draws < 10_000:
        raise ContractViolation(f"need at least 1e4 draws, got {n_draws}")
    log_p = model.oracle_log_evidence(x, theta)  # raises if no oracle
    if not math.isfinite(log_p):
        raise ContractViolation(f"oracle log evidence {log_p!r} is not finite")
    z, batch = model.draw_weighed(x, theta, phi, rng, np.empty((n_draws, model.z_dim)), grads=())
    log_f = batch.log_f
    if not np.isfinite(log_f).all():
        i = int(np.flatnonzero(~np.isfinite(log_f))[0])
        raise ContractViolation(f"non-finite log weight at z={z[i]!r}")
    lam = log_f - log_p

    # log mean = peak + log(shifted mean): near 0 it carries its own ulps,
    # where peak + log(sum) - log(n) would carry those of log n
    scaled = s_exponent * lam
    peak = scaled.max()
    shifted = np.exp(scaled - peak)
    total = shifted.sum()
    t_moment = float(np.mean(np.abs(lam) ** t_exponent))
    log_s_moment = float(peak + math.log(total / n_draws))
    if not (math.isfinite(log_s_moment) and math.isfinite(t_moment)):
        raise ContractViolation(
            f"moment estimates overflow at s={s_exponent}, t={t_exponent}:"
            f" log s-moment {log_s_moment}, t-moment {t_moment}"
        )

    top = max(1, n_draws // 1000)
    tail_share = float(np.partition(shifted, n_draws - top)[-top:].sum() / total)

    return MomentDiagnostic(
        s_exponent=float(s_exponent),
        t_exponent=float(t_exponent),
        log_s_moment_estimate=log_s_moment,
        t_moment_estimate=t_moment,
        tail_warning=tail_share > 0.5,
    )
