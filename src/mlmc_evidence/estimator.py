"""Randomized multilevel core for unbiased log-evidence estimation.

A level-l estimate draws n0 * 2^l latents from q, forms the log of their
mean importance weight, and subtracts the average of the log-means of the
two contiguous half-buffers of the same draws. The expectation of these
antithetic differences telescopes across levels to the exact log evidence,
so drawing the level from a geometric distribution and reweighting each
difference by its level probability gives an estimator of log p(X) with no
bias at any finite cost.

A batch is drawn in chunks of consecutive members (`draw_chunks`), each
one `draw_weighed` call whose per-draw rows take at most CHUNK_BYTES and
are cut from one block allocated per call. Where a chunk is drawn,
`segment_exp` exponentiates it once and it is reduced to its segment
statistics (`LevelDraws`). This module owns that record and every formula
of it: the level values (`antithetic_difference`, `naive_difference`), the
level gradients (`grad_theta_level`, `naive_grad_theta`,
`grad_phi_elbo_level`) and the rounding scale a profile reads
(`_log_sum_scale`); no other module reads a field of the record.
`run_batch` reduces a batch chunk by chunk as it is drawn
(`reduce_chunks`), one row per member of each quantity its caller names,
and returns each member's level mass and the batch's draws and member
counts per level. The evidence estimate folds the level values here, and
`gradients.estimate_gradients` folds the level gradients of the same draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ContractViolation, ResourceGuardExceeded
from .logspace import log_mean_exp_unchecked  # noqa: F401  perfbench/tracer.py wraps this name here
from .models import (
    Dataset, LatentVariableModel, _all_finite, _check_bytes, _check_fields, _count, _level,
    _levels, _real, _real_array,
)

#: Most bytes of per-draw rows (`row_bytes`) one chunk holds when a batch
#: is drawn: consecutive members share a model call up to this many bytes,
#: and a member larger than it is drawn alone. With a profile's processes
#: taking its levels costliest first as they free up (the caller and one
#: forked worker, 2 CPUs), a profile at levels 1..8 took, per call, 1.02-
#: 1.03x its 4 MiB time at 2 MiB, 1.08-1.10x at 1 MiB, 1.27-1.34x at
#: 0.5 MiB and 1.13x at 8 MiB. So 4 MiB stays.
CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the randomized multilevel estimator, and its level law.

    n0 is the latent count at level 0 (level l uses n0 * 2^l); batch_size
    is the number of (data point, level) terms averaged per estimate. A
    member's level is geometric, mass(l) = (1 - r) * r^l with
    r = 2^level_ratio_log2: normalizing the geometric family keeps the
    support unbounded (no truncation bias) and makes inverse-CDF sampling
    exact (`sample_levels`).
    """

    n0: int = 8
    batch_size: int = 1
    #: r = 2^(-3/2): level mass decays fast enough for finite variance
    #: (weight 1/mass grows slower than the difference variance decays)
    #: and slow enough for finite expected cost (mass decays faster than 2^-l).
    level_ratio_log2: float = -1.5
    level_cap: int = 40

    def __post_init__(self):
        _check_fields(self, _count, "n0", "batch_size", "level_cap")
        _check_fields(self, _real, "level_ratio_log2")
        if self.n0 < 1:
            raise ContractViolation(f"n0 must be >= 1, got {self.n0}")
        if self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")
        if self.level_cap < 1:
            raise ContractViolation(f"level_cap must be >= 1, got {self.level_cap}")
        if int(self.n0).bit_length() + self.level_cap > 63:
            raise ContractViolation(
                f"n0 * 2^level_cap = {self.n0} * 2^{self.level_cap} draws does not fit in int64"
            )
        ratio = math.inf if self.level_ratio_log2 >= 1024.0 else self.ratio  # 2.0**1024 overflows
        if not (0.0 < ratio < 0.5):
            raise ContractViolation(
                f"level ratio must lie in (0, 1/2) for finite expected cost, got {ratio}"
            )

    @property
    def ratio(self) -> float:
        return 2.0**self.level_ratio_log2

    def mass(self, level):
        """mass(level) for one level, or elementwise for an array of levels."""
        level = _levels("level", level)
        return (1.0 - self.ratio) * self.ratio**level

    @property
    def mass_table(self) -> np.ndarray:
        """mass(0), ..., mass(level_cap), read-only: indexed by an array of
        levels, the values `mass` gives that array, bit for bit."""
        return _level_law(self.ratio, self.level_cap)[1]

    @property
    def expected_cost_factor(self) -> float:
        """E[2^level] = (1 - r) / (1 - 2r), the per-draw cost multiplier."""
        return (1.0 - self.ratio) / (1.0 - 2.0 * self.ratio)


@lru_cache(maxsize=16)
def _level_law(ratio: float, level_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The level law's two read-only tables, made once per (ratio,
    level_cap) and shared by every batch: the thresholds r^(level_cap + 1),
    ..., r^1 in ascending order, and the masses (1 - r) * r^l of levels
    0..level_cap, by `EstimatorConfig.mass`'s own array expression."""
    bounds = ratio ** np.arange(level_cap + 1, 0, -1)
    mass = (1.0 - ratio) * ratio ** np.arange(level_cap + 1)
    bounds.flags.writeable = mass.flags.writeable = False
    return bounds, mass


class LevelDraws(NamedTuple):
    """The segment statistics of one chunk of M consecutive batch members:
    member i owns the contiguous slice of n0 * 2^levels[i] draws, in batch
    order, cut into S segments (a level-0 member as one segment, a deeper
    member as its two contiguous halves). Every level value is a formula
    of these: d, the difference of a member's halves' log-sums, R of each
    segment, and each member's phi sums. A statistic the chunk was not
    drawn with is None. The record holds no per-draw array, and reducers
    never write into it."""

    levels: np.ndarray  # (M,)
    n0: int
    log_sums: np.ndarray  # (S,) per-segment log(sum_i exp(log f_i))
    a: np.ndarray  # (M,) each member's first segment
    b: np.ndarray  # (M,) its second segment; a at level 0
    d: np.ndarray  # (M,) log_sums[a] - log_sums[b]; 0 at level 0
    split: np.ndarray  # (M,) True where the member is cut in halves
    #: (S, theta_dim) R, the softmax(log f)-weighted average of the
    #: theta-gradient rows in each segment, sum_i f_i g_i / sum_i f_i
    theta_avg: np.ndarray | None
    #: (M, phi_dim) sum over each member's draws of (log f - 1) * dlog q/dphi
    phi_sums: np.ndarray | None

    def merge(self, level_zero: np.ndarray, split_rows: np.ndarray) -> np.ndarray:
        """One row per member: `split_rows` where the member is split, its
        only segment's `level_zero` row where it is not."""
        split = self.split.reshape(self.split.shape + (1,) * (split_rows.ndim - 1))
        return np.where(split, split_rows, level_zero.take(self.a, axis=0))


def segment_exp(
    buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peak/exp/sum pass over the nonempty segments of a validated
    buffer that tile it in order, segment j holding sizes[j] values from
    starts[j]: (shifted, total, log_sums), each value's exp shifted by its
    segment's peak (built in `out`, shaped like buf), each segment's sum of
    those, and each segment's log-sum-exp, its peak plus the log of its
    shifted sum."""
    peak = np.maximum.reduceat(buf, starts)
    shifted = np.subtract(buf, peak.repeat(sizes), out=out)
    np.exp(shifted, out=shifted)
    total = np.add.reduceat(shifted, starts)
    return shifted, total, peak + np.log(total)


#: Every gradient a caller can name; `draw_chunks` lends the model its rows.
ALL_GRADS = frozenset({"theta", "phi"})


def row_bytes(model: LatentVariableModel, grads) -> int:
    """Bytes per draw of a chunk drawn with the gradient arrays `grads`:
    the rows cut from its draw's block (the standard normals, the segment
    exp of log f and, with the theta gradient, its rows and the scratch
    rows of their weighted products, and, with the phi gradient, its rows)
    and the fresh x row, z row and log f; 88 B at Gaussian dim 1 with the
    theta gradient. The phi products are formed in the phi rows; the
    model's own temporaries are not counted."""
    theta = 2 * model.theta_dim if "theta" in grads else 0
    phi = model.phi_dim if "phi" in grads else 0
    return 8 * (model.z_dim + 1 + theta + model.x_dim + model.z_dim + 1 + phi)


def draw_chunks(
    model: LatentVariableModel,
    x_rows: np.ndarray,
    levels: np.ndarray,
    theta,
    phi,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    grads=ALL_GRADS,
) -> Iterator[LevelDraws]:
    """Draw the members (observation x_rows[i], level levels[i]) in order
    from `rng`, in chunks of consecutive members, and yield each chunk's
    segment statistics.

    Each chunk holds at most CHUNK_BYTES // `row_bytes` draws (47 662 at
    Gaussian dim 1 with the theta gradient), or one member that alone
    exceeds it, and costs one `draw_weighed` call with the member's
    observation repeated per draw. The latents come from `rng` in member
    order whatever the chunking, so chunk boundaries change no value.
    `grads` names the gradients the chunks are drawn with, a subset of
    {"theta", "phi"} checked here; the model is lent rows for those alone,
    the record carries R only with "theta" and the phi sums only with
    "phi", and no other statistic depends on it.

    A call allocates one block, sized for its largest chunk, and each
    chunk cuts from its start, in this order, its standard normals, its
    theta-gradient rows (if drawn), its exp row, the scratch rows of the
    theta products and its phi-gradient rows (if drawn). Its segments are
    cut, exponentiated once into the exp row, and reduced to the
    statistics before it is yielded, so the record holds no view of the
    block. Gradient rows are component-major, one contiguous length-n row
    per component lent as the transposed (n, k) view, so the model's
    column writes and the products and segment sums run along the draws.
    """
    unknown = set(grads) - ALL_GRADS
    if unknown:
        raise ContractViolation(f"unknown gradients {sorted(unknown)}; choose from theta, phi")
    levels = _levels("levels", levels)
    if not levels.size:
        return
    top = levels.item(levels.argmax())
    if top > cfg.level_cap:
        raise ResourceGuardExceeded(f"level {top} exceeds level cap {cfg.level_cap}")
    # the widest per-draw row a chunk holds, or all its rows, in bytes
    per_draw = row_bytes(model, grads)
    row = max(8 * max(model.x_dim, model.z_dim, model.theta_dim, model.phi_dim), per_draw)
    _check_bytes(
        levels.size * (int(cfg.n0) << top), row, "draw",
        lambda: f"{levels.size} members up to level {top}",
    )
    sizes = cfg.n0 << levels
    ends = sizes.cumsum()
    budget = CHUNK_BYTES // per_draw  # draws per chunk
    k = model.theta_dim if "theta" in grads else 0
    p = model.phi_dim if "phi" in grads else 0
    d = model.z_dim
    # one allocation: as three arrays per call the rows mapped fresh pages
    # on every level profile (about 3900 minor faults per profile call)
    block = np.empty(min(int(ends[-1]), max(budget, int(cfg.n0) << top)) * (d + 1 + 2 * k + p))
    lo = 0
    while lo < levels.size:
        base = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(ends.searchsorted(base + budget, side="right")))
        x = x_rows[lo:hi].repeat(sizes[lo:hi], axis=0)
        n = int(ends[hi - 1] - base)
        rows = block[n * d : n * (d + 1 + 2 * k + p)]
        gt = rows[: n * k].reshape(k, n).T if k else None
        gq = rows[n * (2 * k + 1) :].reshape(p, n).T if p else None
        z, log_f = model.draw_weighed(x, theta, phi, rng, block[: n * d].reshape(n, d), gt, gq)
        if not _all_finite(log_f):
            i = int(np.flatnonzero(~np.isfinite(log_f))[0])
            member = lo + int(np.searchsorted(ends[lo:hi] - base, i, side="right"))
            raise ContractViolation(
                f"non-finite log weight at x={x[i]!r}, z={z[i]!r} (level {levels[member]})"
            )
        split = levels[lo:hi] > 0
        per_member = 1 + split
        seg = (sizes[lo:hi] >> split).repeat(per_member)  # a split member's halves are equal
        starts = seg.cumsum() - seg
        shifted, total, log_sums = segment_exp(log_f, starts, seg, rows[n * k : n * (k + 1)])
        a = per_member.cumsum() - per_member
        b = a + split
        theta_avg = phi_sums = None
        if k:
            # the weighted products go to the block's scratch rows
            weighted = rows[n * (k + 1) : n * (2 * k + 1)].reshape(k, n)
            np.multiply(gt.T, shifted, out=weighted)
            theta_avg = (np.add.reduceat(weighted, starts, axis=1) / total).T
        if p:
            # the products overwrite the phi rows; a member's draws start
            # at its first segment
            np.multiply(gq.T, np.subtract(log_f, 1.0, out=log_f), out=gq.T)
            phi_sums = np.add.reduceat(gq.T, starts[a], axis=1).T
        yield LevelDraws(
            levels[lo:hi], cfg.n0, log_sums, a, b, log_sums[a] - log_sums[b], split,
            theta_avg, phi_sums,
        )
        lo = hi


def draw_level_samples(
    model: LatentVariableModel,
    x,
    theta,
    phi,
    level: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> LevelDraws:
    """Draw n0 * 2^level latents from q and evaluate log f and gradients:
    the one-member (M = 1) buffer."""
    level = _level("level", level)
    x_rows = _real_array("x", x).reshape(1, -1)
    (draws,) = draw_chunks(model, x_rows, [level], theta, phi, cfg, rng)
    return draws


_LOG2 = math.log(2.0)


def _log_cosh(y: np.ndarray) -> np.ndarray:
    # log((e^y + e^-y) / 2) = |y| + log((1 + e^(-2|y|)) / 2), without
    # cancelling to zero for small y
    a = np.abs(y)
    return a + np.log1p(0.5 * np.expm1(-2.0 * a))


def antithetic_difference(draws: LevelDraws) -> np.ndarray:
    """Each member's level value, (M,): log-mean of all its draws minus the
    averaged log-means of its two halves.

    At level 0 there is nothing to subtract and the value is the plain
    log-mean. The two halves are the first and second contiguous halves of
    the same draw buffer, which is what makes the averaged half-means equal
    the full mean identically (the antithetic cancellation). With the
    halves' log-sums differing by d, the value is exactly log cosh(d / 2),
    a formula of the halves' log-sums alone.
    """
    return _level_value(draws, _log_cosh(0.5 * draws.d))


def naive_difference(draws: LevelDraws) -> np.ndarray:
    """Level value without the antithetic half-average, (M,): full log-mean
    minus the first-half log-mean only, the contrast case a profile can
    measure; its variance decays one order slower. With the halves'
    log-sums differing by d, the value is log((1 + e^-d) / 2)."""
    return _level_value(draws, np.logaddexp(0.0, -draws.d) - _LOG2)


def _level_value(draws: LevelDraws, split_values: np.ndarray) -> np.ndarray:
    """`split_values` where a member is split, its n0 draws' log-mean where not."""
    return draws.merge(draws.log_sums - math.log(draws.n0), split_values)


def grad_theta_level(draws: LevelDraws) -> np.ndarray:
    """Theta-gradient of each member's level value, (M, theta_dim).

    Each weighted mean of per-draw gradients of log f equals the ratio of
    the gradient-weight mean to the weight mean (since df = f dlog f), so
    the level-0 gradient is the softmax-weighted gradient average R of the
    member's draws. A deeper member subtracts the averaged half-buffer
    ratios R_a, R_b from the full-buffer ratio, which weights the halves by
    their shares of the total weight; with the halves' log-sums differing
    by d that leaves tanh(d / 2) / 2 * (R_a - R_b).
    """
    return _theta_level(draws, 0.5 * np.tanh(0.5 * draws.d), draws.a, draws.b)


def naive_grad_theta(draws: LevelDraws) -> np.ndarray:
    """Theta-gradient of `naive_difference`, (M, theta_dim): the full-buffer
    ratio minus the first half's, which is the second half's weight share
    times R_b - R_a."""
    return _theta_level(draws, 0.5 - 0.5 * np.tanh(0.5 * draws.d), draws.b, draws.a)


def _theta_level(draws: LevelDraws, share: np.ndarray, first, second) -> np.ndarray:
    """share * (R_first - R_second) where a member is split, its R where not."""
    r = draws.theta_avg
    diff = r.take(first, axis=0) - r.take(second, axis=0)
    return draws.merge(r, share[:, None] * diff)


def grad_phi_elbo_level(draws: LevelDraws) -> np.ndarray:
    """Score-function phi-gradient term averaged over each member's draws,
    (M, phi_dim).

    Per draw the integrand is (log f - 1) * dlog q/dphi: the -1 comes from
    the phi-dependence of f through the q denominator and has expectation
    zero, the log f * score part is the likelihood-ratio gradient of the
    expected log weight. A plain (unweighted) average at any level is
    unbiased for the lower-bound gradient, so no level reweighting applies:
    each member's sum of the integrand over its draws, divided by its size.
    """
    # row-major rows, as the batch fold and the concatenation of chunks sum them
    return np.divide(draws.phi_sums, (draws.n0 << draws.levels)[:, None], order="C")


def _log_sum_scale(draws: LevelDraws) -> np.ndarray:
    """The largest |log-sum| of a chunk's segments, (1,): the magnitude whose
    rounding sets that of the chunk's level values."""
    return np.maximum.reduce(np.abs(draws.log_sums), keepdims=True)


@dataclass
class LevelEstimate:
    """One realized level difference with its gradients."""

    level: int
    z_value: float
    grad_theta: np.ndarray
    phi_grad_term: np.ndarray
    cost: int  # latent draws consumed = n0 * 2^level


def level_estimate(
    model: LatentVariableModel,
    x,
    theta,
    phi,
    level: int,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> LevelEstimate:
    """Level value, its theta-gradient and the level phi-gradient average,
    all from one shared set of latent draws."""
    draws = draw_level_samples(model, x, theta, phi, level, cfg, rng)
    level = int(draws.levels[0])
    return LevelEstimate(
        level=level,
        z_value=float(antithetic_difference(draws)[0]),
        grad_theta=grad_theta_level(draws)[0],
        phi_grad_term=grad_phi_elbo_level(draws)[0],
        cost=cfg.n0 << level,
    )


def sample_levels(cfg: EstimatorConfig, u: np.ndarray) -> np.ndarray:
    """Exact inverse-CDF levels of uniforms u in (0, 1]: level l where
    r^(l+1) < u <= r^l, so P(level >= l) = r^l.

    Each level is the count of thresholds r^1, ..., r^(level_cap + 1) of
    `cfg` that u does not exceed. Exceeding `level_cap` raises instead of
    clamping, which preserves the no-truncation-bias property; at the
    default ratio the cap sits at probability r^40 ~ 1e-18, so a trip
    means misconfiguration, not bad luck.
    """
    u = _real_array("u", u)
    bounds = _level_law(cfg.ratio, cfg.level_cap)[0]
    if u.size:
        # a NaN makes both extremes NaN, so it fails the range test; a
        # variate at or below bounds[0] = r^(level_cap + 1) is level_cap + 1
        low = np.minimum.reduce(u, axis=None)
        if not (low > 0.0 and np.maximum.reduce(u, axis=None) <= 1.0):
            ok = (u > 0.0) & (u <= 1.0)
            raise ContractViolation(f"uniform variate must lie in (0, 1], got {u[~ok][0]}")
        if low <= bounds[0]:
            raise ResourceGuardExceeded(f"sampled level exceeds level cap {cfg.level_cap}")
    return bounds.size - bounds.searchsorted(u)


def draw_batch_indices(
    data: Dataset, cfg: EstimatorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's (data index, level) pairs: indices uniform with
    replacement, levels by exact inverse-CDF from the level distribution.
    A uniform variate of exactly 0.0 counts as 1.0, so the variates are
    uniform on (0, 1]."""
    if data.n_total < 1:
        raise ContractViolation("dataset is empty")
    # the widest of the index, uniform and level arrays and the x rows
    # `run_batch` takes
    _check_bytes(cfg.batch_size, 8 * data.x.shape[1], "member")
    indices = rng.integers(0, data.n_total, size=cfg.batch_size)
    u = rng.random(cfg.batch_size)
    u[u == 0.0] = 1.0
    return indices, sample_levels(cfg, u)


def run_batch(
    model: LatentVariableModel,
    data: Dataset,
    theta,
    phi,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    *,
    reducers,
    grads=ALL_GRADS,
) -> tuple[np.ndarray, list[np.ndarray], int, dict[int, int]]:
    """Draw one batch and reduce it chunk by chunk as it is drawn: each
    member's level mass, (M,), per reducer its (M, ...) per-member rows,
    the batch's latent draws and its member count per drawn level.

    Every (data index, level) pair is drawn from `rng` before any latent,
    then the members draw their latents from `rng` in batch order, in
    the chunks of `draw_chunks`, each reduced as it is drawn. The chunks
    carry the gradient arrays named in `grads`, which must cover those the
    reducers read. theta and phi are checked before `rng` is drawn from,
    so a refused batch leaves it as it was. The batch keeps no draws: its
    cost is counted from its levels.
    """
    theta, phi = model._check_parameters(theta, phi)
    indices, levels = draw_batch_indices(data, cfg, rng)
    chunks = draw_chunks(model, data.x.take(indices, axis=0), levels, theta, phi, cfg, rng, grads)
    rows = reduce_chunks(chunks, reducers)
    total, counts = 0, {}
    for l, c in enumerate(np.bincount(levels).tolist()):
        if c:
            counts[l] = c
            total += c * (cfg.n0 << l)
    return cfg.mass_table[levels], rows, total, counts


def reduce_chunks(chunks: Iterator[LevelDraws], reducers) -> list[np.ndarray]:
    """Per reducer, its rows of every chunk in order, (M, ...): each chunk
    is reduced by every reducer before the next is drawn."""
    rows = [[] for _ in reducers]
    for draws in chunks:
        for out, reduce in zip(rows, reducers):
            out.append(reduce(draws))
    return [r[0] if len(r) == 1 else np.concatenate(r) for r in rows]


@dataclass
class EvidenceEstimate:
    """Unbiased estimate of log p(X) with batch-level noise accounting."""

    value: float
    std_error: float
    total_cost: int
    per_level_counts: dict[int, int] = field(default_factory=dict)


def estimate_log_evidence(
    model: LatentVariableModel,
    data: Dataset,
    theta,
    phi,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    workers: int = 1,
) -> EvidenceEstimate:
    """(N/M) * sum_m z_m / mass(level_m): unbiased for log p(X).

    The reported std_error is N * std(z/mass) / sqrt(M) over the M batch
    terms, an estimate of this batch estimator's own noise (0 when M = 1).
    `workers` is accepted only as 1: batches run in order on one thread.
    """
    if _count("workers", workers) != 1:
        raise ContractViolation(f"workers must be 1, got {workers}")
    masses, (values,), total_cost, counts = run_batch(
        model, data, theta, phi, cfg, rng, reducers=[antithetic_difference], grads=()
    )
    terms = values / masses
    n = data.n_total
    m = len(terms)
    # terms.mean() and terms.std(ddof=1) in numpy's own operand order
    mean = np.add.reduce(terms) / m
    value = n * float(mean)
    if m < 2:
        std_error = 0.0
    else:
        terms -= mean
        terms *= terms
        std_error = n * math.sqrt(np.add.reduce(terms) / (m - 1)) / math.sqrt(m)
    return EvidenceEstimate(
        value=value,
        std_error=std_error,
        total_cost=total_cost,
        per_level_counts=counts,
    )
