"""Randomized multilevel core for unbiased log-evidence estimation.

A level-l estimate draws n0 * 2^l latents from q, forms the log of their
mean importance weight, and subtracts the average of the log-means of the
two contiguous half-buffers of the same draws. The expectation of these
antithetic differences telescopes across levels to the exact log evidence,
so drawing the level from a geometric distribution and reweighting each
difference by its level probability gives an estimator of log p(X) with no
bias at any finite cost.

A batch is drawn in chunks of consecutive members (`draw_chunks`,
`LevelDraws`): member i owns a contiguous slice of n0 * 2^level_i draws,
and the model draws and weighs a chunk in one call (`draw_weighed`) with
the observations repeated as one row per draw, from standard normals drawn
into rows the chunk lends. A chunk's per-draw rows take at most
CHUNK_BYTES, so its memory stays bounded at any dimension, and every chunk
of one draw cuts its standard normals, its theta-gradient rows and the
reducers' per-draw rows from the start of one block allocated per draw, so
only the first maps fresh pages for them. Theta rows are component-major:
each component's values over the chunk's draws are one contiguous row.
`run_batch` reduces the batch chunk by chunk as it is drawn
(`reduce_chunks`), by segment with no loop over members, to one row per
member of each quantity its caller names, so no buffer spans the batch.
Each chunk is cut once into its members' halves and exponentiated once
(`Halves`), and every level reducer is a formula of that record.
The model builds only the gradient arrays the reducers read. The
evidence estimate folds the level values here and builds no gradient
arrays, and `gradients.estimate_gradients` folds the level gradients of the
same draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from . import gradients as _gradients
from .errors import ContractViolation, ResourceGuardExceeded
from .logspace import log_mean_exp_unchecked  # noqa: F401  perfbench/tracer.py wraps this name here
from .logspace import segment_exp
from .models import ALL_GRADS, Dataset, LatentVariableModel

#: Geometric ratio 2^(-3/2): level mass decays fast enough for finite
#: variance (weight 1/mass grows slower than the difference variance decays)
#: and slow enough for finite expected cost (mass decays faster than 2^-l).
DEFAULT_LEVEL_RATIO = 2.0 ** -1.5

DEFAULT_LEVEL_CAP = 40

#: Most bytes of per-draw rows (`row_bytes`) one chunk holds when a batch
#: is drawn: consecutive members share a model call up to this many bytes,
#: and a member larger than it is drawn alone. Of 0.5, 1, 1.5, 2, 3 and
#: 4 MiB, 4 MiB drew the most latents per second in level profiles while
#: every chunk still mapped fresh pages, before the one block per draw and
#: component-major theta rows. With them, an in-process sweep of profile
#: calls read 1 to 3 MiB 3-7 % faster than 4 MiB; that is not yet shown by
#: benchmark runs, so 4 MiB stays.
CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class LevelDistribution:
    """Geometric distribution over levels: mass(l) = (1 - r) * r^l.

    Normalizing the geometric family keeps the support unbounded (no
    truncation bias) and makes inverse-CDF sampling exact.
    """

    ratio: float = DEFAULT_LEVEL_RATIO

    def __post_init__(self):
        if not (0.0 < self.ratio < 0.5):
            raise ContractViolation(
                f"level ratio must lie in (0, 1/2) for finite expected cost, got {self.ratio}"
            )

    def mass(self, level):
        """mass(level) for one level, or elementwise for an array of levels."""
        level = np.asarray(level)
        if (level < 0).any():
            raise ContractViolation(f"level must be >= 0, got {level}")
        return (1.0 - self.ratio) * self.ratio**level

    @property
    def expected_cost_factor(self) -> float:
        """E[2^level] = (1 - r) / (1 - 2r), the per-draw cost multiplier."""
        return (1.0 - self.ratio) / (1.0 - 2.0 * self.ratio)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the randomized multilevel estimator.

    n0 is the latent count at level 0 (level l uses n0 * 2^l); batch_size
    is the number of (data point, level) terms averaged per estimate.
    """

    n0: int = 8
    batch_size: int = 1
    level_ratio_log2: float = -1.5
    level_cap: int = DEFAULT_LEVEL_CAP

    def __post_init__(self):
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
        # Built once (it validates the ratio); not a field, so equality,
        # hashing, repr and `dataclasses.replace` see only the four knobs.
        object.__setattr__(
            self, "_distribution", LevelDistribution(ratio=2.0**self.level_ratio_log2)
        )

    def distribution(self) -> LevelDistribution:
        return self._distribution


class Halves(NamedTuple):
    """A chunk cut into the segments the level reducers read, a level-0
    member as one segment and a deeper member as its two contiguous halves,
    with the one peak/exp/sum pass over them. Every level value is a
    function of d, the difference of a member's halves' log-sums."""

    starts: np.ndarray  # (S,) segment offsets, in buffer order
    shifted: np.ndarray  # (n,) each draw's exp, shifted by its segment's peak
    total: np.ndarray  # (S,) per-segment sum of `shifted`
    log_sums: np.ndarray  # (S,) per-segment log(sum_i exp(log f_i))
    a: np.ndarray  # (M,) each member's first segment
    b: np.ndarray  # (M,) its second segment; a at level 0
    d: np.ndarray  # (M,) log_sums[a] - log_sums[b]; 0 at level 0
    split: np.ndarray  # (M,) True where the member is cut in halves
    weighted: np.ndarray  # (n, theta_dim) component-major rows `average` writes its products into

    def average(self, rows: np.ndarray) -> np.ndarray:
        """The softmax(log f)-weighted average of `rows` within each
        segment, sum_i exp(log f_i) rows_i / sum_i exp(log f_i), (S, k).
        `rows` and `weighted` are component-major (n, k) views, so each
        product runs along the draws of one component; the segment sums
        add in the same order in any layout."""
        weighted = np.multiply(self.shifted[:, None], rows, out=self.weighted)
        return np.add.reduceat(weighted, self.starts, axis=0) / self.total[:, None]

    def merge(self, level_zero: np.ndarray, split_rows: np.ndarray) -> np.ndarray:
        """One row per member: `split_rows` where the member is split, its
        only segment's `level_zero` row where it is not."""
        split = self.split.reshape(self.split.shape + (1,) * (split_rows.ndim - 1))
        return np.where(split, split_rows, level_zero[self.a])


@dataclass
class LevelDraws:
    """Shared latent draws of M consecutive batch members, one chunk: member
    i owns the contiguous slice of n0 * 2^levels[i] draws, members in batch
    order. Level values and both gradient estimates are reductions of it.
    A gradient array the chunk was not drawn with is None. Its theta-gradient
    rows, `exp_row` and `weighted_rows` are cut from its draw's one block,
    which the next chunk of the same draw overwrites, so a chunk is valid
    until the next one is drawn; both sets of theta rows are component-major
    (n, theta_dim) views, each component one contiguous row."""

    levels: np.ndarray  # (M,)
    n0: int
    log_f: np.ndarray  # (n,)
    grad_theta_log_f: np.ndarray | None  # (n, theta_dim) component-major
    grad_phi_log_q: np.ndarray | None  # (n, phi_dim)
    exp_row: np.ndarray  # (n,) where `halves` writes the segment exp of log_f
    weighted_rows: np.ndarray  # (n, theta_dim) component-major, or (n, 0) with no theta gradient

    @property
    def n(self) -> int:
        return self.log_f.shape[0]

    @cached_property
    def sizes(self) -> np.ndarray:
        """Draws per member, (M,)."""
        return self.n0 << self.levels

    @cached_property
    def starts(self) -> np.ndarray:
        """Offset of each member's slice in the buffer, (M,)."""
        sizes = self.sizes
        return sizes.cumsum() - sizes

    @cached_property
    def halves(self) -> Halves:
        """The half segments and their one peak/exp/sum pass over log_f,
        made by whichever level reducer reads them first and shared by the
        rest, so a chunk is exponentiated once."""
        split = self.levels > 0
        per_member = 1 + split
        sizes = (self.sizes >> split).repeat(per_member)  # a split member's halves are equal
        starts = sizes.cumsum() - sizes
        a = per_member.cumsum() - per_member
        shifted, total, log_sums = segment_exp(self.log_f, starts, sizes, self.exp_row)
        b = a + split
        d = log_sums[a] - log_sums[b]
        return Halves(starts, shifted, total, log_sums, a, b, d, split, self.weighted_rows)


def row_bytes(model: LatentVariableModel, grads) -> int:
    """Bytes per draw of a chunk drawn with the gradient arrays `grads`:
    the rows cut from its draw's block (the standard normals, the segment
    exp of log f and, with the theta gradient, its rows and their weighted
    product in `Halves.average`) and the fresh x row, z row, log f and
    phi-gradient row; 88 B at Gaussian dim 1 with the theta gradient. The
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
    from `rng`, as flat buffers of consecutive members.

    Each chunk holds at most CHUNK_BYTES // `row_bytes` draws (47 662 at
    Gaussian dim 1 with the theta gradient), or one member that alone
    exceeds it, and costs one `draw_weighed` call with the member's
    observation repeated per draw. The latents come from `rng` in member
    order whatever the chunking, so chunk boundaries change no value.
    `grads` names the gradient arrays the chunks carry, a subset of
    {"theta", "phi"}; the others are None, and no value read from the
    chunks depends on it.

    A call allocates one block, sized for its largest chunk, and each
    chunk cuts from its start, in this order, its standard normals, its
    theta-gradient rows (if drawn), its exp row and `Halves.average`'s
    weighted rows: a chunk is valid until the next one is drawn. Theta
    rows are component-major, one contiguous length-n row per component
    lent as the transposed (n, theta_dim) view, so the model's column
    writes and the average's products run along the draws.
    """
    levels = np.asarray(levels, dtype=np.int64)
    if not levels.size:
        return
    if levels.min() < 0:
        raise ContractViolation(f"level must be >= 0, got {int(levels.min())}")
    top = int(levels.max())
    if top > cfg.level_cap:
        raise ResourceGuardExceeded(f"level {top} exceeds level cap {cfg.level_cap}")
    # the widest per-draw row a chunk holds, or all its rows, in bytes;
    # past 2^63 - 1 bytes the draw offsets below or an array's size would overflow
    per_draw = row_bytes(model, grads)
    row = max(8 * max(model.x_dim, model.z_dim, model.theta_dim, model.phi_dim), per_draw)
    if (levels.size * (int(cfg.n0) << top) * row) >> 63:
        raise ResourceGuardExceeded(
            f"{levels.size} members up to level {top} may need more than 2^63 - 1 bytes"
            f" at {row} bytes per draw"
        )
    sizes = cfg.n0 << levels
    ends = sizes.cumsum()
    budget = CHUNK_BYTES // per_draw  # draws per chunk
    k = model.theta_dim if "theta" in grads else 0
    d = model.z_dim
    # one allocation: as three arrays per call the rows mapped fresh pages
    # on every level profile (about 3900 minor faults per profile call)
    block = np.empty(min(int(ends[-1]), max(budget, int(cfg.n0) << top)) * (d + 1 + 2 * k))
    lo = 0
    while lo < levels.size:
        base = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(ends.searchsorted(base + budget, side="right")))
        x = x_rows[lo:hi].repeat(sizes[lo:hi], axis=0)
        n = int(ends[hi - 1] - base)
        rows = block[n * d : n * (d + 1 + 2 * k)]
        gt = rows[: n * k].reshape(k, n).T if k else None
        z, batch = model.draw_weighed(
            x, theta, phi, rng, block[: n * d].reshape(n, d), grads=grads, grad_theta_out=gt
        )
        if not np.isfinite(batch.log_f).all():
            i = int(np.flatnonzero(~np.isfinite(batch.log_f))[0])
            member = lo + int(np.searchsorted(ends[lo:hi] - base, i, side="right"))
            raise ContractViolation(
                f"non-finite log weight at x={x[i]!r}, z={z[i]!r} (level {levels[member]})"
            )
        yield LevelDraws(
            levels=levels[lo:hi],
            n0=cfg.n0,
            log_f=batch.log_f,
            grad_theta_log_f=batch.grad_theta_log_f,
            grad_phi_log_q=batch.grad_phi_log_q,
            exp_row=rows[n * k : n * (k + 1)],
            weighted_rows=rows[n * (k + 1) :].reshape(k, n).T,
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
    x_rows = np.asarray(x, dtype=np.float64).reshape(1, -1)
    (draws,) = draw_chunks(model, x_rows, [level], theta, phi, cfg, rng)
    return draws


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
    so each half is reduced once and the full buffer never again. Draw
    buffers were validated when drawn, so the raw reduction applies.
    """
    h = draws.halves
    # level-0 members hold n0 draws
    return h.merge(h.log_sums - math.log(draws.n0), _log_cosh(0.5 * h.d))


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
    return LevelEstimate(
        level=level,
        z_value=float(antithetic_difference(draws)[0]),
        grad_theta=_gradients.grad_theta_level(draws)[0],
        phi_grad_term=_gradients.grad_phi_elbo_level(draws)[0],
        cost=draws.n,
    )


@lru_cache(maxsize=16)
def _level_bounds(ratio: float, level_cap: int) -> np.ndarray:
    """The thresholds r^(level_cap + 1), ..., r^1 in ascending order, made
    once per (ratio, level_cap) and shared read-only by every batch."""
    bounds = ratio ** np.arange(level_cap + 1, 0, -1)
    bounds.flags.writeable = False
    return bounds


def sample_levels(
    dist: LevelDistribution, u: np.ndarray, level_cap: int = DEFAULT_LEVEL_CAP
) -> np.ndarray:
    """Exact inverse-CDF levels of uniforms u in (0, 1]: level l where
    r^(l+1) < u <= r^l, so P(level >= l) = r^l.

    Each level is the count of thresholds r^1, ..., r^(level_cap + 1) that
    u does not exceed. Exceeding `level_cap` raises instead of clamping,
    which preserves the no-truncation-bias property; at the default ratio
    the cap sits at probability r^40 ~ 1e-18, so a trip means
    misconfiguration, not bad luck.
    """
    u = np.asarray(u, dtype=np.float64)
    ok = (u > 0.0) & (u <= 1.0)
    if not ok.all():
        raise ContractViolation(f"uniform variate must lie in (0, 1], got {u[~ok][0]}")
    bounds = _level_bounds(dist.ratio, level_cap)
    levels = bounds.size - bounds.searchsorted(u)
    if levels.size and levels.max() > level_cap:
        raise ResourceGuardExceeded(f"sampled level exceeds level cap {level_cap}")
    return levels


def draw_batch_indices(
    data: Dataset, cfg: EstimatorConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's (data index, level) pairs: indices uniform with
    replacement, levels by exact inverse-CDF from the level distribution.
    A uniform variate of exactly 0.0 counts as 1.0, so the variates are
    uniform on (0, 1]."""
    if data.n_total < 1:
        raise ContractViolation("dataset is empty")
    indices = rng.integers(0, data.n_total, size=cfg.batch_size)
    u = rng.random(cfg.batch_size)
    levels = sample_levels(cfg.distribution(), np.where(u == 0.0, 1.0, u), cfg.level_cap)
    return indices, levels


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
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Draw one batch and reduce it chunk by chunk as it is drawn: the
    batch's levels, (M,), and per reducer its (M, ...) per-member rows.

    Every (data index, level) pair is drawn from `rng` before any latent,
    then the members draw their latents from `rng` in batch order, in
    the chunks of `draw_chunks`, each reduced as it is drawn. The chunks
    carry the gradient arrays named in `grads`, which must cover those the
    reducers read.
    """
    indices, levels = draw_batch_indices(data, cfg, rng)
    chunks = draw_chunks(model, data.x[indices], levels, theta, phi, cfg, rng, grads)
    return levels, reduce_chunks(chunks, reducers)


def reduce_chunks(chunks: Iterator[LevelDraws], reducers) -> list[np.ndarray]:
    """Per reducer, its rows of every chunk in order, (M, ...): each chunk
    is reduced by every reducer before the next is drawn."""
    rows = [[] for _ in reducers]
    for draws in chunks:
        for out, reduce in zip(rows, reducers):
            out.append(reduce(draws))
    return [np.concatenate(r) for r in rows]


def batch_cost(levels: np.ndarray, n0: int) -> tuple[int, dict[int, int]]:
    """Latent draws and per-level member counts of a batch, from its levels
    alone: the batch is reduced chunk by chunk as drawn and keeps no draws."""
    counts = {l: c for l, c in enumerate(np.bincount(levels).tolist()) if c}
    return sum(c * (n0 << l) for l, c in counts.items()), counts


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
    if workers != 1:
        raise ContractViolation(f"workers must be 1, got {workers}")
    levels, (values,) = run_batch(
        model, data, theta, phi, cfg, rng, reducers=[antithetic_difference], grads=()
    )
    terms = values / cfg.distribution().mass(levels)
    n = data.n_total
    m = len(terms)
    # terms.mean() and terms.std(ddof=1) in numpy's own operand order
    mean = terms.sum() / m
    value = n * float(mean)
    if m < 2:
        std_error = 0.0
    else:
        terms -= mean
        terms *= terms
        std_error = n * math.sqrt(terms.sum() / (m - 1)) / math.sqrt(m)
    total_cost, counts = batch_cost(levels, cfg.n0)
    return EvidenceEstimate(
        value=value,
        std_error=std_error,
        total_cost=total_cost,
        per_level_counts=counts,
    )
