"""Numerically stable log-domain kernels.

All densities and importance weights in this package live in natural-log
domain end to end; raw weights are never materialized. Reductions use a
single max-shift pass in double precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


def as_log_values(values) -> np.ndarray:
    """Validate a buffer of log-domain values.

    Rejects empty buffers and any non-finite element. A -inf log weight
    (a zero density) signals a support mismatch between the sampler and the
    target and would invalidate the estimator, so it is an error rather
    than something to absorb silently.
    """
    buf = np.asarray(values, dtype=np.float64)
    if buf.ndim != 1:
        buf = buf.reshape(-1)
    if buf.size == 0:
        raise ContractViolation("empty log-value buffer")
    if not np.isfinite(buf).all():
        bad = buf[~np.isfinite(buf)][0]
        raise ContractViolation(f"non-finite log value {bad!r} in buffer")
    return buf


def log_mean_exp_unchecked(buf: np.ndarray) -> float:
    """log_mean_exp for buffers already validated by as_log_values."""
    m = buf.max()
    return float(m + np.log(np.exp(buf - m).mean()))


def log_mean_exp(values) -> float:
    """log((1/n) sum_i exp(v_i)) without leaving log space.

    The result lies in [min(v), max(v)] exactly as for any mean.
    """
    return log_mean_exp_unchecked(as_log_values(values))


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


def softmax_weights_unchecked(buf: np.ndarray) -> np.ndarray:
    """softmax_weights for buffers already validated by as_log_values."""
    e = np.exp(buf - buf.max())
    return e / e.sum()


def softmax_weights(values) -> np.ndarray:
    """Normalized weights w_i = exp(v_i) / sum_j exp(v_j).

    Invariant under adding a constant to every v_i. Dotting the weights
    with per-sample gradients of log f reproduces the self-normalized
    ratio of the gradient mean to the weight mean, which is how gradient
    ratios are computed without ever exponentiating a raw log weight.
    """
    return softmax_weights_unchecked(as_log_values(values))


@dataclass
class StreamingMoments:
    """Single-pass (Welford) accumulator for mean and variance.

    Works on scalars or fixed-shape vectors; `m2` is the running sum of
    squared deviations, so variance = m2 / (count - 1).
    """

    count: int = 0
    mean: np.ndarray = field(default_factory=lambda: np.float64(0.0))
    m2: np.ndarray = field(default_factory=lambda: np.float64(0.0))

    def push(self, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        if self.count == 0:
            self.mean = np.zeros_like(value)
            self.m2 = np.zeros_like(value)
        self.count += 1
        delta = value - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (value - self.mean)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            raise ContractViolation("variance needs at least two observations")
        return self.m2 / (self.count - 1)
