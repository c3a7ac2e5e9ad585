"""Numerically stable log-domain kernels.

All densities and importance weights in this package live in natural-log
domain end to end; raw weights are never materialized. Reductions use a
single max-shift pass in double precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .models import _real_array


def log_mean_exp_unchecked(buf: np.ndarray) -> float:
    """log-mean-exp of a nonempty finite buffer, kept only for perfbench/tracer.py to wrap."""
    m = buf.max()
    return float(m + np.log(np.exp(buf - m).mean()))


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
    """Softmax weights of a nonempty finite buffer, kept only for perfbench/tracer.py to wrap."""
    e = np.exp(buf - buf.max())
    return e / e.sum()


@dataclass
class StreamingMoments:
    """Single-pass (Welford) accumulator for mean and variance.

    Works on scalars or fixed-shape vectors: every value pushed has the
    first one's shape. `m2` is the running sum of squared deviations, so
    variance = m2 / (count - 1).
    """

    count: int = 0
    mean: np.ndarray = field(default_factory=lambda: np.float64(0.0))
    m2: np.ndarray = field(default_factory=lambda: np.float64(0.0))

    def push(self, value) -> None:
        value = _real_array("value", value)
        if self.count == 0:
            self.mean = np.zeros_like(value)
            self.m2 = np.zeros_like(value)
        elif value.shape != self.mean.shape:
            raise ContractViolation(
                f"value has shape {value.shape}, but the first value pushed had {self.mean.shape}"
            )
        self.count += 1
        delta = value - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (value - self.mean)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            raise ContractViolation("variance needs at least two observations")
        return self.m2 / (self.count - 1)
