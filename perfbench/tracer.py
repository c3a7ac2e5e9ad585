"""Layer spans recorded from outside the library.

The tracer replaces library functions at the names their callers look them
up under (a module attribute or a class attribute) with wrappers that time
each call. Spans are folded into per-name totals as they end instead of
being stored one by one: the estimate-small workload makes about half a
million calls a run, and the totals are all the per-layer metrics need.

A span's self time is its duration minus the time covered by the spans
it caused on the same thread. Batch members that run on a pool thread
start a fresh stack there, so their time is not subtracted from the
`run_batch` span that waits for them; no metric uses that self time.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class SpanTotals:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    """Wraps library functions and accumulates their spans.

    One client thread drives the library; member work may run on pool
    threads, so totals are updated under a lock and span stacks are
    thread-local.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []
        self.spans: dict[str, SpanTotals] = defaultdict(SpanTotals)
        # While paused, wrapped functions run unrecorded (mid-run set-ups).
        self.paused = False
        # Innermost active entry call and whether its caller keeps the
        # level gradients computed under it.
        self._consumers: list[bool] = []
        self.gradients_computed = 0
        self.gradients_consumed = 0
        # run_batch accounting for parallel efficiency: member CPU seconds
        # against workers x run_batch wall seconds.
        self._member_s = 0.0
        self.member_s = 0.0
        self.capacity_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, items=None, role=None) -> None:
        """Replace `owner.attr` with a timed wrapper recorded as `name`.

        `items(args, kwargs, result)` counts work units (draws, rows) for
        the span. `role` marks special spans: "entry-consumes" and
        "entry-discards" for calls whose caller keeps or drops the level
        gradients computed beneath them, "gradient" for a level-gradient
        computation, "batch" for run_batch and "member" for level_estimate.
        Member time is counted in thread CPU seconds, so a member waiting
        for the interpreter lock on a pool thread does not count as busy.
        """
        own = attr in vars(owner)
        fn = getattr(owner, attr)
        self._restore.append((owner, attr, fn, own))
        totals = self.spans
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            if role == "entry-consumes" or role == "entry-discards":
                self._consumers.append(role == "entry-consumes")
            elif role == "batch":
                self._member_s = 0.0
            result = None
            c0 = time.thread_time() if role == "member" else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                n = items(args, kwargs, result) if (items and result is not None) else 0
                with lock:
                    s = totals[name]
                    s.calls += 1
                    s.total_s += dt
                    s.self_s += dt - frame[0]
                    s.items += n
                    if role == "member":
                        self._member_s += time.thread_time() - c0
                    elif role == "gradient":
                        self.gradients_computed += 1
                        if self._consumers and self._consumers[-1]:
                            self.gradients_consumed += 1
                    elif role == "batch":
                        workers = kwargs.get("workers", args[6] if len(args) > 6 else 1)
                        self.member_s += self._member_s
                        self.capacity_s += workers * dt
                if role == "entry-consumes" or role == "entry-discards":
                    self._consumers.pop()

        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        while self._restore:
            owner, attr, fn, own = self._restore.pop()
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)


def _rows(arg_index: int):
    return lambda args, kwargs, result: int(args[arg_index].shape[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, at the names their
    callers use."""
    from mlmc_evidence import diagnostics, estimator, gradients, logspace, models, rng, trainer

    w = tracer.wrap
    w(rng, "spawn", "rng.spawn")

    w(estimator, "draw_batch_indices", "estimator.draw_batch_indices")
    w(estimator, "run_batch", "estimator.run_batch", role="batch")
    w(estimator, "level_estimate", "estimator.level_estimate", role="member")
    draws = lambda args, kwargs, result: result.n  # noqa: E731
    w(estimator, "draw_level_samples", "estimator.draw_level_samples", items=draws)
    w(diagnostics, "draw_level_samples", "estimator.draw_level_samples", items=draws)
    w(estimator, "antithetic_difference", "estimator.antithetic_difference")
    w(diagnostics, "antithetic_difference", "estimator.antithetic_difference")
    w(estimator, "estimate_log_evidence", "estimator.estimate_log_evidence", role="entry-discards")

    w(gradients, "grad_theta_level", "gradients.grad_theta_level", role="gradient")
    w(diagnostics, "grad_theta_level", "gradients.grad_theta_level", role="gradient")
    w(gradients, "grad_phi_elbo_level", "gradients.grad_phi_elbo_level", role="gradient")
    w(gradients, "estimate_gradients", "gradients.estimate_gradients", role="entry-consumes")

    w(estimator, "log_mean_exp_unchecked", "logspace.log_mean_exp")
    w(logspace, "log_mean_exp_unchecked", "logspace.log_mean_exp")
    w(gradients, "softmax_weights_unchecked", "logspace.softmax")
    w(logspace, "softmax_weights_unchecked", "logspace.softmax")
    w(logspace.StreamingMoments, "push", "logspace.moments_push")

    for cls in (models.GaussianConjugateModel, models.BernoulliGaussianModel):
        w(cls, "sample_q", "models.sample_q", items=lambda a, k, r: int(r.shape[0]))
        w(cls, "log_weight_batch", "models.log_weight_batch", items=_rows(2))
        w(cls, "oracle_log_evidence", "models.oracle")
        w(cls, "oracle_posterior_kl", "models.oracle")

    w(diagnostics, "variance_profile", "diagnostics.variance_profile", role="entry-consumes")

    w(trainer, "train", "trainer.train")
    w(trainer, "estimate_gradients", "trainer.estimate_gradients", role="entry-consumes")
    w(trainer, "estimate_log_evidence", "trainer.estimate_log_evidence", role="entry-discards")
    w(trainer, "_oracle_metrics", "trainer.oracle_metrics")


def per_layer_metrics(tracer: Tracer, ops: int, dataset_io_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the timed phase, per operation where so named.

    A layer the workload does not reach reads 0.
    """
    s = tracer.spans
    ms = 1e3 / ops

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    member = s["estimator.level_estimate"]
    draws = s["estimator.draw_level_samples"]
    lw = s["models.log_weight_batch"]
    sq = s["models.sample_q"]
    oracle = s["models.oracle"]
    return {
        "rng.spawn_ms_per_op": (s["rng.spawn"].total_s * ms, "ms"),
        "estimator.level_sampling_ms_per_op": (s["estimator.draw_batch_indices"].total_s * ms, "ms"),
        "estimator.member_self_us": (ratio(member.self_s, member.calls, 1e6), "us"),
        "estimator.parallel_efficiency": (ratio(tracer.member_s, tracer.capacity_s), "ratio"),
        "estimator.draws_per_op": (draws.items / ops, "count"),
        "estimator.members_per_op": (member.calls / ops, "count"),
        "models.log_weight_ns_per_draw": (ratio(lw.total_s, lw.items, 1e9), "ns"),
        "models.sample_q_ns_per_draw": (ratio(sq.total_s, sq.items, 1e9), "ns"),
        "models.log_weight_calls_per_op": (lw.calls / ops, "count"),
        "models.oracle_ms_per_op": (oracle.total_s * ms, "ms"),
        "models.oracle_calls_per_op": (oracle.calls / ops, "count"),
        "models.dataset_io_ms": (dataset_io_s * 1e3, "ms"),
        "gradients.theta_ms_per_op": (s["gradients.grad_theta_level"].total_s * ms, "ms"),
        "gradients.phi_ms_per_op": (s["gradients.grad_phi_elbo_level"].total_s * ms, "ms"),
        "gradients.useful_ratio": (
            ratio(tracer.gradients_consumed, tracer.gradients_computed), "ratio"),
        "logspace.log_mean_exp_ms_per_op": (s["logspace.log_mean_exp"].total_s * ms, "ms"),
        "logspace.softmax_ms_per_op": (s["logspace.softmax"].total_s * ms, "ms"),
        "logspace.moments_push_ms_per_op": (s["logspace.moments_push"].total_s * ms, "ms"),
        "diagnostics.profile_self_ms_per_op": (s["diagnostics.variance_profile"].self_s * ms, "ms"),
        "trainer.step_self_ms_per_op": (s["trainer.train"].self_s * ms, "ms"),
        "trainer.eval_ms_per_op": (
            (s["trainer.estimate_log_evidence"].total_s + s["trainer.oracle_metrics"].total_s) * ms,
            "ms"),
        "trainer.gradient_ms_per_op": (s["trainer.estimate_gradients"].total_s * ms, "ms"),
    }
