"""Diagnostics contracts: exact decay-rate fits on synthetic inputs,
variance profiles at the zero-variance fixed point, reproducibility, the
concurrent profile against a sequential loop, the profile's worker process
under failure, and moment estimates with the analytic divergence flag."""

import contextvars
import itertools
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from mlmc_evidence import diagnostics
from mlmc_evidence import estimator as estimator_module
from mlmc_evidence import rng as rng_module
from mlmc_evidence.diagnostics import (
    LevelStats,
    estimate_moments,
    fit_decay_rate,
    naive_difference,
    naive_grad_theta,
    variance_profile,
)
from mlmc_evidence.errors import (
    ContractViolation,
    DivergenceError,
    ResourceGuardExceeded,
    UnsupportedOperation,
)
from mlmc_evidence.estimator import (
    EstimatorConfig,
    antithetic_difference,
    draw_chunks,
    reduce_chunks,
    row_bytes,
)
from mlmc_evidence.gradients import grad_theta_level
from mlmc_evidence.models import (
    BernoulliGaussianModel,
    Dataset,
    GaussianConjugateModel,
    LatentVariableModel,
)
from mlmc_evidence.rng import spawn, substream

MODEL = GaussianConjugateModel(1)
THETA = np.zeros(3)
PHI_POSTERIOR = MODEL.posterior_phi(THETA)
PHI_WIDE = np.array([0.0, 0.0, 0.5 * math.log(2.0)])
DATA = MODEL.generate_data(THETA, 20, substream(401, 0))
CFG = EstimatorConfig(n0=8)


def stats_from_values(values, levels):
    return [
        LevelStats(level=l, mean_z=0.0, var_z=v, var_grad_theta_max=v,
                   mean_cost=8.0 * 2**l, replications=100)
        for l, v in zip(levels, values)
    ]


class TestFitDecayRate:
    def test_exact_rate_two(self):
        stats = stats_from_values([2.0 ** (-2 * l) for l in range(8)], range(8))
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_rate_one(self):
        stats = stats_from_values([2.0 ** (-l) for l in range(8)], range(8))
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_three_points(self):
        stats = stats_from_values([4.0, 1.0, 0.25], [0, 1, 2])
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_levels_dropped(self, caplog):
        stats = stats_from_values([4.0, 1.0, 0.0, 0.0625, 0.015625], range(5))
        with caplog.at_level("WARNING"):
            fit = fit_decay_rate(stats)
        assert "dropped nonpositive levels [2]" in caplog.text
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)

    def test_too_few_points(self):
        stats = stats_from_values([1.0, 0.5, 0.0], range(3))
        with pytest.raises(ContractViolation):
            fit_decay_rate(stats)

    def test_field_selector(self):
        stats = stats_from_values([1.0] * 4, range(4))
        fit = fit_decay_rate(stats, "mean_cost")
        assert fit.slope == pytest.approx(1.0, abs=1e-12)  # cost doubles

    @pytest.mark.parametrize("n", [0, 4])
    def test_unknown_field_rejected(self, n):
        # named as unknown whether or not there are values to fit
        with pytest.raises(ContractViolation, match="^LevelStats has no field 'nope'$"):
            fit_decay_rate(stats_from_values([1.0] * n, range(n)), "nope")


class TestVarianceProfile:
    def test_zero_variance_at_posterior(self):
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_POSTERIOR, range(1, 4), 100, CFG, substream(402, 0)
        )
        for s in stats:
            assert s.var_z < 1e-20
            assert s.var_grad_theta_max < 1e-20

    @pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "naive"])
    def test_rounding_level_variance_reads_zero(self, antithetic):
        # q at the exact posterior (Bernoulli at theta = 0, phi = 0): the
        # level values' spread is rounding noise and var_z reads 0, while the
        # level-0 theta-gradient variance, a real spread, stays
        model = BernoulliGaussianModel()
        data = model.generate_data(np.zeros(2), 30, substream(407, 0))
        for seed in range(5):
            stats = variance_profile(
                model, data, np.zeros(2), np.zeros(4), range(0, 6), 100, CFG,
                substream(407, 1 + seed), antithetic=antithetic,
            )
            assert [s.var_z for s in stats] == [0.0] * 6
            assert stats[0].var_grad_theta_max > 1e-3

    def test_real_spread_is_kept_bit_for_bit(self):
        # a spread far above rounding level is the replications' own ddof-1
        # variance, as reduced from the same draws
        stats = variance_profile(MODEL, DATA, THETA, PHI_WIDE, [0, 3], 100, CFG, substream(408, 0))
        for s, stream in zip(stats, spawn(substream(408, 0), 2)):
            indices = stream.integers(0, DATA.n_total, size=100)
            chunks = draw_chunks(
                MODEL, DATA.x[indices], np.full(100, s.level), THETA, PHI_WIDE, CFG, stream,
                grads=("theta",),
            )
            (values,) = reduce_chunks(chunks, [antithetic_difference])
            assert s.var_z == float(values.var(ddof=1)) > 0.0

    def test_cost_accounting_exact(self):
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(0, 3), 100, CFG, substream(403, 0)
        )
        for s in stats:
            assert s.mean_cost == 8.0 * 2**s.level

    def test_bit_reproducible(self):
        a = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 4), 120, CFG, substream(404, 0)
        )
        b = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 4), 120, CFG, substream(404, 0)
        )
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_antithetic_variance_below_naive(self):
        # the same generator state gives both variants identical draws, so
        # the comparison is paired; antithetic must win at every level here
        anti = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(2, 6), 400, CFG, substream(405, 0)
        )
        naive = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(2, 6), 400, CFG, substream(405, 0),
            antithetic=False,
        )
        for sa, sn in zip(anti, naive):
            assert sa.var_z < sn.var_z

    def test_replication_floor(self):
        with pytest.raises(ContractViolation):
            variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, range(1, 3), 99, CFG, substream(406, 0)
            )

    def test_empty_dataset_rejected(self, monkeypatch):
        # the profile refuses an empty dataset as a batch does, before it
        # spawns any level stream
        def forbidden(rng, n):
            raise AssertionError("profile spawned level streams")

        monkeypatch.setattr(rng_module, "spawn", forbidden)
        empty = Dataset(np.zeros((0, 1)))
        with pytest.raises(ContractViolation, match="^dataset is empty$"):
            variance_profile(
                MODEL, empty, THETA, PHI_WIDE, range(1, 3), 100, CFG, substream(406, 1)
            )

    @pytest.mark.parametrize("levels, replications, message", [
        ([1.5, 2], 100, "levels[0] must be an integer, got 1.5"),
        ([True, 2], 100, "levels[0] must be an integer, got True"),
        ([2, np.float64(3.0)], 100, "levels[1] must be an integer, got np.float64(3.0)"),
        ([-1, 2], 100, "levels must be >= 0, got [-1, 2]"),
        ([1, 2], 100.0, "replications must be an integer, got 100.0"),
        ([1, 2], True, "replications must be an integer, got True"),
    ])
    def test_counts_checked_before_any_stream_is_spawned(
        self, monkeypatch, levels, replications, message
    ):
        def forbidden(rng, n):
            raise AssertionError("profile spawned level streams")

        monkeypatch.setattr(rng_module, "spawn", forbidden)
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, levels, replications, CFG, substream(409, 0)
            )

    @pytest.mark.parametrize("levels, message", [
        (3, "levels must be a sequence of levels, got 3"),
        (np.array([[1, 2]]), "levels must be a sequence of levels, got [[1, 2]]"),
        (np.array([1.0, 2.0]), "levels must hold integers, got float64 entries"),
        (np.array([True, False]), "levels must hold integers, got bool entries"),
        (np.array([3, -1]), "levels must be >= 0, got [3, -1]"),
        ("12", "levels must be an integer, got '12'"),
    ])
    def test_levels_follow_the_level_rule_before_any_stream_is_spawned(
        self, monkeypatch, levels, message
    ):
        # one level alone once ended in a bare TypeError
        def forbidden(rng, n):
            raise AssertionError("profile spawned level streams")

        monkeypatch.setattr(rng_module, "spawn", forbidden)
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            variance_profile(MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(409, 1))

    def test_numpy_levels_run_as_python_ints(self):
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, np.array([1, 0], dtype=np.uint8), 100, CFG,
            substream(409, 2),
        )
        assert [type(s.level) for s in stats] == [int, int] and [s.level for s in stats] == [1, 0]

    @pytest.mark.parametrize("dim, replications, row", [(1, 2**62, 8), (3, 2**61, 24)])
    def test_an_oversized_index_draw_is_refused_before_any_stream_is_spawned(
        self, monkeypatch, dim, replications, row
    ):
        # numpy once refused the index draw with a bare "array is too big"
        def forbidden(rng, n):
            raise AssertionError("profile spawned level streams")

        monkeypatch.setattr(rng_module, "spawn", forbidden)
        model = GaussianConjugateModel(dim)
        message = (
            f"{replications} replications may need more than 2^63 - 1 bytes"
            f" at {row} bytes per replication"
        )
        with pytest.raises(ResourceGuardExceeded, match=f"^{re.escape(message)}$"):
            variance_profile(
                model, Dataset(np.zeros((5, dim))), np.zeros(model.theta_dim),
                np.zeros(model.phi_dim), [1, 2], replications, CFG, substream(409, 2),
            )

    def test_numpy_counts_are_stored_as_python_ints(self):
        got = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, np.array([2, 1]), np.int64(100), CFG, substream(409, 1)
        )
        assert got == variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, [2, 1], 100, CFG, substream(409, 1)
        )
        assert [type(s.level) for s in got] == [int, int]

    def test_moderate_slope_sanity(self):
        # desk-scale pre-check of the rate separation; the full-size run
        # with its calibrated windows lives in the acceptance suite
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 6), 2000, CFG, substream(407, 0)
        )
        naive = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 6), 2000, CFG, substream(407, 0),
            antithetic=False,
        )
        slope_anti = fit_decay_rate(stats).slope
        slope_naive = fit_decay_rate(naive).slope
        assert slope_anti < -1.5
        assert slope_naive > -1.5
        assert slope_naive - slope_anti > 0.5


def bounded(fn, *args, timeout=120.0, **kwargs):
    """fn(*args, **kwargs), run on a daemon thread that must return within
    `timeout` seconds, so a pool that never finishes fails the test instead
    of hanging the suite."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    # in a copy of the caller's context, as the profile runs its levels
    worker = threading.Thread(target=contextvars.copy_context().run, args=(run,), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no result within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def sequential_profile(model, data, theta, phi, levels, replications, cfg, rng, antithetic=True):
    """The profile as a plain loop over the levels in order, one spawned
    child stream each, on the calling thread."""
    value_fn, grad_fn = (
        (antithetic_difference, grad_theta_level) if antithetic
        else (naive_difference, naive_grad_theta)
    )
    stats = []
    for lvl, stream in zip(levels, rng.spawn(len(levels))):
        indices = stream.integers(0, data.n_total, size=replications)
        chunks = draw_chunks(
            model, data.x[indices], np.full(replications, lvl), theta, phi, cfg, stream,
            grads=("theta",),
        )
        values, grads = reduce_chunks(chunks, [value_fn, grad_fn])
        stats.append(LevelStats(
            level=lvl,
            mean_z=float(values.mean()),
            var_z=float(values.var(ddof=1)),
            var_grad_theta_max=float(np.max(grads.var(axis=0, ddof=1))),
            mean_cost=float(cfg.n0 << lvl),
            replications=replications,
        ))
    return stats


def setting(name, dim):
    model = GaussianConjugateModel(dim) if name == "gaussian" else BernoulliGaussianModel()
    gen = substream(420, dim)
    theta = 0.3 * gen.standard_normal(model.theta_dim)
    data = model.generate_data(theta, 20, gen)
    return model, data, theta, 0.3 * gen.standard_normal(model.phi_dim)


class FailsAtDraws(GaussianConjugateModel):
    """Gaussian dim 1 whose chunks of the given draw counts fail."""

    def __init__(self, failing):
        super().__init__(1)
        self.failing = failing

    def draw_weighed(self, x, *args, **kwargs):
        if x.shape[0] in self.failing:
            raise ContractViolation(f"chunk of {x.shape[0]} draws failed")
        return super().draw_weighed(x, *args, **kwargs)


class TestConcurrentProfile:
    """The levels run concurrently, costliest first; every value must equal
    a sequential loop's, bit for bit, under any schedule."""

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name, dim", [("gaussian", 1), ("gaussian", 3), ("bernoulli", 1)])
    def test_equals_a_sequential_loop(self, name, dim, antithetic):
        model, data, theta, phi = setting(name, dim)
        levels = [5, 0, 3, 3, 1]  # unsorted, with a duplicate
        want = sequential_profile(
            model, data, theta, phi, levels, 100, CFG, substream(421, dim), antithetic
        )
        got = bounded(
            variance_profile, model, data, theta, phi, levels, 100, CFG, substream(421, dim),
            antithetic=antithetic,
        )
        assert [s.level for s in got] == levels
        assert got == want

    def test_no_levels(self):
        assert bounded(
            variance_profile, MODEL, DATA, THETA, PHI_WIDE, [], 100, CFG, substream(422, 0)
        ) == []

    def test_levels_run_under_the_callers_numpy_error_state(self):
        seen = []

        class Recording(GaussianConjugateModel):
            def draw_weighed(self, *args, **kwargs):
                seen.append(np.geterr()["over"])
                return super().draw_weighed(*args, **kwargs)

        with np.errstate(over="raise"):
            bounded(
                variance_profile, Recording(1), DATA, THETA, PHI_WIDE, [3, 1, 2], 100, CFG,
                substream(425, 0),
            )
        assert seen == ["raise"] * 3

    def test_first_failing_level_in_caller_order_is_raised(self):
        # levels 2 and 5 fail (one chunk of 100 * 8 * 2^level draws each);
        # level 5 is submitted first, but level 2 comes first in `levels`
        model = FailsAtDraws({800 << 2, 800 << 5})
        before = threading.active_count()
        with pytest.raises(ContractViolation, match=f"chunk of {800 << 2} draws failed"):
            bounded(
                variance_profile, model, DATA, THETA, PHI_WIDE, [2, 5, 4], 100, CFG,
                substream(423, 0),
            )
        assert threading.active_count() == before

    def test_many_levels_under_frequent_thread_switches(self):
        levels = [3, 0, 5, 1, 4, 2, 2, 5, 0, 3, 1, 4]  # more levels than CPUs
        want = sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(424, 0)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = bounded(
                    variance_profile, MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG,
                    substream(424, 0),
                )
                assert got == want
        finally:
            sys.setswitchinterval(interval)


#: the process that imported this module: the test's own, never a worker
TEST_PID = os.getpid()


def wait_for(done, what: str) -> None:
    """Poll `done()` until it is true; raise TimeoutError naming `what`
    after 60 s."""
    deadline = time.monotonic() + 60
    while not done():
        if time.monotonic() > deadline:
            raise TimeoutError(f"no {what} within 60 s")
        time.sleep(0.001)


class AfterTheWorker(GaussianConjugateModel):
    """Gaussian dim 1 whose chunks in a worker process first leave the file
    `marker`, and whose chunks in the test's own process first wait for it,
    then draw as `draw` does. With two CPUs the caller's costliest level
    then waits until the worker has taken the other, so where each level
    runs does not depend on timing. `TestWorkerProcess.profile` names a
    fresh marker for each call."""

    marker = None

    def __init__(self):
        super().__init__(1)

    def draw_weighed(self, x, *args, **kwargs):
        if os.getpid() != TEST_PID:
            self.marker.touch()
        else:
            wait_for(self.marker.exists, "chunk drawn in a worker process")
        return self.draw(x, *args, **kwargs)

    def draw(self, x, *args, **kwargs):
        return super().draw_weighed(x, *args, **kwargs)


class ReportsErrorState(AfterTheWorker):
    """`AfterTheWorker` whose every chunk fails, naming numpy's overflow
    mode and the process the chunk ran in."""

    def draw(self, x, *args, **kwargs):
        raise ContractViolation(f"over={np.geterr()['over']} pid={os.getpid()}")


class RaisesAtDraws(AfterTheWorker):
    """`AfterTheWorker` whose chunks of `size` draws raise `error()`."""

    def __init__(self, size, error):
        super().__init__()
        self.size, self.error = size, error

    def draw(self, x, *args, **kwargs):
        if x.shape[0] == self.size:
            raise self.error()
        return super().draw(x, *args, **kwargs)


class ReportsChunks(AfterTheWorker):
    """`AfterTheWorker` whose every chunk fails, naming its draw count and
    the process the chunk ran in."""

    def draw(self, x, *args, **kwargs):
        raise ContractViolation(f"chunk of {x.shape[0]} draws pid={os.getpid()}")


class Unrebuildable(Exception):
    """An error that pickles but does not rebuild from its args."""

    def __init__(self, pid, note):
        super().__init__(f"{note} in process {pid}")
        self.pid = pid


def diverge():
    return DivergenceError(os.getpid(), 1.0, 2.0)


def unrebuildable():
    return Unrebuildable(os.getpid(), "failed")


class Overflows(GaussianConjugateModel):
    """The Gaussian model, overflowing once in numpy per chunk."""

    def draw_weighed(self, *args, **kwargs):
        np.exp(np.array([1000.0]))
        return super().draw_weighed(*args, **kwargs)


class ExitsAtDraws(AfterTheWorker):
    """`AfterTheWorker` whose worker process exits on a chunk of `size`
    draws; the test's own process draws it as the plain model does."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def draw(self, x, *args, **kwargs):
        if x.shape[0] == self.size and os.getpid() != TEST_PID:
            os._exit(3)
        return super().draw(x, *args, **kwargs)


class AfterTheOthers(GaussianConjugateModel):
    """Gaussian dim 1 whose chunks in a worker process each leave a file in
    the directory `marks`, named by their draw count, once drawn, and whose
    chunks in the test's own process first wait until the files of the
    draw counts `others` all exist."""

    def __init__(self, marks, others):
        super().__init__(1)
        self.marks, self.others = marks, others

    def draw_weighed(self, x, *args, **kwargs):
        if os.getpid() == TEST_PID:
            wait_for(
                lambda: all((self.marks / str(n)).exists() for n in self.others),
                "chunk of every other level drawn in a worker process",
            )
        drawn = super().draw_weighed(x, *args, **kwargs)
        if os.getpid() != TEST_PID:
            (self.marks / str(x.shape[0])).touch()
        return drawn


def process_running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="profiles fork no worker here")
class TestWorkerProcess:
    """With two CPUs, the caller runs the costliest level and one forked
    worker process takes the others. With an `AfterTheWorker` model on
    levels [1, 4] or [5, 2], the first level in `levels` runs in the worker.
    Every model here is a module-level class, so its levels are sent to the
    worker."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch, tmp_path):
        monkeypatch.setattr(diagnostics, "_cpu_count", lambda: 2)
        self.markers = (tmp_path / f"drawn-{k}" for k in itertools.count())

    def profile(self, model, levels, seed):
        if isinstance(model, AfterTheWorker):
            model.marker = next(self.markers)
        return bounded(
            variance_profile, model, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, seed)
        )

    def test_a_level_in_the_worker_sees_the_callers_error_state(self):
        for mode in ["raise", "ignore", "warn"]:
            with np.errstate(over=mode):
                with pytest.raises(ContractViolation) as raised:
                    self.profile(ReportsErrorState(), [1, 4], 0)
            over, pid = re.fullmatch(r"over=(\w+) pid=(\d+)", str(raised.value)).groups()
            assert over == mode
            assert int(pid) != os.getpid()

    def test_a_worker_that_exits_mid_call_is_replaced(self):
        with pytest.raises(ResourceGuardExceeded, match="exited mid-call"):
            self.profile(ExitsAtDraws(800 << 2), [5, 2], 1)
        want = sequential_profile(MODEL, DATA, THETA, PHI_WIDE, [5, 2], 100, CFG, substream(430, 2))
        assert self.profile(MODEL, [5, 2], 2) == want

    def test_an_interrupted_caller_discards_the_worker(self):
        # the caller is interrupted while the worker draws level 2; the
        # next call must not read that level's reply as its own
        with pytest.raises(KeyboardInterrupt):
            self.profile(RaisesAtDraws(800 << 5, KeyboardInterrupt), [5, 2], 3)
        want = sequential_profile(MODEL, DATA, THETA, PHI_WIDE, [5, 2], 100, CFG, substream(430, 4))
        assert self.profile(MODEL, [5, 2], 4) == want

    def test_a_divergence_in_the_worker_is_raised_with_its_fields(self):
        with pytest.raises(DivergenceError) as raised:
            self.profile(RaisesAtDraws(800 << 1, diverge), [1, 4], 5)
        error = raised.value
        assert error.step != os.getpid()  # the worker's pid
        assert (error.grad_norm_theta, error.grad_norm_phi) == (1.0, 2.0)
        assert str(error) == str(DivergenceError(error.step, 1.0, 2.0))

    def test_an_error_that_does_not_rebuild_is_raised_from_the_caller(self):
        # the worker answers with the level's position alone, so the caller
        # runs the level itself
        with pytest.raises(Unrebuildable) as raised:
            self.profile(RaisesAtDraws(800 << 1, unrebuildable), [1, 4], 5)
        assert raised.value.pid == os.getpid()
        assert self.profile(MODEL, [1, 4], 6) == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, 6)
        )

    def test_a_level_in_the_worker_draws_under_the_callers_chunk_budget(self, monkeypatch):
        # the budget goes with each call, so a worker forked under one
        # budget draws under whichever the caller holds at each call
        def chunk_of(seed):
            with pytest.raises(ContractViolation) as raised:
                self.profile(ReportsChunks(), [1, 4], seed)
            draws, pid = re.fullmatch(r"chunk of (\d+) draws pid=(\d+)", str(raised.value)).groups()
            assert int(pid) != os.getpid()
            return int(draws)

        default = estimator_module.CHUNK_BYTES
        small = 16 * row_bytes(ReportsChunks(), ("theta",))
        for budget, draws in [(small, 16), (default, 800 << 1), (small, 16)]:
            monkeypatch.setattr(estimator_module, "CHUNK_BYTES", budget)
            assert chunk_of(14) == draws

    def test_a_model_the_worker_cannot_load_runs_in_the_caller(self, monkeypatch):
        self.profile(MODEL, [1, 4], 7)  # the worker is forked before the class exists
        late = types.ModuleType("defined_after_the_fork")

        class Late(GaussianConjugateModel):
            pids = []

            def draw_weighed(self, *args, **kwargs):
                self.pids.append(os.getpid())
                return super().draw_weighed(*args, **kwargs)

        Late.__module__, Late.__qualname__ = late.__name__, "Late"
        late.Late = Late
        monkeypatch.setitem(sys.modules, late.__name__, late)
        got = self.profile(Late(1), [1, 4], 8)
        assert got == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, 8)
        )
        assert Late.pids == [os.getpid()] * 2

    def test_an_error_callback_runs_every_level_in_the_caller(self):
        calls = []
        with np.errstate(over="call"):
            previous = np.seterrcall(lambda kind, flag: calls.append(os.getpid()))
            try:
                got = self.profile(Overflows(1), [1, 4], 9)
            finally:
                np.seterrcall(previous)
        assert calls == [os.getpid()] * 2  # one chunk per level
        assert got == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, 9)
        )

    def test_a_level_in_the_worker_reads_rounding_under_the_callers_ulps(self, monkeypatch):
        # the rounding threshold goes with each call, so a worker forked
        # under the default reads a spread as rounding noise exactly when
        # the caller's threshold at that call covers it
        default = diagnostics.ROUNDING_ULPS
        for ulps, seed in [(default, 15), (2.0**80, 16), (default, 17)]:
            monkeypatch.setattr(diagnostics, "ROUNDING_ULPS", ulps)
            worker_level = self.profile(AfterTheWorker(), [1, 4], seed)[0]
            assert (worker_level.var_z > 0.0) == (ulps == default)

    def test_bins_whose_worker_cannot_be_forked_run_in_the_caller(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to be had")

        monkeypatch.setattr(diagnostics, "_cpu_count", lambda: 8)
        monkeypatch.setattr(diagnostics, "_fork_worker", no_fork)
        levels = [3, 0, 5, 1, 4, 2, 2, 5]
        assert self.profile(MODEL, levels, 10) == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, 10)
        )

    def test_a_forked_child_profiles_with_workers_of_its_own(self):
        self.profile(MODEL, [1, 4], 11)  # the parent's worker exists
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            writer.send(variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, 12)
            ))

        process = ctx.Process(target=child)
        process.start()
        try:
            got = bounded(reader.recv, timeout=60)
        finally:
            process.join(60)
            reader.close()
            writer.close()
        assert process.exitcode == 0
        for seed, profile in [(12, got), (13, self.profile(MODEL, [1, 4], 13))]:
            assert profile == sequential_profile(
                MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, seed)
            )

    def test_two_threads_profiling_at_once_get_their_sequential_values(self):
        # the first thread's own level (7) is long and the second's (1)
        # short, so a second thread that shared the worker would likely
        # read the first thread's level-0 reply as its own
        levels = [[7, 0], [1, 0]]
        want = [
            sequential_profile(
                MODEL, DATA, THETA, PHI_WIDE, levels[k], 100, CFG, substream(431, k)
            )
            for k in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
                got = [None, None]

                def run(k):
                    got[k] = variance_profile(
                        MODEL, DATA, THETA, PHI_WIDE, levels[k], 100, CFG, substream(431, k)
                    )

                threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                    assert not t.is_alive(), "no result within 120 s"
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    def test_three_workers_take_twelve_levels(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_cpu_count", lambda: 4)
        levels = [3, 0, 5, 1, 4, 2, 2, 5, 0, 3, 1, 4]  # unsorted, with duplicates
        assert self.profile(MODEL, levels, 18) == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, 18)
        )
        assert len(diagnostics._workers) >= 3

    def test_a_caller_held_until_the_worker_has_run_every_other_level(self, tmp_path):
        # the caller's level 6 waits for the worker's chunks of levels 1..3,
        # so the worker must take every other token while the caller is busy
        levels = [2, 6, 1, 3, 1]
        others = {800 << 1, 800 << 2, 800 << 3}
        got = self.profile(AfterTheOthers(tmp_path, others), levels, 19)
        assert got == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, 19)
        )
        assert {int(p.name) for p in tmp_path.iterdir()} == others

    def test_a_forked_child_profiling_with_its_parent_gets_its_own_values(self):
        # the child forgets the parent's token pipe, so neither takes the
        # other's tokens while both profile at once
        levels = [3, 0, 5, 1, 4, 2, 2, 5, 0, 3, 1, 4]
        self.profile(MODEL, [1, 4], 20)  # the parent's worker and token pipe exist
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            writer.send(variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, 21)
            ))

        process = ctx.Process(target=child)
        process.start()
        try:
            mine = self.profile(MODEL, levels, 22)
            theirs = bounded(reader.recv, timeout=60)
        finally:
            process.join(60)
            reader.close()
            writer.close()
        assert process.exitcode == 0
        for seed, profile in [(21, theirs), (22, mine)]:
            assert profile == sequential_profile(
                MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, seed)
            )

    def test_tokens_an_interrupted_call_left_are_not_taken(self, monkeypatch):
        # the worker cannot load the class, so it takes no token, and the
        # caller is interrupted on its own level before it takes any: both
        # tokens stay in the pipe, and the next call must empty it first
        self.profile(MODEL, [1, 4], 23)  # the worker is forked before the class exists
        late = types.ModuleType("interrupted_after_the_fork")

        class Late(GaussianConjugateModel):
            def draw_weighed(self, *args, **kwargs):
                raise KeyboardInterrupt

        Late.__module__, Late.__qualname__ = late.__name__, "Late"
        late.Late = Late
        monkeypatch.setitem(sys.modules, late.__name__, late)
        with pytest.raises(KeyboardInterrupt):
            self.profile(Late(1), [5, 2, 1], 24)
        assert self.profile(MODEL, [1, 4], 25) == sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, [1, 4], 100, CFG, substream(430, 25)
        )

    def test_levels_whose_tokens_do_not_fit_in_the_pipe_run_in_the_caller(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("no pipe size to set here")
        self.profile(MODEL, [1, 4], 26)  # the token pipe exists
        write = diagnostics._tokens[1]
        size = fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)  # room for 1024 tokens
        try:
            levels = [1] + [0] * 1100
            assert self.profile(MODEL, levels, 27) == sequential_profile(
                MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(430, 27)
            )
        finally:
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, size)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read")
    def test_no_worker_outlives_a_killed_parent(self):
        script = (
            "import multiprocessing, sys\n"
            "import numpy as np\n"
            "from mlmc_evidence import diagnostics\n"
            "from mlmc_evidence.estimator import EstimatorConfig\n"
            "from mlmc_evidence.models import GaussianConjugateModel\n"
            "from mlmc_evidence.rng import substream\n"
            "diagnostics._cpu_count = lambda: 2\n"
            "model = GaussianConjugateModel(1)\n"
            "data = model.generate_data(np.zeros(3), 20, substream(432, 0))\n"
            "diagnostics.variance_profile(model, data, np.zeros(3), np.zeros(3), [1, 2], 100,\n"
            "                             EstimatorConfig(), substream(432, 1))\n"
            "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            "sys.stdin.read()\n"
        )
        src = Path(diagnostics.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env,
        )
        try:
            pids = [int(p) for p in bounded(parent.stdout.readline, timeout=60).split()]
        finally:
            parent.kill()
            parent.wait(60)
            parent.stdin.close()
            parent.stdout.close()
        assert len(pids) == 1
        deadline = time.monotonic() + 30
        while process_running(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not process_running(pids[0])


class TestEstimateMoments:
    def test_posterior_q_is_unit_weight(self):
        d = estimate_moments(
            MODEL, DATA.x[0], THETA, PHI_POSTERIOR, 4.5, 3.0, 10_000, substream(408, 0)
        )
        assert d.log_s_moment_estimate == pytest.approx(0.0, abs=1e-12)
        assert d.t_moment_estimate == pytest.approx(0.0, abs=1e-40)
        assert not d.tail_warning

    def test_analytically_divergent_case_warns(self):
        # q far narrower than the posterior: E[(f/p)^s] diverges once
        # s > (1/sq^2) / (1/sq^2 - 1/var_post); here the threshold is ~1.05
        phi_narrow = np.array([0.0, 0.0, math.log(0.15)])
        d = estimate_moments(
            MODEL, np.array([0.5]), THETA, phi_narrow, 4.5, 3.0, 100_000, substream(409, 0)
        )
        assert d.tail_warning

    def test_finite_case_stays_quiet(self):
        d = estimate_moments(
            MODEL, np.array([0.5]), THETA, PHI_WIDE, 4.5, 3.0, 100_000, substream(410, 0)
        )
        assert not d.tail_warning
        assert np.isfinite(d.log_s_moment_estimate)
        assert np.isfinite(d.t_moment_estimate)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_an_oversized_draw_is_refused_before_it_is_made(self, dim):
        # numpy once refused the draw's rows with a bare "array is too big"
        model = GaussianConjugateModel(dim)
        rng = substream(411, dim)
        state = rng.bit_generator.state
        message = (
            f"{2**62} draws may need more than 2^63 - 1 bytes at {8 * dim} bytes per draw"
        )
        with pytest.raises(ResourceGuardExceeded, match=f"^{re.escape(message)}$"):
            estimate_moments(
                model, np.zeros(dim), np.zeros(model.theta_dim), np.zeros(model.phi_dim),
                4.5, 3.0, 2**62, rng,
            )
        np.testing.assert_equal(rng.bit_generator.state, state)

    def test_log_s_moment_finite_past_float_overflow(self):
        # log E[(f/p)^s] is about 699.45 here: below float64's overflow at
        # about 709.78, and once reported as inf by a cut-off at 700
        d = estimate_moments(
            MODEL, np.array([1.3]), np.zeros(3), np.zeros(3), 915, 3, 100_000, substream(0, 3)
        )
        assert d.log_s_moment_estimate == pytest.approx(699.45, abs=0.01)

    def test_requires_oracle(self):
        class NoOracle(LatentVariableModel):
            x_dim = z_dim = 1
            theta_dim = phi_dim = 1

            def q_loc_log_scale(self, x, phi):
                return np.zeros(1), np.zeros(1)

            def log_joint(self, x, z, theta, grad_theta):
                raise NotImplementedError

            def q_grad_phi(self, x, dloc, dlog_scale, out):
                raise NotImplementedError

            def generate_data(self, theta, n, rng):
                raise NotImplementedError

        with pytest.raises(UnsupportedOperation):
            estimate_moments(
                NoOracle(), np.zeros(1), np.zeros(1), np.zeros(1), 4.5, 3.0,
                10_000, substream(411, 0),
            )

    def test_parameter_validation(self):
        with pytest.raises(ContractViolation):
            estimate_moments(
                MODEL, DATA.x[0], THETA, PHI_WIDE, -1.0, 3.0, 10_000, substream(412, 0)
            )
        with pytest.raises(ContractViolation):
            estimate_moments(
                MODEL, DATA.x[0], THETA, PHI_WIDE, 4.5, 3.0, 999, substream(413, 0)
            )

    @pytest.mark.parametrize("field, value", [
        ("n_draws", 1e4), ("n_draws", True), ("n_draws", "10000"),
        ("s_exponent", "4.5"), ("s_exponent", True), ("t_exponent", "3.0"),
        ("t_exponent", np.bool_(True)),
    ], ids=["10000.0", "True", "10000", "s_exponent-4.5", "s_exponent-True", "t_exponent-3.0",
            "t_exponent-np.True_"])
    def test_draw_count_must_be_an_integer(self, field, value):
        # the exponents are real numbers by the same rule; a bool was once
        # reported as 1.0 and a string raised a bare TypeError
        args = {"s_exponent": 4.5, "t_exponent": 3.0, "n_draws": 10_000, field: value}
        kind = "an integer" if field == "n_draws" else "a real number"
        with pytest.raises(ContractViolation, match=f"^{field} must be {kind}, got {value!r}$"):
            estimate_moments(MODEL, DATA.x[0], THETA, PHI_WIDE, **args, rng=substream(415, 0))

    @pytest.mark.parametrize(
        "s, t", [(math.nan, 3.0), (4.5, math.nan), (math.inf, 3.0), (4.5, math.inf)]
    )
    def test_nonfinite_exponents_rejected(self, s, t):
        with pytest.raises(ContractViolation, match="finite and positive"):
            estimate_moments(MODEL, DATA.x[0], THETA, PHI_WIDE, s, t, 10_000, substream(414, 0))
