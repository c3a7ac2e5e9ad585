"""Empirical verification harness: per-level variance and cost profiles,
decay-rate regression, and tail/moment diagnostics for the importance
weights.

A profile draws each level's replications as the members of flat draw
buffers (`estimator.draw_chunks`), with the theta-gradient array only, and
reduces them by segment as they are drawn (`estimator.reduce_chunks`, the
batch's own loop), one row per replication, with no loop over
replications. The level value and its theta-gradient are `estimator`'s
reducers of the chunk's segment statistics (`estimator.LevelDraws`), so
they share its one exponentiation and its one R per half.

A profile's levels run concurrently, taken costliest first as processes
free up: the calling thread runs the costliest level, and one persistent
worker process per other CPU, forked on the first profile that needs it,
and the caller once free each take the next level still to run, until
none is left; `_dispatch` lists where the caller runs every level itself.
Each level draws only from its own spawned stream, so no output depends on
which process runs it or when. Peak memory is one level's chunk block per
process, and where levels fail, the first failing level in the caller's
order is the one raised.

Cost is counted in latent draws (the only quantity that doubles per level);
wall clock is not asserted on anywhere.
"""
from __future__ import annotations

import logging
import math
import os
import pickle
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import estimator as _estimator
from . import rng as _rng
from .errors import ContractViolation, ResourceGuardExceeded
from .estimator import EstimatorConfig, _log_sum_scale, antithetic_difference, draw_chunks
from .estimator import grad_theta_level, naive_difference, naive_grad_theta, reduce_chunks
from .estimator import draw_level_samples  # noqa: F401  perfbench/tracer.py wraps this name here
from .models import Dataset, LatentVariableModel, _check_bytes, _count, _levels, _real

log = logging.getLogger(__name__)
# warnings reach stderr only where the application configures logging
log.addHandler(logging.NullHandler())

_EPS = 2.0**-52  # float64's machine epsilon

#: A level's var_z reads 0 when the standard deviation of its level values
#: is at most ROUNDING_ULPS * 2^-52 times the largest |log-sum| of its
#: segments: the values are differences of those log-sums, each rounded to
#: about 2^-52 of its magnitude, so such a spread is rounding noise, and a
#: decay fit to it reads last-bit luck. Where q is the exact posterior
#: (the Bernoulli model's defaults), levels 0..7 over 20 seeds spread at
#: most 0.82 such units, antithetic or naive.
ROUNDING_ULPS = 64


@dataclass
class LevelStats:
    """Replication moments of the level value and its theta-gradient."""

    level: int
    mean_z: float
    var_z: float
    var_grad_theta_max: float  # max over gradient components
    mean_cost: float
    replications: int


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: The profile's worker processes, (process, connection) pairs, forked on
#: the first profile that needs them and kept for the life of the process:
#: forking, a first exchange and a stop took 7-8 ms (2 CPUs) against about
#: 19 ms for a whole profile-levels call. The lock gives one caller at a
#: time their use.
_workers: list = []
_workers_lock = threading.Lock()
#: The (read, write) ends of the non-blocking pipe that holds a call's job
#: tokens, made with the first worker. The caller and the workers take
#: tokens by reading it, which holds nothing in user space, so a worker
#: killed mid-call (`_discard`) leaves no lock held for the next call.
_tokens: tuple | None = None


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
    variance of a theta-gradient component, in the order of `levels`. A
    variance at rounding level (`ROUNDING_ULPS`) reads 0.

    Each level gets one stream spawned from `rng`. It draws the level's
    replication data indices, then every replication's latents in order,
    in the batch draw's chunks of at most `estimator.CHUNK_BYTES` of rows.
    Replications get no streams of their own. The draw schedule depends
    only on the generator state, never on the `antithetic` flag, so
    profiling both variants from identically constructed generators
    compares them on the same latent draws.

    The levels run concurrently, taken costliest first by the caller and
    the worker processes as each frees up; `_dispatch` lists where the
    caller runs every level itself. A level's values depend only on its own
    stream, so they are the same bits wherever and whenever it runs. Peak
    memory is one level's chunk block per process. If levels fail, the
    first failing level in the order of `levels` is the one raised.
    """
    replications = _count("replications", replications)
    levels = _levels("levels", levels)
    if levels.ndim != 1:
        raise ContractViolation(f"levels must be a sequence of levels, got {levels.tolist()}")
    levels = levels.tolist()
    if replications < 100:
        raise ContractViolation(f"need at least 100 replications, got {replications}")
    if any(l > cfg.level_cap for l in levels):
        raise ContractViolation(f"levels {levels} exceed level cap {cfg.level_cap}")
    if data.n_total < 1:
        raise ContractViolation("dataset is empty")
    # the index draw and the rows of x it picks
    _check_bytes(replications, 8 * data.x.shape[1], "replication")
    theta, phi = model._check_parameters(theta, phi)
    jobs = []
    for lvl, stream in zip(levels, _rng.spawn(rng, len(levels))):
        indices = stream.integers(0, data.n_total, size=replications)
        jobs.append((lvl, data.x[indices], stream))
    outcomes = _dispatch((model, theta, phi, cfg, antithetic), jobs)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _level_stats(call: tuple, lvl, x_rows, stream) -> LevelStats:
    """One level's replications, one per row of `x_rows`, drawn from
    `stream` after it drew their data indices; `call` holds the profile's
    (model, theta, phi, cfg, antithetic)."""
    model, theta, phi, cfg, antithetic = call
    value_fn, grad_fn = (
        (antithetic_difference, grad_theta_level) if antithetic
        else (naive_difference, naive_grad_theta)
    )
    replications = len(x_rows)
    chunks = draw_chunks(
        model, x_rows, np.full(replications, lvl), theta, phi, cfg, stream, grads=("theta",),
    )
    values, grads, scale = reduce_chunks(chunks, [value_fn, grad_fn, _log_sum_scale])
    var_z = float(values.var(ddof=1))
    if math.sqrt(var_z) <= ROUNDING_ULPS * _EPS * float(np.maximum.reduce(scale)):
        var_z = 0.0
    return LevelStats(
        level=lvl,
        mean_z=float(values.mean()),
        var_z=var_z,
        var_grad_theta_max=float(np.max(grads.var(axis=0, ddof=1))),
        mean_cost=float(cfg.n0 << lvl),
        replications=replications,
    )


def _outcome(call: tuple, job) -> LevelStats | Exception:
    """A (level, x rows, stream) job's `LevelStats`, or the exception its
    level raised, to be raised in the caller's order."""
    try:
        return _level_stats(call, *job)
    except Exception as exc:
        return exc


def _dispatch(call: tuple, jobs: list) -> list:
    """Every job's outcome, as `_outcome` gives it. The jobs are ranked
    costliest (deepest) first, ties in caller order, and the caller runs the
    first itself. Each worker process, forked here if missing (one per CPU
    but the caller's, at most one per other job), gets one message of `call`,
    the caller's numpy error state, `estimator.CHUNK_BYTES`, `ROUNDING_ULPS`
    and the other jobs, whose positions the caller writes as tokens into the
    token pipe (`_tokens`). The caller, once free, and every worker take one
    token at a time and run its job, until the pipe is empty, and each
    worker replies with the positions it took and their outcomes. A worker
    runs the library as it was when forked, so other module state patched
    later is not seen there. The caller runs, with the same values:
    - every job, costliest first, on one CPU, on a platform without `fork`,
      under a numpy error state of `call` or `log` (the callback lives in
      the caller), while another thread's profile holds the workers, where
      no worker can be forked, or where the jobs cannot be pickled (a local
      class, an open file, ...);
    - the jobs whose tokens do not fit in the pipe, once it is empty;
    - the tokens of a worker that cannot load the message (a class defined
      after the fork): it takes none;
    - the jobs whose outcomes do not pickle and load back: their worker
      replies with their positions alone.
    A worker that exits or is interrupted mid-call is discarded, and the
    call raises."""
    ranked = sorted(range(len(jobs)), key=lambda i: -jobs[i][0])  # stable: ties in caller order
    procs = min(len(jobs), _cpu_count()) if hasattr(os, "fork") else 1
    held = (
        procs > 1
        and not {"call", "log"} & set(np.geterr().values())
        and _workers_lock.acquire(blocking=False)
    )
    outcomes = [None] * len(jobs)
    pending = []  # workers whose reply is half-read or still to come
    try:
        if held:
            for worker in [w for w in _workers if not w[0].is_alive()]:
                _discard(worker)
            while len(_workers) < procs - 1:
                try:
                    _workers.append(_fork_worker())
                except OSError:  # no process to be had: fewer workers
                    break
        workers = _workers[: procs - 1] if held else []
        rest = [jobs[i] for i in ranked[1:]]
        message = None
        if workers:
            try:
                message = pickle.dumps(
                    (call, np.geterr(), _estimator.CHUNK_BYTES, ROUNDING_ULPS, rest)
                )
            except Exception:  # a local class, an open file, ...
                pass
        if message is None:
            for i in ranked:
                outcomes[i] = _outcome(call, jobs[i])
            return outcomes
        unsent = _put_tokens(len(rest))
        for worker in workers:
            pending.append(worker)
            _pipe(worker, message)
        outcomes[ranked[0]] = _outcome(call, jobs[ranked[0]])
        done = dict(zip(*_claim(call, rest, _tokens[0])))  # outcomes by position in `rest`
        done.update((k, _outcome(call, rest[k])) for k in unsent)
        while pending:
            taken, theirs = pickle.loads(_pipe(pending[0]))
            del pending[0]
            if theirs is None:
                theirs = [_outcome(call, rest[k]) for k in taken]
            done.update(zip(taken, theirs))
        for k, outcome in done.items():
            outcomes[ranked[k + 1]] = outcome
        return outcomes
    except BaseException:
        for worker in pending:
            _discard(worker)
        raise
    finally:
        if held:
            _workers_lock.release()


def _put_tokens(count: int) -> range:
    """Empty the token pipe of what a call cut short left there, then write
    the tokens 0..count-1 into it, 4 little-endian bytes each; the tokens
    that do not fit, for the caller to run itself."""
    read, write = _tokens
    try:
        while os.read(read, 1 << 16):
            pass
    except BlockingIOError:  # empty
        pass
    data = np.arange(count, dtype="<u4").tobytes()
    # POSIX's least PIPE_BUF: a write of at most 512 bytes to a non-blocking
    # pipe writes all of them or none, so no token is ever split
    for start in range(0, len(data), 512):
        try:
            os.write(write, data[start : start + 512])
        except BlockingIOError:  # the pipe is full
            return range(start // 4, count)
    return range(0)


def _claim(call: tuple, jobs: list, tokens: int) -> tuple[list, list]:
    """Take one token at a time from the token pipe's read end `tokens` and
    run its job of `jobs`, until the pipe is empty: the positions taken and
    their outcomes. A 4-byte read takes one token whole, whichever of the
    profile's processes reads at the same time."""
    taken, outcomes = [], []
    while True:
        try:
            token = os.read(tokens, 4)
        except BlockingIOError:  # none left
            return taken, outcomes
        if not token:  # every write end has closed: the caller has exited
            return taken, outcomes
        taken.append(int.from_bytes(token, "little"))
        outcomes.append(_outcome(call, jobs[taken[-1]]))


def _pipe(worker, message: bytes | None = None):
    """Send `message` to `worker`, or with none, receive its reply; a
    worker that has exited raises `ResourceGuardExceeded`."""
    process, conn = worker
    try:
        return conn.recv_bytes() if message is None else conn.send_bytes(message)
    except (EOFError, OSError) as exc:
        raise ResourceGuardExceeded(
            f"variance-profile worker process {process.pid} exited mid-call"
        ) from exc


def _fork_worker():
    """A new worker process and the caller's end of its pipe; the token
    pipe is made with the first."""
    global _tokens
    # imported here: at module level it would add about 20 ms (2-CPU host)
    # to the library import
    import multiprocessing

    if _tokens is None:
        _tokens = os.pipe()
        for end in _tokens:
            os.set_blocking(end, False)
    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe()
    # the worker's own read end: `_forget_workers` closes `_tokens` in every
    # forked child, the workers included
    tokens = os.dup(_tokens[0])
    try:
        process = ctx.Process(
            target=_serve, args=(theirs, mine, tokens), name="variance-profile-worker",
            daemon=True,
        )
        process.start()
    finally:
        os.close(tokens)
    theirs.close()  # so the caller reads EOF once the worker exits
    return process, mine


def _discard(worker) -> None:
    """Stop a worker and forget it."""
    process, conn = worker
    _workers.remove(worker)
    conn.close()
    process.kill()
    process.join()


def _forget_workers() -> None:
    """In a forked child, the workers and the token pipe are the parent's:
    close the child's copies of the parent's pipe ends, so that each worker
    still reads EOF once the parent exits and the child's profiles never
    take the parent's tokens, and give the child workers of its own."""
    global _workers_lock, _tokens
    for _, conn in _workers:
        conn.close()
    _workers.clear()
    _workers_lock = threading.Lock()
    if _tokens is not None:
        for end in _tokens:
            os.close(end)
        _tokens = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _serve(conn, callers_end, tokens: int) -> None:
    """A worker's loop, until the caller's end of the pipe closes: load a
    call's message, take tokens from the token pipe's read end `tokens` and
    run their jobs under the caller's numpy error state and settings
    (`_claim`), and reply with the positions taken and their outcomes, or
    with the positions alone where the outcomes cannot be pickled and
    loaded back. A message that cannot be loaded takes no token."""
    global ROUNDING_ULPS
    import signal

    callers_end.close()
    # an interrupt is the caller's to handle; it discards this worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # held for good, so that a profile run here runs its levels itself
    _workers_lock.acquire(blocking=False)
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:
            return
        try:
            call, err, _estimator.CHUNK_BYTES, ROUNDING_ULPS, jobs = pickle.loads(message)
        except Exception:  # a class defined after the fork
            taken, outcomes = [], []
        else:
            with np.errstate(**err):
                taken, outcomes = _claim(call, jobs, tokens)
        try:
            reply = pickle.dumps((taken, outcomes))
            pickle.loads(reply)  # an exception that does not rebuild from its args
        except Exception:  # or one holding what cannot be pickled
            reply = pickle.dumps((taken, None))
        conn.send_bytes(reply)


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
    if field not in LevelStats.__dataclass_fields__:
        raise ContractViolation(f"LevelStats has no field {field!r}")
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
    s_exponent = _real("s_exponent", s_exponent)
    t_exponent = _real("t_exponent", t_exponent)
    if not (0.0 < s_exponent < math.inf and 0.0 < t_exponent < math.inf):
        raise ContractViolation(
            f"moment exponents must be finite and positive, got s={s_exponent}, t={t_exponent}"
        )
    n_draws = _count("n_draws", n_draws)
    if n_draws < 10_000:
        raise ContractViolation(f"need at least 1e4 draws, got {n_draws}")
    _check_bytes(n_draws, 8 * model.z_dim, "draw")
    log_p = model.oracle_log_evidence(x, theta)  # raises if no oracle
    if not math.isfinite(log_p):
        raise ContractViolation(f"oracle log evidence {log_p!r} is not finite")
    z, log_f = model.draw_weighed(x, theta, phi, rng, np.empty((n_draws, model.z_dim)))
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
        s_exponent=s_exponent,
        t_exponent=t_exponent,
        log_s_moment_estimate=log_s_moment,
        t_moment_estimate=t_moment,
        tail_warning=tail_share > 0.5,
    )
