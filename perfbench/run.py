"""Benchmark of the mlmc_evidence library: evidence estimates, gradients,
training and level profiles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; the library is imported from its `src/`.
Each workload runs as a closed loop with one client in one process. The
run length is counted in operations, not read off the clock: `--seconds`
sets the number of whole rounds from the workload's nominal rate, capped
below 1000 operations, so two runs with the same seed do the same work and
consume the same number of latent draws whatever the host's speed. `--workload all` (the default)
runs every workload, each in its own child process, one after another.
`--quick` runs a few rounds of each workload with all correctness checks.

The host's speed drifts by up to 2x within seconds, so every operation and
set-up time the end-to-end metrics use is scaled to a reference speed: a
fixed numpy calibration kernel, owned by the benchmark, is timed between
operations and around each set-up, and a measured time t becomes
t * CAL_REF_S / kernel time. The library never runs inside the kernel, so a change to the library
moves the scaled times as it would move wall time on a steady host.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("estimate-small", "train-bernoulli", "profile-levels")
SETUP_REPS = 8
# Throughput is the median over this many contiguous blocks of operations,
# so a passing slow spell of the host moves it less than a plain ratio.
BLOCKS = 16
# Tail latency is read at the highest of these percentiles that leaves at
# least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 50.0)
# Runs stop short of 1000 operations, which keeps the tail at p95 or
# below. With 2400 estimate-small operations the p99 (24 samples beyond)
# was set by the host's stalls and read 14.5 to 28.3 ms over ten seeds.
MAX_OPS = 999
# The calibration kernel's time on the reference host (2.1 GHz Xeon vCPU,
# numpy 2.4). Scaled times read as wall times on a host of that speed.
CAL_REF_S = 1.0e-3
# Warm-up operations draw their streams from this seed, not the run's, so
# a set-up does the same work on every seed: a warm-up train call that
# happens to draw a deep level would otherwise move setup_s by seed.
WARMUP_SEED = 0
# Fresh interpreters whose import of the library is timed for setup_s.
IMPORT_REPS = 5


def import_library() -> float:
    """Import mlmc_evidence from this checkout's src/ and return the seconds
    it took. Exits with status 1 when the checkout holds no library."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import mlmc_evidence
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mlmc_evidence from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    if not Path(mlmc_evidence.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: mlmc_evidence resolved outside {SRC}: {mlmc_evidence.__file__}")
    return elapsed


def calibration_s() -> float:
    """Seconds the calibration kernel takes now: the lower of two runs, so an
    interrupt during one of them does not count.

    The kernel mixes the three kinds of work the library's calls are made
    of, because the host's slow spells do not slow them all alike: array
    arithmetic on 1024 doubles (exp, log1p, log-sum-exp, a dot product),
    the same on 16 doubles, where numpy's per-call overhead dominates, and
    interpreter work on small objects (a dict of tuples and lists, sorted).
    In a three-minute probe on the reference host, scaling by these kinds
    of work cut the spread of estimate-small, profile-levels and
    train-bernoulli operation times over 10 s windows from about 30 % to
    4-6 %."""
    import numpy as np

    wide = np.linspace(-3.0, 3.0, 1024)
    narrow = wide[::64].copy()
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0.0
        for x, reps in ((wide, 20), (narrow, 30)):
            for _ in range(reps):
                y = np.exp(0.5 * x) + np.log1p(x * x)
                m = y.max()
                acc += float(np.log(np.exp(y - m).sum()) + m) + float(np.dot(y, x))
        table = {(i, i % 7): [i, str(i)] for i in range(750)}
        acc += len(sorted(table.items(), key=lambda kv: kv[1][1]))
        best = min(best, time.perf_counter() - t0)
    return best


def import_seconds(reps: int) -> float:
    """Median over `reps` fresh interpreters of the library's own import
    time, in wall seconds.

    Each interpreter imports numpy first, untimed. numpy's import is about
    0.1 to 0.2 s, more than the rest of set-up, no change to the library
    moves it, and it swung with the host by up to 2x between ten-run sets
    while the operations' scaled times held still. The import is not
    scaled: it slows less than the kernel in the host's slow spells (1.15x
    against 1.5x in sixteen fresh interpreters), so scaling it swung
    estimate-small's setup_s by 45 % between two ten-run sets."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--import-probe"]
    times = []
    for _ in range(reps):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def tail_rank(n: int) -> tuple[float, int]:
    """(percentile, 1-based nearest rank) of the tail latency for n samples."""
    for p in TAIL_LADDER:
        k = max(1, math.ceil(p / 100.0 * n))
        if n - k >= 10:
            return p, k
    return 50.0, max(1, math.ceil(n / 2))


def block_throughput(times: list[float], draws: list[int]) -> float:
    """Median over BLOCKS contiguous blocks of draws / seconds."""
    n = len(times)
    blocks = min(BLOCKS, n)
    edges = [round(b * n / blocks) for b in range(blocks + 1)]
    return statistics.median(
        sum(draws[a:b]) / sum(times[a:b]) for a, b in zip(edges, edges[1:]))


def run_one(name: str, seed: int, seconds: int, trace: bool, quick: bool) -> dict:
    import_library()
    import_s = import_seconds(1 if quick else IMPORT_REPS)
    import tracer as tracing
    from workloads import WORKLOADS, stream

    wl = WORKLOADS[name]()
    rounds = wl.quick_rounds if quick else max(1, round(seconds * wl.rounds_per_s))
    rounds = min(rounds, MAX_OPS // wl.set_size)
    attempted = rounds * wl.set_size
    reps = 1 if quick else SETUP_REPS
    # The first set-up runs before the timed phase, the others between
    # operations spread over it, so their median samples the host's speed
    # across the whole run rather than during one second of it.
    setup_before = {round(r * attempted / reps) for r in range(1, reps)}
    setup_s, io_s = [], []
    tr = tracing.Tracer()
    # Wall seconds of each operation, and the same scaled to the reference
    # speed by the mean of the kernel times just before and just after it.
    times, scaled, draws, failed = [], [], [], 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:

        def set_up() -> float:
            """Set up, record the scaled set-up time and return the kernel
            time measured after it."""
            cal_before = calibration_s()
            t0 = time.perf_counter()
            wl.setup(seed, Path(tmp))
            for j in range(wl.warmup_ops):
                wl.call(j, stream(WARMUP_SEED, wl.workload_id, 1, j))
            elapsed = time.perf_counter() - t0
            cal_after = calibration_s()
            setup_s.append(elapsed * 2 * CAL_REF_S / (cal_before + cal_after))
            io_s.append(wl.io_s)
            return cal_after

        for _ in range(3):  # warms the kernel itself
            calibration_s()
        cal = set_up()
        if trace:
            tracing.install(tr)
        gc.collect()
        for i in range(attempted):
            if i in setup_before:
                tr.paused = True
                cal = set_up()
                tr.paused = False
            rng = stream(seed, wl.workload_id, 0, i)
            t0 = time.perf_counter()
            try:
                result, d = wl.call(i, rng)
            except Exception:  # an operation's failure is counted, and the loop goes on
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                cal = calibration_s()
                continue
            elapsed = time.perf_counter() - t0
            cal_after = calibration_s()
            times.append(elapsed)
            scaled.append(elapsed * 2 * CAL_REF_S / (cal + cal_after))
            cal = cal_after
            draws.append(d)
            wl.record(i, result)
    tr.unwrap()

    problems = wl.check() if times else ["every operation failed"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    n = len(times)
    pct, rank = tail_rank(n) if n else (50.0, 1)
    total_draws = sum(draws)
    print(f"{name}: seed {seed}, {attempted} operations attempted, {failed} failed, "
          f"{total_draws} latent draws in {sum(times):.3f} s of operations "
          f"({total_draws / max(sum(times), 1e-9):.6g} draws/s wall, "
          f"{total_draws / max(sum(scaled), 1e-9):.6g} draws/s scaled), "
          f"wall p50 {statistics.median(times) * 1e3 if n else 0.0:.4g} ms, "
          f"tail at p{pct:g} ({n - rank} samples beyond), import {import_s:.4f} s wall "
          f"+ median of {len(setup_s)} set-ups {statistics.median(setup_s):.4f} s scaled")

    if trace:
        layer = tracing.per_layer_metrics(tr, max(n, 1), statistics.median(io_s))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        ordered = sorted(scaled)
        metrics = {
            "draws_per_s": {"value": block_throughput(scaled, draws) if n else 0.0, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3 if n else 0.0, "unit": "ms"},
            "latency_tail_ms": {"value": ordered[rank - 1] * 1e3 if n else 0.0, "unit": "ms"},
            "setup_s": {"value": import_s + statistics.median(setup_s), "unit": "s"},
        }
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own child process and print each result."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--import-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.import_probe:
        import numpy  # noqa: F401  (see import_seconds)

        print(import_library())
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
