"""In-process interleaved timing of two copies of the library on the
benchmark's own operations.

    python tools/pair_trees.py PARENT_SRC CHANGE_SRC [--workload NAME] [--seed N]
                               [--rounds R] [--ops K]

PARENT_SRC and CHANGE_SRC are two `src/` directories, each holding an
`mlmc_evidence` package. The benchmark's `perfbench/workloads.py` (of the
checkout this tool lives in) is loaded once per tree, each copy bound to its
own copy of the library, and each copy is set up as `perfbench/run.py` sets
up a workload, warm-up operations included. Then operation i runs on both
trees in turn, each on its own `workloads.stream(seed, workload, 0, i)`,
the tree that goes first alternating with i, for R rounds of K operations.

Pairing in one process puts both trees through the same slow and fast
spells of the host, which separate runs cannot. Short runs cannot resolve
a few per cent: on two trees with the same hot path (2 CPUs), the
per-round change/parent ratios at 6 rounds of 8 operations spanned
0.96-1.03 on estimate-small and 0.85-1.13 on train-bernoulli (medians 1.02
and 1.04), while at the defaults, 10 rounds of 60 operations, the medians
read 0.99 and 1.00. A tree's time in a round is the sum of its operations'
wall times. The tool prints, per workload, one line per round with both
sums in milliseconds and their change/parent ratio, then the median ratio
and the largest relative difference between the two trees' results (every
float of every result; an integer or any other value that differs counts
as a mismatch and is listed). It exits 1 if any result mismatches in that
way. Both trees share one process and so one allocator, so the tool cannot
see a change that moves only how the allocator serves later calls (how
large a block `estimator.draw_chunks` frees, say, which can decide whether
a call's temporaries map fresh pages): compare separate processes for that.
Nor can it judge a change that moves work into another process, such as
train-bernoulli's evaluations run in a forked worker while the caller
trains: that prototype read 0.88-0.92 here (and 1.14 in another spell),
while nine alternating benchmark pairs read its latency_p50_ms 1.07-1.22
times the parent's, slower in all nine. Judge such a change by the
benchmark's own separate-process pairs.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = "mlmc_evidence"


def _library_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}


class Tree:
    """One `src/` tree's library and its own copy of the workloads module."""

    def __init__(self, src: Path, tag: str):
        for k in _library_modules():
            del sys.modules[k]
        sys.path.insert(0, str(src))
        try:
            lib = importlib.import_module(PACKAGE)
            for sub in ("diagnostics", "estimator", "gradients", "models", "trainer"):
                importlib.import_module(f"{PACKAGE}.{sub}")
            if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
                sys.exit(f"pair_trees: {PACKAGE} resolved outside {src}: {lib.__file__}")
            spec = importlib.util.spec_from_file_location(
                f"workloads_{tag}", PERFBENCH / "workloads.py"
            )
            self.workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self.workloads)
        finally:
            sys.path.remove(str(src))
        self.modules = _library_modules()

    def activate(self) -> None:
        """Make this tree's library the one `import mlmc_evidence` finds."""
        for k in _library_modules():
            del sys.modules[k]
        sys.modules.update(self.modules)


def flatten(value, out: list) -> list:
    """Every leaf of a result in a fixed order: dataclasses and named tuples
    by field, sequences and arrays by element, dicts by sorted key."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            flatten(getattr(value, f.name), out)
    elif isinstance(value, dict):
        for k in sorted(value):
            out.append(("key", k))
            flatten(value[k], out)
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append(("len", len(value)))
        for v in value:
            flatten(v, out)
    else:
        out.append(value.item() if isinstance(value, np.generic) else value)
    return out


def compare(a, b) -> tuple[float, list[str]]:
    """Largest relative difference between the floats of two results, and
    a description of every other leaf that differs."""
    worst, bad = 0.0, []
    fa, fb = flatten(a, []), flatten(b, [])
    if len(fa) != len(fb):
        return math.inf, [f"{len(fa)} leaves against {len(fb)}"]
    for x, y in zip(fa, fb):
        if isinstance(x, float) and isinstance(y, float):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
        elif x != y or type(x) is not type(y):
            bad.append(f"{x!r} != {y!r}")
    return worst, bad


def pair_workload(trees: list[Tree], name: str, seed: int, rounds: int, ops: int) -> bool:
    """Time `rounds` rounds of `ops` interleaved operations of workload
    `name` on both trees and print the rounds; False if results mismatch."""
    wls = []
    with tempfile.TemporaryDirectory(prefix="pair-trees-") as tmp:
        for tree, sub in zip(trees, ("parent", "change")):
            tree.activate()
            wl = tree.workloads.WORKLOADS[name]()
            workdir = Path(tmp) / sub
            workdir.mkdir()
            wl.setup(seed, workdir)
            for j in range(wl.warmup_ops):
                wl.call(j, tree.workloads.stream(0, wl.workload_id, 1, j))
            wls.append(wl)
    ratios, worst, bad = [], 0.0, []
    print(f"{name}: seed {seed}, {rounds} rounds of {ops} operations")
    print(f"  {'round':>5} {'parent_ms':>11} {'change_ms':>11} {'ratio':>8}")
    for r in range(rounds):
        spent = [0.0, 0.0]
        for i in range(r * ops, (r + 1) * ops):
            results = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                trees[side].activate()
                rng = trees[side].workloads.stream(seed, wls[side].workload_id, 0, i)
                t0 = time.perf_counter()
                results[side], _ = wls[side].call(i, rng)
                spent[side] += time.perf_counter() - t0
            w, b = compare(*results)
            worst = max(worst, w)
            bad += [f"operation {i}: {d}" for d in b]
        ratios.append(spent[1] / spent[0])
        print(f"  {r:>5} {spent[0] * 1e3:>11.3f} {spent[1] * 1e3:>11.3f} {ratios[-1]:>8.4f}")
    print(f"  median ratio {statistics.median(ratios):.4f}"
          f" (min {min(ratios):.4f}, max {max(ratios):.4f});"
          f" largest relative difference {worst:.3g}; {len(bad)} other mismatches")
    for line in bad[:10]:
        print(f"  mismatch: {line}")
    return not bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's src/ directory")
    ap.add_argument("change", type=Path, help="the change's src/ directory")
    ap.add_argument("--workload", action="append",
                    help="a workload of perfbench/workloads.py (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--ops", type=int, default=60, help="operations per round")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.ops < 1:
        ap.error("--rounds and --ops must be >= 1")
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports reference.py
    trees = [Tree(args.parent, "parent"), Tree(args.change, "change")]
    names = args.workload or list(trees[0].workloads.WORKLOADS)
    unknown = sorted(set(names) - set(trees[0].workloads.WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}")
    ok = True
    for name in names:
        ok &= pair_workload(trees, name, args.seed, args.rounds, args.ops)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
