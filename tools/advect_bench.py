"""Time the advection kernels B(u, u) against a parent source tree.

Usage (from the repository root):

    python3 tools/advect_bench.py PARENT_SRC

Loads ``attractorlab/spectral.py`` from PARENT_SRC and from this checkout's
``src/`` side by side and, on the same seeded batch at each (d, N, batch) of
CASES, times the parent's and this tree's ``advect_self(table, u)`` (the
symmetric-table kernel the integrator calls) and ``advect(table, u, u)``
(the ordered table). Timings alternate between the kernels, one repeat at a
time, and each repeat runs a kernel enough times to take about 20 ms; the
figure is the minimum of 5 repeats, per call. Every case checks that both
``advect_self`` kernels return the same bits and reports the normwise
relative difference ``|this - parent| / |parent|`` of ``advect``. Prints one
row per case and exits 1 if any ``advect_self`` case differs in its bits or
any ``advect`` difference exceeds ADVECT_RTOL.
"""
from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (d, N, batch sizes); 2D N=4 is the size of the benchmark workloads
CASES = (
    (2, 4, (1, 6, 8, 9, 10, 18, 24, 50)),
    (2, 8, (1, 8, 32)),
    (3, 3, (1, 8)),
)
REPEATS = 5
REPEAT_S = 0.02
ADVECT_RTOL = 1e-15


def _load_spectral(src: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, src / "attractorlab" / "spectral.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _per_call_s(fn, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - start) / n


def _bench(calls):
    """Min-of-REPEATS seconds per call for each kernel, alternating between them."""
    n = max(1, round(REPEAT_S / _per_call_s(calls[0], 1)))
    best = [float("inf")] * len(calls)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            best[i] = min(best[i], _per_call_s(call, n))
    return best


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = _load_spectral(Path(argv[0]).resolve(), "parent_spectral")
    this = _load_spectral(ROOT / "src", "this_spectral")
    print(
        f"{'d':>2} {'N':>2} {'B':>3} {'p_self_us':>10} {'self_us':>10} {'p_adv_us':>10}"
        f" {'adv_us':>10}  self_bits  {'adv_rel':>8}"
    )
    bad = 0
    for d, trunc, batches in CASES:
        t_parent = parent.build_mode_table(d, 2.0 * np.pi, trunc)
        t_this = this.build_mode_table(d, 2.0 * np.pi, trunc)
        for batch in batches:
            u = np.random.default_rng(batch).standard_normal((batch, t_this.dim))
            calls = [
                lambda: parent.advect_self(t_parent, u),
                lambda: this.advect_self(t_this, u),
                lambda: parent.advect(t_parent, u, u),
                lambda: this.advect(t_this, u, u),
            ]
            ref_self, sym, ref, ordered = (call() for call in calls)
            same = np.array_equal(ref_self, sym)
            rel = np.linalg.norm(ordered - ref) / np.linalg.norm(ref)
            bad += (not same) + (rel > ADVECT_RTOL)
            us = [t * 1e6 for t in _bench(calls)]
            print(
                f"{d:>2} {trunc:>2} {batch:>3} {us[0]:>10.1f} {us[1]:>10.1f} {us[2]:>10.1f}"
                f" {us[3]:>10.1f}  {'same' if same else 'DIFF':>9}  {rel:>8.1e}"
            )
    print(f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
