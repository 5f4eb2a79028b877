"""Time the advection kernel B(u, u) against a parent source tree.

Usage (from the repository root):

    python3 tools/advect_bench.py PARENT_SRC

Loads ``attractorlab/spectral.py`` from PARENT_SRC and from this checkout's
``src/`` side by side and times ``advect(table, u, u)`` on the same seeded
batch at each (d, N, batch) of CASES. Timings alternate between the two
kernels, one repeat at a time, and each repeat runs the kernel enough times
to take about 20 ms; the figure is the minimum of 5 repeats, per call. Every
case asserts that both kernels return the same bits. Prints one row per case
and exits 1 if any case differs.
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
    (2, 4, (1, 6, 8, 18, 24, 50)),
    (2, 8, (1, 8, 32)),
    (3, 3, (1, 8)),
)
REPEATS = 5
REPEAT_S = 0.02


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


def _bench(kernels, batch: int, seed: int):
    """Min-of-REPEATS seconds per call for each (module, table), and whether the bits match."""
    dim = kernels[0][1].dim
    u = np.random.default_rng(seed).standard_normal((batch, dim))
    calls = [lambda m=m, t=t: m.advect(t, u, u) for m, t in kernels]
    same = all(np.array_equal(calls[0](), call()) for call in calls[1:])
    n = max(1, round(REPEAT_S / _per_call_s(calls[0], 1)))
    best = [float("inf")] * len(calls)
    for _ in range(REPEATS):
        for i, call in enumerate(calls):
            best[i] = min(best[i], _per_call_s(call, n))
    return best, same


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    modules = (
        _load_spectral(Path(argv[0]).resolve(), "parent_spectral"),
        _load_spectral(ROOT / "src", "this_spectral"),
    )
    print(f"{'d':>2} {'N':>2} {'B':>3} {'parent_us':>10} {'this_us':>10} {'ratio':>6}  bits")
    differ = 0
    for d, trunc, batches in CASES:
        kernels = [(m, m.build_mode_table(d, 2.0 * np.pi, trunc)) for m in modules]
        for batch in batches:
            (t_parent, t_this), same = _bench(kernels, batch, seed=batch)
            differ += not same
            print(
                f"{d:>2} {trunc:>2} {batch:>3} {t_parent * 1e6:>10.1f} {t_this * 1e6:>10.1f}"
                f" {t_this / t_parent:>6.2f}  {'same' if same else 'DIFFER'}"
            )
    print(f"{differ} case(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
