"""Time the advection kernels B(u, u) and one IFRK4 step against a parent source tree.

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
relative difference ``|this - parent| / |parent|`` of ``advect``.

Then, at each (d, N, rows) of STEP_CASES, it times one step of the
integration pass, ``core._ifrk4_path`` over STEPS steps of a forced model
divided by STEPS, with each tree imported in its own subprocess. The two
trees alternate, ROUNDS subprocesses each, which goes first switching every
round; each subprocess reports its minimum of 5 repeats of about 20 ms, and
the figure is the minimum over the rounds. Every subprocess reports a digest
of the stepped states, and the two trees must agree in every bit.

Prints one row per case and exits 1 if any ``advect_self`` case or stepped
state differs in its bits or any ``advect`` difference exceeds ADVECT_RTOL.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
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
# (d, N, rows) of the per-step rows
STEP_CASES = ((2, 4, 8), (2, 4, 16), (3, 3, 8))
STEPS = 20
STEP_DT = 0.01
ROUNDS = 3
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


def step_child(d: int, trunc: int, rows: int) -> None:
    """Print seconds per IFRK4 step and the digest of the stepped states.

    Runs in a subprocess whose import path holds one source tree; the model
    is forced on its first mode, as the benchmark workloads are.
    """
    from attractorlab import core, models

    kind = "galerkin_nse_2d" if d == 2 else "galerkin_nse_3d"
    entries = [{"mode": [1] + [0] * (d - 1), "amplitude": 1.0}]
    g = models.nse_forcing(kind, 2.0 * np.pi, trunc, entries)
    spec = models.make_spec(kind, nu=1.0, truncation=trunc, forcing=g)
    u0 = models.sample_ball(spec, rows, radius=1.0, seed=rows)
    out = np.empty((rows, 1, u0.shape[1]))

    def run():
        core._ifrk4_path(spec, u0, np.full(rows, STEPS), STEP_DT, [(0, rows, STEPS, out)])

    print(_bench([run])[0] / STEPS, hashlib.sha256(out.tobytes()).hexdigest())


def _step_run(src: Path, case) -> tuple[float, str]:
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    code = f"import advect_bench; advect_bench.step_child{case!r}"
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"step subprocess failed under {src}:\n{done.stderr}")
    seconds, digest = done.stdout.split()
    return float(seconds), digest


def _steps(parent_src: Path) -> int:
    """Print the per-step rows; the number of cases whose stepped states differ."""
    print(f"{'d':>2} {'N':>2} {'rows':>4} {'p_step_us':>10} {'step_us':>10}  step_bits")
    bad = 0
    for case in STEP_CASES:
        srcs, best, digests = (parent_src, ROOT / "src"), [float("inf")] * 2, set()
        for r in range(ROUNDS):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                seconds, digest = _step_run(srcs[i], case)
                best[i] = min(best[i], seconds)
                digests.add(digest)
        same = len(digests) == 1
        bad += not same
        d, trunc, rows = case
        print(
            f"{d:>2} {trunc:>2} {rows:>4} {best[0] * 1e6:>10.1f} {best[1] * 1e6:>10.1f}"
            f"  {'same' if same else 'DIFF':>9}"
        )
    return bad


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
    bad += _steps(Path(argv[0]).resolve())
    print(f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
