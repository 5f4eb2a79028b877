"""Wall time and peak memory of CLI runs built from two source trees, A/B.

Usage (from the repository root):

    python3 tools/cli_ab.py PARENT_SRC [PAIRS]

For the verify-nse2d and trajattr-kolmogorov workloads of
perfbench/workloads.py (imported read-only, as tools/artifact_diff.py
does), runs ``python -m attractorlab.cli`` once untimed per side, then
PAIRS times (default 10) with PARENT_SRC and with this checkout's ``src/``
on the import path. Both trees are byte-compiled with ``compileall`` first:
under PYTHONDONTWRITEBYTECODE=1 a tree whose ``__pycache__`` is stale (a
copied tree, say) is never rewritten, and that side would pay for
compiling its modules on every run. The two runs of a pair use workload
seed pair mod 5 and alternate which goes first. Every run writes into its own temporary
directory. Each run is started by a small ``python3 -S`` launcher
process (LAUNCHER), which forks, execs the CLI and reports on it: wall time
is the CLI's launch to exit, and peak RSS is its ``ru_maxrss`` from
``os.wait4``, on Linux the larger of the process's own peak and that of the
children it reaped. Linux carries the spawning process's resident memory
over ``execve`` into that figure, so a run spawned by this process would
read at least this process's RSS. Through the launcher the floor is the
launcher's RSS at its fork (``/bin/true`` reads 5.0 MB on CPython 3.11),
below any CLI run's.

Prints, per workload, the median and quartiles of wall time and peak RSS
of each side; for each of the two the median and quartiles over pairs of
the ratio change / parent and the pairs the change won; whether the change
won at least nine tenths of the pairs and its median is lower than the
parent's by more than the parent's quartile spread; then the exit codes
seen. Exits 1 if the two runs of some pair exit differently; 0 otherwise.
"""
from __future__ import annotations

import compileall
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SEEDS, WORKLOADS, make_config  # noqa: E402

NAMES = ("verify-nse2d", "trajattr-kolmogorov")


# Forks the command in argv[1:] with stdout and stderr on /dev/null, and prints its
# wall seconds, ru_maxrss in KiB and exit code; -S keeps its own RSS small.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def measure(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of argv run to exit through LAUNCHER."""
    launch = [sys.executable, "-S", "-c", LAUNCHER, *argv]
    out = subprocess.run(launch, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    wall, rss_kib, code = out.stdout.split()
    return float(wall), int(rss_kib) / 1024.0, int(code)


def _run(src: Path, name: str, seed: int) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one CLI run with src on the path."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(make_config(name, seed), indent=1))
        argv = [sys.executable, "-m", "attractorlab.cli", WORKLOADS[name][0]]
        argv += ["--config", str(cfg_path), "--out", str(work / "out")]
        return measure(argv, work, dict(os.environ, PYTHONPATH=str(src)))


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": ROOT / "src"}
    pairs = int(argv[1]) if len(argv) == 2 else 10
    for src in sides.values():
        if not compileall.compile_dir(src, quiet=1):
            print(f"{src}: byte-compiling failed", file=sys.stderr)
            return 2
    mismatched = 0
    for name in NAMES:
        for src in sides.values():
            _run(src, name, SEEDS[0])
        runs = {side: [] for side in sides}
        for pair in range(pairs):
            seed = SEEDS[pair % len(SEEDS)]
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_run(sides[side], name, seed))
            mismatched += runs["parent"][-1][2] != runs["change"][-1][2]
        print(f"{name}: {pairs} pairs")
        for col, metric, won in ((0, "wall_s", "faster"), (1, "peak_rss_mb", "lower")):
            values = {side: np.array([r[col] for r in runs[side]]) for side in sides}
            quart = {side: np.percentile(values[side], [25, 50, 75]) for side in sides}
            for side in sides:
                q1, med, q3 = quart[side]
                print(f"  {metric} {side}: median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}")
            ratio = values["change"] / values["parent"]
            wins = int((ratio < 1.0).sum())
            q1, med, q3 = np.percentile(ratio, [25, 50, 75])
            print(
                f"  {metric} change/parent per pair: median {med:.3f},"
                f" quartiles {q1:.3f}-{q3:.3f}, change {won} in {wins}/{pairs}"
            )
            p1, p_med, p3 = quart["parent"]
            gain = 10 * wins >= 9 * pairs and p_med - quart["change"][1] > p3 - p1
            print(f"  {metric} gain (>= 9/10 pairs, by more than the parent's spread): {gain}")
        codes = {side: sorted({r[2] for r in runs[side]}) for side in sides}
        print(f"  exit codes: parent {codes['parent']}, change {codes['change']}")
    print(f"{mismatched} pair(s) with different exit codes")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
