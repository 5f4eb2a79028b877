"""Wall time, CPU time and peak memory of CLI runs built from two source trees, A/B.

Usage (from the repository root):

    python3 tools/cli_ab.py PARENT_SRC [PAIRS [WORKLOAD ...]]

For each named workload of perfbench/workloads.py (imported read-only, as
tools/artifact_diff.py does; by default verify-nse2d and
trajattr-kolmogorov, the two of BENCHMARK.json), runs ``python -m
attractorlab.cli`` once untimed per side, then PAIRS times (default 10,
at least 1) with a copy of PARENT_SRC and one of this checkout's ``src/``
on the import path. The copies sit in a temporary directory, keep their
trees' mtimes but no ``__pycache__``, and are byte-compiled with
``compileall``: no side compiles its modules on every run (under
PYTHONDONTWRITEBYTECODE=1 a missing or stale ``__pycache__`` is never
written), and the given trees are left as they were. The two runs of a pair use workload
seed pair mod 5 and alternate which goes first. Every run writes into its own temporary
directory. Each run is started by a small ``python3 -S`` launcher
process (LAUNCHER), which forks, execs the CLI and reports on it: wall time
is the CLI's launch to exit, CPU time is ``ru_utime + ru_stime`` from
``os.wait4`` (on Linux that includes the children the CLI reaped, such as
the integration pass's child), and peak RSS is its ``ru_maxrss`` from the
same call, on Linux the larger of the process's own peak and that of the
children it reaped. Linux carries the spawning process's resident memory
over ``execve`` into that figure, so a run spawned by this process would
read at least this process's RSS. Through the launcher the floor is the
launcher's RSS at its fork (``/bin/true`` reads 5.0 MB on CPython 3.11),
below any CLI run's.

Prints, per workload, the median and quartiles of wall time, CPU time and
peak RSS of each side; for each of the three the median and quartiles over pairs of
the ratio change / parent and the pairs the change won; whether the change
won at least nine tenths of the pairs and its median is lower than the
parent's by more than the parent's quartile spread; then the exit codes
seen. Exits 1 if the two runs of some pair exit differently, 2 (with this
usage) for a PAIRS that is not a positive integer or an unknown workload,
and 0 otherwise.
"""
from __future__ import annotations

import compileall
import json
import os
import shutil
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
# wall seconds, CPU seconds, ru_maxrss in KiB and exit code; -S keeps its own RSS small.
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
wall, cpu = time.perf_counter() - start, usage.ru_utime + usage.ru_stime
print(wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def measure(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of argv run to exit
    through LAUNCHER."""
    launch = [sys.executable, "-S", "-c", LAUNCHER, *argv]
    out = subprocess.run(launch, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    wall, cpu, rss_kib, code = out.stdout.split()
    return float(wall), float(cpu), int(rss_kib) / 1024.0, int(code)


def _run(src: Path, name: str, seed: int) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of one CLI run with src
    on the path."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(make_config(name, seed), indent=1))
        argv = [sys.executable, "-m", "attractorlab.cli", WORKLOADS[name][0]]
        argv += ["--config", str(cfg_path), "--out", str(work / "out")]
        return measure(argv, work, dict(os.environ, PYTHONPATH=str(src)))


def parse(argv: list[str]) -> tuple[Path, int, tuple[str, ...]] | None:
    """(PARENT_SRC, PAIRS, workload names) of the command line; None if it is malformed."""
    if not argv or (len(argv) > 1 and not argv[1].isdecimal()):
        return None
    pairs = int(argv[1]) if len(argv) > 1 else 10
    names = tuple(argv[2:]) or NAMES
    if pairs < 1 or any(name not in WORKLOADS for name in names):
        return None
    return Path(argv[0]).resolve(), pairs, names


def main(argv: list[str]) -> int:
    args = parse(argv)
    if args is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, pairs, names = args
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, src in (("parent", parent), ("change", ROOT / "src")):
            copy = Path(tmp) / side
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            if not compileall.compile_dir(copy, quiet=1):
                print(f"{src}: byte-compiling failed", file=sys.stderr)
                return 2
            sides[side] = copy
        return compare(sides, pairs, names)


def compare(sides: dict, pairs: int, names: tuple[str, ...]) -> int:
    """Print the A/B report of PAIRS pairs of runs per workload; 1 if the two runs of
    some pair exit differently, else 0."""
    mismatched = 0
    for name in names:
        for src in sides.values():
            _run(src, name, SEEDS[0])
        runs = {side: [] for side in sides}
        for pair in range(pairs):
            seed = SEEDS[pair % len(SEEDS)]
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(_run(sides[side], name, seed))
            mismatched += runs["parent"][-1][3] != runs["change"][-1][3]
        print(f"{name}: {pairs} pairs")
        metrics = ((0, "wall_s", "faster"), (1, "cpu_s", "lower"), (2, "peak_rss_mb", "lower"))
        for col, metric, won in metrics:
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
        codes = {side: sorted({r[3] for r in runs[side]}) for side in sides}
        print(f"  exit codes: parent {codes['parent']}, change {codes['change']}")
    print(f"{mismatched} pair(s) with different exit codes")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
