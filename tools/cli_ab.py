"""Wall time and peak memory of CLI runs built from two source trees, A/B.

Usage (from the repository root):

    python3 tools/cli_ab.py PARENT_SRC [PAIRS]

For the verify-nse2d and trajattr-kolmogorov workloads of
perfbench/workloads.py (imported read-only, as tools/artifact_diff.py
does), runs ``python -m attractorlab.cli`` once untimed per side, then
PAIRS times (default 10) with PARENT_SRC and with this checkout's ``src/``
on the import path. The two runs of a pair use workload seed pair mod 5 and
alternate which goes first. Every run writes into its own temporary
directory. Wall time is launch to exit; peak RSS is ``ru_maxrss`` from
``os.wait4``, which on Linux is the larger of the process's own peak and
that of the children it reaped.

Prints, per workload, the median wall time and peak RSS of each side, and
for each of the two the median and quartiles over pairs of the ratio
change / parent and the pairs the change won; then the exit codes seen. Exits 1 if the two runs
of some pair exit differently; 0 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SEEDS, WORKLOADS, make_config  # noqa: E402

NAMES = ("verify-nse2d", "trajattr-kolmogorov")


def _run(src: Path, name: str, seed: int) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one CLI run with src on the path."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(make_config(name, seed), indent=1))
        argv = [sys.executable, "-m", "attractorlab.cli", WORKLOADS[name][0]]
        argv += ["--config", str(cfg_path), "--out", str(work / "out")]
        env = dict(os.environ, PYTHONPATH=str(src))
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": ROOT / "src"}
    pairs = int(argv[1]) if len(argv) == 2 else 10
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
            ratio = values["change"] / values["parent"]
            q1, med, q3 = np.percentile(ratio, [25, 50, 75])
            print(
                f"  {metric} median: parent {np.median(values['parent']):.3f},"
                f" change {np.median(values['change']):.3f}"
            )
            print(
                f"  {metric} change/parent per pair: median {med:.3f},"
                f" quartiles {q1:.3f}-{q3:.3f}, change {won} in {int((ratio < 1.0).sum())}/{pairs}"
            )
        codes = {side: sorted({r[2] for r in runs[side]}) for side in sides}
        print(f"  exit codes: parent {codes['parent']}, change {codes['change']}")
    print(f"{mismatched} pair(s) with different exit codes")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
