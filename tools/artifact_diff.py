"""Compare the CLI's artifacts built from two source trees.

Usage (from the repository root):

    python3 tools/artifact_diff.py PARENT_SRC [VERIFY_CONFIG ...]

Runs ``python -m attractorlab.cli`` once with PARENT_SRC and once with this
checkout's ``src/`` on the import path, on the four perfbench workloads at
workload seeds 0-4, on the built-in ``verify`` edge cases of EDGE_CASES
(the error, blow-up and duplicate-check paths) and on each extra ``verify``
config given. Every run writes into its own temporary directory. The exit
codes and the five artifacts must match: four files byte for byte, and
manifest.json after mapping the run's ``output_dir`` to one placeholder.
Prints each difference and exits 1 if there is one; exits 0 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SEEDS, WORKLOADS, make_config  # noqa: E402

_NSE2 = {
    "kind": "galerkin_nse_2d",
    "truncation": 2,
    "forcing": [{"mode": [1, 0], "amplitude": 0.1}],
}
_SMALL = {"ensemble_size": 3, "horizon": 4.0, "dt": 0.02, "seed": 3}
_LIBRARY_CHECKS = [
    {"name": "tracking"},
    {"name": "quasi_invariance"},
    {"name": "maximal_invariant"},
]

# label -> verify config; small runs that take the paths the workloads miss
EDGE_CASES = {
    # StepMismatch on the three library checks only
    "edge library t_back off the grid": dict(
        _SMALL,
        model=_NSE2,
        library={"size": 2, "t_back": 1.01, "horizon": 4.0},
        checks=[
            {"name": "energy", "gap_tol": 5e-3},
            {"name": "absorbing", "n_samples": 4},
            *_LIBRARY_CHECKS,
            {"name": "point_convergence", "n_seq": 3},
        ],
    ),
    # ModelMismatch on the absorbing check alone
    "edge absorbing on a dyadic model": dict(
        _SMALL,
        model={"kind": "dyadic", "truncation": 6, "forcing": [{"shell": 1, "amplitude": 0.5}]},
        checks=[
            {"name": "compactness"},
            {"name": "absorbing"},
            {"name": "point_convergence", "n_seq": 2},
        ],
    ),
    # one group per entry: two absorbing horizons, two point-convergence sequences
    "edge duplicated checks": dict(
        _SMALL,
        model=_NSE2,
        library={"size": 2, "t_back": 2.0, "horizon": 4.0},
        checks=[
            {"name": "absorbing", "n_samples": 4, "horizon": 1.0},
            {"name": "point_convergence", "n_seq": 2},
            {"name": "tracking"},
            {"name": "absorbing", "n_samples": 4, "horizon": 3.0},
            {"name": "point_convergence", "n_seq": 3, "t_star": 1.0},
        ],
    ),
    # no check reads the library
    "edge no library check": dict(
        _SMALL,
        model=_NSE2,
        checks=[{"name": "energy"}, {"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # the absorbing samples blow up while the run does not
    "edge absorbing blows up": dict(
        _SMALL,
        model=dict(_NSE2, nu=0.05, forcing=[{"mode": [1, 0], "amplitude": 100.0}]),
        horizon=1.0,
        dt=0.1,
        radius=0.01,
        checks=[{"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # the run itself blows up
    "edge run blows up": dict(
        _SMALL,
        model=dict(_NSE2, nu=0.05, forcing=[{"mode": [1, 0], "amplitude": 1000.0}]),
        horizon=1.0,
        dt=0.1,
        radius=0.01,
        checks=[{"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
}

ARTIFACTS = ("trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json")


def _run(src: Path, subcommand: str, config: dict, work: Path) -> tuple[int, dict]:
    """Exit code and artifact bytes of one CLI run with src on the path."""
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [subcommand, "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "attractorlab.cli", *argv], cwd=work, env=env, capture_output=True
    )
    files = {}
    for name in ARTIFACTS:
        path = out / name
        files[name] = path.read_bytes() if path.exists() else None
    if files["manifest.json"] is not None:
        manifest = json.loads(files["manifest.json"])
        manifest["config"]["output_dir"] = "<out>"
        files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return proc.returncode, files


def _cases(extra: list[str]):
    for name, (subcommand, _, _) in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name} seed {seed}", subcommand, make_config(name, seed)
    for label, config in EDGE_CASES.items():
        yield label, "verify", config
    for path in extra:
        yield path, "verify", json.loads(Path(path).read_text())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    diffs = 0
    for label, subcommand, config in _cases(argv[1:]):
        with tempfile.TemporaryDirectory() as tmp:
            sides = []
            for side, src in (("parent", parent), ("change", ROOT / "src")):
                work = Path(tmp) / side
                work.mkdir()
                sides.append(_run(src, subcommand, config, work))
        (code_a, files_a), (code_b, files_b) = sides
        bad = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
        bad += [name for name in ARTIFACTS if files_a[name] != files_b[name]]
        print(f"{label}: exit {code_b}, " + ("DIFFERS: " + ", ".join(bad) if bad else "same"))
        diffs += bool(bad)
    print(f"{diffs} case(s) differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
