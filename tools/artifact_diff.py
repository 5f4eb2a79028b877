"""Compare the CLI's artifacts built from two source trees.

Usage (from the repository root):

    python3 tools/artifact_diff.py PARENT_SRC [VERIFY_CONFIG ...]

Runs ``python -m attractorlab.cli`` once with PARENT_SRC and once with this
checkout's ``src/`` on the import path, on the four perfbench workloads at
workload seeds 0-4, on the built-in edge cases of EDGE_CASES, each under its
own subcommand (the error, blow-up, duplicate-check, clipped-window,
odd-split, uneven-split, split-ledger, search-miss and oversized-compactness
paths of ``verify``, the strong-metric set searches of ``attractor`` and
``verify`` on a time-dependent regime, the half-horizon defaults of both on
an even step count, and the pass path of ``trajectory-attractor``), and on
each extra ``verify`` config given. Every
run writes into its own temporary directory. The exit codes and the five
artifacts must match: four files byte for byte, and manifest.json after
mapping the run's ``output_dir`` to one placeholder. Prints each
difference and exits 1 if there is one; exits 0 otherwise. For an artifact
that differs, it also prints how many of its numeric values differ and the
largest relative change |b - a| / max(|a|, |b|), or that its text differs
outside the numbers; the last line totals these over all cases.
"""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SEEDS, WORKLOADS, _KOLMOGOROV, make_config  # noqa: E402

_NSE2 = {
    "kind": "galerkin_nse_2d",
    "truncation": 2,
    "forcing": [{"mode": [1, 0], "amplitude": 0.1}],
}
_SMALL = {"ensemble_size": 3, "horizon": 4.0, "dt": 0.02, "seed": 3}
# the Kolmogorov flow is time dependent: in the strong metric its omega
# estimate has many points, so the strong screen runs inside the scans
_STRONG_KOLMOGOROV = {
    "model": _KOLMOGOROV,
    "metric": "strong",
    "horizon": 16.0,
    "omega": {"t_transient": 12.0, "t_max": 16.0, "sample_stride": 5, "cluster_tol": 5e-3},
}
_LIBRARY_CHECKS = [
    {"name": "tracking"},
    {"name": "quasi_invariance"},
    {"name": "maximal_invariant"},
]


def _case(subcommand: str, **fields) -> tuple[str, dict]:
    """(subcommand, config): the small run _SMALL with fields set."""
    return subcommand, dict(_SMALL, **fields)


# label -> (subcommand, config); small runs that take the paths the workloads miss
EDGE_CASES = {
    # StepMismatch on the three library checks only
    "edge library t_back off the grid": _case(
        "verify",
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
    "edge absorbing on a dyadic model": _case(
        "verify",
        model={"kind": "dyadic", "truncation": 6, "forcing": [{"shell": 1, "amplitude": 0.5}]},
        checks=[
            {"name": "compactness"},
            {"name": "absorbing"},
            {"name": "point_convergence", "n_seq": 2},
        ],
    ),
    # one group per entry: two absorbing horizons, two point-convergence sequences
    "edge duplicated checks": _case(
        "verify",
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
    # windows clipped at both span ends, and a one-member sequence that
    # fails the weak-convergence hypothesis
    "edge point convergence at the span ends": _case(
        "verify",
        model=_NSE2,
        checks=[
            {"name": "point_convergence", "t_star": 0.0},
            {"name": "point_convergence", "t_star": _SMALL["horizon"]},
            {"name": "point_convergence", "n_seq": 1},
        ],
    ),
    # no check reads the library
    "edge no library check": _case(
        "verify",
        model=_NSE2,
        checks=[{"name": "energy"}, {"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # a compactness check asking for more times than the grid holds
    "edge compactness beyond the grid": _case(
        "verify", model=_NSE2, checks=[{"name": "compactness", "n_times": 10**6}]
    ),
    # an odd member count with a save stride: the trajectory writer's split
    # point falls off the middle and its lines skip samples
    "edge odd ensemble with a save stride": _case(
        "verify",
        model=_NSE2,
        ensemble_size=5,
        save_stride=3,
        checks=[{"name": "energy"}, {"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # the run outweighs the library, so the integration child takes fewer
    # than half of the run's members (7 of 16 stay in this process)
    "edge run heavier than the library": _case(
        "verify",
        model=_NSE2,
        ensemble_size=16,
        library={"size": 2, "t_back": 1.0, "horizon": 4.0},
        checks=[{"name": "tracking"}],
    ),
    # the energy check and ledger.csv read ledger rows from both sides of the
    # uneven split (7 of 16 members filled here, 9 in the child), written with
    # a save stride
    "edge ledger rows from both sides of the split": _case(
        "verify",
        model=_NSE2,
        ensemble_size=16,
        save_stride=3,
        library={"size": 2, "t_back": 1.0, "horizon": 4.0},
        checks=[{"name": "energy"}, {"name": "tracking"}],
    ),
    # the run is the pass's only group and its member count is odd
    "edge lone odd run": _case("verify", model=_NSE2, ensemble_size=5, checks=[{"name": "energy"}]),
    # the absorbing samples blow up while the run does not
    "edge absorbing blows up": _case(
        "verify",
        model=dict(_NSE2, nu=0.05, forcing=[{"mode": [1, 0], "amplitude": 100.0}]),
        horizon=1.0,
        dt=0.1,
        radius=0.01,
        checks=[{"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # the run itself blows up
    "edge run blows up": _case(
        "verify",
        model=dict(_NSE2, nu=0.05, forcing=[{"mode": [1, 0], "amplitude": 1000.0}]),
        horizon=1.0,
        dt=0.1,
        radius=0.01,
        checks=[{"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    ),
    # the miss paths of the library searches: strong tracking with a missed
    # (null) rung at eps 1e-9; at eps 1e-3 points anchored on the library but left
    # uncovered by their windows, and at eps 1e-2 points with no anchor
    "edge tracking and quasi-invariance misses": _case(
        "verify",
        model=_NSE2,
        library={"size": 2, "t_back": 2.0, "horizon": 4.0},
        checks=[
            {"name": "tracking", "metric": "strong", "eps_ladder": [0.1, 1e-9]},
            {"name": "quasi_invariance", "eps": 1e-3, "t_win": 1.0},
            {"name": "quasi_invariance", "eps": 1e-2, "t_win": 1.0},
        ],
    ),
    # the strong attraction scan over a multi-point set
    "edge strong attractor on the Kolmogorov flow": _case("attractor", **_STRONG_KOLMOGOROV),
    # the strong set searches of the library checks on the same regime; no
    # library sample comes within 0.05 of the set, and at eps 4 the windows
    # around the library samples near the set are tested and cover some points
    "edge strong library checks on the Kolmogorov flow": _case(
        "verify",
        **_STRONG_KOLMOGOROV,
        library={"size": 3, "t_back": 4.0},
        checks=[
            {"name": "quasi_invariance", "eps": 0.05},
            {"name": "quasi_invariance", "eps": 4.0},
            {"name": "maximal_invariant", "eps": 0.05},
        ],
    ),
    # an even step count (6 steps of 0.1) where (n // 2) dt is not horizon / 2:
    # the half-horizon defaults of omega, compactness and point_convergence
    "edge half-horizon defaults of attractor": _case("attractor", model=_NSE2, horizon=0.6, dt=0.1),
    "edge half-horizon defaults of verify": _case(
        "verify",
        model=_NSE2,
        horizon=0.6,
        dt=0.1,
        checks=[{"name": "compactness"}, {"name": "point_convergence"}],
    ),
    # the report's pass path: a library settled after t_back 10, a run that
    # enters the weak eps-tube of the attractor at t = 3.8, strong mode on
    "edge trajectory attractor that passes": _case(
        "trajectory-attractor",
        model=_NSE2,
        horizon=12.0,
        dt=0.05,
        library={"size": 2, "t_back": 10.0},
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


# a JSON or CSV number token, or a non-finite float as Python and JSON write it
_NUMBER = re.compile(rb"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|NaN|nan|Infinity|inf)")


def _numeric_diff(a: bytes, b: bytes) -> tuple[int, int, float] | None:
    """(values differing, values compared, largest relative change) between two
    artifacts with the same text around their numbers; None otherwise."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    pairs = list(zip(*([float(x) for x in _NUMBER.findall(text)] for text in (a, b))))
    rels = [
        abs(y - x) / max(abs(x), abs(y))
        for x, y in pairs
        if x != y and not (math.isnan(x) and math.isnan(y))
    ]
    # a NaN or infinite change counts as the largest
    worst = max((math.inf if math.isnan(r) else r for r in rels), default=0.0)
    return len(rels), len(pairs), worst


def _cases(extra: list[str]):
    for name, (subcommand, _, _) in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name} seed {seed}", subcommand, make_config(name, seed)
    for label, (subcommand, config) in EDGE_CASES.items():
        yield label, subcommand, config
    for path in extra:
        yield path, "verify", json.loads(Path(path).read_text())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    diffs, values, worst, text = 0, 0, 0.0, 0
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
        for name in ARTIFACTS:
            if files_a[name] is None or files_b[name] is None or files_a[name] == files_b[name]:
                continue
            numeric = _numeric_diff(files_a[name], files_b[name])
            if numeric is None:
                text += 1
                print(f"  {name}: text differs outside the numbers")
            else:
                n, count, rel = numeric
                values, worst = values + n, max(worst, rel)
                print(f"  {name}: {n} of {count} numeric values differ,"
                      f" largest relative change {rel:.2e}")
    print(f"{diffs} case(s) differ")
    print(
        f"{values} numeric value(s) differ, largest relative change {worst:.2e};"
        f" {text} artifact(s) differ outside the numbers"
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
