"""Correctness gate: compare one CLI run's artifacts with a shipped reference.

A run passes when its exit code, check names and verdicts equal the
reference's, every reported number and each member's final state and energy
ledger row lie within the tolerances below, and every set estimate lies
within its own clustering tolerance of the reference set in Hausdorff
distance, measured in the set's own metric. Set estimates are compared as
sets, not point by point, so a last-bit change in the kernels (which can
flip one greedy clustering decision) passes while a wrong kernel fails.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json")

# |run - ref| <= RTOL * scale + ATOL, where scale is max(|run|, |ref|) for a
# reported number or ledger value and the reference state norm for a
# final-state projection. Perturbing every advect output by 1e-12 relative
# moves these by at most 3e-13 on every workload, and by 1e-15 (rounding
# level) by at most 1e-15; an advect error of 1e-3 moves them by 1e-6 or more.
RTOL = 1e-8
ATOL = 1e-12
# final states are compared through their norms and projections onto fixed
# random unit directions, so references stay small for the 3D model
N_PROJ = 8
_PROJ_SEED = 20060918


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode())
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _last_rows(path: Path, member_col: int) -> np.ndarray:
    """Last CSV row of each member, members in order of first appearance."""
    last: dict[str, str] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            last[line.split(",", member_col + 2)[member_col]] = line
    return np.array([[float(v) for v in row.split(",")] for row in last.values()]).reshape(
        len(last), -1
    )


def _numbers(node, path: str, out: dict) -> None:
    """Flatten the scalar leaves of a JSON tree; non-finite values become None."""
    if isinstance(node, dict):
        for key in sorted(node):
            if key != "points":
                _numbers(node[key], f"{path}.{key}", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            _numbers(item, f"{path}[{i}]", out)
    elif isinstance(node, (int, float)):
        value = float(node)
        out[path] = value if math.isfinite(value) else None
    elif isinstance(node, str) or node is None:
        out[path] = node


def projections(dim: int) -> np.ndarray:
    dirs = np.random.default_rng(_PROJ_SEED).standard_normal((N_PROJ, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def fingerprint(out: Path, exit_code: int) -> dict:
    """What the gate compares, read from one run's artifacts."""
    reports = json.loads((out / "reports.json").read_text())
    sets = json.loads((out / "sets.json").read_text())
    numbers: dict = {}
    _numbers({"reports": reports, "sets": sets}, "", numbers)
    traj = _last_rows(out / "trajectories.csv", 1)
    states = traj[:, 2:]
    return {
        "exit_code": exit_code,
        "checks": [[c["name"], c["status"]] for c in reports.get("checks", [])],
        "numbers": numbers,
        "final_time": traj[:, 0].tolist(),
        "final_norm": np.linalg.norm(states, axis=1).tolist(),
        "final_proj": (states @ projections(states.shape[1]).T).tolist(),
        "ledger_final": _last_rows(out / "ledger.csv", 0).tolist(),
        "sets": {
            name: {
                "metric": s["metric"],
                "tol": s["tol"],
                "points": np.array(s["points"], dtype=float).reshape(len(s["points"]), -1),
            }
            for name, s in sets.items()
        },
    }


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * scale + ATOL


def _pair_dist(a: np.ndarray, b: np.ndarray, metric: str, weights, group: int) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    if metric == "strong":
        return np.linalg.norm(diff, axis=-1)
    r = np.linalg.norm(diff.reshape(diff.shape[:2] + (-1, group)), axis=-1)
    return (weights * (r / (1.0 + r))).sum(axis=-1)


def hausdorff(a: np.ndarray, b: np.ndarray, metric: str, weights, group: int) -> float:
    if a.shape[0] == 0 or b.shape[0] == 0:
        return 0.0 if a.shape[0] == b.shape[0] else math.inf
    to_b = np.empty(a.shape[0])
    to_a = np.full(b.shape[0], np.inf)
    for i in range(0, a.shape[0], 32):
        d = _pair_dist(a[i : i + 32], b, metric, weights, group)
        to_b[i : i + 32] = d.min(axis=1)
        to_a = np.minimum(to_a, d.min(axis=0))
    return float(max(to_b.max(), to_a.max()))


def compare(fp: dict, ref: dict, ref_points: dict) -> list[str]:
    """Problems of a run against its reference; an empty list is a pass."""
    problems = []
    if fp["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {fp['exit_code']} != {ref['exit_code']}")
    if fp["checks"] != ref["checks"]:
        problems.append(f"check verdicts {fp['checks']} != {ref['checks']}")
    got, want = fp["numbers"], ref["numbers"]
    if set(got) != set(want):
        problems.append(f"reported fields differ: {sorted(set(got) ^ set(want))[:5]}")
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        if isinstance(a, float) and isinstance(b, float):
            if not _close(a, b, max(abs(a), abs(b))):
                problems.append(f"{key} = {a!r}, reference {b!r}")
        elif a != b:
            problems.append(f"{key} = {a!r}, reference {b!r}")
    if fp["final_time"] != ref["final_time"]:
        problems.append("final sample times differ from the reference")
    else:
        for m, ref_norm in enumerate(ref["final_norm"]):
            state = zip([fp["final_norm"][m], *fp["final_proj"][m]], [ref_norm, *ref["final_proj"][m]])
            ledger = zip(fp["ledger_final"][m], ref["ledger_final"][m])
            if not all(_close(a, b, ref_norm) for a, b in state):
                problems.append(f"member {m}: final state differs from the reference")
            if not all(_close(a, b, max(abs(a), abs(b))) for a, b in ledger):
                problems.append(f"member {m}: final ledger row differs from the reference")
    if set(fp["sets"]) != set(ref["sets"]):
        problems.append(f"set estimates {sorted(fp['sets'])} != {sorted(ref['sets'])}")
    weights = np.asarray(ref["weak_weights"])
    for name in sorted(set(fp["sets"]) & set(ref["sets"])):
        s, tol = fp["sets"][name], ref["sets"][name]["tol"]
        h = hausdorff(s["points"], ref_points[name], s["metric"], weights, ref["group_size"])
        if s["metric"] != ref["sets"][name]["metric"] or not h <= tol:
            problems.append(f"set {name}: Hausdorff distance {h:.3g} to the reference exceeds {tol}")
    return problems
