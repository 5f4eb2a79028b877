"""Per-layer metrics from the spans of one traced run (see tracer.py).

The layers are the attractorlab modules. A span's self time is its duration
minus the time of its child spans; a layer's self time is the sum over its
spans. Every span must lie inside the single ``cli.run`` span, so the layer
self times add up to that span's duration; layer_metrics checks this.
"""
from __future__ import annotations

from pathlib import Path

from check import ARTIFACTS

LAYERS = ("cli", "models", "spectral", "core", "metrics", "limits", "verification", "trajectory_space")

# bytes of the (P, B) complex128 temporaries one direct-sum advect call
# computes: the two gathered operands, the weighted operand and the product
ADVECT_TEMP_BYTES = 4 * 16

METRICS = {
    "attractorlab.import_s": "s",
    "models.mode_table.build_s": "s",
    "models.nonlinear_array.calls": "count",
    "models.nonlinear_array.self_s": "s",
    "models.energy.busy_s": "s",
    "spectral.advect.calls": "count",
    "spectral.advect.member_calls": "count",
    "spectral.advect.busy_s": "s",
    "spectral.advect.us_per_member": "us",
    "spectral.table_entries": "count",
    "spectral.advect.bytes_computed": "bytes",
    "core.build_ensemble.calls": "count",
    "core.member_steps": "count",
    "core.build_ensemble.busy_s": "s",
    "metrics.cross_dist.calls": "count",
    "metrics.cross_dist.pairs": "count",
    "metrics.cross_dist.busy_s": "s",
    "metrics.cross_dist.ns_per_pair": "ns",
    "limits.omega_limit.busy_s": "s",
    "limits.is_attracting.busy_s": "s",
    "limits.is_attracting.n_times": "count",
    "limits.rows_scanned": "count",
    "limits.points_accepted": "count",
    "limits.accept_ratio": "ratio",
    "limits.global_attractor.calls": "count",
    "verification.tracking.busy_s": "s",
    "verification.quasi_invariance.busy_s": "s",
    "verification.maximal_invariant.busy_s": "s",
    "verification.point_convergence.busy_s": "s",
    "trajectory_space.trajectory_attractor.busy_s": "s",
    "trajectory_space.members_accepted": "count",
    "trajectory_space.attraction_report.busy_s": "s",
    "trajectory_space.attraction_report.n_times": "count",
    "cli.run.busy_s": "s",
    "cli.artifact_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(doc: dict, out: Path) -> dict[str, float]:
    """METRICS for one traced run from its spans document and artifact directory."""
    names, spans = doc["names"], doc["spans"]
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    work: dict[str, list] = {name: [] for name in names}
    for i, (name_idx, _, start, end, counts) in enumerate(spans):
        name = names[name_idx]
        calls[name] += 1
        busy[name] += end - start
        self_s[name] += end - start - child[i]
        if counts is not None:
            work[name].append(counts)

    roots = [s for s in spans if s[1] < 0]
    if len(roots) != 1 or names[roots[0][0]] != "cli.run":
        raise ValueError("traced spans are not all nested in one cli.run span")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
    gap = sum(layer_self.values()) - busy["cli.run"]
    if abs(gap) > 1e-6 * busy["cli.run"]:
        raise ValueError(f"layer self times miss cli.run by {gap:.3g} s")

    advect = work.get("spectral.advect", [])
    member_calls = sum(b for b, _ in advect)
    omega = work.get("limits.omega_limit", [])
    rows = sum(r for r, _ in omega)
    accepted = sum(a for _, a in omega)
    pairs = sum(p for (p,) in work.get("metrics.cross_dist", []))

    values = {
        "attractorlab.import_s": doc["import_s"],
        "models.mode_table.build_s": busy.get("spectral.build_mode_table", 0),
        "models.nonlinear_array.calls": calls.get("models.nonlinear_array", 0),
        "models.nonlinear_array.self_s": self_s.get("models.nonlinear_array", 0),
        "models.energy.busy_s": sum(
            busy.get(f"models.{n}", 0)
            for n in ("energy_ledger", "energy_identity_gap", "check_energy_inequality")
        ),
        "spectral.advect.calls": calls.get("spectral.advect", 0),
        "spectral.advect.member_calls": member_calls,
        "spectral.advect.busy_s": busy.get("spectral.advect", 0),
        "spectral.advect.us_per_member": _ratio(busy.get("spectral.advect", 0), member_calls, 1e6),
        "spectral.table_entries": max((p for _, p in advect), default=0),
        "spectral.advect.bytes_computed": sum(ADVECT_TEMP_BYTES * p * b for b, p in advect),
        "core.build_ensemble.calls": calls.get("core.build_ensemble", 0),
        "core.member_steps": sum(s for (s,) in work.get("core.build_ensemble", [])),
        "core.build_ensemble.busy_s": busy.get("core.build_ensemble", 0),
        "metrics.cross_dist.calls": calls.get("metrics.cross_dist", 0),
        "metrics.cross_dist.pairs": pairs,
        "metrics.cross_dist.busy_s": busy.get("metrics.cross_dist", 0),
        "metrics.cross_dist.ns_per_pair": _ratio(busy.get("metrics.cross_dist", 0), pairs, 1e9),
        "limits.omega_limit.busy_s": busy.get("limits.omega_limit", 0),
        "limits.is_attracting.busy_s": busy.get("limits.is_attracting", 0),
        "limits.is_attracting.n_times": sum(n for (n,) in work.get("limits.is_attracting", [])),
        "limits.rows_scanned": rows,
        "limits.points_accepted": accepted,
        "limits.accept_ratio": _ratio(accepted, rows),
        "limits.global_attractor.calls": calls.get("limits.global_attractor", 0),
        "verification.tracking.busy_s": busy.get("verification.tracking", 0),
        "verification.quasi_invariance.busy_s": busy.get("verification.quasi_invariance", 0),
        "verification.maximal_invariant.busy_s": busy.get("verification.maximal_invariant", 0),
        "verification.point_convergence.busy_s": busy.get("verification.point_convergence", 0),
        "trajectory_space.trajectory_attractor.busy_s": busy.get("trajectory_space.trajectory_attractor", 0),
        "trajectory_space.members_accepted": sum(
            n for (n,) in work.get("trajectory_space.trajectory_attractor", [])
        ),
        "trajectory_space.attraction_report.busy_s": busy.get("trajectory_space.attraction_report", 0),
        "trajectory_space.attraction_report.n_times": sum(
            n for (n,) in work.get("trajectory_space.attraction_report", [])
        ),
        "cli.run.busy_s": busy["cli.run"],
        "cli.artifact_bytes": sum((out / name).stat().st_size for name in ARTIFACTS),
        **{f"{layer}.self_s": value for layer, value in layer_self.items()},
    }
    return values
