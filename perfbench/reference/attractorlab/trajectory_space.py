"""Trajectory-space view: translation semigroup and the trajectory attractor.

Forward trajectories form a space of their own under the weak tail metric;
the translation semigroup acts by dropping an initial segment and rebasing
to time zero, which on shared grids is exact. The trajectory attractor is
assembled from the forward restrictions of settled far-past surrogates and
corroborated by a translation-invariance record plus an attraction report,
rather than searched for as a minimal family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLibrary, HorizonTooShort, OffGrid
from .metrics import (
    TrajMetricParams,
    _check_metric,
    strong_dist_arrays,
    tail_from_pointwise,
    weak_dist_arrays,
)
from .state import Ensemble, State, Trajectory, span_steps
from .verification import is_grid_continuous


@dataclass(frozen=True, eq=False)
class TranslationInvarianceRecord:
    """Both-direction tail-metric defects of T(t)A against A at sampled t."""

    t_values: tuple[float, ...]
    defects: tuple[float, ...]
    tol: float
    ok: bool


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Finite family of forward trajectories on one shared grid from t = 0."""

    members: tuple[Trajectory, ...]
    metric_params: TrajMetricParams = TrajMetricParams()
    invariance: TranslationInvarianceRecord | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise EmptyLibrary("trajectory set has no members")
        head = self.members[0]
        if head.t0 != 0.0:
            raise ValueError("trajectory-set members must start at t = 0")
        for tr in self.members[1:]:
            if (
                tr.model.key != head.model.key
                or tr.dt != head.dt
                or tr.t0 != head.t0
                or tr.n_samples != head.n_samples
            ):
                raise ValueError("trajectory-set members must share model and grid")

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def dt(self) -> float:
        return self.members[0].dt

    @property
    def t_end(self) -> float:
        return self.members[0].t_end

    @property
    def model(self):
        return self.members[0].model


def from_ensemble(ensemble: Ensemble, params: TrajMetricParams | None = None) -> TrajectorySet:
    """View a time-0 ensemble as a trajectory set."""
    return TrajectorySet(
        members=ensemble.trajectories, metric_params=params or TrajMetricParams()
    )


def translate_semigroup(p: TrajectorySet, s: float) -> TrajectorySet:
    """Apply T(s): drop the initial segment [0, s) and rebase to time zero."""
    if s < 0:
        raise ValueError(f"translation time must be nonnegative, got {s}")
    k = span_steps(0.0, s, p.dt)
    n = p.members[0].n_samples
    if k >= n:
        raise HorizonTooShort(f"translation by {s} exhausts the grid of {n} samples")
    members = tuple(
        Trajectory(t0=0.0, dt=p.dt, samples=tr.samples[k:], model=tr.model)
        for tr in p.members
    )
    return TrajectorySet(members=members, metric_params=p.metric_params)


def slice_at(p: TrajectorySet, t: float) -> list[State]:
    """Pointwise slice P(t) = {u(t) : u in P}."""
    if t < 0:
        raise OffGrid(f"slice time must be nonnegative, got {t}")
    return [tr.state_at(t) for tr in p.members]


def _pair_tail(
    u: Trajectory, v: Trajectory, m: str, params: TrajMetricParams
) -> float:
    """Tail metric between two time-0 members, from relative time 0."""
    w = int(round(params.t_max_windows / u.dt))
    diff = u.samples[: w + 1] - v.samples[: w + 1]
    d = strong_dist_arrays(diff) if m == "strong" else weak_dist_arrays(u.model, diff)
    return tail_from_pointwise(d, u.dt, params.t_max_windows)


def traj_set_semidist(
    a: TrajectorySet, b: TrajectorySet, m: str, params: TrajMetricParams | None = None
) -> float:
    """One-sided semidistance between trajectory sets in the tail metric."""
    _check_metric(m)
    params = params or a.metric_params
    w = int(round(params.t_max_windows / a.dt))
    for ts in (a, b):
        if ts.members[0].n_samples <= w:
            raise HorizonTooShort("tail metric window exceeds a member grid")
    worst = 0.0
    for u in a.members:
        best = min(_pair_tail(u, v, m, params) for v in b.members)
        worst = max(worst, best)
    return worst


def trajectory_attractor(
    k_space: TrajectorySet,
    library: Ensemble,
    params: TrajMetricParams | None = None,
    cluster_tol: float = 1e-3,
    metric: str = "weak",
    invariance_times=(1.0, 2.0),
) -> TrajectorySet:
    """Trajectory-attractor estimate from forward parts of settled surrogates.

    The attractor coincides with the forward restrictions of complete
    trajectories; the estimate clusters the surrogate forward parts in the
    tail metric at cluster_tol and records the translation-invariance defect
    of the result at the sampled times. k_space fixes the grid the estimate
    must live on.
    """
    _check_metric(metric)
    params = params or k_space.metric_params
    if library.model.key != k_space.model.key:
        raise ValueError("library and trajectory space belong to different models")
    if library.dt != k_space.dt:
        raise ValueError("library and trajectory space grids differ")
    horizon = min(k_space.t_end, library.t_end)
    need = float(params.t_max_windows) + max(invariance_times)
    if horizon < need:
        raise HorizonTooShort(
            f"attractor construction needs forward horizon {need}, got {horizon}"
        )
    n_keep = span_steps(0.0, horizon, library.dt) + 1
    forward = [
        Trajectory(
            t0=0.0,
            dt=library.dt,
            samples=tr.samples[tr.index_of(0.0) : tr.index_of(0.0) + n_keep],
            model=tr.model,
        )
        for tr in library.trajectories
    ]
    accepted: list[Trajectory] = []
    for cand in forward:
        if all(_pair_tail(cand, v, metric, params) > cluster_tol for v in accepted):
            accepted.append(cand)
    est = TrajectorySet(members=tuple(accepted), metric_params=params)
    t_vals, defects = [], []
    for t in invariance_times:
        shifted = translate_semigroup(est, t)
        fwd = max(
            traj_set_semidist(shifted, est, metric, params),
            traj_set_semidist(est, shifted, metric, params),
        )
        t_vals.append(float(t))
        defects.append(float(fwd))
    record = TranslationInvarianceRecord(
        t_values=tuple(t_vals),
        defects=tuple(defects),
        tol=cluster_tol,
        ok=all(d <= cluster_tol for d in defects),
    )
    return TrajectorySet(members=est.members, metric_params=params, invariance=record)


@dataclass(frozen=True, eq=False)
class TrajectoryAttractionReport:
    """Entry times after which every translated member stays eps-close."""

    t_entry: float | None
    strong_mode: bool
    t_entry_strong: float | None
    eps: float
    window_T: float
    n_times: int


def trajectory_attraction_report(
    k_space: TrajectorySet,
    attractor: TrajectorySet,
    eps: float,
    window_T: float = 2.0,
    stride: int | None = None,
) -> TrajectoryAttractionReport:
    """Scan translations T(t) of the family for attraction to the attractor.

    Weak mode measures the tail metric of each translated member to its
    nearest attractor member; strong mode (enabled when every attractor
    member passes the grid continuity witness) measures the sup of the
    strong metric over [0, window_T] after translation.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    params = attractor.metric_params
    dt = k_space.dt
    if dt != attractor.dt:
        raise ValueError("trajectory space and attractor grids differ")
    w_tail = int(round(params.t_max_windows / dt))
    w_strong = int(round(window_T / dt))
    if w_strong < 1:
        raise ValueError("window_T shorter than one grid step")
    n = k_space.members[0].n_samples
    w_need = max(w_tail, w_strong)
    if n <= w_need:
        raise HorizonTooShort("trajectory-space horizon too short for the windows")
    if stride is None:
        stride = max(1, (n - 1 - w_need) // 32)
    shifts = np.arange(0, n - w_need, stride)
    strong_mode = all(is_grid_continuous(v) for v in attractor.members)
    att = [v.samples for v in attractor.members]

    def entry(values: np.ndarray) -> float | None:
        viol = np.flatnonzero(values >= eps)
        if viol.size == 0:
            return float(shifts[0] * dt)
        if viol[-1] + 1 >= shifts.shape[0]:
            return None
        return float(shifts[viol[-1] + 1] * dt)

    weak_worst = np.empty(shifts.shape[0])
    strong_worst = np.empty(shifts.shape[0])
    spec = k_space.model
    for j, k in enumerate(shifts):
        wv, sv = 0.0, 0.0
        for u in k_space.members:
            seg_t = u.samples[k : k + w_tail + 1]
            best_w = min(
                tail_from_pointwise(
                    weak_dist_arrays(spec, seg_t - vs[: w_tail + 1]), dt, params.t_max_windows
                )
                for vs in att
            )
            wv = max(wv, best_w)
            if strong_mode:
                seg_s = u.samples[k : k + w_strong + 1]
                best_s = min(
                    float(strong_dist_arrays(seg_s - vs[: w_strong + 1]).max()) for vs in att
                )
                sv = max(sv, best_s)
        weak_worst[j] = wv
        strong_worst[j] = sv
    return TrajectoryAttractionReport(
        t_entry=entry(weak_worst),
        strong_mode=strong_mode,
        t_entry_strong=entry(strong_worst) if strong_mode else None,
        eps=eps,
        window_T=window_T,
        n_times=int(shifts.shape[0]),
    )


__all__ = [
    "TranslationInvarianceRecord",
    "TrajectorySet",
    "TrajectoryAttractionReport",
    "from_ensemble",
    "translate_semigroup",
    "slice_at",
    "traj_set_semidist",
    "trajectory_attractor",
    "trajectory_attraction_report",
]
