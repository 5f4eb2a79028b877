"""Trajectory-space view: translation semigroup and the trajectory attractor.

Forward trajectories form a space of their own under the weak tail metric.
A family of them is an Ensemble on a grid starting at t = 0; the tail-metric
truncation is passed explicitly as TrajMetricParams. The translation
semigroup acts by dropping an initial segment and rebasing to time zero,
which on shared grids is an exact view of the ensemble's array. The
trajectory attractor is assembled from the forward restrictions of settled
far-past surrogates and corroborated by a translation-invariance record plus
an attraction report, rather than searched for as a minimal family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import forward_ensemble
from .errors import GridMismatch, HorizonTooShort, ModelMismatch
from .metrics import TrajMetricParams, _check_metric, tail_steps, window_semidist
from .state import Ensemble, frozen_view, span_steps
from .verification import is_grid_continuous


@dataclass(frozen=True, eq=False)
class TranslationInvarianceRecord:
    """Both-direction tail-metric defects of T(t)A against A at sampled t."""

    t_values: tuple[float, ...]
    defects: tuple[float, ...]
    tol: float
    ok: bool


# the translation times at which translation_invariance measures its defects
_SHIFT_TIMES = (1.0, 2.0)


def _check_time_zero(*families: Ensemble) -> None:
    if any(p.t0 != 0.0 for p in families):
        raise ValueError("trajectory-space ensembles must start at t = 0")


def translate_semigroup(p: Ensemble, s: float) -> Ensemble:
    """Apply T(s): drop the initial segment [0, s) and rebase to time zero."""
    _check_time_zero(p)
    if s < 0:
        raise ValueError(f"translation time must be nonnegative, got {s}")
    k = span_steps(0.0, s, p.dt)
    if k >= p.n_samples:
        raise HorizonTooShort(f"translation by {s} exhausts the grid of {p.n_samples} samples")
    return frozen_view(
        Ensemble, samples=p.samples[:, k:], t0=0.0, dt=p.dt, model=p.model, label=p.label
    )


def traj_set_semidist(a: Ensemble, b: Ensemble, m: str, params: TrajMetricParams) -> float:
    """One-sided semidistance between trajectory families in the tail metric."""
    _check_metric(m)
    _check_time_zero(a, b)
    steps = tail_steps(params, a.dt)
    w = int(steps[-1])
    if min(a.n_samples, b.n_samples) <= w:
        raise HorizonTooShort("tail metric window exceeds a member grid")
    return window_semidist(a.model, a.samples[:, : w + 1], b.samples[:, : w + 1], m, steps)


def trajectory_attractor(
    k_space: Ensemble,
    library: Ensemble,
    params: TrajMetricParams,
    cluster_tol: float = 1e-3,
    metric: str = "weak",
) -> Ensemble:
    """Trajectory-attractor estimate from forward parts of settled surrogates.

    The attractor coincides with the forward restrictions of complete
    trajectories; the estimate clusters the surrogate forward parts in the
    tail metric at cluster_tol, keeping them in library order. k_space fixes
    the grid the estimate must live on; translation_invariance records how
    well the result is invariant.
    """
    _check_metric(metric)
    _check_time_zero(k_space)
    if library.model.key != k_space.model.key:
        raise ModelMismatch("library and trajectory space belong to different models")
    if library.dt != k_space.dt:
        raise GridMismatch("library and trajectory space grids differ")
    horizon = min(k_space.t_end, library.t_end)
    if horizon < params.t_max_windows:
        raise HorizonTooShort(
            f"attractor construction needs forward horizon {params.t_max_windows}, got {horizon}"
        )
    forward = forward_ensemble(library, horizon)
    steps = tail_steps(params, forward.dt)
    window = forward.samples[:, : int(steps[-1]) + 1]
    accepted = [0]
    for i in range(1, forward.n_members):
        d = window_semidist(forward.model, window[i : i + 1], window[accepted], metric, steps)
        if d > cluster_tol:
            accepted.append(i)
    return Ensemble(
        forward.samples[accepted], 0.0, forward.dt, forward.model, label="trajectory-attractor"
    )


def translation_invariance(
    attractor: Ensemble,
    params: TrajMetricParams,
    tol: float,
    metric: str = "weak",
) -> TranslationInvarianceRecord:
    """Tail-metric defects max(d(T(t)A, A), d(A, T(t)A)) at t = 1 and t = 2."""
    _check_time_zero(attractor)
    need = float(params.t_max_windows) + max(_SHIFT_TIMES)
    if attractor.t_end < need:
        raise HorizonTooShort(
            f"attractor construction needs forward horizon {need}, got {attractor.t_end}"
        )
    defects = []
    for t in _SHIFT_TIMES:
        shifted = translate_semigroup(attractor, t)
        defects.append(
            max(
                traj_set_semidist(shifted, attractor, metric, params),
                traj_set_semidist(attractor, shifted, metric, params),
            )
        )
    return TranslationInvarianceRecord(
        t_values=_SHIFT_TIMES,
        defects=tuple(defects),
        tol=tol,
        ok=all(d <= tol for d in defects),
    )


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
    k_space: Ensemble,
    attractor: Ensemble,
    params: TrajMetricParams,
    eps: float,
    window_T: float = 2.0,
) -> TrajectoryAttractionReport:
    """Scan translations T(t) of the family for attraction to the attractor.

    The scan takes about 32 translation times. Weak mode measures the tail
    metric of each translated member to its nearest attractor member; strong
    mode (enabled when every attractor
    member passes the grid continuity witness) measures the sup of the
    strong metric over [0, window_T] after translation.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    _check_time_zero(k_space, attractor)
    dt = k_space.dt
    if dt != attractor.dt:
        raise GridMismatch("trajectory space and attractor grids differ")
    steps = tail_steps(params, dt)
    w_tail = int(steps[-1])
    w_strong = int(round(window_T / dt))
    if w_strong < 1:
        raise ValueError("window_T shorter than one grid step")
    n = k_space.n_samples
    w_need = max(w_tail, w_strong)
    if n <= w_need or attractor.n_samples <= w_need:
        raise HorizonTooShort("trajectory-space horizon too short for the windows")
    stride = max(1, (n - 1 - w_need) // 32)
    shifts = np.arange(0, n - w_need, stride)
    strong_mode = all(is_grid_continuous(v) for v in attractor.trajectories)

    def entry(w: int, m: str, tail=None) -> float | None:
        # worst window distance to the attractor at each shift, then the
        # first shift after the last violation of eps
        ref = attractor.samples[:, : w + 1]
        worst = [
            window_semidist(k_space.model, k_space.samples[:, k : k + w + 1], ref, m, tail)
            for k in shifts
        ]
        viol = np.flatnonzero(np.array(worst) >= eps)
        if viol.size == 0:
            return float(shifts[0] * dt)
        if viol[-1] + 1 >= shifts.shape[0]:
            return None
        return float(shifts[viol[-1] + 1] * dt)

    return TrajectoryAttractionReport(
        t_entry=entry(w_tail, "weak", steps),
        strong_mode=strong_mode,
        t_entry_strong=entry(w_strong, "strong") if strong_mode else None,
        eps=eps,
        window_T=window_T,
        n_times=int(shifts.shape[0]),
    )


__all__ = [
    "TranslationInvarianceRecord",
    "TrajectoryAttractionReport",
    "translate_semigroup",
    "traj_set_semidist",
    "trajectory_attractor",
    "translation_invariance",
    "trajectory_attraction_report",
]
