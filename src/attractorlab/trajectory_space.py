"""Trajectory-space view: translation semigroup and the trajectory attractor.

Forward trajectories form a space of their own under the weak tail metric
with TAIL_WINDOWS windows. A family of them is an Ensemble on a grid
starting at t = 0, and so is a surrogate library. The translation
semigroup acts by dropping an initial segment and rebasing to time zero,
which on shared grids is an exact view of the ensemble's array. The
trajectory attractor is assembled from the forward restrictions of settled
far-past surrogates and corroborated by a translation-invariance record plus
an attraction report, rather than searched for as a minimal family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import restrict, translate
from .errors import HorizonTooShort
from .metrics import TAIL_WINDOWS, tail_steps, window_nearest, window_semidists
from .state import Ensemble, _check_pair, _check_time_zero, frozen_view, span_steps
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
# the window [0, _WINDOW_T] of the attraction report's strong mode
_WINDOW_T = 2.0


def translate_semigroup(p: Ensemble, s: float) -> Ensemble:
    """Apply T(s): drop the initial segment [0, s) and rebase to time zero."""
    _check_time_zero(p)
    if s < 0:
        raise ValueError(f"translation time must be nonnegative, got {s}")
    if span_steps(0.0, s, p.dt) >= p.n_samples:
        raise HorizonTooShort(f"translation by {s} exhausts the grid of {p.n_samples} samples")
    forward = restrict(p, s, p.t_end)
    return translate(forward, -forward.t0)


def trajectory_attractor(k_space: Ensemble, library: Ensemble, cluster_tol: float) -> Ensemble:
    """Trajectory-attractor estimate from forward parts of settled surrogates.

    The attractor coincides with the forward restrictions of complete
    trajectories; the estimate clusters the library's members, the surrogate
    forward parts, in the weak tail metric at cluster_tol, keeping them in
    library order. k_space fixes the grid the estimate must live on;
    translation_invariance records how well the result is invariant.
    """
    _check_pair(k_space, library)
    _check_time_zero(k_space, library)
    horizon = min(k_space.t_end, library.t_end)
    if horizon < TAIL_WINDOWS:
        raise HorizonTooShort(
            f"attractor construction needs forward horizon {TAIL_WINDOWS}, got {horizon}"
        )
    forward = restrict(library, 0.0, horizon)
    steps = tail_steps(forward.dt)
    window = forward.samples[:, : int(steps[-1]) + 1]
    accepted = [0]
    for i in range(1, forward.n_members):
        kept = (window[j] for j in accepted)
        if window_nearest(forward.model, window[i], kept, "weak", steps) > cluster_tol:
            accepted.append(i)
    # a view of the library when every member is kept, else one read-only copy
    samples = forward.samples
    if len(accepted) < forward.n_members:
        samples = samples[accepted]
        samples.setflags(write=False)
    return frozen_view(Ensemble, samples=samples, t0=0.0, dt=forward.dt, model=forward.model)


def translation_invariance(attractor: Ensemble, tol: float) -> TranslationInvarianceRecord:
    """Weak tail-metric defects max(d(T(t)A, A), d(A, T(t)A)) at t = 1 and t = 2,
    both directions of a shift from one table of member pairs (window_semidists)."""
    _check_time_zero(attractor)
    need = float(TAIL_WINDOWS) + max(_SHIFT_TIMES)
    if attractor.t_end < need:
        raise HorizonTooShort(
            f"attractor construction needs forward horizon {need}, got {attractor.t_end}"
        )
    steps = tail_steps(attractor.dt)
    w = int(steps[-1]) + 1
    defects = []
    for t in _SHIFT_TIMES:
        shifted = translate_semigroup(attractor, t).samples[:, :w]
        pair = window_semidists(attractor.model, shifted, attractor.samples[:, :w], "weak", steps)
        defects.append(max(pair))
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
    n_times: int


def trajectory_attraction_report(
    k_space: Ensemble, attractor: Ensemble, eps: float
) -> TrajectoryAttractionReport:
    """Scan translations T(t) of the family for attraction to the attractor.

    The entry time is the first translation after the last one at which some
    member is eps-far from every attractor member. The grid has about 32
    translations (n_times); the scan goes backward from the last one and
    stops at the deciding violation, so an entry that is None costs one
    translation. Weak mode measures the tail metric of each translated member
    to its nearest attractor member; strong mode (enabled when every
    attractor member passes the grid continuity witness) measures the sup of
    the strong metric over [0, _WINDOW_T] after translation.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    _check_pair(k_space, attractor)
    _check_time_zero(k_space, attractor)
    dt = k_space.dt
    steps = tail_steps(dt)
    w_tail = int(steps[-1])
    w_strong = int(round(_WINDOW_T / dt))
    n = k_space.n_samples
    w_need = max(w_tail, w_strong)
    if n <= w_need or attractor.n_samples <= w_need:
        raise HorizonTooShort("trajectory-space horizon too short for the windows")
    stride = max(1, (n - 1 - w_need) // 32)
    shifts = np.arange(0, n - w_need, stride)
    strong_mode = bool(is_grid_continuous(attractor).all())

    def entry(w: int, m: str, tail=None) -> float | None:
        # the first shift after the last violation of eps, searched from the
        # last shift backward
        ref = attractor.samples[:, : w + 1]
        for j in reversed(range(shifts.shape[0])):
            k = shifts[j]
            windows = k_space.samples[:, k : k + w + 1]
            if any(window_nearest(k_space.model, u, ref, m, tail, eps) >= eps for u in windows):
                return float(shifts[j + 1] * dt) if j + 1 < shifts.shape[0] else None
        return float(shifts[0] * dt)

    return TrajectoryAttractionReport(
        t_entry=entry(w_tail, "weak", steps),
        strong_mode=strong_mode,
        t_entry_strong=entry(w_strong, "strong") if strong_mode else None,
        eps=eps,
        n_times=int(shifts.shape[0]),
    )
