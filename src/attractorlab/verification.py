"""Runnable checks for invariance, tracking, and strong-convergence facts.

Each check is a falsification instrument over sampled trajectories: it
either establishes its hypotheses numerically and reports a verdict, or it
raises HypothesisFail so that a theorem is never blamed for an input that
did not satisfy its assumptions. Quantifiers over all trajectories, shifts,
and epsilons become finite searches with deterministic order: library
members in stored order, grid shifts ascending, first match under eps wins.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, GridMismatch, HypothesisFail, ModelMismatch, NoMatch
from .metrics import (
    TrajMetricParams,
    _check_metric,
    pairwise_to_set,
    strong_dist_arrays,
    tail_steps,
    traj_dist_window,
    window_dist,
)
from .state import Ensemble, Trajectory, grid_index

# A grid step larger than this many times both neighbouring steps is a jump.
_JUMP_FACTOR = 10.0
# Weak-convergence gate of the strong-convergence checks: the final weak
# window distance, and the relative rise allowed between sequence members.
_WEAK_TOL = 1e-3
_SLACK = 0.1

# ---------------------------------------------------------------------------
# grid continuity witnesses


def grid_modulus(traj: Trajectory, a: float | None = None, b: float | None = None) -> float:
    """Largest adjacent-step strong distance over a grid window."""
    ia = 0 if a is None else traj.index_of(a)
    ib = traj.n_samples - 1 if b is None else traj.index_of(b)
    if ib - ia < 1:
        raise ValueError("window too short for a modulus")
    steps = strong_dist_arrays(np.diff(traj.samples[ia : ib + 1], axis=0))
    return float(steps.max())


def is_grid_continuous(traj: Trajectory, a: float | None = None, b: float | None = None) -> bool:
    """Finite witness for strong continuity of a sampled trajectory.

    A data-level jump shows up as one adjacent step that dwarfs its
    neighboring steps; smooth flows (including exponentially decaying ones)
    keep neighboring steps comparable. Steps below the floor
    1e-8 (1 + |x(a)|) are treated as settled and never flagged.
    """
    ia = 0 if a is None else traj.index_of(a)
    ib = traj.n_samples - 1 if b is None else traj.index_of(b)
    if ib - ia < 1:
        raise ValueError("window too short for a continuity check")
    steps = strong_dist_arrays(np.diff(traj.samples[ia : ib + 1], axis=0))
    floor = 1e-8 * (1.0 + float(np.linalg.norm(traj.samples[ia], axis=-1)))
    if steps.shape[0] == 1:
        return bool(steps[0] <= floor)
    prev = np.concatenate([steps[1:2], steps[:-1]])
    nxt = np.concatenate([steps[1:], steps[-2:-1]])
    neighbor = np.maximum(prev, nxt)
    return bool(np.all(steps <= np.maximum(_JUMP_FACTOR * neighbor, floor)))


# ---------------------------------------------------------------------------
# quasi-invariance and the maximal invariant set


@dataclass(frozen=True, eq=False)
class QuasiInvarianceReport:
    covered_fraction: float
    uncovered: tuple[int, ...]
    eps: float
    t_win: float


def check_quasi_invariance(
    est,
    library: Ensemble,
    eps: float,
    t_win: float = 2.0,
) -> QuasiInvarianceReport:
    """Check that every estimate point rides a settled library trajectory.

    A point a is covered when some library member v and grid shift s satisfy
    strong_dist(v(s), a) < eps while v stays within eps of the estimate over
    [s - t_win, s + t_win]; shifts keep that window inside the settled part
    of the surrogate (relative times >= 0).
    """
    spec = library.model
    cloud = est.coords
    metric = est.metric
    dt = library.dt
    w = int(round(t_win / dt))
    if w < 1:
        raise ValueError("t_win shorter than one grid step")
    i_settle = grid_index(0.0, library.t0, dt)
    lo, hi = i_settle + w, library.n_samples - 1 - w
    if lo > hi:
        raise ValueError("library horizon too short for the requested window")
    uncovered = []
    for a_idx in range(cloud.shape[0]):
        a = cloud[a_idx]
        hit = False
        for vs in library.samples:
            anchor = strong_dist_arrays(vs[lo : hi + 1] - a)
            for j in np.flatnonzero(anchor < eps):
                s = lo + int(j)
                window = vs[s - w : s + w + 1]
                if pairwise_to_set(spec, window, cloud, metric).max() < eps:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            uncovered.append(a_idx)
    frac = 1.0 - len(uncovered) / cloud.shape[0]
    return QuasiInvarianceReport(
        covered_fraction=frac, uncovered=tuple(uncovered), eps=eps, t_win=t_win
    )


@dataclass(frozen=True, eq=False)
class MaximalInvariantReport:
    i_subset_a: bool
    a_subset_i: bool
    d_i_to_a: float
    d_a_to_i: float
    eps: float


def check_maximal_invariant(attractor_est, library: Ensemble, eps: float) -> MaximalInvariantReport:
    """Compare the attractor estimate with time-0 slices of settled surrogates.

    The initial points of complete trajectories form the maximal invariant
    set, which coincides with the weak attractor; both inclusions are checked
    as eps-semidistances.
    """
    i_side = library.samples_at(0.0)
    cloud = attractor_est.coords
    spec = library.model
    m = attractor_est.metric
    d_ia = float(pairwise_to_set(spec, i_side, cloud, m).max())
    d_ai = float(pairwise_to_set(spec, cloud, i_side, m).max())
    return MaximalInvariantReport(
        i_subset_a=d_ia <= eps,
        a_subset_i=d_ai <= eps,
        d_i_to_a=d_ia,
        d_a_to_i=d_ai,
        eps=eps,
    )


# ---------------------------------------------------------------------------
# uniform tracking


@dataclass(frozen=True, eq=False)
class TrackingReport:
    t_star: float
    window_T: float
    metric: str
    eps: float
    worst_error: float
    matched_pairs: tuple[tuple[int, int], ...]
    shifts: tuple[float, ...]


def _tracking_grid(ensemble, library, m, window_T, t_star_stride=None):
    """Comparison window and scan grids shared by the tracking searches.

    Returns the window length w in steps, the tail offsets (None in strong
    mode, which takes the sup over [t*, t* + window_T]), the sampled t*
    indices into the ensemble (about 24 unless t_star_stride is given), and
    the settled library shift indices, one per 0.25 time units.
    """
    _check_metric(m)
    if ensemble.model.key != library.model.key:
        raise ModelMismatch("ensemble and library belong to different models")
    if ensemble.dt != library.dt:
        raise GridMismatch("ensemble and library grids differ")
    dt = ensemble.dt
    if m == "strong":
        steps, w = None, int(round(window_T / dt))
    else:
        steps = tail_steps(TrajMetricParams(), dt)
        w = int(steps[-1])
    if w < 1:
        raise ValueError("comparison window shorter than one grid step")
    n_e = ensemble.n_samples
    if t_star_stride is None:
        t_star_stride = max(1, (n_e - 1 - w) // 24)
    shift_stride = max(1, int(round(0.25 / dt)))
    i_settle = grid_index(0.0, library.t0, dt)
    shift_last = library.n_samples - 1 - w
    if shift_last < i_settle:
        raise ValueError("library horizon too short for the comparison window")
    t_star_idx = np.arange(0, n_e - w, t_star_stride)
    if t_star_idx.size == 0:
        raise ValueError("ensemble horizon too short for the comparison window")
    return w, steps, t_star_idx, np.arange(i_settle, shift_last + 1, shift_stride)


def check_tracking(
    ensemble: Ensemble, library: Ensemble, m: str, eps: float, window_T: float
) -> TrackingReport:
    """Find when every member is eps-shadowed by some shifted library member.

    Weak mode compares truncated tail metrics from each t*; strong mode
    compares the sup of the strong metric over [t*, t* + window_T]. Scans
    sampled t* ascending and reports the earliest one from which all later
    sampled t* also match; raises NoMatch when even the final t* leaves some
    member unmatched.
    """
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T)
    spec = ensemble.model

    def member_match(u_seg: np.ndarray):
        # first (lib index, shift index, error) under eps, anchored at u_seg[0]
        for li, vs in enumerate(library.samples):
            a_d = strong_dist_arrays(vs[shift_idx] - u_seg[0])
            for j in np.flatnonzero(a_d < eps):
                s = int(shift_idx[j])
                err = float(window_dist(spec, u_seg, vs[s : s + w + 1], m, steps))
                if err < eps:
                    return li, s, err
        return None

    per_t = []  # (all matched, worst error, pairs, shifts)
    for k in t_star_idx:
        pairs, shifts, worst = [], [], 0.0
        ok = True
        for mi, us in enumerate(ensemble.samples):
            found = member_match(us[k : k + w + 1])
            if found is None:
                ok = False
                break
            li, s, err = found
            pairs.append((mi, li))
            shifts.append(library.t0 + s * library.dt)
            worst = max(worst, err)
        per_t.append((ok, worst, tuple(pairs), tuple(shifts)))

    if not per_t[-1][0]:
        raise NoMatch(
            f"some member exceeds eps={eps} against the library even at the final t*"
        )
    first_ok = len(per_t) - 1
    while first_ok > 0 and per_t[first_ok - 1][0]:
        first_ok -= 1
    ok, worst, pairs, shifts = per_t[first_ok]
    return TrackingReport(
        t_star=ensemble.t0 + int(t_star_idx[first_ok]) * ensemble.dt,
        window_T=window_T,
        metric=m,
        eps=eps,
        worst_error=worst,
        matched_pairs=pairs,
        shifts=shifts,
    )


def tracking_ladder(
    ensemble: Ensemble,
    library: Ensemble,
    m: str,
    window_T: float,
    eps_ladder=(1e-1, 1e-2, 1e-3),
) -> tuple[tuple[float, TrackingReport | None], ...]:
    """Run check_tracking over an eps ladder; None marks a NoMatch rung."""
    out = []
    for eps in eps_ladder:
        try:
            out.append((float(eps), check_tracking(ensemble, library, m, eps, window_T)))
        except NoMatch:
            out.append((float(eps), None))
    return tuple(out)


def tracking_error_profile(
    ensemble: Ensemble,
    library: Ensemble,
    m: str,
    window_T: float,
    t_star_stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-match tracking error as a function of the window start t*.

    For each sampled t* the error is the max over members of the window
    error against each library member at its strong-anchor-nearest shift,
    minimized over library members. No eps gate: this is the raw profile a
    tracking claim has to drive down.
    """
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T, t_star_stride)
    spec = ensemble.model
    errors = np.empty(t_star_idx.shape[0])
    for out_i, k in enumerate(t_star_idx):
        worst = 0.0
        for us in ensemble.samples:
            seg = us[k : k + w + 1]
            best = np.inf
            for vs in library.samples:
                s = int(shift_idx[int(np.argmin(strong_dist_arrays(vs[shift_idx] - seg[0])))])
                best = min(best, float(window_dist(spec, seg, vs[s : s + w + 1], m, steps)))
            worst = max(worst, best)
        errors[out_i] = worst
    return ensemble.t0 + t_star_idx * ensemble.dt, errors


# ---------------------------------------------------------------------------
# strong convergence checks


@dataclass(frozen=True, eq=False)
class PointConvergenceReport:
    converged: bool
    t_star: float
    dists: tuple[float, ...]
    weak_dists: tuple[float, ...]
    ladder: tuple[tuple[float, int | None], ...]


def _weak_gate(seq, limit: Trajectory, a: float, b: float) -> list[float]:
    """Verify the sequence converges to the limit in the weak window metric.

    Accepts either a final distance below _WEAK_TOL or a decisive monotone
    decrease (final below a quarter of the first); anything else fails the
    hypothesis.
    """
    w = [traj_dist_window(u, limit, a, b, "weak") for u in seq]
    nonincreasing = all(w[i + 1] <= w[i] * 1.1 + 1e-15 for i in range(len(w) - 1))
    decisive = len(w) >= 2 and nonincreasing and w[-1] <= 0.25 * w[0]
    if w[-1] > _WEAK_TOL and not decisive:
        raise HypothesisFail(
            f"weak convergence not established: final weak window distance {w[-1]:.3e} "
            f"> {_WEAK_TOL:.1e} and no decisive decrease"
        )
    return w


def check_strong_convergence_at_point(
    seq, limit: Trajectory, t_star: float
) -> PointConvergenceReport:
    """Check pointwise strong convergence at a strong-continuity point.

    Hypotheses established first: the sequence must approach the limit in the
    weak window metric over t_star +- 1, and the limit must pass the grid
    continuity witness there; failures raise HypothesisFail. The verdict then
    asks for the strong distances at t_star to decrease to a fifth of the
    first; the ladder gives the first member below each of 1e-1, 1e-2, 1e-3.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty trajectory sequence")
    a = max(limit.t0, t_star - 1.0)
    b = min(limit.t_end, t_star + 1.0)
    weak_vals = _weak_gate(seq, limit, a, b)
    if not is_grid_continuous(limit, a, b):
        raise HypothesisFail("limit trajectory fails the strong-continuity witness")
    k = limit.index_of(t_star)
    d = [float(np.linalg.norm(u.samples[u.index_of(t_star)] - limit.samples[k])) for u in seq]
    scale = 1.0 + float(np.linalg.norm(limit.samples[k]))
    monotone = all(d[i + 1] <= d[i] * (1.0 + _SLACK) + 1e-15 * scale for i in range(len(d) - 1))
    small = d[-1] <= max(0.2 * d[0], 1e-12 * scale)
    ladder = []
    for eps in (1e-1, 1e-2, 1e-3):
        below = [i for i, v in enumerate(d) if v < eps]
        ladder.append((float(eps), below[0] if below else None))
    return PointConvergenceReport(
        converged=bool(monotone and small),
        t_star=t_star,
        dists=tuple(d),
        weak_dists=tuple(weak_vals),
        ladder=tuple(ladder),
    )


def check_left_continuity_implies_continuity(
    traj: Trajectory, t_star: float, tol: float
) -> bool:
    """Compare one-sided grid continuity defects of the state and its norm.

    For flows satisfying the energy inequality, a left-continuous strong norm
    forces two-sided continuity; on sampled data the witness is that the
    right defect does not exceed the left defect by more than tol.
    """
    k = traj.index_of(t_star)
    if k == 0 or k == traj.n_samples - 1:
        raise BoundaryPoint(f"t={t_star} is an endpoint of the trajectory grid")
    left = float(np.linalg.norm(traj.samples[k] - traj.samples[k - 1]))
    right = float(np.linalg.norm(traj.samples[k + 1] - traj.samples[k]))
    norms = np.linalg.norm(traj.samples[k - 1 : k + 2], axis=1)
    left_n = abs(norms[1] - norms[0])
    right_n = abs(norms[2] - norms[1])
    return bool(right <= left + tol and right_n <= left_n + tol)


def check_uniform_strong_convergence(
    seq, limit: Trajectory, window: tuple[float, float], tol: float
) -> bool:
    """Check sup-norm strong convergence on a window inside (0, horizon).

    Weak convergence over the full shared span and grid continuity of the
    limit are established first (HypothesisFail otherwise); the verdict asks
    the windowed strong sup distances to decrease below tol.
    """
    seq = list(seq)
    if not seq:
        raise ValueError("empty trajectory sequence")
    a, b = window
    _weak_gate(seq, limit, limit.t0, limit.t_end)
    if not is_grid_continuous(limit):
        raise HypothesisFail("limit trajectory fails the strong-continuity witness")
    d = [traj_dist_window(u, limit, a, b, "strong") for u in seq]
    monotone = all(d[i + 1] <= d[i] * (1.0 + _SLACK) + 1e-15 for i in range(len(d) - 1))
    return bool(monotone and d[-1] <= tol)


__all__ = [
    "QuasiInvarianceReport",
    "MaximalInvariantReport",
    "TrackingReport",
    "PointConvergenceReport",
    "grid_modulus",
    "is_grid_continuous",
    "check_quasi_invariance",
    "check_maximal_invariant",
    "check_tracking",
    "tracking_ladder",
    "tracking_error_profile",
    "check_strong_convergence_at_point",
    "check_left_continuity_implies_continuity",
    "check_uniform_strong_convergence",
]
