"""Runnable checks for invariance, tracking, and strong-convergence facts.

Each check is a falsification instrument over sampled trajectories: it
either establishes its hypotheses numerically and reports a verdict, or it
raises HypothesisFail so that a theorem is never blamed for an input that
did not satisfy its assumptions. Quantifiers over all trajectories, shifts,
and epsilons become finite searches with deterministic order: library
members in stored order, grid shifts ascending, first match under eps wins.
Searches whose verdict is decided by the last violation scan backward: the
tracking search takes sampled t* from the last one down and stops at the
first t* with an unmatched member. Every check acts on whole ensembles: the
continuity witnesses give one verdict per member, and the strong-convergence
checks take the sequence as an Ensemble and its limit as a one-member
Ensemble, measured against all members in one array pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, GridMismatch, HypothesisFail, ModelMismatch, NoMatch
from .metrics import (
    TrajMetricParams,
    _check_metric,
    _nearest_in,
    _strong_dist_owned,
    pairwise_to_set,
    strong_dist_arrays,
    tail_steps,
    window_dist,
)
from .state import Ensemble, common_window, grid_index

# A grid step larger than this many times both neighbouring steps is a jump.
_JUMP_FACTOR = 10.0
# Weak-convergence gate of the strong-convergence checks: the final weak
# window distance, and the relative rise allowed between sequence members.
_WEAK_TOL = 1e-3
_SLACK = 0.1

# ---------------------------------------------------------------------------
# grid continuity witnesses


def _grid_steps(ens: Ensemble, a: float | None, b: float | None, what: str):
    """Window start index and adjacent-step strong distances, (n_members, steps)."""
    ia = 0 if a is None else ens.index_of(a)
    ib = ens.n_samples - 1 if b is None else ens.index_of(b)
    if ib - ia < 1:
        raise ValueError(f"window too short for {what}")
    return ia, _strong_dist_owned(np.diff(ens.samples[:, ia : ib + 1], axis=1))


def grid_modulus(ens: Ensemble, a: float | None = None, b: float | None = None) -> np.ndarray:
    """Largest adjacent-step strong distance over a grid window, per member."""
    return _grid_steps(ens, a, b, "a modulus")[1].max(axis=-1)


def is_grid_continuous(
    ens: Ensemble, a: float | None = None, b: float | None = None
) -> np.ndarray:
    """Finite witness for strong continuity of each sampled member, (n_members,) bools.

    A data-level jump shows up as one adjacent step that dwarfs its
    neighboring steps; smooth flows (including exponentially decaying ones)
    keep neighboring steps comparable. Steps below the floor
    1e-8 (1 + |x(a)|) are treated as settled and never flagged.
    """
    ia, steps = _grid_steps(ens, a, b, "a continuity check")
    floor = 1e-8 * (1.0 + np.linalg.norm(ens.samples[:, ia], axis=-1))
    if steps.shape[1] == 1:
        return steps[:, 0] <= floor
    prev = np.concatenate([steps[:, 1:2], steps[:, :-1]], axis=1)
    nxt = np.concatenate([steps[:, 1:], steps[:, -2:-1]], axis=1)
    neighbor = np.maximum(prev, nxt)
    return np.all(steps <= np.maximum(_JUMP_FACTOR * neighbor, floor[:, None]), axis=1)


# ---------------------------------------------------------------------------
# quasi-invariance and the maximal invariant set


def _same_set_model(est, library: Ensemble) -> None:
    if est.model.key != library.model.key:
        raise ModelMismatch("set estimate and library belong to different models")


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
    |v(s) - a| < eps in the strong metric while v stays within eps of the
    estimate over [s - t_win, s + t_win]; shifts keep that window inside the
    settled part of the surrogate (relative times >= 0).
    """
    _same_set_model(est, library)
    spec = library.model
    cloud = est.points
    metric = est.metric
    dt = library.dt
    w = int(round(t_win / dt))
    if w < 1:
        raise ValueError("t_win shorter than one grid step")
    i_settle = grid_index(0.0, library.t0, dt)
    lo, hi = i_settle + w, library.n_samples - 1 - w
    if lo > hi:
        raise ValueError("library horizon too short for the requested window")
    nearest = _nearest_in(spec, cloud, metric)
    uncovered = []
    for a_idx in range(cloud.shape[0]):
        a = cloud[a_idx]
        hit = False
        for vs in library.samples:
            anchor = strong_dist_arrays(vs[lo : hi + 1] - a)
            for j in np.flatnonzero(anchor < eps):
                s = lo + int(j)
                window = vs[s - w : s + w + 1]
                if nearest(window).max() < eps:
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
    _same_set_model(attractor_est, library)
    i_side = library.samples_at(0.0)
    cloud = attractor_est.points
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
    compares the sup of the strong metric over [t*, t* + window_T]. Reports
    the earliest sampled t* from which all later sampled t* also match. The
    scan starts at the final t* and raises NoMatch when some member is
    unmatched there; otherwise it goes backward and stops at the first t*
    with an unmatched member, reporting the t* after it.
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

    def matched_at(k: int):
        # (worst error, pairs, shifts) when every member matches at t* index
        # k, else None as soon as one member does not
        pairs, shifts, worst = [], [], 0.0
        for mi, us in enumerate(ensemble.samples):
            found = member_match(us[k : k + w + 1])
            if found is None:
                return None
            li, s, err = found
            pairs.append((mi, li))
            shifts.append(library.t0 + s * library.dt)
            worst = max(worst, err)
        return worst, tuple(pairs), tuple(shifts)

    first_ok, record = t_star_idx.shape[0], None
    while first_ok > 0 and (earlier := matched_at(t_star_idx[first_ok - 1])) is not None:
        first_ok, record = first_ok - 1, earlier
    if record is None:
        raise NoMatch(
            f"some member exceeds eps={eps} against the library even at the final t*"
        )
    worst, pairs, shifts = record
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


def _weak_gate(seq: Ensemble, limit: Ensemble, a: float, b: float) -> list[float]:
    """Verify the sequence converges to the limit in the weak window metric.

    Accepts either a final distance below _WEAK_TOL or a decisive monotone
    decrease (final below a quarter of the first); anything else fails the
    hypothesis.
    """
    if seq.model.key != limit.model.key:
        raise ModelMismatch("trajectories belong to different models")
    if limit.n_members != 1:
        raise ValueError("limit must be a one-member ensemble")
    w = window_dist(seq.model, *common_window(seq, limit, a, b), "weak").tolist()
    nonincreasing = all(w[i + 1] <= w[i] * 1.1 + 1e-15 for i in range(len(w) - 1))
    decisive = len(w) >= 2 and nonincreasing and w[-1] <= 0.25 * w[0]
    if w[-1] > _WEAK_TOL and not decisive:
        raise HypothesisFail(
            f"weak convergence not established: final weak window distance {w[-1]:.3e} "
            f"> {_WEAK_TOL:.1e} and no decisive decrease"
        )
    return w


def check_strong_convergence_at_point(
    seq: Ensemble, limit: Ensemble, t_star: float
) -> PointConvergenceReport:
    """Check pointwise strong convergence at a strong-continuity point.

    seq is the sequence as an ensemble, limit a one-member ensemble.
    Hypotheses established first: the sequence must approach the limit in the
    weak window metric over t_star +- 1 (rounded to whole grid steps, at
    least one, and clipped to the span), and the limit must pass the grid
    continuity witness there; failures raise HypothesisFail. The verdict then
    asks for the strong distances at t_star to decrease to a fifth of the
    first; the ladder gives the first member below each of 1e-1, 1e-2, 1e-3.
    """
    k = limit.index_of(t_star)
    h = max(1, round(1.0 / limit.dt))
    a = limit.t0 + max(0, k - h) * limit.dt
    b = limit.t0 + min(limit.n_samples - 1, k + h) * limit.dt
    weak_vals = _weak_gate(seq, limit, a, b)
    if not is_grid_continuous(limit, a, b).all():
        raise HypothesisFail("limit trajectory fails the strong-continuity witness")
    x = limit.samples[0, k]
    # a 1-D norm (a dot product) per member: it rounds unlike norm(axis=-1)
    d = [float(np.linalg.norm(row - x)) for row in seq.samples_at(t_star)]
    scale = 1.0 + float(np.linalg.norm(x))
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
    ens: Ensemble, t_star: float, tol: float
) -> np.ndarray:
    """Compare one-sided grid continuity defects of the state and its norm.

    For flows satisfying the energy inequality, a left-continuous strong norm
    forces two-sided continuity; on sampled data the witness is that the
    right defect does not exceed the left defect by more than tol. One
    verdict per member, (n_members,) bools.
    """
    k = ens.index_of(t_star)
    if k == 0 or k == ens.n_samples - 1:
        raise BoundaryPoint(f"t={t_star} is an endpoint of the trajectory grid")
    u = ens.samples[:, k - 1 : k + 2]
    # left and right defects, columns 0 and 1
    d = strong_dist_arrays(np.diff(u, axis=1))
    d_norm = abs(np.diff(np.linalg.norm(u, axis=-1), axis=1))
    return (d[:, 1] <= d[:, 0] + tol) & (d_norm[:, 1] <= d_norm[:, 0] + tol)


def check_uniform_strong_convergence(
    seq: Ensemble, limit: Ensemble, window: tuple[float, float], tol: float
) -> bool:
    """Check sup-norm strong convergence on a window inside (0, horizon).

    seq is the sequence as an ensemble, limit a one-member ensemble. Weak
    convergence over the full shared span and grid continuity of the limit
    are established first (HypothesisFail otherwise); the verdict asks the
    windowed strong sup distances to decrease below tol.
    """
    a, b = window
    _weak_gate(seq, limit, limit.t0, limit.t_end)
    if not is_grid_continuous(limit).all():
        raise HypothesisFail("limit trajectory fails the strong-continuity witness")
    d = window_dist(seq.model, *common_window(seq, limit, a, b), "strong").tolist()
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
