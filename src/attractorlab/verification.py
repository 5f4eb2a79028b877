"""Runnable checks for invariance, tracking, and strong-convergence facts.

Each check is a falsification instrument over sampled trajectories: it
either establishes its hypotheses numerically and reports a verdict, or it
raises HypothesisFail so that a theorem is never blamed for an input that
did not satisfy its assumptions. Quantifiers over all trajectories, shifts,
and epsilons become finite searches with deterministic order: library
members in stored order, grid shifts ascending, first match under eps wins.
The tracking searches anchor each window at library samples by their strong
distances from its start and scan the anchored windows with one
window_nearest call per member; quasi-invariance takes three nearest-point
searches per member instead. A tracking miss is a verdict, not an error:
check_tracking returns None for it. Searches whose verdict is decided by
the last violation scan backward: the tracking search takes sampled t* from
the last one down and stops at the first t* with an unmatched member. Every
check acts on whole ensembles: the continuity witnesses give one verdict
per member, and the strong-convergence check takes the sequence as an
Ensemble and its limit as a one-member Ensemble, measured against all
members in one array pass.

There is one strong-convergence check. Weak convergence and strong
continuity of the limit on a window around t* are its hypotheses, and it
reads the strong distances in three ways: at t* (the verdict), as their sup
over the window, and as their L2 norm in time over the window, which is
condition A3 of Cheskidov & Foias for strong convergence to the trajectory
attractor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import restrict
from .errors import HypothesisFail
from .metrics import (
    _check_metric, pairwise_to_set, strong_dist_arrays, tail_steps, window_dist, window_nearest
)
from .state import Ensemble, _check_pair, _check_time_zero

# A grid step larger than this many times both neighbouring steps is a jump.
_JUMP_FACTOR = 10.0
# Weak-convergence gate of the strong-convergence checks: the final weak
# window distance, and the relative rise allowed between sequence members.
_WEAK_TOL = 1e-3
_SLACK = 0.1

# ---------------------------------------------------------------------------
# grid continuity witnesses


def _grid_steps(ens: Ensemble, a: float | None, b: float | None, what: str):
    """Window start index and each member's adjacent-step strong distances,
    one member at a time."""
    ia = 0 if a is None else ens.index_of(a)
    ib = ens.n_samples - 1 if b is None else ens.index_of(b)
    if ib - ia < 1:
        raise ValueError(f"window too short for {what}")
    return ia, (strong_dist_arrays(np.diff(m[ia : ib + 1], axis=0)) for m in ens.samples)


def _no_jump(steps: np.ndarray, floor: float) -> bool:
    # is_grid_continuous's verdict on one member's steps
    if steps.shape[0] == 1:
        return bool(steps[0] <= floor)
    prev = np.concatenate([steps[1:2], steps[:-1]])
    nxt = np.concatenate([steps[1:], steps[-2:-1]])
    return bool(np.all(steps <= np.maximum(_JUMP_FACTOR * np.maximum(prev, nxt), floor)))


def is_grid_continuous(
    ens: Ensemble, a: float | None = None, b: float | None = None
) -> np.ndarray:
    """Finite witness for strong continuity of each sampled member, (n_members,) bools.

    A data-level jump shows up as one adjacent step that dwarfs its
    neighboring steps; smooth flows (including exponentially decaying ones)
    keep neighboring steps comparable. Steps below the floor
    1e-8 (1 + |x(a)|) are treated as settled and never flagged. Members are
    checked one at a time, so temporaries stay one member's steps.
    """
    ia, steps = _grid_steps(ens, a, b, "a continuity check")
    floor = 1e-8 * (1.0 + np.linalg.norm(ens.samples[:, ia], axis=-1))
    return np.array([_no_jump(s, f) for s, f in zip(steps, floor)], dtype=bool)


# ---------------------------------------------------------------------------
# quasi-invariance and the maximal invariant set


@dataclass(frozen=True, eq=False)
class QuasiInvarianceReport:
    covered_fraction: float
    uncovered: tuple[int, ...]
    eps: float


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
    library, which starts at t = 0 (ValueError otherwise).
    """
    _check_pair(est, library)
    _check_time_zero(library)
    cloud = est.points
    w = int(round(t_win / library.dt))
    if w < 1:
        raise ValueError("t_win shorter than one grid step")
    if library.n_samples <= 2 * w:
        raise ValueError("library horizon too short for the requested window")
    covered = np.zeros(cloud.shape[0], dtype=bool)
    for vs in library.samples:
        anchored = pairwise_to_set(library.model, vs[w:-w], cloud, "strong") < eps
        if anchored.any():
            near = pairwise_to_set(library.model, vs, cloud, est.metric)
            windows = np.lib.stride_tricks.sliding_window_view(near, 2 * w + 1)
            settled = vs[w:-w][anchored & (windows.max(axis=-1) < eps)]
            if settled.shape[0]:
                covered |= pairwise_to_set(library.model, cloud, settled, "strong") < eps
                if covered.all():
                    break
    uncovered = np.flatnonzero(~covered).tolist()
    frac = 1.0 - len(uncovered) / cloud.shape[0]
    return QuasiInvarianceReport(covered_fraction=frac, uncovered=tuple(uncovered), eps=eps)


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
    as eps-semidistances. The library starts at t = 0 (ValueError otherwise).
    """
    _check_pair(attractor_est, library)
    _check_time_zero(library)
    i_side = library.samples[:, 0]
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
    """The earliest sampled t* of a tracking match, and the worst member error there."""
    t_star: float
    metric: str
    eps: float
    worst_error: float


def _tracking_grid(ensemble, library, m, window_T, t_star_stride=None):
    """Comparison window and scan grids shared by the tracking searches.

    Returns the window length w in steps, the tail offsets (None in strong
    mode, which takes the sup over [t*, t* + window_T]), the sampled t*
    indices into the ensemble (about 24 unless t_star_stride is given), and
    the library shift indices, one per 0.25 time units from its start at
    t = 0 (ValueError for a library that starts elsewhere).
    """
    _check_metric(m)
    _check_pair(ensemble, library)
    _check_time_zero(library)
    dt = ensemble.dt
    if m == "strong":
        steps, w = None, int(round(window_T / dt))
    else:
        steps = tail_steps(dt)
        w = int(steps[-1])
    if w < 1:
        raise ValueError("comparison window shorter than one grid step")
    n_e = ensemble.n_samples
    if t_star_stride is None:
        t_star_stride = max(1, (n_e - 1 - w) // 24)
    shift_stride = max(1, int(round(0.25 / dt)))
    shift_last = library.n_samples - 1 - w
    if shift_last < 0:
        raise ValueError("library horizon too short for the comparison window")
    t_star_idx = np.arange(0, n_e - w, t_star_stride)
    if t_star_idx.size == 0:
        raise ValueError("ensemble horizon too short for the comparison window")
    return w, steps, t_star_idx, np.arange(0, shift_last + 1, shift_stride)


def check_tracking(
    ensemble: Ensemble, library: Ensemble, m: str, eps: float, window_T: float
) -> TrackingReport | None:
    """Find when every member is eps-shadowed by some shifted library member.

    Weak mode compares truncated tail metrics from each t*; strong mode
    compares the sup of the strong metric over [t*, t* + window_T]. A window is
    anchored when its first library sample is strictly within eps of the window
    start in the strong metric. One window_nearest scan over a member's anchored
    windows, library members in stored order and shifts ascending, gives the
    error of its first window strictly under eps. Reports the earliest sampled
    t* from which all later sampled t* also match, or None when some member is
    unmatched even at the final t*: the scan goes backward from there and stops
    at the first t* with an unmatched member.
    """
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T)
    spec = ensemble.model

    def anchored(u: np.ndarray):
        # the anchored windows of the member window u, in scan order
        for vs in library.samples:
            for s in shift_idx[strong_dist_arrays(vs[shift_idx] - u[0]) < eps]:
                yield vs[s : s + w + 1]

    def matched_at(k: int) -> TrackingReport | None:
        # the report at t* index k if every member matches there, else None
        worst = 0.0
        for us in ensemble.samples:
            u = us[k : k + w + 1]
            err = window_nearest(spec, u, anchored(u), m, steps, eps)
            if not err < eps:
                return None
            worst = max(worst, err)
        t_star = ensemble.t0 + int(k) * ensemble.dt
        return TrackingReport(t_star=t_star, metric=m, eps=eps, worst_error=worst)

    report, i = None, t_star_idx.shape[0]
    while i > 0 and (earlier := matched_at(t_star_idx[i - 1])) is not None:
        report, i = earlier, i - 1
    return report


def tracking_ladder(
    ensemble: Ensemble,
    library: Ensemble,
    m: str,
    window_T: float,
    eps_ladder=(1e-1, 1e-2, 1e-3),
) -> tuple[tuple[float, TrackingReport | None], ...]:
    """Run check_tracking over an eps ladder; None marks a missed rung."""
    return tuple(
        (float(eps), check_tracking(ensemble, library, m, eps, window_T)) for eps in eps_ladder
    )


def tracking_error_profile(
    ensemble: Ensemble,
    library: Ensemble,
    m: str,
    window_T: float,
    t_star_stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-match tracking error as a function of the window start t*.

    For each sampled t* the error is the max over members of the window
    error against each library member at its strong-anchor-nearest shift
    (the first one on a tie), minimized over library members. No eps gate:
    this is the raw profile a tracking claim has to drive down.
    """
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T, t_star_stride)
    spec = ensemble.model
    anchors = library.samples[:, shift_idx]
    errors = np.empty(t_star_idx.shape[0])
    for out_i, k in enumerate(t_star_idx):
        worst = 0.0
        for us in ensemble.samples:
            seg = us[k : k + w + 1]
            nearest = shift_idx[np.argmin(strong_dist_arrays(anchors - seg[0]), axis=-1)]
            windows = (vs[s : s + w + 1] for vs, s in zip(library.samples, nearest))
            worst = max(worst, window_nearest(spec, seg, windows, m, steps))
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
    sup_dists: tuple[float, ...]
    l2_dists: tuple[float, ...]


def _weak_gate(w: list[float]) -> None:
    """Verify the sequence converges to the limit in the weak window metric.

    w holds the weak window distances along the sequence. Accepts either a
    final distance below _WEAK_TOL or a decisive monotone decrease (final
    below a quarter of the first); anything else fails the hypothesis.
    """
    nonincreasing = all(w[i + 1] <= w[i] * 1.1 + 1e-15 for i in range(len(w) - 1))
    decisive = len(w) >= 2 and nonincreasing and w[-1] <= 0.25 * w[0]
    if w[-1] > _WEAK_TOL and not decisive:
        raise HypothesisFail(
            f"weak convergence not established: final weak window distance {w[-1]:.3e} "
            f"> {_WEAK_TOL:.1e} and no decisive decrease"
        )


def _point_window(k: int, dt: float, n: int) -> tuple[int, int]:
    """The window k +- max(1, round(1 / dt)) of a point check, clipped to [0, n - 1]."""
    h = max(1, round(1.0 / dt))
    return max(0, k - h), min(n - 1, k + h)


def check_strong_convergence_at_point(
    seq: Ensemble, limit: Ensemble, t_star: float
) -> PointConvergenceReport:
    """Check strong convergence of a sequence at t_star and over a window around it.

    seq is the sequence as an ensemble, limit a one-member ensemble. The
    window is t_star +- 1, rounded to whole grid steps (at least one) and
    clipped to the span. Hypotheses established first: the sequence must
    approach the limit in the weak window metric over the window, and the
    limit must pass the grid continuity witness there; failures raise
    HypothesisFail. The verdict asks for the strong distances at t_star to
    decrease to a fifth of the first. Two more readings of the same strong
    distances, one per member, are reported without a verdict: sup_dists,
    their sup over the window, and l2_dists, their L2 norm in time over the
    window by the trapezoid rule (condition A3 of Cheskidov & Foias).
    """
    k = limit.index_of(t_star)
    lo, hi = _point_window(k, limit.dt, limit.n_samples)
    a = limit.t0 + lo * limit.dt
    b = limit.t0 + hi * limit.dt
    _check_pair(seq, limit)
    if limit.n_members != 1:
        raise ValueError("limit must be a one-member ensemble")
    u = restrict(seq, a, b).samples
    v = limit.samples[:, lo : hi + 1]
    weak_vals = window_dist(seq.model, u, v, "weak").tolist()
    _weak_gate(weak_vals)
    if not is_grid_continuous(limit, a, b).all():
        raise HypothesisFail("limit trajectory fails the strong-continuity witness")
    x = limit.samples[0, k]
    # a 1-D norm (a dot product) per member: it rounds unlike norm(axis=-1)
    d = [float(np.linalg.norm(row - x)) for row in seq.samples_at(t_star)]
    scale = 1.0 + float(np.linalg.norm(x))
    monotone = all(d[i + 1] <= d[i] * (1.0 + _SLACK) + 1e-15 * scale for i in range(len(d) - 1))
    small = d[-1] <= max(0.2 * d[0], 1e-12 * scale)
    strong = strong_dist_arrays(u - v)  # (members, samples in the window)
    y = strong * strong
    # the trapezoid rule as numpy writes it (np.trapezoid needs numpy >= 2)
    l2 = np.sqrt((limit.dt * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=-1))
    return PointConvergenceReport(
        converged=bool(monotone and small),
        t_star=t_star,
        dists=tuple(d),
        weak_dists=tuple(weak_vals),
        sup_dists=tuple(strong.max(axis=-1).tolist()),
        l2_dists=tuple(l2.tolist()),
    )
