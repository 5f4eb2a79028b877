"""Continuity witnesses, invariance checks, and tracking verdicts."""
from dataclasses import fields

import numpy as np
import pytest
from oracles import (
    error_profile_oracle,
    member_views,
    quasi_invariance_oracle,
    tracking_ladder_oracle,
)

import attractorlab.metrics as metrics
import attractorlab.verification as verification
from attractorlab.core import build_ensemble, translate
from attractorlab.errors import GridMismatch, HypothesisFail, ModelMismatch
from attractorlab.limits import SetEstimate, omega_limit
from attractorlab.metrics import strong_dist_arrays, window_dist
from attractorlab.models import make_spec, sample_ball
from attractorlab.state import Ensemble
from attractorlab.trajectory_space import trajectory_attractor
from attractorlab.verification import (
    _SLACK,
    _WEAK_TOL,
    TrackingReport,
    _grid_steps,
    _tracking_grid,
    _weak_gate,
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    check_tracking,
    is_grid_continuous,
    tracking_error_profile,
    tracking_ladder,
)


def _traj(*members, dt=0.1, t0=0.0):
    """Toy-model ensemble of the given members; a 1-d member is one coordinate."""
    arr = np.stack([np.asarray(m, float).reshape(len(m), -1) for m in members])
    spec = make_spec("toy_contraction", truncation=arr.shape[2])
    return Ensemble(arr, t0, dt, spec)


def _modulus(ens, a=None, b=None):
    """Largest adjacent-step strong distance over a grid window, per member."""
    return np.array([s.max() for s in _grid_steps(ens, a, b, "a modulus")[1]])


def test_grid_modulus_hand_value():
    tr = _traj([0.0, 1.0, 1.5, 1.5], [0.0, 0.5, 0.5, 2.5])
    assert _modulus(tr).tolist() == [1.0, 2.0]
    assert _modulus(tr, 0.1, 0.3).tolist() == [0.5, 2.0]
    with pytest.raises(ValueError):
        _modulus(tr, 0.1, 0.1)


def test_grid_continuity_smooth_vs_jump():
    t = np.arange(201) * 0.01
    smooth = _traj(np.exp(-t), dt=0.01)
    assert is_grid_continuous(smooth).tolist() == [True]
    jumped = np.exp(-t)
    jumped[100:] += 0.5  # one-step jump of 0.5 against ~0.01 neighbors
    assert is_grid_continuous(_traj(jumped, dt=0.01)).tolist() == [False]
    # one verdict per member
    assert is_grid_continuous(_traj(np.exp(-t), jumped, dt=0.01)).tolist() == [True, False]


def test_grid_continuity_settled_floor():
    # fully settled trajectory: zero steps everywhere must pass
    assert is_grid_continuous(_traj(np.ones(50), dt=0.1)).all()


def test_grid_continuity_one_step_at_the_floor_is_settled():
    # x(a) = 0, so the floor is 1e-8 (1 + 0), and the one step is exactly 1e-8
    tr = _traj([0.0, 1e-8])
    assert _modulus(tr).tolist() == [1e-8]
    assert is_grid_continuous(tr).tolist() == [True]
    assert is_grid_continuous(_traj([0.0, np.nextafter(1e-8, 1.0)])).tolist() == [False]


def test_grid_continuity_step_of_exactly_ten_neighbours_is_no_jump():
    # steps 0.25, 2.5, 0.25: the middle one is exactly _JUMP_FACTOR = 10 times
    # its larger neighbour, which the witness allows
    tr = _traj([0.0, 0.25, 2.75, 3.0])
    assert strong_dist_arrays(np.diff(tr.samples[0], axis=0)).tolist() == [0.25, 2.5, 0.25]
    assert is_grid_continuous(tr).tolist() == [True]
    assert is_grid_continuous(_traj([0.0, 0.25, np.nextafter(2.75, 3.0), 3.0])).tolist() == [False]


def _grid_continuous_oracle(samples: np.ndarray, ia: int, ib: int) -> bool:
    # the one-trajectory form of the witness, (n, dim) samples
    steps = strong_dist_arrays(np.diff(samples[ia : ib + 1], axis=0))
    floor = 1e-8 * (1.0 + float(np.linalg.norm(samples[ia], axis=-1)))
    if steps.shape[0] == 1:
        return bool(steps[0] <= floor)
    prev = np.concatenate([steps[1:2], steps[:-1]])
    nxt = np.concatenate([steps[1:], steps[-2:-1]])
    return bool(np.all(steps <= np.maximum(10.0 * np.maximum(prev, nxt), floor)))


def test_grid_continuity_of_ensembles_equals_one_member_views(nse4_free_bundle):
    ens = nse4_free_bundle["ensemble"]
    rows = ens.samples.copy()
    rows[1, 150:] += 0.3  # one member with a jump
    rows[2, 40:] = rows[2, 40]  # one member that settles at t = 0.8
    ens = Ensemble(rows, ens.t0, ens.dt, ens.model)
    for a, b in ((None, None), (0.5, 4.0), (0.8, 0.82), (0.9, 1.0)):
        got = is_grid_continuous(ens, a, b)
        ia = 0 if a is None else ens.index_of(a)
        ib = ens.n_samples - 1 if b is None else ens.index_of(b)
        want = [_grid_continuous_oracle(r, ia, ib) for r in ens.samples]
        assert got.tolist() == want
        views = member_views(ens)
        assert got.tolist() == [bool(is_grid_continuous(v, a, b)[0]) for v in views]
        assert np.array_equal(_modulus(ens, a, b), [_modulus(v, a, b)[0] for v in views])
    assert is_grid_continuous(ens).tolist() == [True, False] + [True] * (ens.n_members - 2)


def test_grid_steps_member_by_member_have_the_bits_of_the_whole(nse4_free_bundle):
    ens = nse4_free_bundle["ensemble"]
    diff = np.diff(ens.samples, axis=1)
    old = np.sqrt(np.add.reduce(diff * diff, axis=-1))  # the whole-ensemble expression
    assert np.array_equal(strong_dist_arrays(diff), old)
    assert np.array_equal(list(_grid_steps(ens, None, None, "a test")[1]), old)
    for a, b in ((None, None), (0.5, 4.0), (0.9, 1.0)):
        ia = 0 if a is None else ens.index_of(a)
        ib = ens.n_samples - 1 if b is None else ens.index_of(b)
        steps = strong_dist_arrays(np.diff(ens.samples[:, ia : ib + 1], axis=1))
        assert np.array_equal(_modulus(ens, a, b), steps.max(axis=-1))
        want = [_grid_continuous_oracle(r, ia, ib) for r in ens.samples]
        assert is_grid_continuous(ens, a, b).tolist() == want


def test_quasi_invariance_toy(toy_bundle):
    est = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    rep = check_quasi_invariance(est, toy_bundle["library"], eps=1e-2, t_win=2.0)
    assert rep.covered_fraction == 1.0
    assert rep.uncovered == ()


def test_quasi_invariance_rejects_far_point(toy_bundle):
    spec = toy_bundle["spec"]
    est = SetEstimate(np.full((1, 6), 3.0), spec, metric="strong", tol=1e-3, horizon=18.0)
    rep = check_quasi_invariance(est, toy_bundle["library"], eps=1e-2, t_win=2.0)
    assert rep.covered_fraction == 0.0
    assert rep.uncovered == (0,)


def _one_shift(library_rows, points, t_win=0.5, eps=0.5):
    """check_quasi_invariance on dim-4 toy data with exact dyadic distances:
    the library is one member of three samples at dt 0.5, whose one shift is
    its middle sample when t_win is one step."""
    spec = make_spec("toy_contraction", truncation=4)
    lib = Ensemble(np.array([library_rows], float), 0.0, 0.5, spec)
    est = SetEstimate(np.array(points, float), spec, metric="strong", tol=1e-3, horizon=1.0)
    return check_quasi_invariance(est, lib, eps=eps, t_win=t_win)


def test_quasi_invariance_point_exactly_eps_from_a_settled_sample_is_uncovered():
    # the window (0.25, 0, 0, 0), 0, (0, 0.25, 0, 0) lies within 0.25 of the
    # point at 0, so the middle sample is settled; the second point is
    # exactly eps = 0.5 from it
    lib = [[0.25, 0, 0, 0], [0, 0, 0, 0], [0, 0.25, 0, 0]]
    rep = _one_shift(lib, [[0, 0, 0, 0], [0, 0, 0.5, 0]])
    assert rep.uncovered == (1,) and rep.covered_fraction == 0.5


def test_quasi_invariance_window_exactly_eps_from_the_estimate_is_unsettled():
    # the point is 0.25 from the middle sample, but the first sample of the
    # window is exactly eps = 0.5 from it
    lib = [[0, 0, 0.75, 0], [0, 0, 0, 0], [0, 0, 0.25, 0.25]]
    assert _one_shift(lib, [[0, 0, 0.25, 0]]).uncovered == (0,)
    nearer = [[0, 0, 0.5, 0], [0, 0, 0, 0], [0, 0, 0.25, 0.25]]
    assert _one_shift(nearer, [[0, 0, 0.25, 0]]).uncovered == ()


def test_quasi_invariance_accepts_a_window_of_one_step():
    # t_win = dt gives w = 1, the shortest window; 0.4 steps round to w = 0
    lib = [[0, 0, 0, 0]] * 3
    rep = _one_shift(lib, [[0, 0, 0, 0]], t_win=0.5)
    assert rep.uncovered == () and rep.covered_fraction == 1.0
    with pytest.raises(ValueError, match="t_win shorter than one grid step"):
        _one_shift(lib, [[0, 0, 0, 0]], t_win=0.2)


def test_maximal_invariant_toy(toy_bundle):
    est = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    rep = check_maximal_invariant(est, toy_bundle["library"], eps=1e-2)
    assert rep.i_subset_a and rep.a_subset_i
    assert rep.d_i_to_a <= 1e-2 and rep.d_a_to_i <= 1e-2


def test_maximal_invariant_inclusions_hold_at_eps_equal_to_their_semidistance(toy_bundle):
    est = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    lib = toy_bundle["library"]
    rep = check_maximal_invariant(est, lib, eps=1.0)
    for d, side in ((rep.d_i_to_a, "i_subset_a"), (rep.d_a_to_i, "a_subset_i")):
        assert d > 0.0
        assert getattr(check_maximal_invariant(est, lib, eps=d), side)
        assert not getattr(check_maximal_invariant(est, lib, eps=np.nextafter(d, 0.0)), side)


def test_tracking_self_library_is_exact(nse4_bundle):
    # eps below the inter-member separation forces each member to match its
    # own surrogate at the aligned shift, where the error is exactly zero
    lib = nse4_bundle["library"]
    rep = check_tracking(lib, lib, "strong", eps=1e-12, window_T=2.0)
    assert rep.worst_error <= 1e-12


def test_tracking_no_match_is_none(toy_bundle):
    spec = toy_bundle["spec"]
    # library pinned far away: nothing tracks the decaying ensemble
    lib = Ensemble(np.full((2, 2401, 6), 5.0), 0.0, 0.01, spec)
    assert check_tracking(toy_bundle["ensemble"], lib, "strong", eps=1e-3, window_T=2.0) is None
    ladder = tracking_ladder(
        toy_bundle["ensemble"], lib, "strong", window_T=2.0, eps_ladder=(0.1, 1e-3)
    )
    assert ladder[0][1] is None and ladder[1][1] is None


def _one_window(library_row, later_row, m, dt):
    """check_tracking at eps 0.5 of a one-member dim-4 toy ensemble at 0
    against a one-member library of one window: its first sample
    library_row, every later one later_row. Both span exactly one window,
    so there is one t* and one shift."""
    spec = make_spec("toy_contraction", truncation=4)
    n = (8 if m == "weak" else 1) * int(round(1 / dt)) + 1
    rows = np.array([library_row] + [later_row] * (n - 1), float)
    ens = Ensemble(np.zeros((1, n, 4)), 0.0, dt, spec)
    lib = Ensemble(rows[None], 0.0, dt, spec)
    return [check_tracking(ens, lib, m, eps, window_T=1.0) for eps in (0.5, np.nextafter(0.5, 1))]


def test_tracking_library_sample_exactly_eps_from_the_window_start_does_not_match():
    # the weak window error of the constant (0.5, 0, 0, 0) is under 1/3,
    # but its strong anchor is exactly eps = 0.5
    at_eps, above = _one_window([0.5, 0, 0, 0], [0.5, 0, 0, 0], "weak", dt=0.25)
    assert at_eps is None
    assert above is not None and above.worst_error < 1 / 3


def test_tracking_window_exactly_eps_from_the_member_does_not_match():
    # anchored 0.25 from the window start, the window's sup error is exactly eps = 0.5
    at_eps, above = _one_window([0.25, 0, 0, 0], [0, 0, 0.5, 0], "strong", dt=0.25)
    assert at_eps is None
    assert above is not None and above.worst_error == 0.5


def test_tracking_scans_library_members_in_order_and_stops_at_the_first_match(monkeypatch):
    # one t* (a window of 4 steps) and, at every step, a shift; eps 0.5. The
    # first library member anchors three windows (0.125 from the start) that
    # each reach 0.75; the second anchors three that match, the first with
    # error 0.25, the later two with 0.125
    spec = make_spec("toy_contraction", truncation=4)
    first = [0.125, 0.75, 0.125, 0.125, 0.75, 0.75, 0.75, 0.75]
    second = [0.75, 0.25, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]
    rows = np.zeros((2, 8, 4))
    rows[:, :, 0] = [first, second]
    ens = Ensemble(np.zeros((2, 5, 4)), 0.0, 0.25, spec)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return window_dist(*args, **kwargs)

    monkeypatch.setattr(metrics, "window_dist", counted)
    monkeypatch.setattr(verification, "window_dist", counted)
    rep = check_tracking(ens, Ensemble(rows, 0.0, 0.25, spec), "strong", 0.5, window_T=1.0)
    assert rep.t_star == 0.0 and rep.worst_error == 0.25
    # per ensemble member: the first member's three anchored windows, then one
    assert len(calls) == 2 * (3 + 1)


@pytest.mark.parametrize(
    "reader",
    [
        lambda ens, est, lib: check_quasi_invariance(est, lib, eps=1e-2),
        lambda ens, est, lib: check_maximal_invariant(est, lib, eps=1e-2),
        lambda ens, est, lib: check_tracking(ens, lib, "strong", eps=1e-2, window_T=2.0),
        lambda ens, est, lib: trajectory_attractor(ens, lib, 1e-3),
    ],
    ids=["quasi_invariance", "maximal_invariant", "tracking", "trajectory_attractor"],
)
def test_a_library_that_does_not_start_at_zero_is_rejected(toy_bundle, reader):
    # the settled library's own samples, labelled as starting at t = -1
    ens = toy_bundle["ensemble"]
    est = omega_limit(ens, "strong", toy_bundle["omega"])
    early = translate(toy_bundle["library"], -1.0)
    with pytest.raises(ValueError, match="must start at t = 0"):
        reader(ens, est, early)


def test_tracking_rejects_mismatched_library(toy_bundle):
    ens = toy_bundle["ensemble"]
    other = make_spec("toy_contraction", truncation=5)
    foreign = build_ensemble(other, np.eye(5)[:2], 0.0, 4.0, ens.dt)
    with pytest.raises(ModelMismatch):
        check_tracking(ens, foreign, "strong", eps=1e-3, window_T=2.0)
    coarse = build_ensemble(ens.model, ens.samples[:2, 0], 0.0, 4.0, 2.0 * ens.dt)
    with pytest.raises(GridMismatch):
        check_tracking(ens, coarse, "strong", eps=1e-3, window_T=2.0)
    # the set checks compare models too, also when the dimensions agree
    est = omega_limit(ens, "strong", toy_bundle["omega"])
    lib = toy_bundle["library"]
    twin = Ensemble(lib.samples, lib.t0, lib.dt, make_spec("toy_contraction", nu=2.0, truncation=6))
    for library in (foreign, twin):
        with pytest.raises(ModelMismatch):
            check_quasi_invariance(est, library, eps=1e-2)
        with pytest.raises(ModelMismatch):
            check_maximal_invariant(est, library, eps=1e-3)


def test_tracking_ladder_passes_on_real_library(nse4_bundle):
    ladder = tracking_ladder(
        nse4_bundle["ensemble"],
        nse4_bundle["library"],
        "strong",
        window_T=2.0,
        eps_ladder=(0.1, 0.01),
    )
    for eps, rep in ladder:
        assert rep is not None
        assert rep.worst_error < eps


def _same_ladder(ensemble, library, m, eps_ladder):
    """Check tracking_ladder against the forward-scan oracle; return its rungs."""
    got = tracking_ladder(ensemble, library, m, window_T=2.0, eps_ladder=eps_ladder)
    want = tracking_ladder_oracle(ensemble, library, m, 2.0, eps_ladder)
    assert [eps for eps, _ in got] == [eps for eps, _ in want]
    for (eps, rep), (_, ref) in zip(got, want):
        assert (rep is None) == (ref is None), eps
        if rep is not None:
            for f in fields(TrackingReport):
                assert getattr(rep, f.name) == getattr(ref, f.name), (eps, f.name)
    return got


@pytest.mark.parametrize("bundle", ["toy_bundle", "nse4_bundle"])
@pytest.mark.parametrize("m", ["strong", "weak"])
def test_tracking_matches_forward_scan(request, bundle, m):
    b = request.getfixturevalue(bundle)
    ens, lib = b["ensemble"], b["library"]
    rungs = _same_ladder(ens, lib, m, (10.0, 0.3, 1e-2, 1e-3, 1e-12))
    _, _, t_star_idx, _ = _tracking_grid(ens, lib, m, 2.0)
    second = ens.t0 + int(t_star_idx[1]) * ens.dt
    t_stars = [rep.t_star for _, rep in rungs if rep is not None]
    # a rung settled at the first t*, rungs deep inside the scan, a missed rung
    assert t_stars[0] == ens.t0
    assert len([t for t in t_stars if t > second]) >= 2
    assert rungs[-1][1] is None


@pytest.mark.parametrize("bundle", ["toy_bundle", "nse4_bundle"])
def test_library_searches_match_explicit_loops(request, bundle):
    # the library scans of the quasi-invariance check and the error profile
    # give the bits of explicit loops over members and shifts. The
    # quasi-invariance library is the ensemble, whose transients leave its
    # windows off a cloud of every 25th sample of its first member, so
    # that anchors, windows, or neither decide the verdict
    b = request.getfixturevalue(bundle)
    ens, lib = b["ensemble"], b["library"]
    cloud = ens.samples[0, ::25]

    def same_as_oracle(points, library, metric, eps):
        est = SetEstimate(points, ens.model, metric=metric, tol=1e-3, horizon=ens.t_end)
        rep = check_quasi_invariance(est, library, eps=eps, t_win=0.5)
        assert rep.uncovered == quasi_invariance_oracle(est, library, eps, 0.5), (metric, eps)
        return rep.uncovered

    # a weak estimate too: weak windows, strong anchors
    for metric in ("strong", "weak"):
        counts = {len(same_as_oracle(cloud, ens, metric, eps)) for eps in (1e-2, 1e-3, 1e-4)}
        assert any(0 < c < cloud.shape[0] for c in counts), metric
    # every 10th sample of two members: the second member covers points of
    # its own that the first leaves uncovered
    two = ens.samples[:2, ::10].reshape(-1, ens.samples.shape[2])
    first = member_views(ens)[0]
    for eps in (1e-2, 1e-3):
        by_all = same_as_oracle(two, ens, "strong", eps)
        assert set(by_all) < set(same_as_oracle(two, first, "strong", eps)), eps
    # the shortest library, n_samples = 2w + 1, has one shift; one sample
    # shorter has none
    w = int(round(0.5 / ens.dt))
    last = Ensemble(ens.samples[:, -(2 * w + 1) :], 0.0, ens.dt, ens.model)
    for metric in ("strong", "weak"):
        assert 0 < len(same_as_oracle(cloud, last, metric, 1e-2)) < cloud.shape[0]
    short = Ensemble(ens.samples[:, : 2 * w], 0.0, ens.dt, ens.model)
    est = SetEstimate(cloud, ens.model, metric="strong", tol=1e-3, horizon=ens.t_end)
    with pytest.raises(ValueError, match="library horizon too short for the requested window"):
        check_quasi_invariance(est, short, eps=1e-2, t_win=0.5)
    for m in ("strong", "weak"):
        t_stars, errs = tracking_error_profile(ens, lib, m, window_T=2.0)
        want_t, want_errs = error_profile_oracle(ens, lib, m, 2.0)
        assert t_stars.tolist() == want_t.tolist() and errs.tolist() == want_errs.tolist()


def test_tracking_error_profile_monotone(nse4_bundle):
    t_stars, errs = tracking_error_profile(
        nse4_bundle["ensemble"], nse4_bundle["library"], "strong", window_T=2.0
    )
    assert t_stars.shape == errs.shape and t_stars.size >= 5
    assert np.all(np.diff(t_stars) > 0)
    # forced contraction onto the steady state: late windows track far better
    assert errs[-1] < errs[0] * 1e-2


def _perturbed(bundle, coord):
    """Sequence started 2^-n off the first member along coord, and its limit."""
    spec = bundle["spec"]
    u0 = bundle["ensemble"].samples[0, 0]
    starts = np.tile(u0, (6, 1))
    starts[:, coord] += 2.0 ** -np.arange(1.0, 7.0)
    return build_ensemble(spec, starts, 0.0, 6.0, 0.02), build_ensemble(spec, u0[None], 0.0, 6.0, 0.02)


def test_point_convergence_positive(nse4_free_bundle):
    seq, limit = _perturbed(nse4_free_bundle, 0)
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    assert rep.dists[-1] < rep.dists[0]
    # weak gate over [2, 4] (grid 100..200) and the distances at t* = 3
    # (grid 150), member by member from one-member views
    x = limit.samples[0]
    views = [v.samples[0] for v in member_views(seq)]
    weak = [window_dist(seq.model, u[100:201], x[100:201], "weak") for u in views]
    assert rep.weak_dists == tuple(weak)
    assert rep.dists == tuple(float(np.linalg.norm(u[150] - x[150])) for u in views)


def test_point_convergence_rejects_weak_only_gate():
    # oscillation pushed to the highest retained mode: weak metric shrinks it,
    # strong metric does not, so the check must not report convergence
    spec = make_spec("toy_contraction", truncation=8)
    t = np.arange(0, 301) * 0.02
    base = np.zeros((1, 301, 8))
    limit = Ensemble(base, 0.0, 0.02, spec)
    s = np.zeros((5, 301, 8))
    s[:, :, -1] = 0.5  # constant strong-size offset on the last coordinate
    seq = Ensemble(s, 0.0, 0.02, spec)
    try:
        rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
        assert not rep.converged
    except HypothesisFail:
        pass


_RISE = 1.0 * 1.1 + 1e-15  # the largest rise the gate allows after a distance of 1


@pytest.mark.parametrize(
    "w,over",
    [
        ([1.0, _RISE, 0.2], [1.0, np.nextafter(_RISE, 2.0), 0.2]),
        ([1.0, 0.25], [1.0, np.nextafter(0.25, 1.0)]),
        ([_WEAK_TOL], [np.nextafter(_WEAK_TOL, 1.0)]),
    ],
    ids=["rise of exactly 1.1", "final exactly a quarter", "final exactly the tolerance"],
)
def test_weak_gate_passes_a_sequence_exactly_at_its_bounds(w, over):
    # each bound holds with equality; one ulp past it the gate fails
    _weak_gate(w)
    with pytest.raises(HypothesisFail):
        _weak_gate(over)


def _on_a_high_mode(dists):
    """A constant sequence at strong distances dists from a zero limit, on the
    last of 12 toy coordinates, where the weak metric weighs it by 2^-12 and
    so passes the weak gate; (sequence, limit), t* = 1.0 inside [0, 2]."""
    spec = make_spec("toy_contraction", truncation=12)
    rows = np.zeros((len(dists), 21, 12))
    rows[:, :, -1] = np.array(dists)[:, None]
    return Ensemble(rows, 0.0, 0.1, spec), Ensemble(np.zeros((1, 21, 12)), 0.0, 0.1, spec)


_POINT_RISE = 1.0 * (1.0 + _SLACK) + 1e-15  # the largest rise after a distance of 1 (scale 1)


@pytest.mark.parametrize(
    "d,over",
    [
        ([1.0, _POINT_RISE, 0.1], [1.0, np.nextafter(_POINT_RISE, 2.0), 0.1]),
        ([1.0, 0.2], [1.0, np.nextafter(0.2, 1.0)]),
        ([1e-12, 1e-12], [1e-12, np.nextafter(1e-12, 1.0)]),
    ],
    ids=["rise of exactly the slack", "final exactly a fifth", "final exactly the floor"],
)
def test_point_convergence_holds_exactly_at_its_bounds(d, over):
    # each bound holds with equality (the limit is 0, so the scale is 1 and a
    # distance is the offset itself); one ulp past it the verdict is False
    rep = check_strong_convergence_at_point(*_on_a_high_mode(d), t_star=1.0)
    assert rep.converged and rep.dists == tuple(d)
    rep = check_strong_convergence_at_point(*_on_a_high_mode(over), t_star=1.0)
    assert not rep.converged and rep.dists == tuple(over)


def _coarse_grid():
    """Constant sequence 2^-n toward a zero limit on the grid dt = 0.3, [0, 6]."""
    limit = _traj(np.zeros((21, 3)), dt=0.3)
    return _traj(*(np.full((21, 3), 2.0 ** (-n)) for n in range(1, 7)), dt=0.3), limit


def test_point_convergence_window_on_a_grid_that_misses_whole_times():
    # dt = 0.3 does not divide 1.0: the window t_star +- 1 rounds to three
    # grid steps on each side, [2.1, 3.9], instead of raising OffGrid at 2.0
    seq, limit = _coarse_grid()
    spec, x = seq.model, limit.samples[0]
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    # [2.1, 3.9] is grid 7..13
    assert rep.weak_dists == tuple(window_dist(spec, u[7:14], x[7:14], "weak") for u in seq.samples)
    # near the ends the window is clipped to the span: [0.0, 1.2], grid 0..4
    early = check_strong_convergence_at_point(seq, limit, t_star=0.3)
    assert early.weak_dists == tuple(window_dist(spec, u[:5], x[:5], "weak") for u in seq.samples)


def test_window_readings_are_window_dist_and_trapezoid(nse4_free_bundle, monkeypatch):
    # sup_dists is the strong window distance and l2_dists the trapezoid rule
    # over the window, bitwise, also on clipped windows and a coarse grid
    seq, limit = _perturbed(nse4_free_bundle, 0)
    coarse, zero = _coarse_grid()
    # (sequence, limit, t*, first and last grid index of its window)
    cases = [
        (seq, limit, 3.0, 100, 200),
        (seq, limit, 0.0, 0, 50),
        (seq, limit, 6.0, 250, 300),
        (coarse, zero, 3.0, 7, 13),
        (coarse, zero, 0.3, 0, 4),
    ]
    want = []
    for s, lim, _, lo, hi in cases:
        u, x = s.samples[:, lo : hi + 1], lim.samples[:, lo : hi + 1]
        norms = np.linalg.norm(u - x, axis=-1)
        l2 = [float(np.sqrt(np.trapezoid(n**2, dx=s.dt))) for n in norms]
        want.append((tuple(window_dist(s.model, u, x, "strong").tolist()), tuple(l2)))
    # numpy < 2 has no np.trapezoid: the check must not need it
    monkeypatch.delattr(np, "trapezoid")
    for (s, lim, t_star, _, _), (sup, l2) in zip(cases, want):
        rep = check_strong_convergence_at_point(s, lim, t_star)
        assert rep.sup_dists == sup and rep.l2_dists == l2, t_star
        assert len(sup) == s.n_members and min(sup) > 0.0


def test_uniform_convergence_window(nse4_free_bundle):
    seq, limit = _perturbed(nse4_free_bundle, 1)
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    sup = rep.sup_dists
    assert rep.converged
    assert all(sup[i + 1] <= sup[i] for i in range(len(sup) - 1)) and sup[-1] < 0.05
    # a limit the sequence does not even weakly approach is a hypothesis
    # failure, not a negative verdict
    wrong = build_ensemble(seq.model, limit.samples[0, :1] * 0.2, 0.0, 6.0, 0.02)
    with pytest.raises(HypothesisFail):
        check_strong_convergence_at_point(seq, wrong, t_star=3.0)
    # one jump at t = 3 in the sequence and in its limit keeps the weak gate
    # passing, and the limit fails the continuity witness
    jumped = [np.array(e.samples) for e in (seq, limit)]
    for rows in jumped:
        rows[:, 150:] += 0.3
    seq_j, limit_j = (Ensemble(rows, 0.0, seq.dt, seq.model) for rows in jumped)
    with pytest.raises(HypothesisFail, match="strong-continuity"):
        check_strong_convergence_at_point(seq_j, limit_j, t_star=3.0)


def test_uniform_convergence_false_on_high_mode_offset():
    # weakly negligible but strongly visible offset: the weak gate passes,
    # the strong sup does not, and the verdict is False rather than a raise
    spec = make_spec("toy_contraction", truncation=12)
    limit = Ensemble(np.zeros((1, 61, 12)), 0.0, 0.1, spec)
    off = np.zeros((5, 61, 12))
    off[:, :, -1] = 0.5
    seq = Ensemble(off, 0.0, 0.1, spec)
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert not rep.converged
    assert rep.sup_dists == (0.5,) * 5


def _a3_family():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    base = sample_ball(spec, 1, radius=0.5, seed=6)[0]
    starts = np.tile(base, (8, 1))
    starts[:, 0] += 2.0 ** -np.arange(1.0, 9.0)
    seq = build_ensemble(spec, starts, 0.0, 3.0, 0.02)
    return seq, build_ensemble(spec, base[None], 0.0, 3.0, 0.02)


def test_a3_reading_on_a_perturbation_family():
    seq, limit = _a3_family()
    rep = check_strong_convergence_at_point(seq, limit, t_star=1.5)
    l2 = rep.l2_dists
    assert rep.converged
    assert all(l2[i + 1] <= l2[i] for i in range(len(l2) - 1))
    assert l2[-1] < l2[0] / 4


def test_window_readings_of_a_constant_sequence():
    spec = make_spec("toy_contraction", truncation=3)
    x = np.array([0.5, 0.2, -0.1])
    limit = build_ensemble(spec, x[None], 0.0, 2.0, 0.1)
    seq = build_ensemble(spec, np.stack([x, x]), 0.0, 2.0, 0.1)
    rep = check_strong_convergence_at_point(seq, limit, t_star=1.0)
    assert rep.converged
    assert rep.sup_dists == (0.0, 0.0) and rep.l2_dists == (0.0, 0.0)


def test_sequence_checks_reject_another_model_and_a_wide_limit():
    spec = make_spec("toy_contraction", truncation=3)
    seq = Ensemble(np.zeros((3, 31, 3)), 0.0, 0.1, spec)
    other = Ensemble(np.zeros((1, 31, 4)), 0.0, 0.1, make_spec("toy_contraction", truncation=4))
    wide = Ensemble(np.zeros((2, 31, 3)), 0.0, 0.1, spec)
    with pytest.raises(ModelMismatch):
        check_strong_convergence_at_point(seq, other, t_star=1.0)
    with pytest.raises(ValueError, match="one-member"):
        check_strong_convergence_at_point(seq, wide, t_star=1.0)
