"""Continuity witnesses, invariance checks, and tracking verdicts."""
from dataclasses import fields

import numpy as np
import pytest
from oracles import tracking_ladder_oracle

from attractorlab.core import build_ensemble, integrate
from attractorlab.errors import BoundaryPoint, GridMismatch, HypothesisFail, ModelMismatch, NoMatch
from attractorlab.limits import SetEstimate, omega_limit
from attractorlab.metrics import _strong_dist_owned, strong_dist_arrays, window_dist
from attractorlab.models import check_a3, make_spec, sample_ball, smooth_profile
from attractorlab.state import Ensemble
from attractorlab.verification import (
    TrackingReport,
    _tracking_grid,
    check_left_continuity_implies_continuity,
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    check_tracking,
    check_uniform_strong_convergence,
    grid_modulus,
    is_grid_continuous,
    tracking_error_profile,
    tracking_ladder,
)


def _traj(*members, dt=0.1, t0=0.0):
    """Toy-model ensemble of the given members; a 1-d member is one coordinate."""
    arr = np.stack([np.asarray(m, float).reshape(len(m), -1) for m in members])
    spec = make_spec("toy_contraction", truncation=arr.shape[2])
    return Ensemble(arr, t0, dt, spec)


def test_grid_modulus_hand_value():
    tr = _traj([0.0, 1.0, 1.5, 1.5], [0.0, 0.5, 0.5, 2.5])
    assert grid_modulus(tr).tolist() == [1.0, 2.0]
    assert grid_modulus(tr, 0.1, 0.3).tolist() == [0.5, 2.0]
    with pytest.raises(ValueError):
        grid_modulus(tr, 0.1, 0.1)


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
        assert got.tolist() == [bool(is_grid_continuous(v, a, b)[0]) for v in ens.trajectories]
        assert np.array_equal(
            grid_modulus(ens, a, b), [grid_modulus(v, a, b)[0] for v in ens.trajectories]
        )
    assert is_grid_continuous(ens).tolist() == [True, False] + [True] * (ens.n_members - 2)


def test_grid_steps_square_in_place_with_the_same_bits(nse4_free_bundle):
    ens = nse4_free_bundle["ensemble"]
    diff = np.diff(ens.samples, axis=1)
    old = np.sqrt(np.add.reduce(diff * diff, axis=-1))  # the copying expression
    assert np.array_equal(strong_dist_arrays(diff), old)
    owned = diff.copy()
    assert np.array_equal(_strong_dist_owned(owned), old)
    assert np.array_equal(owned, diff * diff)
    for a, b in ((None, None), (0.5, 4.0), (0.9, 1.0)):
        ia = 0 if a is None else ens.index_of(a)
        ib = ens.n_samples - 1 if b is None else ens.index_of(b)
        steps = strong_dist_arrays(np.diff(ens.samples[:, ia : ib + 1], axis=1))
        assert np.array_equal(grid_modulus(ens, a, b), steps.max(axis=-1))
        want = [_grid_continuous_oracle(r, ia, ib) for r in ens.samples]
        assert is_grid_continuous(ens, a, b).tolist() == want


def test_left_continuity_witness():
    t = np.arange(201) * 0.01
    smooth = _traj(np.sin(t), dt=0.01)
    assert check_left_continuity_implies_continuity(smooth, 1.0, tol=1e-3).tolist() == [True]
    jumped = np.sin(t).copy()
    jumped[101:] += 0.3  # left limit still matches the value at t=1.0
    both = _traj(np.sin(t), jumped, dt=0.01)
    assert check_left_continuity_implies_continuity(both, 1.0, tol=1e-3).tolist() == [True, False]
    with pytest.raises(BoundaryPoint):
        check_left_continuity_implies_continuity(smooth, 0.0, tol=1e-3)


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


def test_maximal_invariant_toy(toy_bundle):
    est = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    rep = check_maximal_invariant(est, toy_bundle["library"], eps=1e-2)
    assert rep.i_subset_a and rep.a_subset_i
    assert rep.d_i_to_a <= 1e-2 and rep.d_a_to_i <= 1e-2


def test_tracking_self_library_is_exact(nse4_bundle):
    # eps below the inter-member separation forces each member to match its
    # own surrogate at the aligned shift, where the error is exactly zero
    lib = nse4_bundle["library"]
    rep = check_tracking(lib, lib, "strong", eps=1e-12, window_T=2.0)
    assert rep.worst_error <= 1e-12
    assert {pair[0] for pair in rep.matched_pairs} <= set(range(lib.n_members))


def test_tracking_no_match_raises(toy_bundle):
    spec = toy_bundle["spec"]
    # library pinned far away: nothing tracks the decaying ensemble
    lib = Ensemble(np.full((2, 2401, 6), 5.0), -5.0, 0.01, spec)
    with pytest.raises(NoMatch):
        check_tracking(toy_bundle["ensemble"], lib, "strong", eps=1e-3, window_T=2.0)
    ladder = tracking_ladder(
        toy_bundle["ensemble"], lib, "strong", window_T=2.0, eps_ladder=(0.1, 1e-3)
    )
    assert ladder[0][1] is None and ladder[1][1] is None


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
    # a rung settled at the first t*, rungs deep inside the scan, a NoMatch rung
    assert t_stars[0] == ens.t0
    assert len([t for t in t_stars if t > second]) >= 2
    assert rungs[-1][1] is None


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
    return build_ensemble(spec, starts, 0.0, 6.0, 0.02), integrate(spec, u0, 0.0, 6.0, 0.02)


def test_point_convergence_positive(nse4_free_bundle):
    seq, limit = _perturbed(nse4_free_bundle, 0)
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    assert rep.dists[-1] < rep.dists[0]
    # weak gate over [2, 4] (grid 100..200) and the distances at t* = 3
    # (grid 150), member by member from one-member views
    x = limit.samples[0]
    views = [v.samples[0] for v in seq.trajectories]
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


def test_point_convergence_window_on_a_grid_that_misses_whole_times():
    # dt = 0.3 does not divide 1.0: the window t_star +- 1 rounds to three
    # grid steps on each side, [2.1, 3.9], instead of raising OffGrid at 2.0
    limit = _traj(np.zeros((21, 3)), dt=0.3)
    seq = _traj(*(np.full((21, 3), 2.0 ** (-n)) for n in range(1, 7)), dt=0.3)
    spec, x = seq.model, limit.samples[0]
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    # [2.1, 3.9] is grid 7..13
    assert rep.weak_dists == tuple(window_dist(spec, u[7:14], x[7:14], "weak") for u in seq.samples)
    # near the ends the window is clipped to the span: [0.0, 1.2], grid 0..4
    early = check_strong_convergence_at_point(seq, limit, t_star=0.3)
    assert early.weak_dists == tuple(window_dist(spec, u[:5], x[:5], "weak") for u in seq.samples)


def test_uniform_convergence_window(nse4_free_bundle):
    seq, limit = _perturbed(nse4_free_bundle, 1)
    assert check_uniform_strong_convergence(seq, limit, window=(1.0, 5.0), tol=0.05)
    # a limit the sequence does not even weakly approach is a hypothesis
    # failure, not a negative verdict
    wrong = integrate(seq.model, limit.samples[0, 0] * 0.2, 0.0, 6.0, 0.02)
    with pytest.raises(HypothesisFail):
        check_uniform_strong_convergence(seq, wrong, window=(1.0, 5.0), tol=0.05)


def test_uniform_convergence_false_on_high_mode_offset():
    # weakly negligible but strongly visible offset: the weak gate passes,
    # the strong sup does not, and the verdict is False rather than a raise
    spec = make_spec("toy_contraction", truncation=12)
    limit = Ensemble(np.zeros((1, 61, 12)), 0.0, 0.1, spec)
    off = np.zeros((5, 61, 12))
    off[:, :, -1] = 0.5
    seq = Ensemble(off, 0.0, 0.1, spec)
    assert not check_uniform_strong_convergence(seq, limit, window=(1.0, 5.0), tol=0.05)


def test_sequence_checks_reject_another_model_and_a_wide_limit():
    spec = make_spec("toy_contraction", truncation=3)
    seq = Ensemble(np.zeros((3, 31, 3)), 0.0, 0.1, spec)
    other = Ensemble(np.zeros((1, 31, 4)), 0.0, 0.1, make_spec("toy_contraction", truncation=4))
    wide = Ensemble(np.zeros((2, 31, 3)), 0.0, 0.1, spec)
    checks = (
        lambda lim: check_strong_convergence_at_point(seq, lim, t_star=1.0),
        lambda lim: check_uniform_strong_convergence(seq, lim, window=(1.0, 2.0), tol=0.1),
        lambda lim: check_a3(seq, lim, T=2.0, tol=0.1),
    )
    for check in checks:
        with pytest.raises(ModelMismatch):
            check(other)
        with pytest.raises(ValueError, match="one-member"):
            check(wide)
