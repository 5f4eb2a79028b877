"""Continuity witnesses, invariance checks, and tracking verdicts."""
from dataclasses import fields

import numpy as np
import pytest
from oracles import tracking_ladder_oracle

from attractorlab.core import build_ensemble, integrate
from attractorlab.errors import BoundaryPoint, GridMismatch, HypothesisFail, ModelMismatch, NoMatch
from attractorlab.limits import SetEstimate, omega_limit
from attractorlab.metrics import traj_dist_window
from attractorlab.models import make_spec, sample_ball, smooth_profile
from attractorlab.state import Ensemble, Trajectory
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


def _traj(vals, dt=0.1, t0=0.0):
    arr = np.atleast_2d(np.asarray(vals, float))
    if arr.shape[0] == 1:
        arr = arr.T
    spec = make_spec("toy_contraction", truncation=arr.shape[1])
    return Trajectory(t0=t0, dt=dt, samples=arr, model=spec)


def test_grid_modulus_hand_value():
    tr = _traj([0.0, 1.0, 1.5, 1.5])
    assert grid_modulus(tr) == 1.0
    assert grid_modulus(tr, 0.1, 0.3) == 0.5
    with pytest.raises(ValueError):
        grid_modulus(tr, 0.1, 0.1)


def test_grid_continuity_smooth_vs_jump():
    t = np.arange(201) * 0.01
    smooth = _traj(np.exp(-t), dt=0.01)
    assert is_grid_continuous(smooth)
    jumped = np.exp(-t)
    jumped[100:] += 0.5  # one-step jump of 0.5 against ~0.01 neighbors
    assert not is_grid_continuous(_traj(jumped, dt=0.01))


def test_grid_continuity_settled_floor():
    # fully settled trajectory: zero steps everywhere must pass
    assert is_grid_continuous(_traj(np.ones(50), dt=0.1))


def test_left_continuity_witness():
    t = np.arange(201) * 0.01
    smooth = _traj(np.sin(t), dt=0.01)
    assert check_left_continuity_implies_continuity(smooth, 1.0, tol=1e-3)
    jumped = np.sin(t).copy()
    jumped[101:] += 0.3  # left limit still matches the value at t=1.0
    assert not check_left_continuity_implies_continuity(_traj(jumped, dt=0.01), 1.0, tol=1e-3)
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
    far = np.full((2, 6), 5.0)
    lib = Ensemble.from_trajectories(
        tuple(
            Trajectory(t0=-5.0, dt=0.01, samples=np.tile(row, (2401, 1)), model=spec)
            for row in far
        ),
        label="surrogate-library",
    )
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


def test_point_convergence_positive(nse4_free_bundle):
    spec = nse4_free_bundle["spec"]
    base = nse4_free_bundle["ensemble"].trajectories[0]
    u0 = base.samples[0]
    seq = []
    for n in range(1, 7):
        pert = u0.copy()
        pert[0] += 2.0 ** (-n)
        seq.append(integrate(spec, pert, 0.0, 6.0, 0.02))
    limit = integrate(spec, u0, 0.0, 6.0, 0.02)
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    assert rep.dists[-1] < rep.dists[0]


def test_point_convergence_rejects_weak_only_gate():
    # oscillation pushed to the highest retained mode: weak metric shrinks it,
    # strong metric does not, so the check must not report convergence
    spec = make_spec("toy_contraction", truncation=8)
    t = np.arange(0, 301) * 0.02
    base = np.zeros((301, 8))
    limit = Trajectory(t0=0.0, dt=0.02, samples=base, model=spec)
    seq = []
    for n in range(1, 6):
        s = base.copy()
        s[:, -1] = 0.5  # constant strong-size offset on the last coordinate
        seq.append(Trajectory(t0=0.0, dt=0.02, samples=s, model=spec))
    try:
        rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
        assert not rep.converged
    except HypothesisFail:
        pass


def test_point_convergence_window_on_a_grid_that_misses_whole_times():
    # dt = 0.3 does not divide 1.0: the window t_star +- 1 rounds to three
    # grid steps on each side, [2.1, 3.9], instead of raising OffGrid at 2.0
    limit = _traj(np.zeros((21, 3)), dt=0.3)
    seq = [_traj(np.full((21, 3), 2.0 ** (-n)), dt=0.3) for n in range(1, 7)]
    rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
    assert rep.converged
    assert rep.weak_dists == tuple(traj_dist_window(u, limit, 2.1, 3.9, "weak") for u in seq)
    # near the ends the window is clipped to the span
    early = check_strong_convergence_at_point(seq, limit, t_star=0.3)
    assert early.weak_dists == tuple(traj_dist_window(u, limit, 0.0, 1.2, "weak") for u in seq)


def test_uniform_convergence_window(nse4_free_bundle):
    spec = nse4_free_bundle["spec"]
    u0 = nse4_free_bundle["ensemble"].trajectories[0].samples[0]
    seq = []
    for n in range(1, 7):
        pert = u0.copy()
        pert[1] += 2.0 ** (-n)
        seq.append(integrate(spec, pert, 0.0, 6.0, 0.02))
    limit = integrate(spec, u0, 0.0, 6.0, 0.02)
    assert check_uniform_strong_convergence(seq, limit, window=(1.0, 5.0), tol=0.05)
    # a limit the sequence does not even weakly approach is a hypothesis
    # failure, not a negative verdict
    wrong = integrate(spec, u0 * 0.2, 0.0, 6.0, 0.02)
    with pytest.raises(HypothesisFail):
        check_uniform_strong_convergence(seq, wrong, window=(1.0, 5.0), tol=0.05)


def test_uniform_convergence_false_on_high_mode_offset():
    # weakly negligible but strongly visible offset: the weak gate passes,
    # the strong sup does not, and the verdict is False rather than a raise
    spec = make_spec("toy_contraction", truncation=12)
    base = np.zeros((61, 12))
    limit = Trajectory(t0=0.0, dt=0.1, samples=base, model=spec)
    off = base.copy()
    off[:, -1] = 0.5
    seq = [Trajectory(t0=0.0, dt=0.1, samples=off, model=spec) for _ in range(5)]
    assert not check_uniform_strong_convergence(seq, limit, window=(1.0, 5.0), tol=0.05)
