"""Grid containers and the integrating-factor stepper."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from attractorlab.core import (
    build_ensemble,
    complete_surrogates,
    forward_ensemble,
    integrate,
    integrate_groups,
    make_group,
    rebase_to_zero,
    restrict,
    surrogate_group,
    translate,
)
from attractorlab.errors import (
    EmptyEnsemble,
    EmptyWindow,
    GridMismatch,
    NonFiniteState,
    OffGrid,
    StepMismatch,
)
from attractorlab.models import default_radius, make_spec, nse_forcing, rhs_array, sample_ball
from attractorlab.state import Ensemble, grid_index, span_steps

TOY = make_spec("toy_contraction", truncation=4)


def test_grid_index_snaps_and_rejects():
    assert grid_index(0.3, 0.0, 0.1) == 3
    assert grid_index(-0.5, -1.0, 0.25) == 2
    # accumulated float time must still snap
    assert grid_index(0.1 * 7, 0.0, 0.1) == 7
    with pytest.raises(OffGrid):
        grid_index(0.35, 0.0, 0.1)


def test_grid_snapping_is_absolute_on_long_grids():
    # 0.4 steps off the grid, half a million steps out: still rejected
    with pytest.raises(OffGrid):
        grid_index(500.0004, 0.0, 0.001)
    with pytest.raises(StepMismatch):
        span_steps(0.0, 500.0004, 0.001)
    assert grid_index(0.001 * 500000, 0.0, 0.001) == 500000
    assert span_steps(0.0, 500.0, 0.001) == 500000


def test_span_steps():
    assert span_steps(0.0, 1.0, 0.25) == 4
    assert span_steps(2.0, 2.0, 0.1) == 0
    with pytest.raises(StepMismatch):
        span_steps(0.0, 1.0, 0.3)
    with pytest.raises(StepMismatch):
        span_steps(0.0, -1.0, 0.5)
    with pytest.raises(StepMismatch):
        span_steps(0.0, 1.0, -0.1)


def test_state_validation():
    # A state is a finite coordinate row; containers hold read-only copies.
    row = np.ones(4)
    tr = integrate(TOY, row, 0.0, 0.1, 0.1)
    assert tr.samples.shape == (1, 2, 4) and np.linalg.norm(tr.samples[0, 0]) == 2.0
    with pytest.raises(NonFiniteState):
        integrate(TOY, [1.0, np.nan, 0.0, 0.0], 0.0, 0.1, 0.1)
    with pytest.raises(NonFiniteState):
        Ensemble([[[1.0, np.nan, 0.0, 0.0]]], 0.0, 0.1, TOY)
    own = Ensemble(row[None, None, :], 0.0, 0.1, TOY)
    row[0] = 9.0  # the ensemble holds its own copy
    assert own.samples[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        own.samples[0, 0, 0] = 5.0  # frozen
    with pytest.raises(ValueError):
        tr.samples[0, 0, 0] = 5.0  # frozen


def test_trajectory_indexing():
    # a single trajectory is a one-member ensemble
    samples = np.arange(10, dtype=float).reshape(1, 5, 2)
    tr = Ensemble(samples, 1.0, 0.5, TOY)
    assert tr.t_end == 3.0
    assert tr.index_of(2.0) == 2
    assert np.array_equal(tr.samples_at(3.0), [[8.0, 9.0]])
    np.testing.assert_allclose(tr.times, [1.0, 1.5, 2.0, 2.5, 3.0])
    with pytest.raises(OffGrid, match=r"t=3.5 outside trajectory span \[1.0, 3.0\]"):
        tr.index_of(3.5)
    with pytest.raises(OffGrid):
        tr.index_of(1.3)
    with pytest.raises(ValueError):
        Ensemble(samples, 0.0, -0.1, TOY)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((1, 0, 2)), 0.0, 0.1, TOY)


def test_ensemble_grid_checks():
    with pytest.raises(EmptyEnsemble):
        Ensemble(np.zeros((0, 3, 2)), 0.0, 0.1, TOY)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((3, 2)), 0.0, 0.1, TOY)  # members share one grid axis
    ens = Ensemble(np.zeros((2, 3, 2)), 0.0, 0.1, TOY)
    assert ens.n_members == 2 and ens.dt == 0.1
    assert ens.samples_at(0.1).shape == (2, 2)


def test_ensemble_is_one_array_with_views():
    initials = np.eye(4)
    ens = build_ensemble(TOY, initials, 0.0, 1.0, 0.1)
    assert ens.samples.shape == (4, 11, 4) and not ens.samples.flags.writeable
    assert np.shares_memory(ens.samples, ens.trajectories[0].samples)
    assert np.shares_memory(ens.samples, forward_ensemble(ens).samples)
    third = ens.trajectories[2]
    assert third.samples.shape == (1, 11, 4) and third.t0 == 0.0
    assert np.array_equal(third.samples[0], ens.samples[2])
    # external input is copied and finite-checked
    raw = np.zeros((2, 3, 4))
    own = Ensemble(raw, 0.0, 0.1, TOY)
    assert not np.shares_memory(raw, own.samples)
    raw[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteState):
        Ensemble(raw, 0.0, 0.1, TOY)


def test_window_indices():
    # restrict keeps grid indices 2..6 of [1.0, 3.0] on every member
    samples = np.arange(18, dtype=float).reshape(2, 9, 1)
    ens = Ensemble(samples, 0.0, 0.5, TOY)
    win = restrict(ens, 1.0, 3.0)
    assert win.t0 == 1.0 and np.array_equal(win.samples, samples[:, 2:7])
    with pytest.raises(EmptyWindow):
        restrict(ens, 3.0, 1.0)
    with pytest.raises(OffGrid):
        restrict(ens, 1.0, 4.5)


def test_toy_decay_is_exact():
    # dx/dt = -x is pure linear decay; the integrating factor makes the
    # stepper exact on it regardless of dt
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    tr = integrate(TOY, x0, 0.0, 5.0, 0.25)
    expected = x0[None, :] * np.exp(-tr.times)[:, None]
    np.testing.assert_allclose(tr.samples[0], expected, rtol=0, atol=1e-14)


def test_stepper_is_fourth_order():
    spec = make_spec("galerkin_nse_2d", nu=0.05, truncation=2)
    u0 = sample_ball(spec, 1, radius=1.0, seed=3)[0]

    ref = solve_ivp(
        lambda t, u: rhs_array(spec, u),
        (0.0, 1.0),
        u0,
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
        t_eval=[1.0],
    ).y[:, -1]
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        end = integrate(spec, u0, 0.0, 1.0, dt).samples[0, -1]
        errs.append(np.linalg.norm(end - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 3.5 and order2 > 3.5


def test_batch_matches_single_bitwise():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    initials = sample_ball(spec, 5, radius=0.5, seed=9)
    batch = build_ensemble(spec, initials, 0.0, 1.0, 0.02).samples
    for i in range(5):
        single = integrate(spec, initials[i], 0.0, 1.0, 0.02)
        assert np.array_equal(batch[i], single.samples[0])


def test_integration_rejects_bad_input():
    with pytest.raises(NonFiniteState):
        build_ensemble(TOY, np.full((1, 4), np.nan), 0.0, 1.0, 0.1)
    with pytest.raises(StepMismatch):
        build_ensemble(TOY, np.zeros((1, 4)), 0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        build_ensemble(TOY, np.zeros((1, 3)), 0.0, 1.0, 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_raises():
    # dyadic cascade with zero viscosity and huge data overflows quickly
    spec = make_spec("dyadic", nu=1e-12, truncation=10, lam=2.0)
    huge = np.full((1, 11), 1e150)
    with pytest.raises(NonFiniteState):
        build_ensemble(spec, huge, 0.0, 1.0, 0.1)


def test_restart_composition_matches_continuation():
    # reachability composition R(t+s) = R(t) R(s) for the deterministic
    # flow: restarting from the mid state reproduces the tail bitwise
    for spec, n, dt in (
        (make_spec("galerkin_nse_2d", nu=1.0, truncation=2), 16, 0.02),
        (make_spec("dyadic", nu=0.5, truncation=6, lam=2.0), 16, 0.01),
    ):
        initials = sample_ball(spec, n, radius=0.5, seed=21)
        ens = build_ensemble(spec, initials, 0.0, 2.0, dt)
        mid = ens.samples_at(0.8)
        ens2 = build_ensemble(spec, mid, 0.0, 1.2, dt)
        k = ens.index_of(0.8)
        assert np.array_equal(ens.samples[:, k:], ens2.samples)


def test_translate_restrict_rebase():
    one = integrate(TOY, np.ones(4), 0.0, 2.0, 0.1)
    for tr in (one, build_ensemble(TOY, np.eye(4), 0.0, 2.0, 0.1)):
        t5 = translate(tr, 5.0)
        assert t5.t0 == 5.0 and np.array_equal(t5.samples, tr.samples)
        win = restrict(tr, 0.5, 1.5)
        assert win.t0 == 0.5 and win.n_samples == 11
        assert np.array_equal(win.samples, tr.samples[:, 5:16])
        z = rebase_to_zero(t5)
        assert z.t0 == 0.0 and np.shares_memory(z.samples, tr.samples)


def test_complete_surrogates_contains_zero():
    lib = complete_surrogates(TOY, np.eye(4), t_back=2.0, horizon=1.0, dt=0.1)
    assert lib.t0 == -2.0
    assert lib.index_of(0.0) == 20
    fwd = forward_ensemble(lib)
    assert fwd.t0 == 0.0 and fwd.t_end == 1.0
    with pytest.raises(StepMismatch):
        complete_surrogates(TOY, np.eye(4), t_back=0.25, horizon=1.0, dt=0.1)


def test_deterministic_rerun_bitwise():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    initials = sample_ball(spec, 3, radius=0.5, seed=77)
    a = build_ensemble(spec, initials, 0.0, 1.0, 0.02)
    b = build_ensemble(spec, sample_ball(spec, 3, radius=0.5, seed=77), 0.0, 1.0, 0.02)
    assert np.array_equal(a.samples, b.samples)


_KICK = [{"mode": [1, 0], "amplitude": 0.1}]


@pytest.mark.parametrize(
    "spec",
    [
        make_spec(
            "galerkin_nse_2d",
            nu=1.0,
            truncation=4,
            forcing=nse_forcing("galerkin_nse_2d", 2 * np.pi, 4, _KICK),
        ),
        make_spec("dyadic", nu=0.5, truncation=6, lam=2.0),
    ],
    ids=["nse2d", "dyadic"],
)
def test_fused_pass_matches_one_build_per_group_bitwise(spec):
    # mixed step counts with a tie, a library group starting at -t_back, a
    # one-member group and a norms group, all in one shrinking batch
    dt = 0.02
    ini = sample_ball(spec, 14, radius=default_radius(spec), seed=4)
    spans = [(ini[0:3], 0.0, 1.0), (ini[3:5], 0.0, 0.4), (ini[5:6], 0.0, 1.0), (ini[6:9], 0.0, 0.1)]
    groups = [make_group(spec, rows, t0, t1, dt) for rows, t0, t1 in spans]
    groups.append(surrogate_group(spec, ini[9:12], t_back=0.6, horizon=0.6, dt=dt))
    groups.append(make_group(spec, ini[12:14], 0.0, 0.7, dt, norms=True))
    fused = integrate_groups(spec, groups)
    for (rows, t0, t1), ens in zip(spans, fused):
        alone = build_ensemble(spec, rows, t0, t1, dt)
        assert ens.t0 == alone.t0 and ens.dt == alone.dt
        assert np.array_equal(ens.samples, alone.samples)
        assert not ens.samples.flags.writeable
    lib = complete_surrogates(spec, ini[9:12], t_back=0.6, horizon=0.6, dt=dt)
    assert fused[4].t0 == -0.6 and np.array_equal(fused[4].samples, lib.samples)
    members = build_ensemble(spec, ini[12:14], 0.0, 0.7, dt).samples
    norms = np.array([np.linalg.norm(member, axis=1) for member in members])
    assert fused[5].shape == (2, 36) and np.array_equal(fused[5], norms)


def test_fused_pass_needs_one_dt():
    groups = [make_group(TOY, np.eye(4), 0.0, 1.0, 0.1), make_group(TOY, np.eye(4), 0.0, 1.0, 0.05)]
    with pytest.raises(GridMismatch):
        integrate_groups(TOY, groups)
    assert integrate_groups(TOY, []) == []
