"""Translation semigroup, tail-metric set distances, and the trajectory view."""
import numpy as np
import pytest

from attractorlab.errors import EmptyEnsemble, GridMismatch, HorizonTooShort, ModelMismatch, OffGrid
from attractorlab.metrics import TrajMetricParams
from attractorlab.models import make_spec
from attractorlab.state import Ensemble, Trajectory
from attractorlab.trajectory_space import (
    traj_set_semidist,
    trajectory_attraction_report,
    trajectory_attractor,
    translate_semigroup,
    translation_invariance,
)

PARAMS = TrajMetricParams()


def _set_from(arrs, dt=0.1):
    arrs = [np.atleast_2d(np.asarray(a, float)) for a in arrs]
    spec = make_spec("toy_contraction", truncation=arrs[0].shape[1])
    return Ensemble.from_trajectories(
        Trajectory(t0=0.0, dt=dt, samples=a, model=spec) for a in arrs
    )


def _first_samples(ens, n):
    return Ensemble.from_trajectories(
        Trajectory(t0=0.0, dt=ens.dt, samples=tr.samples[:n], model=tr.model)
        for tr in ens.trajectories
    )


def test_trajectory_set_validation():
    with pytest.raises(EmptyEnsemble):
        Ensemble.from_trajectories(())
    spec = make_spec("toy_contraction", truncation=2)
    shifted = Ensemble.from_trajectories(
        (Trajectory(t0=1.0, dt=0.1, samples=np.zeros((3, 2)), model=spec),)
    )
    # trajectory-space operations need families that start at t = 0
    with pytest.raises(ValueError):
        translate_semigroup(shifted, 0.1)
    with pytest.raises(ValueError):
        traj_set_semidist(shifted, shifted, "strong", TrajMetricParams(t_max_windows=1))
    a = Trajectory(t0=0.0, dt=0.1, samples=np.zeros((3, 2)), model=spec)
    b = Trajectory(t0=0.0, dt=0.2, samples=np.zeros((3, 2)), model=spec)
    with pytest.raises(GridMismatch):
        Ensemble.from_trajectories((a, b))


def test_translation_semigroup_law(toy_bundle):
    p = toy_bundle["ensemble"]
    one = translate_semigroup(translate_semigroup(p, 1.5), 2.5)
    two = translate_semigroup(p, 4.0)
    for u, v in zip(one.trajectories, two.trajectories):
        assert u.t0 == v.t0 == 0.0
        assert np.array_equal(u.samples, v.samples)
    # T(s) is a view of the family's own array
    assert np.shares_memory(two.samples, p.samples)
    with pytest.raises(ValueError):
        translate_semigroup(p, -1.0)
    with pytest.raises(HorizonTooShort):
        translate_semigroup(p, 1e6)


def test_slice_matches_states(toy_bundle):
    p = toy_bundle["ensemble"]
    got = p.states_at(2.0)
    for st, tr in zip(got, p.trajectories):
        assert np.array_equal(st.coords, tr.state_at(2.0).coords)
    with pytest.raises(OffGrid):
        p.states_at(-0.5)


def test_traj_set_semidist_hand_values():
    n = 41  # dt 0.1, horizon 4 covers t_max_windows=3
    zeros = np.zeros((n, 2))
    ones = np.zeros((n, 2))
    ones[:, 0] = 1.0
    a = _set_from([zeros])
    b = _set_from([zeros, ones])
    p = TrajMetricParams(t_max_windows=3)
    assert traj_set_semidist(a, b, "strong", p) == 0.0
    # other direction: nearest member to `ones` is `zeros`, constant gap 1
    want = sum(2.0 ** (-T) * 1.0 / 2.0 for T in (1, 2, 3))
    assert abs(traj_set_semidist(b, a, "strong", p) - want) < 1e-15
    with pytest.raises(HorizonTooShort):
        traj_set_semidist(a, b, "strong", TrajMetricParams(t_max_windows=10))


def test_pair_tail_consistent_with_pointwise():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((51, 3))
    y = rng.standard_normal((51, 3))
    a = _set_from([x])
    b = _set_from([y])
    p = TrajMetricParams(t_max_windows=4)
    d = np.linalg.norm(x - y, axis=1)
    # hand-written series: s_T is the sup of d over [0, T], 10 samples per unit
    want = sum(2.0 ** (-T) * d[: 10 * T + 1].max() / (1.0 + d[: 10 * T + 1].max()) for T in range(1, 5))
    assert abs(traj_set_semidist(a, b, "strong", p) - want) < 1e-15


def test_trajectory_attractor_toy(toy_bundle):
    k_space = toy_bundle["ensemble"]
    params = TrajMetricParams(t_max_windows=8)
    att = trajectory_attractor(
        k_space, toy_bundle["library"], params, cluster_tol=1e-3, metric="weak"
    )
    # all settled surrogates collapse to the origin: one representative
    assert att.n_members == 1
    assert np.linalg.norm(att.samples[0]) < 1e-3
    inv = translation_invariance(att, params, tol=1e-3, metric="weak")
    assert inv.ok and inv.t_values == (1.0, 2.0)
    rep = trajectory_attraction_report(k_space, att, params, eps=2e-3, window_T=2.0)
    assert rep.t_entry is not None
    # weak tail entry happens once e^-t decay falls under eps
    assert rep.t_entry <= np.log(1.0 / 2e-3) + 1.0
    assert rep.strong_mode and rep.t_entry_strong is not None


def test_trajectory_attractor_guards(toy_bundle):
    k_space = toy_bundle["ensemble"]
    lib = toy_bundle["library"]
    other = make_spec("toy_contraction", truncation=5)
    bad = Ensemble.from_trajectories(
        (Trajectory(t0=-2.0, dt=0.01, samples=np.zeros((301, 5)), model=other),),
        label="surrogate-library",
    )
    with pytest.raises(ModelMismatch):
        trajectory_attractor(k_space, bad, PARAMS)
    with pytest.raises(HorizonTooShort):
        trajectory_attractor(_first_samples(k_space, 51), lib, PARAMS)
    # horizon 9 carries the tail windows but not the invariance shifts by 2
    att = trajectory_attractor(_first_samples(k_space, 901), lib, PARAMS)
    with pytest.raises(HorizonTooShort):
        translation_invariance(att, PARAMS, tol=1e-3)


def test_attraction_report_eps_guard(toy_bundle):
    k_space = toy_bundle["ensemble"]
    att = trajectory_attractor(k_space, toy_bundle["library"], PARAMS)
    with pytest.raises(ValueError):
        trajectory_attraction_report(k_space, att, PARAMS, eps=0.0)
