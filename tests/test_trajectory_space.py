"""Translation semigroup, tail-metric set distances, and the trajectory view."""
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from oracles import attraction_report_oracle

import attractorlab.verification as verification
from attractorlab.errors import EmptyEnsemble, HorizonTooShort, ModelMismatch, OffGrid
from attractorlab.metrics import TrajMetricParams, strong_dist_arrays
from attractorlab.models import make_spec
from attractorlab.state import Ensemble
from attractorlab.trajectory_space import (
    TrajectoryAttractionReport,
    traj_set_semidist,
    trajectory_attraction_report,
    trajectory_attractor,
    translate_semigroup,
    translation_invariance,
)

PARAMS = TrajMetricParams()


def _set_from(arrs, dt=0.1):
    arrs = np.stack([np.atleast_2d(np.asarray(a, float)) for a in arrs])
    spec = make_spec("toy_contraction", truncation=arrs.shape[2])
    return Ensemble(arrs, 0.0, dt, spec)


def _first_samples(ens, n):
    return Ensemble(ens.samples[:, :n], 0.0, ens.dt, ens.model)


def test_trajectory_set_validation():
    spec = make_spec("toy_contraction", truncation=2)
    with pytest.raises(EmptyEnsemble):
        Ensemble(np.zeros((0, 3, 2)), 0.0, 0.1, spec)
    shifted = Ensemble(np.zeros((1, 3, 2)), 1.0, 0.1, spec)
    # trajectory-space operations need families that start at t = 0
    with pytest.raises(ValueError):
        translate_semigroup(shifted, 0.1)
    with pytest.raises(ValueError):
        traj_set_semidist(shifted, shifted, "strong", TrajMetricParams(t_max_windows=1))


def test_translation_semigroup_law(toy_bundle):
    p = toy_bundle["ensemble"]
    one = translate_semigroup(translate_semigroup(p, 1.5), 2.5)
    two = translate_semigroup(p, 4.0)
    assert one.t0 == two.t0 == 0.0
    assert np.array_equal(one.samples, two.samples)
    # T(s) is a view of the family's own array
    assert np.shares_memory(two.samples, p.samples)
    with pytest.raises(ValueError):
        translate_semigroup(p, -1.0)
    with pytest.raises(HorizonTooShort):
        translate_semigroup(p, 1e6)


def test_slice_matches_states(toy_bundle):
    p = toy_bundle["ensemble"]
    got = p.samples_at(2.0)
    for row, tr in zip(got, p.trajectories):
        assert np.array_equal(row, tr.samples_at(2.0)[0])
    with pytest.raises(OffGrid):
        p.samples_at(-0.5)


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
    bad = Ensemble(np.zeros((1, 301, 5)), -2.0, 0.01, other)
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


def _same_report(got, want):
    for f in fields(TrajectoryAttractionReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.fixture(scope="module")
def toy_attractor(toy_bundle):
    return trajectory_attractor(toy_bundle["ensemble"], toy_bundle["library"], PARAMS)


def _moved(ens, offset, n_early=None):
    # the family with `offset` added to the first coordinate, on every sample
    # or only on the first n_early
    samples = np.array(ens.samples)
    samples[:, :n_early, 0] += offset
    return Ensemble(samples, 0.0, ens.dt, ens.model)


def test_attraction_report_matches_full_scan(toy_bundle, toy_attractor):
    ens = toy_bundle["ensemble"]
    settled = translate_semigroup(ens, 8.0)  # within about e^-8 of the origin
    cases = {
        "shift 0": (settled, 0.0),
        "interior": (_moved(settled, 0.5, n_early=100), "interior"),
        "decay": (ens, "interior"),
        "none": (_moved(ens, 0.5), None),
    }
    for name, (k_space, want) in cases.items():
        got = trajectory_attraction_report(k_space, toy_attractor, PARAMS, eps=2e-3)
        _same_report(got, attraction_report_oracle(k_space, toy_attractor, PARAMS, eps=2e-3))
        assert got.strong_mode, name
        for t in (got.t_entry, got.t_entry_strong):
            if want == "interior":
                assert t is not None and t > 0.0, name
            else:
                assert t == want, name


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0])
def test_attraction_report_matches_full_scan_over_eps(toy_bundle, toy_attractor, eps):
    k_space = toy_bundle["ensemble"]
    got = trajectory_attraction_report(k_space, toy_attractor, PARAMS, eps=eps)
    _same_report(got, attraction_report_oracle(k_space, toy_attractor, PARAMS, eps=eps))


def test_attraction_report_without_strong_mode(toy_bundle, toy_attractor):
    # a one-step jump in the attractor member switches strong mode off
    samples = np.array(toy_attractor.samples)
    samples[:, 500:, 0] += 0.5
    jumped = Ensemble(samples, 0.0, toy_attractor.dt, toy_attractor.model)
    k_space = toy_bundle["ensemble"]
    got = trajectory_attraction_report(k_space, jumped, PARAMS, eps=2e-3)
    assert not got.strong_mode and got.t_entry_strong is None
    _same_report(got, attraction_report_oracle(k_space, jumped, PARAMS, eps=2e-3))


def test_attraction_report_squares_grid_steps_in_place(toy_bundle, toy_attractor, monkeypatch):
    # the continuity witness squares its own step differences in place; with
    # the copying square the report's traced peak is higher
    k_space = toy_bundle["ensemble"]
    # more attractor members make the (members, samples, dim) steps the peak
    tiled = np.tile(toy_attractor.samples, (8, 1, 1))
    attractor = Ensemble(tiled, 0.0, toy_attractor.dt, toy_attractor.model)

    def peak():
        tracemalloc.start()
        try:
            report = trajectory_attraction_report(k_space, attractor, PARAMS, eps=2e-3)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    shipped, report = peak()
    monkeypatch.setattr(verification, "_strong_dist_owned", strong_dist_arrays)
    copying, same = peak()
    _same_report(report, same)
    assert shipped < copying, (shipped, copying)
