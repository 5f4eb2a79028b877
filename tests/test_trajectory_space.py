"""Translation semigroup, tail-metric set distances, and the trajectory view."""
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from oracles import (
    attraction_report_oracle,
    member_views,
    traj_set_semidist,
    translation_invariance_oracle,
)

from attractorlab.errors import (
    EmptyEnsemble,
    GridMismatch,
    HorizonTooShort,
    ModelMismatch,
    OffGrid,
)
from attractorlab.metrics import TAIL_WINDOWS, dist_arrays, tail_steps, window_nearest
from attractorlab.models import make_spec
from attractorlab.state import Ensemble
from attractorlab.trajectory_space import (
    TrajectoryAttractionReport,
    trajectory_attraction_report,
    trajectory_attractor,
    translate_semigroup,
    translation_invariance,
)


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
        traj_set_semidist(shifted, shifted)


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
    for row, tr in zip(got, member_views(p)):
        assert np.array_equal(row, tr.samples_at(2.0)[0])
    with pytest.raises(OffGrid):
        p.samples_at(-0.5)


def test_traj_set_semidist_hand_values():
    n = 81  # dt 0.1, horizon 8 covers the 8 tail windows
    zeros = np.zeros((n, 2))
    ones = np.zeros((n, 2))
    ones[:, 0] = 1.0
    a = _set_from([zeros])
    b = _set_from([zeros, ones])
    assert traj_set_semidist(a, b) == 0.0
    # other direction: nearest member to `ones` is `zeros`, a constant gap 1
    # on the coordinate of weight 1, so s_T = 1 / 2 and s_T / (1 + s_T) = 1 / 3
    want = sum(2.0 ** (-T) / 3.0 for T in range(1, 9))
    assert abs(traj_set_semidist(b, a) - want) < 1e-15
    with pytest.raises(HorizonTooShort):
        traj_set_semidist(_set_from([zeros[:80]]), b)


def test_pair_tail_consistent_with_pointwise():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((81, 3))
    y = rng.standard_normal((81, 3))
    a = _set_from([x])
    b = _set_from([y])
    d = dist_arrays(a.model, x, y, "weak")
    # hand-written series: s_T is the sup of d over [0, T], 10 samples per unit
    sups = [d[: 10 * T + 1].max() for T in range(1, 9)]
    want = sum(2.0 ** (-T) * s / (1.0 + s) for T, s in enumerate(sups, start=1))
    assert abs(traj_set_semidist(a, b) - want) < 1e-15


def test_trajectory_attractor_toy(toy_bundle):
    k_space = toy_bundle["ensemble"]
    att = trajectory_attractor(k_space, toy_bundle["library"], cluster_tol=1e-3)
    # all settled surrogates collapse to the origin: one representative
    assert att.n_members == 1
    assert np.linalg.norm(att.samples[0]) < 1e-3
    inv = translation_invariance(att, tol=1e-3)
    assert inv.ok and inv.t_values == (1.0, 2.0)
    rep = trajectory_attraction_report(k_space, att, eps=2e-3)
    assert rep.t_entry is not None
    # weak tail entry happens once e^-t decay falls under eps
    assert rep.t_entry <= np.log(1.0 / 2e-3) + 1.0
    assert rep.strong_mode and rep.t_entry_strong is not None


def test_trajectory_attractor_keeps_distinct_members_in_library_order():
    # a hand-built t = 0 library of members p, p, q: the repeat of p is dropped
    n = 121  # dt 0.1: horizon 12 carries the tail windows and the shifts by 2
    p, q = np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1))
    library = _set_from([p, p, q])
    att = trajectory_attractor(library, library, cluster_tol=1e-3)
    assert np.array_equal(att.samples, library.samples[[0, 2]])
    # the kept members are one read-only copy
    assert not np.shares_memory(att.samples, library.samples)
    assert not att.samples.flags.writeable
    inv = translation_invariance(att, tol=1e-3)
    assert inv.ok and inv.defects == (0.0, 0.0)
    rep = trajectory_attraction_report(library, att, eps=1e-3)
    _same_report(rep, attraction_report_oracle(library, att, eps=1e-3))
    assert rep.strong_mode and rep.t_entry == rep.t_entry_strong == 0.0


def test_trajectory_attractor_keeping_every_member_is_a_view_of_the_library():
    n = 121
    p, q = np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1))
    library = _set_from([p, q])
    for k_space in (library, _first_samples(library, 101)):
        att = trajectory_attractor(k_space, library, cluster_tol=1e-3)
        assert (att.t0, att.dt, att.model) == (0.0, library.dt, library.model)
        assert np.shares_memory(att.samples, library.samples)
        assert np.array_equal(att.samples, library.samples[:, : k_space.n_samples])
        assert not att.samples.flags.writeable


def test_trajectory_attractor_guards(toy_bundle):
    k_space = toy_bundle["ensemble"]
    lib = toy_bundle["library"]
    other = make_spec("toy_contraction", truncation=5)
    bad = Ensemble(np.zeros((1, 301, 5)), 0.0, 0.01, other)
    with pytest.raises(ModelMismatch):
        trajectory_attractor(k_space, bad, 1e-3)
    with pytest.raises(HorizonTooShort):
        trajectory_attractor(_first_samples(k_space, 51), lib, 1e-3)
    # horizon 9 carries the tail windows but not the invariance shifts by 2
    att = trajectory_attractor(_first_samples(k_space, 901), lib, 1e-3)
    with pytest.raises(HorizonTooShort):
        translation_invariance(att, tol=1e-3)


def test_a_member_exactly_cluster_tol_from_a_kept_one_is_merged():
    n = 121
    p, q = np.tile([1.0, 0.0], (n, 1)), np.tile([0.0, 1.0], (n, 1))
    library = _set_from([p, q])
    steps = tail_steps(library.dt)
    window = library.samples[:, : int(steps[-1]) + 1]
    d = window_nearest(library.model, window[1], window[:1], "weak", steps)
    assert d > 0.0
    assert trajectory_attractor(library, library, cluster_tol=d).n_members == 1
    assert trajectory_attractor(library, library, cluster_tol=np.nextafter(d, 0.0)).n_members == 2


def test_horizons_exactly_at_the_guards_are_long_enough():
    # dt 0.25 makes t_end exact: TAIL_WINDOWS for the attractor, TAIL_WINDOWS + 2
    # for the invariance shifts by 2
    fall = np.linspace(1.0, 0.0, 4 * (TAIL_WINDOWS + 2) + 1)[:, None] * [1.0, 0.0]
    family = _set_from([fall], dt=0.25)
    assert family.t_end == TAIL_WINDOWS + 2
    assert translation_invariance(family, tol=1.0).ok
    with pytest.raises(HorizonTooShort):
        translation_invariance(_first_samples(family, family.n_samples - 1), tol=1.0)
    short = _first_samples(family, 4 * TAIL_WINDOWS + 1)
    assert short.t_end == TAIL_WINDOWS
    assert trajectory_attractor(short, short, cluster_tol=1e-3).n_members == 1
    with pytest.raises(HorizonTooShort):
        trajectory_attractor(_first_samples(short, short.n_samples - 1), short, 1e-3)


def test_an_invariance_defect_equal_to_tol_is_invariant(toy_bundle):
    family = toy_bundle["ensemble"]
    worst = max(translation_invariance(family, tol=1e-3).defects)
    assert worst > 0.0
    assert translation_invariance(family, tol=worst).ok
    assert not translation_invariance(family, tol=np.nextafter(worst, 0.0)).ok


def test_trajectory_space_operands_share_a_model_and_a_step():
    # another step, another nu at the same dimension, another dimension: each
    # raises, where a pair of unguarded families gave a number or numpy's
    # broadcast ValueError
    rng = np.random.default_rng(8)

    def family(spec, dt):
        n = int(round(12.0 / dt)) + 1
        return Ensemble(rng.standard_normal((2, n, spec.truncation)), 0.0, dt, spec)

    toy = make_spec("toy_contraction", truncation=3)
    a = family(toy, 0.02)
    others = [
        (family(toy, 0.01), GridMismatch),
        (family(make_spec("toy_contraction", nu=2.0, truncation=3), 0.02), ModelMismatch),
        (family(make_spec("toy_contraction", truncation=4), 0.02), ModelMismatch),
    ]
    for b, err in others:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(err):
                traj_set_semidist(x, y)
            with pytest.raises(err):
                trajectory_attractor(x, y, 1e-3)
            with pytest.raises(err):
                trajectory_attraction_report(x, y, 0.1)
    twin = family(toy, 0.02)
    assert traj_set_semidist(a, twin) > 0.0
    assert trajectory_attraction_report(a, twin, 0.1).n_times > 0


def test_attraction_report_eps_guard(toy_bundle):
    k_space = toy_bundle["ensemble"]
    att = trajectory_attractor(k_space, toy_bundle["library"], 1e-3)
    with pytest.raises(ValueError):
        trajectory_attraction_report(k_space, att, eps=0.0)


def _constant(value, n, dt=0.1):
    """A one-member toy family at (value, 0) on n samples of dt from t = 0."""
    samples = np.zeros((1, n, 2))
    samples[:, :, 0] = value
    return Ensemble(samples, 0.0, dt, make_spec("toy_contraction", truncation=2))


def test_attraction_report_needs_one_sample_past_its_windows():
    # at dt 0.1 the tail window spans 80 steps and the strong window 20, so a
    # family of 80 samples is one short on either side, and 81 are enough
    w = int(tail_steps(0.1)[-1])
    assert w == 80
    short, enough = _constant(0.0, w), _constant(0.0, w + 1)
    for k_space, attractor in ((short, enough), (enough, short)):
        with pytest.raises(HorizonTooShort):
            trajectory_attraction_report(k_space, attractor, 0.1)
    assert trajectory_attraction_report(enough, enough, 0.1).n_times == 1


def test_a_member_exactly_eps_away_is_not_attracted():
    # a constant offset is the same weak tail distance d at every shift; at
    # eps = d every shift is eps-far, and one ulp above it none is
    k_space, attractor = _constant(0.5, 121), _constant(0.0, 121)
    steps = tail_steps(0.1)
    w = int(steps[-1]) + 1
    u, ref = k_space.samples[0, :w], attractor.samples[:, :w]
    d = window_nearest(k_space.model, u, ref, "weak", steps)
    assert trajectory_attraction_report(k_space, attractor, d).t_entry is None
    assert trajectory_attraction_report(k_space, attractor, np.nextafter(d, 1.0)).t_entry == 0.0


def _same_report(got, want):
    for f in fields(TrajectoryAttractionReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@pytest.fixture(scope="module")
def toy_attractor(toy_bundle):
    return trajectory_attractor(toy_bundle["ensemble"], toy_bundle["library"], 1e-3)


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
        got = trajectory_attraction_report(k_space, toy_attractor, eps=2e-3)
        _same_report(got, attraction_report_oracle(k_space, toy_attractor, eps=2e-3))
        assert got.strong_mode, name
        for t in (got.t_entry, got.t_entry_strong):
            if want == "interior":
                assert t is not None and t > 0.0, name
            else:
                assert t == want, name


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0])
def test_attraction_report_matches_full_scan_over_eps(toy_bundle, toy_attractor, eps):
    k_space = toy_bundle["ensemble"]
    got = trajectory_attraction_report(k_space, toy_attractor, eps=eps)
    _same_report(got, attraction_report_oracle(k_space, toy_attractor, eps=eps))


def test_attraction_report_without_strong_mode(toy_bundle, toy_attractor):
    # a one-step jump in the attractor member switches strong mode off
    samples = np.array(toy_attractor.samples)
    samples[:, 500:, 0] += 0.5
    jumped = Ensemble(samples, 0.0, toy_attractor.dt, toy_attractor.model)
    k_space = toy_bundle["ensemble"]
    got = trajectory_attraction_report(k_space, jumped, eps=2e-3)
    assert not got.strong_mode and got.t_entry_strong is None
    _same_report(got, attraction_report_oracle(k_space, jumped, eps=2e-3))


@pytest.mark.parametrize("copies", [8, 32])
def test_attraction_report_peak_is_a_few_member_windows(toy_bundle, toy_attractor, copies):
    # the continuity witness takes its grid steps member by member, so the
    # report's traced peak stays under three member windows of samples
    # whatever the attractor's member count; steps of the whole attractor
    # at once would take `copies` windows
    k_space = toy_bundle["ensemble"]
    tiled = np.tile(toy_attractor.samples, (copies, 1, 1))
    attractor = Ensemble(tiled, 0.0, toy_attractor.dt, toy_attractor.model)
    tracemalloc.start()
    try:
        report = trajectory_attraction_report(k_space, attractor, eps=2e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _same_report(report, trajectory_attraction_report(k_space, toy_attractor, eps=2e-3))
    assert peak < 3 * attractor.samples[0].nbytes, (peak, attractor.samples[0].nbytes)


# the settled library is invariant; the ensembles from t = 0 carry their transient
@pytest.mark.parametrize(
    "bundle,part,invariant",
    [("nse4_bundle", "library", True), ("nse4_bundle", "ensemble", False),
     ("toy_bundle", "ensemble", False)],
)
def test_translation_invariance_matches_two_semidistances_bitwise(request, bundle, part, invariant):
    family = request.getfixturevalue(bundle)[part]
    got = translation_invariance(family, tol=1e-3)
    want = translation_invariance_oracle(family, tol=1e-3)
    assert got.ok == want.ok == invariant
    assert got.t_values == want.t_values and got.tol == want.tol
    assert np.array(got.defects).tobytes() == np.array(want.defects).tobytes()

