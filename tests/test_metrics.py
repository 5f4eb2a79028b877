"""Metric axioms, hand values, and the strong/weak comparison."""
import numpy as np
import pytest
from oracles import traj_set_semidist

import attractorlab.metrics as metrics
from scipy.spatial.distance import cdist

from attractorlab.errors import HorizonTooShort, ModelMismatch
from attractorlab.metrics import (
    cross_dist,
    dist_arrays,
    pairwise_to_set,
    strong_dist_arrays,
    tail_steps,
    weak_dist_arrays,
    weak_weight_total,
    window_dist,
    window_nearest,
    window_semidists,
)
from attractorlab.models import make_spec, spec_dim, weak_weights
from attractorlab.state import Ensemble

SPECS = [
    make_spec("galerkin_nse_2d", truncation=2),
    make_spec("dyadic", nu=0.5, truncation=5, lam=2.0),
    make_spec("toy_contraction", truncation=4),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("m", ["strong", "weak"])
def test_metric_axioms(spec, m):
    rng = np.random.default_rng(17)
    n = spec_dim(spec)
    for _ in range(100):
        x, y, z = rng.standard_normal((3, n)) * rng.uniform(0.1, 10.0)
        dxy = float(dist_arrays(spec, x, y, m))
        dyx = float(dist_arrays(spec, y, x, m))
        assert dxy >= 0.0
        assert abs(dxy - dyx) < 1e-15
        assert float(dist_arrays(spec, x, x, m)) == 0.0
        dxz = float(dist_arrays(spec, x, z, m))
        dzy = float(dist_arrays(spec, z, y, m))
        assert dxy <= dxz + dzy + 1e-12


def test_weak_identity_of_indiscernibles():
    spec = SPECS[0]
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = rng.standard_normal(spec_dim(spec))
        if np.linalg.norm(d) > 0:
            assert float(weak_dist_arrays(spec, d)) > 0.0


def test_weak_bounded_by_weight_total_times_strong():
    for spec in SPECS:
        w_tot = weak_weight_total(spec)
        # r/(1+r) <= r makes every term <= weight * group norm <= weight * |diff|
        for n in range(1, 101):
            d = np.zeros(spec_dim(spec))
            d[0] = 1.0 / n
            ws = float(weak_dist_arrays(spec, d))
            assert ws <= w_tot / n + 1e-15
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = rng.standard_normal(spec_dim(spec))
            assert float(weak_dist_arrays(spec, d)) <= w_tot * np.linalg.norm(d) + 1e-12
            # and always below the saturation bound, whatever the strong size
            big = d * 1e6
            assert float(weak_dist_arrays(spec, big)) < w_tot


def test_weak_hand_values():
    spec = make_spec("galerkin_nse_2d", truncation=2)
    # lone unit coordinate on an |kappa|_1 = 1 mode: 2^-1 * 1/(1+1)
    d = np.zeros(spec_dim(spec))
    d[0] = 1.0
    assert abs(float(weak_dist_arrays(spec, d)) - 0.25) < 1e-15
    # cos and sin bumped together: group norm c sqrt(2)
    c = 0.3
    d2 = np.zeros(spec_dim(spec))
    d2[0] = c
    d2[1] = c
    r = c * np.sqrt(2.0)
    assert abs(float(weak_dist_arrays(spec, d2)) - 0.5 * r / (1.0 + r)) < 1e-15
    dy = make_spec("dyadic", nu=0.5, truncation=4, lam=2.0)
    d3 = np.zeros(5)
    d3[2] = 2.0
    assert abs(float(weak_dist_arrays(dy, d3)) - 0.25 * 2.0 / 3.0) < 1e-15


def test_weight_total_values():
    # 2D truncation 2: four |kappa|_1 values 1,1,2,2,2,2,3,3,3,3,4,4
    assert abs(weak_weight_total(make_spec("galerkin_nse_2d", truncation=2)) - 2.625) < 1e-15
    dy = make_spec("dyadic", nu=0.5, truncation=4, lam=2.0)
    assert abs(weak_weight_total(dy) - (2.0 - 2.0 ** (-4))) < 1e-15


def test_point_dist_arrays_and_mismatch():
    spec = SPECS[2]
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.zeros(4)
    assert dist_arrays(spec, x, y, "strong") == 1.0
    assert dist_arrays(spec, x, y, "weak") == 0.5
    other = make_spec("toy_contraction", truncation=5)
    with pytest.raises(ModelMismatch):
        dist_arrays(other, x, y, "strong")
    with pytest.raises(ValueError):
        dist_arrays(spec, x, y, "euclid")


def test_cross_dist_matches_cdist_and_loops():
    spec = SPECS[0]
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, spec_dim(spec)))
    b = rng.standard_normal((3, spec_dim(spec)))
    cs = cross_dist(spec, a, b, "strong")
    cw = cross_dist(spec, a, b, "weak")
    assert cs.shape == (5, 3) and cw.shape == (5, 3)
    np.testing.assert_allclose(cs, cdist(a, b), rtol=1e-14, atol=0)
    for i in range(5):
        for j in range(3):
            assert abs(cs[i, j] - np.linalg.norm(a[i] - b[j])) < 1e-12
            assert abs(cw[i, j] - float(weak_dist_arrays(spec, a[i] - b[j]))) < 1e-15
    np.testing.assert_allclose(
        pairwise_to_set(spec, a, b, "strong"), cs.min(axis=1), atol=0
    )
    # rows are computed in chunks: bitwise equal to one row at a time,
    # including several chunks with a short last one
    nse4 = make_spec("galerkin_nse_2d", truncation=4)
    for spec, n, k in [(SPECS[0], 5, 3), (SPECS[0], 301, 40), (nse4, 97, 150)]:
        a = rng.standard_normal((n, spec_dim(spec)))
        b = rng.standard_normal((k, spec_dim(spec)))
        rows = np.stack([weak_dist_arrays(spec, row[None, :] - b) for row in a])
        np.testing.assert_array_equal(cross_dist(spec, a, b, "weak"), rows)
        cs = cross_dist(spec, a, b, "strong")
        np.testing.assert_array_equal(cs, np.stack([strong_dist_arrays(row - b) for row in a]))
        np.testing.assert_allclose(cs, cdist(a, b), rtol=1e-14, atol=0)


def _near_duplicate_cloud(rng, dim, k, scale):
    # points of a few centres, each moved by a relative offset 1e-14..1
    centres = rng.standard_normal((max(1, k // 4), dim)) * scale
    pts = centres[rng.integers(0, centres.shape[0], k)]
    rel = 10.0 ** rng.uniform(-14, 0, size=(k, 1))
    return pts + rng.standard_normal((k, dim)) * scale * rel


def test_strong_nearest_is_bitwise_brute_force():
    # the Gram screen must keep every pair that can be a row minimum; every
    # shape has more than 2^14 pair-coordinates, so the screen runs
    rng = np.random.default_rng(2024)
    for dim in (2, 8, 80, 240):
        spec = make_spec("toy_contraction", truncation=dim)
        big = 2**14 // dim + 1
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            for n, k in [(big, 1), (1, big), (37, 300), (300, 60)]:
                b = _near_duplicate_cloud(rng, dim, k, scale)
                picks = b[rng.integers(0, k, n)]
                rel = 10.0 ** rng.uniform(-14, 0, size=(n, 1))
                a = picks + rng.standard_normal((n, dim)) * scale * rel
                brute = strong_dist_arrays(a[:, None, :] - b).min(axis=1)
                np.testing.assert_array_equal(pairwise_to_set(spec, a, b, "strong"), brute)


def test_strong_nearest_edge_inputs():
    spec = make_spec("toy_contraction", truncation=8)
    zeros = np.zeros((50, 8))
    np.testing.assert_array_equal(pairwise_to_set(spec, zeros, zeros, "strong"), np.zeros(50))
    # squares in the subnormal range
    rng = np.random.default_rng(5)
    tiny = _near_duplicate_cloud(rng, 8, 60, 1e-160)
    a = tiny[::-1] + rng.standard_normal((60, 8)) * 1e-162
    want = strong_dist_arrays(a[:, None, :] - tiny).min(axis=1)
    np.testing.assert_array_equal(pairwise_to_set(spec, a, tiny, "strong"), want)
    huge = np.full((50, 8), 1e200)  # squared norms overflow: brute force
    huge[0, 0] = np.nan
    got = pairwise_to_set(spec, huge, huge[1:], "strong")
    assert np.isnan(got[0]) and (got[1:] == 0.0).all()
    # finite squared norms whose sum overflows: for the first row, -2 x.y
    # overflows against y = 1.85 x and the margin is inf
    x = np.full(8, np.sqrt(5e307 / 8))
    stack = np.vstack([x, rng.standard_normal((49, 8))])
    cloud = np.vstack([x, 1.85 * x, rng.standard_normal((60, 8))])
    assert np.isfinite(np.einsum("ij,ij->i", cloud, cloud)).all()
    want = strong_dist_arrays(stack[:, None, :] - cloud).min(axis=1)
    assert want[0] == 0.0
    np.testing.assert_array_equal(pairwise_to_set(spec, stack, cloud, "strong"), want)


def test_pairwise_to_set_is_the_row_minimum_of_cross_dist_bitwise():
    # on both sides of _SCREEN_MIN, and with stacks of many blocks of rows,
    # equals the row minimum of the whole cross_dist matrix
    rng = np.random.default_rng(11)
    sides = set()
    for dim, k in ((8, 10), (8, 300), (80, 40)):
        spec = make_spec("toy_contraction", truncation=dim)
        cloud = _near_duplicate_cloud(rng, dim, k, 1.0)
        for m in ("strong", "weak"):
            for n in (1, 3, 40, 300, 2000):
                stack = cloud[rng.integers(0, k, n)] + rng.standard_normal((n, dim)) * 1e-3
                want = cross_dist(spec, stack, cloud, m).min(axis=1)
                np.testing.assert_array_equal(pairwise_to_set(spec, stack, cloud, m), want)
                sides.add(n * cloud.size > metrics._SCREEN_MIN)
    assert sides == {False, True}


def test_pairwise_to_set_takes_blocks_of_at_most_chunk_entries(monkeypatch):
    # brute force hands cross_dist blocks of rows, never the full matrix
    seen = []
    real = metrics.cross_dist

    def spy(spec, a, b, m):
        seen.append(a.shape[0] * b.shape[0])
        return real(spec, a, b, m)

    monkeypatch.setattr(metrics, "cross_dist", spy)
    spec = make_spec("toy_contraction", truncation=8)
    rng = np.random.default_rng(4)
    stack, cloud = rng.standard_normal((3000, 8)), rng.standard_normal((50, 8))
    want = np.stack([weak_dist_arrays(spec, row - cloud) for row in stack]).min(axis=1)
    np.testing.assert_array_equal(pairwise_to_set(spec, stack, cloud, "weak"), want)
    assert len(seen) > 1 and max(seen) <= metrics._CHUNK and sum(seen) == 3000 * 50


def _group_norm_weak(spec, diff):
    # the weak metric through the Euclidean norm over each mode group
    weights, gs = weak_weights(spec)
    g = diff.reshape(diff.shape[:-1] + (weights.shape[0], gs))
    r = np.sqrt(np.add.reduce(g * g, axis=-1))
    return (weights * (r / (1.0 + r))).sum(axis=-1)


@pytest.mark.parametrize(
    "spec",
    [
        make_spec("galerkin_nse_2d", truncation=4),
        make_spec("galerkin_nse_2d", truncation=8),
        make_spec("galerkin_nse_3d", truncation=2),
        make_spec("galerkin_nse_3d", truncation=3),
        make_spec("dyadic", nu=0.5, truncation=5, lam=2.0),
        make_spec("toy_contraction", truncation=4),
    ],
    ids=lambda s: f"{s.kind}-{s.truncation}",
)
def test_weak_kernel_matches_group_norm_bitwise(spec):
    rng = np.random.default_rng(3)
    for lead in [(), (7,), (3, 5)]:
        for mag in [1e-8, 1e-4, 1.0, 1e2]:
            diff = rng.standard_normal(lead + (spec_dim(spec),)) * mag
            got = weak_dist_arrays(spec, diff)
            assert got.shape == lead
            np.testing.assert_array_equal(got, _group_norm_weak(spec, diff))


def test_set_semidist_hand_example():
    spec = SPECS[2]
    a = np.array([[0.0, 0, 0, 0], [2.0, 0, 0, 0]])
    b = np.zeros((1, 4))
    assert pairwise_to_set(spec, a, b, "strong").max() == 2.0
    assert pairwise_to_set(spec, b, a, "strong").max() == 0.0
    assert dist_arrays(spec, np.array([1.0, 0, 0, 0]), a, "strong").min() == 1.0


def test_traj_window_sup():
    # samples at t = 0, 0.5, ..., 2.0; the windows [0, 2] and [1.5, 2]
    spec = make_spec("toy_contraction", truncation=2)
    u = np.array([[0.0, 0], [1.0, 0], [3.0, 0], [2.0, 0], [0.5, 0]])
    v = np.zeros((5, 2))
    assert window_dist(spec, u, v, "strong") == 3.0
    assert window_dist(spec, u[3:], v[3:], "strong") == 2.0
    # weak sup picks the same maximizing sample here
    r = 3.0
    assert abs(window_dist(spec, u, v, "weak") - 1.0 * r / (1 + r)) < 1e-15


def _tail_series(d, dt):
    """Hand-written tail series over T = 1..8: s_T is the max of d over [0, T]."""
    total = 0.0
    for T in range(1, 9):
        s = d[: int(round(T / dt)) + 1].max()
        total += 2.0 ** (-T) * s / (1.0 + s)
    return total


def _tail_kernel(gap, dt):
    """window_dist weak tail value for toy windows apart by gap on their
    first coordinate; its weight is 1, so the weak distance is gap / (1 + gap)."""
    u = np.zeros((gap.shape[0], spec_dim(SPECS[2])))
    u[:, 0] = gap
    return float(window_dist(SPECS[2], u, np.zeros_like(u), "weak", tail_steps(dt)))


def test_tail_hand_value_constant():
    c = 0.4
    s = c / (1.0 + c)  # the weak distance, and s_T for every T
    got = _tail_kernel(np.full(81, c), 0.1)
    want = (1.0 - 2.0 ** (-8)) * s / (1.0 + s)
    assert abs(got - want) < 1e-15


def test_tail_hand_value_growing():
    # gap t on [0, 8] with dt = 0.5: s_T = T / (1 + T), so s_T / (1 + s_T) = T / (1 + 2 T)
    got = _tail_kernel(np.arange(17) * 0.5, 0.5)
    want = sum(2.0 ** (-T) * T / (1.0 + 2.0 * T) for T in range(1, 9))
    assert abs(got - want) < 1e-15


def test_traj_tail_matches_pointwise_reduction():
    rng = np.random.default_rng(9)
    spec = make_spec("toy_contraction", truncation=3)
    u = rng.standard_normal((81, 3))
    v = rng.standard_normal((81, 3))
    steps = tail_steps(0.1)
    for m in ("strong", "weak"):
        got = float(window_dist(spec, u, v, m, steps))
        d = dist_arrays(spec, u, v, m)
        assert abs(got - _tail_series(d, 0.1)) < 1e-15
    assert window_dist(spec, u, u, "strong", steps) == 0.0


def test_window_dist_matches_norm_formulas_bitwise():
    # the kernel reproduces, to the bit, the pointwise metrics written with
    # np.linalg.norm and the tail series summed in T order
    rng = np.random.default_rng(4)
    spec = SPECS[0]
    u = rng.standard_normal((81, spec_dim(spec)))
    v = rng.standard_normal((81, spec_dim(spec)))
    weights, gs = weak_weights(spec)
    r = np.linalg.norm((u - v).reshape(81, weights.shape[0], gs), axis=-1)
    pointwise = {
        "strong": np.linalg.norm(u - v, axis=-1),
        "weak": (weights * (r / (1.0 + r))).sum(axis=-1),
    }
    steps = tail_steps(0.1)
    for m, d in pointwise.items():
        assert window_dist(spec, u, v, m) == d.max()
        assert window_dist(spec, u, v, m, steps) == _tail_series(d, 0.1)


def _const_windows(offsets, n=5, dim=4):
    # windows constant in time, offset along the first coordinate
    out = np.zeros((len(offsets), n, dim))
    out[:, :, 0] = np.asarray(offsets, float)[:, None]
    return out


def _escapes(spec, a, b, m, eps, steps=None):
    # whether some window of a is >= eps from every window of b, as the
    # trajectory attraction report decides it
    return any(window_nearest(spec, u, b, m, steps, eps) >= eps for u in a)


def test_window_escapes_hand_values_and_ties():
    spec = SPECS[2]
    a = _const_windows([0.0, 0.5, 2.0])
    b = _const_windows([0.0, 1.0])
    # nearest distances 0, 0.5 and 1: the semidistance is 1.0
    assert [window_nearest(spec, u, b, "strong") for u in a] == [0.0, 0.5, 1.0]
    assert window_semidists(spec, a, b, "strong")[0] == 1.0
    for eps, want in [(0.25, True), (0.5, True), (1.0, True), (np.nextafter(1.0, 2.0), False)]:
        assert _escapes(spec, a, b, "strong", eps) is want
        assert (window_semidists(spec, a, b, "strong")[0] >= eps) == want
    # the first value under eps is returned; a value at exactly eps is not under it
    u, b = _const_windows([0.0])[0], _const_windows([0.3, 0.1])
    assert window_nearest(spec, u, b, "strong", eps=0.5) == 0.3
    assert window_nearest(spec, u, b, "strong", eps=0.3) == 0.1
    assert window_nearest(spec, u, b, "strong", eps=np.nextafter(0.3, 1.0)) == 0.3
    assert window_nearest(spec, u, b, "strong", eps=np.nextafter(0.1, 0.0)) == 0.1
    assert window_nearest(spec, u, b[:0], "strong") == np.inf


@pytest.mark.parametrize("m", ["strong", "weak"])
@pytest.mark.parametrize("tail", [False, True])
def test_window_escapes_equals_semidist_threshold(m, tail):
    rng = np.random.default_rng(31)
    spec = SPECS[0]
    dim = spec_dim(spec)
    steps = tail_steps(0.1) if tail else None
    a = rng.standard_normal((4, 81, dim))
    b = a[:3] + 0.05 * rng.standard_normal((3, 81, dim))
    d = window_semidists(spec, a, b, m, steps)[0]
    nearest = [window_nearest(spec, u, b, m, steps) for u in a]
    pair = [[float(window_dist(spec, u, v, m, steps)) for v in b] for u in a]
    assert nearest == [min(row) for row in pair] and d == max(nearest)
    # ties at exactly the semidistance and at every pair value, and the
    # neighbouring floats on both sides
    for x in [d] + [v for row in pair for v in row]:
        for eps in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)):
            if eps > 0:
                assert _escapes(spec, a, b, m, eps, steps) == (d >= eps)
                for u, near in zip(a, nearest):
                    assert (window_nearest(spec, u, b, m, steps, eps) < eps) == (near < eps)


def test_window_escapes_stops_at_the_deciding_pair(monkeypatch):
    spec = SPECS[2]
    calls = []
    kernel = metrics.window_dist

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(metrics, "window_dist", counted)
    b = _const_windows([0.0, 1.0, 2.0])
    # the first window of a escapes: one pass over b settles the answer
    assert _escapes(spec, _const_windows([9.0, 0.0]), b, "strong", 0.5)
    assert len(calls) == 3
    # every window of a has a near window first in b: one call each
    calls.clear()
    assert not _escapes(spec, _const_windows([0.0, 0.1]), b, "strong", 0.5)
    assert len(calls) == 2
    # the scan stops at the second window of b, the first under eps
    calls.clear()
    assert window_nearest(spec, _const_windows([1.25])[0], b, "strong", eps=0.5) == 0.25
    assert len(calls) == 2


def test_traj_tail_horizon_guard():
    # the tail metric up to T = 8 needs 81 samples at dt = 0.1
    spec = make_spec("toy_contraction", truncation=2)
    u = Ensemble(np.zeros((1, 80, 2)), 0.0, 0.1, spec)
    with pytest.raises(HorizonTooShort):
        traj_set_semidist(u, u)
    whole = Ensemble(np.zeros((1, 81, 2)), 0.0, 0.1, spec)
    assert traj_set_semidist(whole, whole) == 0.0


def test_dist_arrays_guards():
    spec = SPECS[0]
    with pytest.raises(ModelMismatch):
        dist_arrays(spec, np.zeros(3), np.zeros(3), "strong")
    with pytest.raises(ValueError):
        dist_arrays(spec, np.zeros(spec_dim(spec)), np.zeros(spec_dim(spec)), "w")


@pytest.mark.parametrize("m", ["strong", "weak"])
@pytest.mark.parametrize("tail", [False, True])
def test_window_semidists_equal_both_scans_bitwise(m, tail):
    rng = np.random.default_rng(37)
    spec = SPECS[0]
    dim = spec_dim(spec)
    steps = tail_steps(0.1) if tail else None
    a = rng.standard_normal((5, 81, dim))
    b = a[:3] + 0.05 * rng.standard_normal((3, 81, dim))
    cases = [(a, b), (b, a), (a, a), (a[:1], b), (a, b[:0])]
    # NaN and inf windows: a NaN distance neither wins a min nor a max
    nan_a, nan_b = a.copy(), b.copy()
    nan_a[1, 7, 0] = np.nan
    nan_b[2, 3, 1] = np.inf
    nan_b[0] = np.inf
    cases += [(nan_a, b), (a, nan_b), (nan_a, nan_b)]

    def scan(x, y):
        # the semidistance as a max over window_nearest scans, in stored order
        worst = 0.0
        for u in x:
            worst = max(worst, window_nearest(spec, u, y, m, steps))
        return worst

    for x, y in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            got = window_semidists(spec, x, y, m, steps)
            want = (scan(x, y), scan(y, x))
            assert window_semidists(spec, x, y, m, steps)[0] == got[0]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)

