"""Limit-set estimation, uniform attraction, and compactness probes."""
from dataclasses import fields

import numpy as np
import pytest
from oracles import attraction_scan_oracle

from attractorlab.core import build_ensemble, restrict
from attractorlab.errors import (
    EmptySet,
    HorizonTooShort,
    InsufficientSamples,
    ModelMismatch,
    NonFiniteState,
)
from attractorlab.limits import (
    OmegaParams,
    SetEstimate,
    asymptotic_compactness_defect,
    global_attractor,
    greedy_cluster,
    is_attracting,
    omega_limit,
)
from attractorlab.metrics import _SCREEN_MIN, cross_dist
from attractorlab.models import make_spec, sample_ball, spec_dim
from attractorlab.state import Ensemble


def test_omega_params_validation():
    with pytest.raises(ValueError):
        OmegaParams(t_transient=2.0, t_max=1.0)
    with pytest.raises(ValueError):
        OmegaParams(t_transient=0.0, t_max=1.0, sample_stride=0)
    with pytest.raises(ValueError):
        OmegaParams(t_transient=0.0, t_max=1.0, cluster_tol=0.0)


def test_set_estimate_validation():
    spec = make_spec("toy_contraction", truncation=2)
    mk = lambda points, **kw: SetEstimate(
        points, spec, **{"metric": "strong", "tol": 1e-3, "horizon": 1.0, **kw}
    )
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    est = mk(src)
    assert est.n_points == 2 and est.model is spec
    src[0, 0] = 9.0  # the estimate holds its own copy
    np.testing.assert_array_equal(est.points, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        est.points[0, 0] = 5.0  # frozen
    with pytest.raises(EmptySet):
        mk(())
    with pytest.raises(EmptySet):
        mk(np.empty((0, 2)))
    with pytest.raises(NonFiniteState):
        mk([[1.0, np.nan]])
    with pytest.raises(ModelMismatch):
        mk(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        mk(np.zeros((1, 2)), tol=0.0)
    with pytest.raises(ValueError):
        mk(np.zeros((1, 2)), metric="flat")


def test_greedy_cluster_dedupes_constant_blocks():
    spec = make_spec("toy_contraction", truncation=2)
    a = np.array([[0.0, 0.0], [0.0, 1e-6], [1.0, 0.0], [1.0, 1e-6], [0.5, 0.0]])
    kept = greedy_cluster(spec, [a], "strong", tol=1e-3)
    assert len(kept) == 3
    np.testing.assert_array_equal(np.stack(kept), [[0, 0], [1, 0], [0.5, 0]])


def test_greedy_cluster_merges_a_row_exactly_tol_from_a_kept_one():
    # |(3, 4)| = 5: within one block and across blocks, a row at tol is merged
    spec = make_spec("toy_contraction", truncation=2)
    a, b = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])
    for blocks in ([np.concatenate([a, b])], [a, b]):
        assert len(greedy_cluster(spec, blocks, "strong", tol=5.0)) == 1
        assert len(greedy_cluster(spec, blocks, "strong", tol=np.nextafter(5.0, 0.0))) == 2


@pytest.mark.parametrize("m", ["strong", "weak"])
def test_greedy_cluster_matches_row_by_row_reference(m):
    # reference: every row checked against the stack of all rows kept so far
    spec = make_spec("galerkin_nse_2d", truncation=2)
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((40, spec_dim(spec)))
    blocks = [
        centers[rng.integers(0, 40, 9)] + 1e-4 * rng.standard_normal((9, spec_dim(spec)))
        for _ in range(12)
    ]
    tol = 1e-3 if m == "strong" else 1e-4
    empty = centers[:0]
    # the blocks as they are, after an empty first block, around an empty middle block
    for case in (blocks, [empty] + blocks, blocks[:6] + [empty] + blocks[6:]):
        kept_ref: list[np.ndarray] = []
        for block in case:
            for row in block:
                if kept_ref and cross_dist(spec, row[None, :], np.stack(kept_ref), m).min() <= tol:
                    continue
                kept_ref.append(row)
        kept = greedy_cluster(spec, case, m, tol)
        assert len(kept_ref) > 16  # the accepted buffer grows at least once
        np.testing.assert_array_equal(np.stack(kept), np.stack(kept_ref))


def test_omega_limit_toy_is_origin(toy_bundle):
    omega = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    assert omega.n_points == 1
    assert np.linalg.norm(omega.points[0]) < 1e-4
    assert omega.metric == "strong"


def test_omega_limit_newest_first():
    # hand-built contracting family: samples march toward two fixed points,
    # so the newest-first scan must report the final states first
    spec = make_spec("toy_contraction", truncation=1)
    ens = Ensemble(np.array([[4.0, 2.0, 1.0], [-4.0, -2.0, -1.0]])[:, :, None], 0.0, 1.0, spec)
    est = omega_limit(ens, "strong", OmegaParams(0.0, 2.0, 1, 1e-3))
    assert est.n_points == 6
    np.testing.assert_array_equal(est.points.ravel(), [1, -1, 2, -2, 4, -4])


def test_omega_limit_horizon_guard(toy_bundle):
    with pytest.raises(HorizonTooShort):
        omega_limit(toy_bundle["ensemble"], "strong", OmegaParams(1.0, 1e6, 1, 1e-3))


def test_is_attracting_entry_time_toy(toy_bundle):
    # |u(t)| = e^-t from the unit sphere: entry at ln(1/eps) up to one stride
    ens = toy_bundle["ensemble"]
    omega = omega_limit(ens, "strong", toy_bundle["omega"])
    eps = 1e-3
    rep = is_attracting(omega, ens, eps)
    assert rep.t_entry is not None
    t_pred = np.log(1.0 / eps)
    assert rep.t_entry >= t_pred - 1e-9
    assert rep.t_entry <= t_pred + 2 * ens.dt + 1e-4  # omega point is off origin by <= tol
    assert rep.worst_after_entry <= eps
    # no slice violates an eps above the unit sphere: the entry is the first sample
    wide = is_attracting(omega, ens, 2.0)
    assert wide.t_entry == ens.t0 == 0.0
    assert wide.worst_after_entry == wide.worst_overall < 2.0


def test_is_attracting_wrong_candidate(toy_bundle):
    spec = toy_bundle["spec"]
    far = SetEstimate(
        points=np.full((1, 6), 2.0), model=spec, metric="strong", tol=1e-3, horizon=18.0
    )
    rep = is_attracting(far, toy_bundle["ensemble"], eps=1e-3)
    assert rep.t_entry is None
    assert rep.worst_overall > 1.0


def _report_bits(rep):
    return [repr(getattr(rep, f.name)) for f in fields(rep)]


@pytest.mark.parametrize("m", ["strong", "weak"])
def test_is_attracting_equals_the_per_slice_scan_bitwise(m, toy_bundle, nse4_bundle):
    toy, nse = toy_bundle["ensemble"], nse4_bundle["ensemble"]
    # a few points: each toy member's samples cross the strong screen's
    # threshold against them, one 8-member slice does not
    few = omega_limit(toy, m, OmegaParams(0.0, 18.0, 50, 0.2))
    assert toy.n_members * few.points.size <= _SCREEN_MIN < toy.n_samples * few.points.size
    # many points: one 16-member slice crosses it too
    many = omega_limit(nse, m, OmegaParams(0.0, 4.0, 5, 1e-2))
    assert nse.n_members * many.points.size > _SCREEN_MIN
    cases = [
        (few, toy),
        (few, restrict(toy, 2.0, 9.5)),  # a view whose members are not contiguous
        (few, Ensemble(toy.samples[:, :1], 0.0, toy.dt, toy.model)),  # one sample
        (few, Ensemble(toy.samples[:1], 0.0, toy.dt, toy.model)),  # one member
        (many, Ensemble(nse.samples[:, :101], 0.0, nse.dt, nse.model)),
        (many, restrict(nse, 1.0, 3.0)),
    ]
    for candidate, ens in cases:
        semi = attraction_scan_oracle(candidate, ens, np.inf).worst_overall
        for eps in (e for e in (1e-3, 1e-2, 0.1, 0.5, 2.0 * semi, semi) if e > 0):
            want = attraction_scan_oracle(candidate, ens, eps)
            assert _report_bits(is_attracting(candidate, ens, eps)) == _report_bits(want)


def test_is_attracting_guards(toy_bundle, nse4_bundle):
    est = omega_limit(toy_bundle["ensemble"], "strong", toy_bundle["omega"])
    with pytest.raises(ModelMismatch):
        is_attracting(est, nse4_bundle["ensemble"], 1e-3)
    with pytest.raises(ValueError):
        is_attracting(est, toy_bundle["ensemble"], 0.0)


def test_global_attractor_attaches_attraction(toy_bundle):
    # the attraction eps is twice the clustering tolerance
    est = global_attractor(toy_bundle["ensemble"], "strong", OmegaParams(12.0, 18.0, 10, 5e-3))
    assert est.attraction is not None and est.attraction.eps == 1e-2
    assert est.attraction.t_entry is not None
    assert est.attraction.worst_after_entry <= 1e-2


def test_global_attractor_forced_matches_steady(nse4_bundle):
    est = omega_limit(nse4_bundle["ensemble"], "strong", nse4_bundle["omega"])
    target = nse4_bundle["steady"]
    dmax = max(np.linalg.norm(p - target) for p in est.points)
    assert dmax < 5e-4


def test_compactness_defect_settled_small(dyadic_bundle):
    ens = dyadic_bundle["ensemble"]
    times = [20.0, 24.0, 28.0]
    defect = asymptotic_compactness_defect(ens, times, k=3)
    assert defect < 1e-2


def test_compactness_defect_at_its_argument_bounds():
    # two times, and as many centers as times; two equal times are not increasing
    spec = make_spec("toy_contraction", truncation=2)
    ens = Ensemble(np.array([[[0.0, 0.0], [3.0, 4.0]]]), 0.0, 1.0, spec)
    assert asymptotic_compactness_defect(ens, [0.0, 1.0], k=1) == 5.0
    assert asymptotic_compactness_defect(ens, [0.0, 1.0], k=2) == 0.0
    with pytest.raises(ValueError, match="strictly increasing"):
        asymptotic_compactness_defect(ens, [1.0, 1.0], k=1)


def test_compactness_defect_insufficient_samples(toy_bundle):
    ens = toy_bundle["ensemble"]
    with pytest.raises(InsufficientSamples):
        asymptotic_compactness_defect(ens, [10.0], k=100)
