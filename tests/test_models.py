"""Model builders, energy bookkeeping, and steady states."""
import warnings

import numpy as np
import pytest
from oracles import member_views, nonlinear_oracle

from attractorlab.core import build_ensemble, integrate
from attractorlab.spectral import advect, advect_self
from attractorlab.state import Ensemble
from attractorlab.errors import AttractorLabError, GridTooCoarse, ModelMismatch, NonFiniteState
from attractorlab.models import (
    _cumulative_simpson,
    absorbing_radius,
    check_energy_inequality,
    default_radius,
    dyadic_forcing,
    energy_identity_gap,
    energy_ledger,
    enstrophy,
    forcing_array,
    linear_rates,
    make_spec,
    mode_table,
    model_dim,
    nonlinear_array,
    nonlinear_pass,
    nse_forcing,
    rhs_array,
    sample_ball,
    smooth_profile,
    spec_dim,
    steady_state,
    stokes_eigenvalues,
)

TWO_PI = 2.0 * np.pi


def test_make_spec_validation():
    with pytest.raises(ValueError):
        make_spec("burgers", truncation=4)
    with pytest.raises(ValueError):
        make_spec("toy_contraction", truncation=0)
    with pytest.raises(ValueError):
        make_spec("galerkin_nse_2d", nu=-1.0, truncation=2)
    with pytest.raises(ValueError):
        make_spec("galerkin_nse_2d", L=0.0, truncation=2)
    with pytest.raises(ValueError):
        make_spec("dyadic", truncation=4, lam=1.0)


def test_make_spec_bounds_the_largest_linear_rate():
    # dyadic nu lam^(2N) and NSE nu (2 pi N / L)^2 d: a largest rate just
    # inside the floats passes, and one past them is a ValueError rather than
    # an overflow (2^1022 is the last finite dyadic rate at lam 2)
    for spec in (
        make_spec("dyadic", truncation=511, lam=2.0),
        make_spec("galerkin_nse_2d", nu=2e307, L=TWO_PI, truncation=2),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(linear_rates(spec)).all()
    assert linear_rates(make_spec("galerkin_nse_2d", nu=2e307, truncation=2)).max() == 2e307 * 8
    for kwargs in (
        {"kind": "dyadic", "truncation": 512, "lam": 2.0},
        {"kind": "dyadic", "truncation": 3, "lam": 1e100},
        {"kind": "galerkin_nse_2d", "nu": 3e307, "truncation": 2},
        {"kind": "galerkin_nse_3d", "nu": 1e308, "truncation": 1},
    ):
        with pytest.raises(ValueError, match="largest linear rate"):
            make_spec(**kwargs)


def test_dimensions():
    assert model_dim("galerkin_nse_2d", 4) == (9 * 9 - 1)
    assert model_dim("galerkin_nse_3d", 1) == (27 - 1) * 2
    assert model_dim("dyadic", 6) == 7
    assert model_dim("toy_contraction", 6) == 6


def test_stokes_eigenvalues_by_kind():
    s2 = make_spec("galerkin_nse_2d", L=TWO_PI, truncation=2)
    lam = stokes_eigenvalues(s2)
    assert lam.shape == (spec_dim(s2),)
    assert lam.min() == 1.0  # mode (1,0) at L = 2 pi
    d = make_spec("dyadic", nu=0.5, truncation=3, lam=2.0)
    np.testing.assert_allclose(stokes_eigenvalues(d), [1.0, 4.0, 16.0, 64.0])
    t = make_spec("toy_contraction", truncation=5)
    np.testing.assert_allclose(stokes_eigenvalues(t), np.ones(5))


def test_enstrophy_is_stokes_quadratic():
    spec = make_spec("galerkin_nse_2d", L=TWO_PI, truncation=3)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(spec_dim(spec))
    assert abs(enstrophy(spec, u) - (stokes_eigenvalues(spec) * u * u).sum()) < 1e-12


def test_nse_forcing_placement_and_errors():
    g = nse_forcing(
        "galerkin_nse_2d",
        TWO_PI,
        2,
        [{"mode": [1, 0], "amplitude": 0.5, "part": "sin"}],
    )
    assert np.count_nonzero(g) == 1 and np.linalg.norm(g) == 0.5
    with pytest.raises(ValueError):
        nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [3, 0], "amplitude": 1.0}])
    with pytest.raises(ValueError):
        nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [-1, 0], "amplitude": 1.0}])
    with pytest.raises(ValueError):
        nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 1.0, "part": "tan"}])
    with pytest.raises(ValueError):
        nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 1.0, "component": 1}])
    with pytest.raises(ValueError):
        nse_forcing("dyadic", TWO_PI, 2, [])


def test_dyadic_forcing_placement():
    g = dyadic_forcing(4, [{"shell": 1, "amplitude": 0.3}, {"shell": 1, "amplitude": 0.2}])
    np.testing.assert_allclose(g, [0.0, 0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        dyadic_forcing(4, [{"shell": 5, "amplitude": 1.0}])


def test_dyadic_nonlinearity_telescopes():
    spec = make_spec("dyadic", nu=0.5, truncation=8, lam=2.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.standard_normal(9)
        flux = float(a @ nonlinear_array(spec, a))
        assert abs(flux) <= 1e-12 * np.linalg.norm(a) ** 3


def test_toy_rhs_is_minus_identity():
    spec = make_spec("toy_contraction", truncation=4)
    x = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(rhs_array(spec, x), -x)


def test_absorbing_radius_formula():
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 1.0}])
    spec = make_spec("galerkin_nse_2d", nu=1.0, L=TWO_PI, truncation=2, forcing=g)
    assert abs(absorbing_radius(spec) - 1.1) < 1e-14
    spec2 = make_spec("galerkin_nse_2d", nu=1.0, L=TWO_PI, truncation=2, forcing=2.0 * g)
    assert abs(absorbing_radius(spec2) - 2.2) < 1e-14
    free = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    assert absorbing_radius(free) == 0.0
    with pytest.raises(ModelMismatch):
        absorbing_radius(make_spec("toy_contraction", truncation=4))


def test_sample_ball_contract():
    spec = make_spec("galerkin_nse_2d", truncation=2)
    a = sample_ball(spec, 10, radius=0.7, seed=3)
    b = sample_ball(spec, 10, radius=0.7, seed=3)
    assert np.array_equal(a, b)
    assert np.all(np.linalg.norm(a, axis=1) <= 0.7 + 1e-12)
    s = sample_ball(spec, 10, radius=0.7, seed=3, boundary=True)
    np.testing.assert_allclose(np.linalg.norm(s, axis=1), 0.7, atol=1e-12)
    with pytest.raises(ValueError):
        sample_ball(spec, 0, radius=1.0, seed=0)


def test_smooth_profile_damps_high_modes():
    spec = make_spec("galerkin_nse_2d", truncation=4)
    prof = smooth_profile(spec)
    np.testing.assert_allclose(prof, 1.0 / (1.0 + stokes_eigenvalues(spec)))


def test_energy_ledger_columns():
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 0.1}])
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2, forcing=g)
    tr = integrate(spec, sample_ball(spec, 1, radius=0.3, seed=1)[0], 0.0, 1.0, 0.02)
    led = energy_ledger(spec, tr)
    k = 17
    u = tr.samples[0, k]
    assert led.energy.shape == led.enstrophy.shape == led.work.shape == (1, 51)
    assert abs(led.energy[0, k] - u @ u) < 1e-14
    assert abs(led.enstrophy[0, k] - (stokes_eigenvalues(spec) * u * u).sum()) < 1e-13
    assert abs(led.work[0, k] - u @ forcing_array(spec)) < 1e-14
    other = make_spec("galerkin_nse_2d", nu=2.0, truncation=2)
    with pytest.raises(ModelMismatch):
        energy_ledger(other, tr)


def test_energy_ledger_equals_direct_sums_bitwise():
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 0.1}])
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2, forcing=g)
    ens = build_ensemble(spec, sample_ball(spec, 3, radius=0.3, seed=1), 0.0, 1.0, 0.02)
    led = energy_ledger(spec, ens)
    u = ens.samples
    assert np.array_equal(led.energy, (u * u).sum(-1))
    assert np.array_equal(led.enstrophy, enstrophy(spec, u))


def test_batches_of_any_leading_shape_match_single_rows():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=3)
    table = mode_table(spec)
    u, v = sample_ball(spec, 12, radius=0.3, seed=4).reshape(2, 2, 3, -1)
    kernels = (
        lambda a, b: advect(table, a, b),
        lambda a, b: advect_self(table, a),
        lambda a, b: nonlinear_array(spec, a),
    )
    for kernel in kernels:
        batch = kernel(u, v)
        assert batch.shape == u.shape
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(batch[i, j], kernel(u[i, j], v[i, j]))


def test_nonlinear_array_checks_its_operand():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    u = sample_ball(spec, 2, radius=0.3, seed=1)
    bad = u.copy()
    bad[1, 3] = np.inf
    with pytest.raises(NonFiniteState, match="operand contains non-finite entries"):
        nonlinear_array(spec, bad)
    with pytest.raises(ModelMismatch, match="does not match model dim"):
        nonlinear_array(spec, u[:, :-1])
    b = forcing_array(spec) - nonlinear_array(spec, u)
    assert np.abs(b - advect(mode_table(spec), u, u)).max() <= 1e-15 * np.abs(b).max()


def _kicked(kind, truncation):
    # dyadic: a lam that is no power of two and forcing past shell 0, so that a
    # regrouped product or sum shows in the bits
    forcing = None
    if kind in ("galerkin_nse_2d", "galerkin_nse_3d"):
        mode = [1, 0] if kind == "galerkin_nse_2d" else [1, 0, 0]
        entries = [{"mode": mode, "amplitude": 0.1}]
        forcing = nse_forcing(kind, TWO_PI, truncation, entries)
    elif kind == "dyadic":
        entries = [{"shell": 0, "amplitude": 1.0}, {"shell": 3, "amplitude": 0.7}]
        forcing = dyadic_forcing(truncation, entries)
    return make_spec(kind, nu=1.0, truncation=truncation, lam=1.7, forcing=forcing)


# 3D N=3 has 88,204 symmetric entries, above 2^16: one row per slice, so a
# batch of 5 spans five row blocks
@pytest.mark.parametrize(
    "kind,truncation,rows",
    [
        ("galerkin_nse_2d", 4, 8),
        ("galerkin_nse_2d", 8, 16),
        ("galerkin_nse_3d", 3, 5),
        ("dyadic", 6, 7),
        ("toy_contraction", 4, 3),
    ],
)
@pytest.mark.parametrize("dtype", [float, np.float32, int])
def test_nonlinear_pass_matches_nonlinear_array_bitwise(kind, truncation, rows, dtype):
    spec = _kicked(kind, truncation)
    u0 = (sample_ball(spec, rows, radius=3.0, seed=rows) * 4.0).astype(dtype)
    u, f = nonlinear_pass(spec, u0)
    assert u.dtype == float and u.flags.c_contiguous
    assert np.array_equal(u, u0.astype(float))

    def same_bits(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # one evaluator, batches that shrink by prefix as a pass's do
    for n in range(rows, 0, -1):
        same_bits(f(u[:n]), nonlinear_oracle(spec, u0[:n]))
    # nonlinear_array on 1-D, 2-D (C and Fortran order) and 3-D operands
    for operand in (u0[0], u0, np.asfortranarray(u0), u0[None]):
        same_bits(nonlinear_array(spec, operand), nonlinear_oracle(spec, operand))
    # a stage operand: a fresh float array
    stage = 0.5 * u
    same_bits(f(stage), nonlinear_oracle(spec, stage))
    stage[-1, 0] = np.nan
    for fn in (f, lambda v: nonlinear_array(spec, v)):
        with pytest.raises(NonFiniteState, match="^operand contains non-finite entries$"):
            fn(stage)
    with pytest.raises(ModelMismatch, match="does not match model dim"):
        nonlinear_pass(spec, u0[:, :-1])


def test_unforced_galerkin_norm_decays_at_poincare_rate():
    spec = make_spec("galerkin_nse_2d", nu=1.0, L=TWO_PI, truncation=3)
    u0 = sample_ball(spec, 1, radius=0.8, seed=13, profile=smooth_profile(spec))[0]
    tr = integrate(spec, u0, 0.0, 12.0, 0.02)
    norms = np.linalg.norm(tr.samples[0], axis=1)
    assert np.all(np.diff(norms) <= 1e-14)
    # late-time decay is governed by the lowest eigenvalue, here exactly 1
    k8, k11 = tr.index_of(8.0), tr.index_of(11.0)
    rate = -np.log(norms[k11] / norms[k8]) / 3.0
    assert abs(rate - 1.0) < 0.02


@pytest.mark.parametrize("n", list(range(1, 13)) + [601, 1101])
def test_cumulative_simpson_matches_scipy_bitwise(n):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    for dx in (1e-3, 0.02, 0.1, 1.0, 7.5):
        for y in (rng.standard_normal(n), -rng.random(n) * 1e-9, np.full(n, -0.0)):
            got = _cumulative_simpson(y, dx)
            want = cumulative_simpson(y, dx=dx, initial=0.0)
            assert got.shape == want.shape == (n,)
            # int view: equal bits, the sign of zero included
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_energy_identity_gap_settled_is_tiny():
    g = nse_forcing(
        "galerkin_nse_2d",
        TWO_PI,
        4,
        [
            {"mode": [1, 0], "amplitude": 0.08, "part": "cos"},
            {"mode": [0, 1], "amplitude": 0.06, "part": "sin"},
        ],
    )
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=4, forcing=g)
    ini = sample_ball(spec, 2, radius=absorbing_radius(spec), seed=31, profile=smooth_profile(spec))
    warm = build_ensemble(spec, ini, 0.0, 10.0, 0.02)
    ens = build_ensemble(spec, warm.samples[:, -1], 0.0, 4.0, 0.02)
    led = energy_ledger(spec, ens)
    assert np.all(energy_identity_gap(spec, led) <= 1e-6 * led.energy[:, 0])


def test_energy_inequality_toy_holds_for_every_eps():
    spec = make_spec("toy_contraction", truncation=4)
    tr = integrate(spec, np.array([0.7, -0.1, 0.3, 0.2]), 0.0, 6.0, 0.05)
    led = energy_ledger(spec, tr)
    for eps in (1e-1, 1e-3, 1e-6):
        rep = check_energy_inequality(tr, led, eps, radius=1.0)
        assert rep.holds and rep.worst_delta <= 0.0


def test_energy_inequality_grid_too_coarse():
    # strong forcing shrinks delta = eps/(2|g|R) below one step
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 1.0}])
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2, forcing=g)
    tr = integrate(spec, sample_ball(spec, 1, radius=1.0, seed=2)[0], 0.0, 1.0, 0.02)
    led = energy_ledger(spec, tr)
    with pytest.raises(GridTooCoarse):
        check_energy_inequality(tr, led, 1e-3, radius=absorbing_radius(spec))


def test_steady_state_newton():
    g = nse_forcing(
        "galerkin_nse_2d",
        TWO_PI,
        4,
        [
            {"mode": [1, 0], "amplitude": 0.08, "part": "cos"},
            {"mode": [0, 1], "amplitude": 0.06, "part": "sin"},
        ],
    )
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=4, forcing=g)
    u = steady_state(spec)
    assert np.linalg.norm(rhs_array(spec, u)) <= 1e-10
    gd = dyadic_forcing(6, [{"shell": 0, "amplitude": 0.1}])
    dspec = make_spec("dyadic", nu=0.5, truncation=6, lam=2.0, forcing=gd)
    a = steady_state(dspec)
    assert np.linalg.norm(rhs_array(dspec, a)) <= 1e-10
    # independent confirmation: the flow converges to the Newton root
    end = integrate(dspec, sample_ball(dspec, 1, radius=default_radius(dspec), seed=4)[0], 0.0, 30.0, 0.005).samples[0, -1]
    assert np.linalg.norm(end - a) <= 1e-9


def test_steady_state_rejects_failed_line_search(monkeypatch):
    # The first Newton direction only increases the residual u - c; the
    # second is exact. A failed line search must raise, not step on.
    import attractorlab.models as models

    spec = make_spec("toy_contraction", truncation=3)
    c = np.array([1.0, -2.0, 0.5])
    jacobians = [-np.eye(3), np.eye(3)]
    monkeypatch.setattr(models, "rhs_array", lambda s, u: u - c)
    monkeypatch.setattr(models, "rhs_jacobian", lambda s, u: jacobians.pop(0))
    with pytest.raises(AttractorLabError, match="line search"):
        steady_state(spec)


def _forced_ensemble():
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 3, [{"mode": [1, 0], "amplitude": 0.05}])
    spec = make_spec("galerkin_nse_2d", nu=0.2, truncation=3, forcing=g)
    ini = sample_ball(spec, 5, radius=0.05, seed=8, profile=smooth_profile(spec))
    return build_ensemble(spec, ini, 0.0, 3.0, 0.02)


def _inequality_oracle(energy, lookback, eps):
    # the per-member, per-time loop the ensemble check replaces
    worst = -np.inf
    for k in range(1, energy.shape[0]):
        best_past = energy[max(0, k - lookback) : k].max()
        worst = max(worst, float(energy[k] - best_past - eps))
    return worst


def test_energy_checks_on_ensembles_equal_one_member_views_bitwise():
    ens = _forced_ensemble()
    spec = ens.model
    led = energy_ledger(spec, ens)
    gaps = energy_identity_gap(spec, led)
    assert led.energy.shape == (5, 151) and gaps.shape == (5,)
    for i, view in enumerate(member_views(ens)):
        one = energy_ledger(spec, view)
        for name in ("energy", "enstrophy", "work"):
            assert np.array_equal(getattr(led, name)[i], getattr(one, name)[0])
        u = ens.samples[i]
        assert np.array_equal(led.energy[i], (u * u).sum(axis=1))
        assert np.array_equal(led.work[i], u @ forcing_array(spec))
        assert gaps[i] == energy_identity_gap(spec, one)[0]
        # the 1-D quadrature of the per-member ledger
        q = (
            led.energy[i]
            + 2.0 * spec.nu * _cumulative_simpson(led.enstrophy[i], 0.02)
            - 2.0 * _cumulative_simpson(led.work[i], 0.02)
        )
        assert gaps[i] == q.max() - q.min()
    # random toy data (no forcing: the whole past counts) breaks the
    # inequality on some members and not on others
    toy = make_spec("toy_contraction", truncation=3)
    noisy = Ensemble(np.random.default_rng(3).standard_normal((6, 40, 3)), 0.0, 0.1, toy)
    cases = [(ens, 1.0, eps) for eps in (1e-1, 1e-2, 3e-3)]
    cases += [(noisy, 1.0, eps) for eps in (0.5, 2.0, 4.0, 8.0)]
    seen = set()
    for e, radius, eps in cases:
        led = energy_ledger(e.model, e)
        rep = check_energy_inequality(e, led, eps, radius=radius)
        lookback = int(np.ceil(rep.delta_used / e.dt - 1e-12)) - 1
        per_member = [_inequality_oracle(row, lookback, eps) for row in led.energy]
        views = [
            check_energy_inequality(v, energy_ledger(e.model, v), eps, radius=radius)
            for v in member_views(e)
        ]
        assert rep.worst_delta == max(per_member) == max(r.worst_delta for r in views)
        assert rep.holds == all(w <= 0.0 for w in per_member) == all(r.holds for r in views)
        seen.add(tuple(r.holds for r in views))
    assert any(all(h) for h in seen) and any(len(set(h)) == 2 for h in seen)
    # a one-sample ledger has no past: nothing to violate
    one = energy_ledger(spec, member_views(ens)[0])
    short = type(one)(one.times[:1], one.energy[:, :1], one.enstrophy[:, :1], one.work[:, :1])
    rep = check_energy_inequality(ens, short, 1e-1, radius=1.0)
    assert rep.holds and rep.worst_delta == -np.inf


def test_spec_key_is_exact_in_the_forcing():
    # forcings one ulp apart share neither a key nor a cached forcing array
    g = nse_forcing("galerkin_nse_2d", TWO_PI, 2, [{"mode": [1, 0], "amplitude": 0.1}])
    h = g.copy()
    i = np.flatnonzero(g)[0]
    h[i] = np.nextafter(g[i], np.inf)
    a, b = (make_spec("galerkin_nse_2d", truncation=2, forcing=f) for f in (g, h))
    assert a.key != b.key
    assert make_spec("galerkin_nse_2d", truncation=2, forcing=g.copy()).key == a.key
    assert np.array_equal(forcing_array(a), g) and np.array_equal(forcing_array(b), h)
    assert not np.array_equal(forcing_array(a), forcing_array(b))
