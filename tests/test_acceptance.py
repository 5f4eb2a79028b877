"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test line in ``pytest -v`` is the pass/fail record for its criterion.
All randomness is seeded; every distance bound below was calibrated against
an independent oracle (closed forms, Newton steady states, or hand-built
counterexample trajectories) before being frozen here.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from attractorlab.core import build_ensemble
from attractorlab.errors import HypothesisFail
from attractorlab.limits import (
    OmegaParams,
    SetEstimate,
    asymptotic_compactness_defect,
    global_attractor,
    is_attracting,
    omega_limit,
)
from attractorlab.metrics import (
    dist_arrays,
    pairwise_to_set,
    weak_dist_arrays,
    weak_weight_total,
)
from attractorlab.models import (
    absorbing_radius,
    check_energy_inequality,
    energy_identity_gap,
    energy_ledger,
    forcing_array,
    make_spec,
    sample_ball,
    smooth_profile,
    spec_dim,
)
from attractorlab.spectral import advect, build_mode_table
from attractorlab.state import Ensemble
from attractorlab.trajectory_space import (
    trajectory_attraction_report,
    trajectory_attractor,
    translate_semigroup,
    translation_invariance,
)
from attractorlab.verification import (
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    check_tracking,
    tracking_error_profile,
)

TWO_PI = 2.0 * np.pi


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_metric_axioms():
    specs = [
        make_spec("toy_contraction", truncation=6),
        make_spec("dyadic", nu=0.5, truncation=6, lam=2.0),
        make_spec("galerkin_nse_2d", truncation=4),
        make_spec("galerkin_nse_3d", truncation=1),
    ]
    rng = np.random.default_rng(2024)
    for spec in specs:
        n = spec_dim(spec)
        x, y, z = rng.standard_normal((3, 1000, n)) * rng.uniform(0.05, 20.0, (1000, 1))
        for m in ("strong", "weak"):
            dxy = dist_arrays(spec, x, y, m)
            dyx = dist_arrays(spec, y, x, m)
            dxz = dist_arrays(spec, x, z, m)
            dzy = dist_arrays(spec, z, y, m)
            assert np.all(dxy >= 0.0)
            assert np.all(dist_arrays(spec, x, x, m) == 0.0)
            np.testing.assert_allclose(dxy, dyx, rtol=0, atol=1e-15)
            assert float((dxz + dzy - dxy).min()) >= -1e-12


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_weak_dominated_by_strong():
    for spec in (
        make_spec("galerkin_nse_2d", truncation=4),
        make_spec("dyadic", nu=0.5, truncation=6, lam=2.0),
    ):
        w_total = weak_weight_total(spec)
        dim = spec_dim(spec)
        for n in range(1, 101):
            x = np.zeros(dim)
            y = np.zeros(dim)
            y[0] = 1.0 / n
            strong = float(dist_arrays(spec, x, y, "strong"))
            weak = float(dist_arrays(spec, x, y, "weak"))
            assert strong == 1.0 / n
            assert weak <= w_total * strong + 1e-15


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_bilinear_identities():
    table = build_mode_table(2, TWO_PI, 8)
    dim = 2 * table.n_half
    rng = np.random.default_rng(88)
    for _ in range(100):
        u, v, w = rng.standard_normal((3, dim))
        scale = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
        b_uv = advect(table, u, v)
        b_uw = advect(table, u, w)
        assert abs(float(b_uv @ v)) <= 1e-10 * scale
        assert abs(float(b_uv @ w + b_uw @ v)) <= 1e-10 * scale


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_energy_inequality(nse4_bundle, nse8_bundle, dyadic_bundle):
    # cumulative identity gap on settled restarts of every trajectory
    for bundle, t_run in ((nse4_bundle, 4.0), (nse8_bundle, 4.0), (dyadic_bundle, 4.0)):
        spec = bundle["spec"]
        ens = bundle["ensemble"]
        restart = build_ensemble(spec, ens.samples[:, -1], 0.0, t_run, ens.dt)
        led = energy_ledger(spec, restart)
        assert np.all(energy_identity_gap(spec, led) <= 1e-6 * led.energy[:, 0])
    # pointwise look-back inequality with delta = eps / (2 |g| R), on every
    # member
    for bundle in (nse4_bundle, dyadic_bundle):
        ens = bundle["ensemble"]
        led = energy_ledger(bundle["spec"], ens)
        for eps in (1e-1, 1e-2, 1e-3):
            rep = check_energy_inequality(ens, led, eps, radius=bundle["radius"])
            assert rep.holds


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_absorbing_ball(nse8_bundle):
    spec = nse8_bundle["spec"]
    r_abs = absorbing_radius(spec)
    g_norm = float(np.linalg.norm(forcing_array(spec)))
    assert abs(r_abs - 1.1 * g_norm * spec.L / (TWO_PI * spec.nu)) < 1e-14
    starts = sample_ball(
        spec, 64, radius=2.0 * r_abs, seed=640, boundary=True, profile=smooth_profile(spec)
    )
    ens = build_ensemble(spec, starts, 0.0, 6.0, 0.02)
    slack = 1e-9 * r_abs
    for member in ens.samples:
        inside = np.linalg.norm(member, axis=1) <= r_abs + slack
        entered = np.flatnonzero(inside)
        assert entered.size > 0, "state never entered the absorbing ball"
        assert inside[entered[0] :].all(), "state left the ball after entering"


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_attractor_identities(toy_bundle, nse4_free_bundle, nse8_bundle):
    # contraction regimes: the attractor is the origin in both metrics
    for bundle in (toy_bundle, nse4_free_bundle):
        spec = bundle["spec"]
        for m in ("strong", "weak"):
            est = global_attractor(bundle["ensemble"], m, bundle["omega"])
            assert est.attraction.t_entry is not None
            for p in est.points:
                assert float(dist_arrays(spec, p, 0.0 * p, m)) <= 1e-3
    # forced steady regime: estimate matches the Newton root
    spec = nse8_bundle["spec"]
    target = nse8_bundle["steady"]
    est_s = global_attractor(nse8_bundle["ensemble"], "strong", nse8_bundle["omega"])
    est_w = global_attractor(nse8_bundle["ensemble"], "weak", nse8_bundle["omega"])
    for p in est_s.points:
        assert np.linalg.norm(p - target) <= 1e-4
    for p in est_w.points:
        assert float(weak_dist_arrays(spec, p - target)) <= 1e-4
    tol2 = 2.0 * nse8_bundle["omega"].cluster_tol
    assert pairwise_to_set(spec, est_s.points, est_w.points, "strong").max() <= tol2
    assert pairwise_to_set(spec, est_w.points, est_s.points, "strong").max() <= tol2


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_omega_inclusion_and_minimality(
    toy_bundle, dyadic_bundle, nse4_bundle, nse8_bundle, nse3d_bundle
):
    bundles = (toy_bundle, dyadic_bundle, nse4_bundle, nse8_bundle, nse3d_bundle)
    for bundle in bundles:
        p = bundle["omega"]
        omega_s = omega_limit(bundle["ensemble"], "strong", p)
        omega_w = omega_limit(bundle["ensemble"], "weak", p)
        semi = pairwise_to_set(bundle["spec"], omega_s.points, omega_w.points, "weak").max()
        assert semi <= p.cluster_tol
    # minimality evidence: the estimate sits inside every attracting candidate
    rng = np.random.default_rng(7)
    for bundle in (toy_bundle, nse4_bundle):
        spec = bundle["spec"]
        p = bundle["omega"]
        ens = bundle["ensemble"]
        omega_est = omega_limit(ens, "strong", p)
        base = omega_est.points
        for trial in range(3):
            jitter = rng.standard_normal(base.shape)
            jitter *= p.cluster_tol / 3.0 / np.linalg.norm(jitter, axis=1, keepdims=True)
            far = rng.standard_normal((4, base.shape[1]))
            far *= 1.0 / np.linalg.norm(far, axis=1, keepdims=True)
            pts = np.vstack([base + jitter, far])
            candidate = SetEstimate(
                points=pts,
                model=spec,
                metric="strong",
                tol=p.cluster_tol,
                horizon=p.t_max,
            )
            rep = is_attracting(candidate, ens, eps=3.0 * p.cluster_tol)
            assert rep.t_entry is not None, "inflated candidate must still attract"
            semi = pairwise_to_set(spec, omega_est.points, candidate.points, "strong").max()
            assert semi <= p.cluster_tol


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_quasi_invariance_and_maximal_invariant(
    toy_bundle, dyadic_bundle, nse4_bundle
):
    for bundle in (toy_bundle, dyadic_bundle, nse4_bundle):
        est = global_attractor(bundle["ensemble"], "strong", bundle["omega"])
        qi = check_quasi_invariance(est, bundle["library"], eps=1e-3, t_win=2.0)
        assert qi.covered_fraction == 1.0
        mi = check_maximal_invariant(est, bundle["library"], eps=1e-3)
        assert mi.i_subset_a and mi.a_subset_i
        assert mi.d_i_to_a <= 1e-3 and mi.d_a_to_i <= 1e-3


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_tracking(toy_bundle, nse4_bundle):
    # self-tracking is exact
    ens = nse4_bundle["ensemble"]
    rep = check_tracking(ens, ens, "strong", eps=1e-10, window_T=2.0)
    assert rep.worst_error == 0.0
    # toy entry time matches ln(R / eps) within one scan-grid step
    eps = 1e-2
    ts, errs = tracking_error_profile(
        toy_bundle["ensemble"], toy_bundle["library"], "strong", window_T=2.0, t_star_stride=5
    )
    hit = np.flatnonzero(errs <= eps)
    assert hit.size > 0
    t0 = float(ts[hit[0]])
    step = float(ts[1] - ts[0])
    assert abs(t0 - np.log(1.0 / eps)) <= step  # R = 1 on the seeded sphere
    assert np.all(errs[hit[0] :] <= eps)
    # forced 2D regime: strong error nonincreasing in t*, down to <= 1e-3
    ts4, errs4 = tracking_error_profile(
        nse4_bundle["ensemble"], nse4_bundle["library"], "strong", window_T=2.0
    )
    assert np.all(np.diff(errs4) <= 1e-12)
    assert errs4[-1] <= 1e-3


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_trajectory_attractor(toy_bundle, dyadic_bundle, nse4_bundle):
    # translation semigroup law, exact on the shared grid
    p = toy_bundle["ensemble"]
    lhs = translate_semigroup(translate_semigroup(p, 1.25), 2.75)
    rhs = translate_semigroup(p, 4.0)
    assert np.array_equal(lhs.samples, rhs.samples)
    # weak attraction with finite entry on every library-backed model
    for bundle in (toy_bundle, dyadic_bundle, nse4_bundle):
        k_space = bundle["ensemble"]
        att = trajectory_attractor(k_space, bundle["library"], cluster_tol=1e-3)
        assert translation_invariance(att, tol=1e-3).ok
        rep = trajectory_attraction_report(k_space, att, eps=2e-3)
        assert rep.t_entry is not None
        if bundle is nse4_bundle:
            assert rep.strong_mode and rep.t_entry_strong is not None
            # slices of the trajectory attractor against the weak attractor
            a_w = global_attractor(bundle["ensemble"], "weak", bundle["omega"]).points
            spec = bundle["spec"]
            for t in (0.0, 1.0, 2.0, 3.0, 4.0):
                sl = att.samples_at(t)
                assert pairwise_to_set(spec, sl, a_w, "strong").max() <= 1e-3
                assert pairwise_to_set(spec, a_w, sl, "strong").max() <= 1e-3


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_negative_controls(
    toy_bundle, dyadic_bundle, nse4_bundle, nse8_bundle, nse3d_bundle
):
    # high-mode oscillation: weakly invisible, strongly persistent
    spec = make_spec("toy_contraction", truncation=12)
    t = np.arange(301) * 0.02
    limit = Ensemble(np.zeros((1, 301, 12)), 0.0, 0.02, spec)
    s = np.zeros((5, 301, 12))
    s[:, :, -1] = 0.5 * np.cos(TWO_PI * np.arange(2, 7)[:, None] * t)
    seq = Ensemble(s, 0.0, 0.02, spec)
    try:
        rep = check_strong_convergence_at_point(seq, limit, t_star=3.0)
        assert not rep.converged, "oscillation construction must not pass"
    except HypothesisFail:
        pass
    # escaping-mass synthetic: a unit bump walking up the dyadic ladder
    espec = make_spec("dyadic", nu=0.5, truncation=40, lam=2.0)
    samples = np.zeros((41, 41))
    samples[np.arange(41), np.arange(41) % 41] = 1.0
    walker = Ensemble(samples[None], 0.0, 1.0, espec)
    esc = asymptotic_compactness_defect(walker, times=list(range(10, 41)), k=5)
    assert esc > 0.1
    # every shipped dissipative regime keeps the defect small
    for bundle in (toy_bundle, dyadic_bundle, nse4_bundle, nse8_bundle, nse3d_bundle):
        ens = bundle["ensemble"]
        p = bundle["omega"]
        times = np.linspace(p.t_transient, p.t_max, 6)
        times = [float(round(t / ens.dt) * ens.dt) for t in times]
        defect = asymptotic_compactness_defect(ens, times, k=4)
        assert defect < 1e-2


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "model": {
            "kind": "galerkin_nse_2d",
            "truncation": 3,
            "forcing": [
                {"mode": [1, 0], "amplitude": 0.08, "part": "cos"},
                {"mode": [0, 1], "amplitude": 0.06, "part": "sin"},
            ],
        },
        "seed": 12,
        "ensemble_size": 4,
        "horizon": 12.0,
        "dt": 0.02,
        "library": {"size": 3, "t_back": 20.0, "horizon": 12.0},
        "omega": {"t_transient": 8.0, "t_max": 12.0, "sample_stride": 10, "cluster_tol": 1e-3},
        "checks": [
            {"name": "energy", "gap_tol": 5e-3},
            {"name": "absorbing", "n_samples": 16, "horizon": 8.0},
            {"name": "tracking", "eps_ladder": [0.2]},
            {"name": "quasi_invariance", "eps": 1e-3, "t_win": 2.0},
            {"name": "maximal_invariant", "eps": 1e-3},
            {"name": "compactness"},
            {"name": "point_convergence"},
        ],
        "output_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    files = ("trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json")

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "attractorlab.cli", "verify", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        return proc.returncode, {f: (tmp_path / "run" / f).read_bytes() for f in files}

    code1, first = run_once()
    code2, second = run_once()
    assert code1 == code2 == 0, f"verify run failed: {code1} vs {code2}"
    for f in files:
        assert first[f] == second[f], f"{f} differs between identical runs"
