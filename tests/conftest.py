"""Shared model bundles, built once per session.

Each bundle is a dict holding a model spec, a seeded ensemble started inside
its ball, and (where the tests need one) a settled far-past surrogate
library, the Newton steady state, and omega-limit parameters tuned to the
bundle's transient. Horizons leave roughly a factor-ten margin over the
tolerances the acceptance suite asserts.
"""
import numpy as np
import pytest
from oracles import steady_state

from attractorlab.core import build_ensemble, complete_surrogates
from attractorlab.limits import OmegaParams
from attractorlab.models import (
    absorbing_radius,
    default_radius,
    dyadic_forcing,
    make_spec,
    nse_forcing,
    sample_ball,
    smooth_profile,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def toy_bundle():
    spec = make_spec("toy_contraction", truncation=6)
    radius = 1.0
    # boundary sampling pins |u0| = radius so decay times are exactly
    # ln(radius/eps) for the tracking and attraction oracles
    ens = build_ensemble(
        spec,
        sample_ball(spec, 8, radius=radius, seed=101, boundary=True),
        0.0,
        18.0,
        0.01,
    )
    lib = complete_surrogates(
        spec,
        sample_ball(spec, 4, radius=radius, seed=102),
        t_back=25.0,
        horizon=18.0,
        dt=0.01,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "library": lib,
        "omega": OmegaParams(t_transient=12.0, t_max=18.0, sample_stride=10, cluster_tol=1e-3),
        "steady": np.zeros(6),
    }


@pytest.fixture(scope="session")
def dyadic_bundle():
    # weak forcing keeps delta(eps=1e-3) = eps/(2|g|R) ~ 0.023 above dt,
    # so the full inequality ladder has interior grid points
    g = dyadic_forcing(6, [{"shell": 0, "amplitude": 0.1}])
    spec = make_spec("dyadic", nu=0.5, truncation=6, lam=2.0, forcing=g)
    radius = default_radius(spec)
    ens = build_ensemble(
        spec, sample_ball(spec, 8, radius=radius, seed=201), 0.0, 30.0, 0.005
    )
    lib = complete_surrogates(
        spec,
        sample_ball(spec, 4, radius=radius, seed=202),
        t_back=40.0,
        horizon=30.0,
        dt=0.005,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "library": lib,
        "omega": OmegaParams(t_transient=20.0, t_max=30.0, sample_stride=20, cluster_tol=1e-3),
        "steady": steady_state(spec),
    }


@pytest.fixture(scope="session")
def nse4_free_bundle():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=4)
    radius = 1.0
    ens = build_ensemble(
        spec,
        sample_ball(spec, 8, radius=radius, seed=211, profile=smooth_profile(spec)),
        0.0,
        18.0,
        0.02,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "omega": OmegaParams(t_transient=14.0, t_max=18.0, sample_stride=10, cluster_tol=1e-3),
        "steady": np.zeros(ens.samples.shape[2]),
    }


@pytest.fixture(scope="session")
def nse4_bundle():
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
    radius = absorbing_radius(spec)
    prof = smooth_profile(spec)
    ens = build_ensemble(
        spec,
        sample_ball(spec, 16, radius=radius, seed=301, profile=prof),
        0.0,
        18.0,
        0.02,
    )
    lib = complete_surrogates(
        spec,
        sample_ball(spec, 6, radius=radius, seed=302, profile=prof),
        t_back=30.0,
        horizon=18.0,
        dt=0.02,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "library": lib,
        "omega": OmegaParams(t_transient=14.0, t_max=18.0, sample_stride=5, cluster_tol=1e-3),
        "steady": steady_state(spec),
    }


@pytest.fixture(scope="session")
def nse8_bundle():
    g = nse_forcing(
        "galerkin_nse_2d",
        TWO_PI,
        8,
        [
            {"mode": [1, 0], "amplitude": 0.4, "part": "cos"},
            {"mode": [0, 1], "amplitude": 0.3, "part": "sin"},
            {"mode": [1, 1], "amplitude": 0.2, "part": "cos"},
        ],
    )
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=8, forcing=g)
    radius = absorbing_radius(spec)
    ens = build_ensemble(
        spec,
        sample_ball(spec, 8, radius=radius, seed=401, profile=smooth_profile(spec)),
        0.0,
        14.0,
        0.02,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "omega": OmegaParams(t_transient=12.0, t_max=14.0, sample_stride=5, cluster_tol=1e-4),
        "steady": steady_state(spec),
    }


@pytest.fixture(scope="session")
def nse3d_bundle():
    spec = make_spec("galerkin_nse_3d", nu=1.0, truncation=2)
    radius = 1.0
    ens = build_ensemble(
        spec,
        sample_ball(spec, 6, radius=radius, seed=501, profile=smooth_profile(spec)),
        0.0,
        10.0,
        0.02,
    )
    return {
        "spec": spec,
        "radius": radius,
        "ensemble": ens,
        "omega": OmegaParams(t_transient=7.0, t_max=10.0, sample_stride=10, cluster_tol=1e-3),
        "steady": np.zeros(ens.samples.shape[2]),
    }
