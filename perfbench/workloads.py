"""The benchmark's workloads: one generated `attractorlab` config each.

Each workload is one CLI subcommand on one config. The workload seed goes
into the config's ``seed`` field, so the program sees only the config.
"""
from __future__ import annotations

# References are shipped for these workload seeds; a benchmark seed is
# reduced modulo their number.
SEEDS = (0, 1, 2, 3, 4)

_KOLMOGOROV = {
    "kind": "galerkin_nse_2d",
    "truncation": 4,
    "nu": 0.03,
    "forcing": [{"mode": [0, 2], "amplitude": 0.5, "part": "sin"}],
}


def _simulate_nse3d() -> dict:
    return {
        "model": {
            "kind": "galerkin_nse_3d",
            "truncation": 3,
            "forcing": [
                {"mode": [1, 0, 0], "amplitude": 0.3, "part": "cos"},
                {"mode": [0, 1, 0], "amplitude": 0.2, "part": "sin"},
            ],
        },
        "ensemble_size": 16,
        "horizon": 0.1,
        "dt": 0.02,
    }


def _verify_nse2d() -> dict:
    # Horizon 12 keeps one run near 5 s; the weak tail metric needs 8 time
    # units after t*, so the 1e-3 tracking rung would need a horizon of 14.
    return {
        "model": {
            "kind": "galerkin_nse_2d",
            "truncation": 4,
            "forcing": [
                {"mode": [1, 0], "amplitude": 0.08, "part": "cos"},
                {"mode": [0, 1], "amplitude": 0.06, "part": "sin"},
            ],
        },
        "ensemble_size": 8,
        "horizon": 12.0,
        "dt": 0.02,
        "metric": "weak",
        "library": {"size": 6, "t_back": 10.0},
        "omega": {"t_transient": 10.0, "t_max": 12.0, "sample_stride": 5, "cluster_tol": 1e-3},
        "checks": [
            {"name": "energy", "gap_tol": 5e-3},
            {"name": "absorbing", "n_samples": 32, "horizon": 6.0},
            {"name": "tracking", "metric": "weak", "eps_ladder": [0.1, 0.01]},
            {"name": "quasi_invariance"},
            {"name": "maximal_invariant"},
            {"name": "compactness"},
            {"name": "point_convergence", "n_seq": 4},
        ],
    }


def _attractor_kolmogorov() -> dict:
    return {
        "model": dict(_KOLMOGOROV),
        "ensemble_size": 4,
        "horizon": 32.0,
        "dt": 0.02,
        "radius": 1.0,
        "metric": "weak",
        "save_stride": 5,
        "omega": {"t_transient": 24.0, "t_max": 32.0, "sample_stride": 5, "cluster_tol": 5e-3},
    }


def _trajattr_kolmogorov() -> dict:
    # The attraction report costs members x library members, integration
    # members + library members: a short library back-integration (t_back
    # 10) keeps the report, not advect, the largest layer.
    return {
        "model": dict(_KOLMOGOROV),
        "ensemble_size": 16,
        "horizon": 10.0,
        "dt": 0.02,
        "radius": 1.0,
        "save_stride": 5,
        "library": {"size": 8, "t_back": 10.0},
        "omega": {"cluster_tol": 1e-3},
    }


# name -> (subcommand, config builder, dominant layer)
WORKLOADS = {
    "simulate-nse3d": ("simulate", _simulate_nse3d, "spectral"),
    "verify-nse2d": ("verify", _verify_nse2d, "spectral"),
    "attractor-kolmogorov": ("attractor", _attractor_kolmogorov, "metrics"),
    "trajattr-kolmogorov": ("trajectory-attractor", _trajattr_kolmogorov, "trajectory_space"),
}


def workload_seed(seed: int) -> int:
    return SEEDS[seed % len(SEEDS)]


def make_config(name: str, seed: int) -> dict:
    """The config the CLI runs for workload `name` at workload seed `seed`."""
    cfg = WORKLOADS[name][1]()
    cfg["seed"] = seed
    cfg["output_dir"] = "out"
    return cfg
