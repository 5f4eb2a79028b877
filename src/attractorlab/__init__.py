"""Numerical laboratory for attractors of dissipative evolutionary systems.

Public surface re-exported from the submodules:

* :mod:`.core` — ensembles (a trajectory is a one-member one) and integration
* :mod:`.metrics` — strong/weak metrics on point clouds and sample windows
* :mod:`.models` — Galerkin Navier-Stokes, dyadic shell, toy contraction
* :mod:`.limits` — omega-limit sets, global attractors, compactness defects
* :mod:`.verification` — invariance, tracking, and convergence checks
* :mod:`.trajectory_space` — translation semigroup and trajectory attractors
* :mod:`.cli` — experiment runner
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    Ensemble,
    build_ensemble,
    complete_surrogates,
    restrict,
    translate,
)
from .metrics import weak_weight_total
from .models import (
    EnergyLedger,
    ModelSpec,
    absorbing_radius,
    check_energy_inequality,
    default_radius,
    dyadic_forcing,
    energy_identity_gap,
    energy_ledger,
    make_spec,
    nse_forcing,
    sample_ball,
    smooth_profile,
)
from .limits import (
    AttractionReport,
    OmegaParams,
    SetEstimate,
    asymptotic_compactness_defect,
    global_attractor,
    is_attracting,
    omega_limit,
)
from .verification import (
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    check_tracking,
    is_grid_continuous,
    tracking_ladder,
)
from .trajectory_space import (
    trajectory_attraction_report,
    trajectory_attractor,
    translate_semigroup,
    translation_invariance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
