"""Time integration and reachability operations.

The stepper is a classical fourth-order Runge-Kutta scheme with an
integrating-factor treatment of the diagonal dissipative term: the stiff
linear decay is applied through exact exponentials, so pure-decay dynamics
(the toy model, or unforced high modes) are integrated exactly and the step
limit comes only from the nonlinear transfer. All evaluation is vectorized
over ensemble members with a fixed reduction order, so single and batched
integration produce bit-identical trajectories.
"""
from __future__ import annotations

import numpy as np

from .errors import NonFiniteState, StepMismatch
from .models import ModelSpec, linear_rates, nonlinear_array, spec_dim
from .state import (
    Ensemble,
    State,
    Trajectory,
    frozen_view,
    span_steps,
    window_indices,
)

__all__ = [
    "State",
    "Trajectory",
    "Ensemble",
    "integrate",
    "integrate_batch",
    "build_ensemble",
    "complete_surrogates",
    "r_map",
    "translate",
    "restrict",
]


def _ifrk4_path(spec: ModelSpec, u0: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """All grid samples for a batch of initial states (B, dim)."""
    rates = linear_rates(spec)
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half
    out = np.empty((u0.shape[0], n_steps + 1, u0.shape[1]))
    out[:, 0] = u0
    u = u0
    sixth = dt / 6.0
    for k in range(n_steps):
        n1 = nonlinear_array(spec, u)
        ua = e_half * (u + (dt / 2.0) * n1)
        n2 = nonlinear_array(spec, ua)
        ub = e_half * u + (dt / 2.0) * n2
        n3 = nonlinear_array(spec, ub)
        uc = e_full * u + dt * (e_half * n3)
        n4 = nonlinear_array(spec, uc)
        u = e_full * u + sixth * (e_full * n1 + 2.0 * (e_half * (n2 + n3)) + n4)
        if not np.all(np.isfinite(u)):
            raise NonFiniteState(f"integration blew up at step {k + 1}")
        out[:, k + 1] = u
    return out


def integrate_batch(
    model: ModelSpec,
    initials: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> np.ndarray:
    """Grid samples (B, n+1, dim) for a stack of initial coordinates."""
    initials = np.asarray(initials, dtype=float)
    if initials.ndim != 2 or initials.shape[1] != spec_dim(model):
        raise ValueError(f"initials must be (B, {spec_dim(model)})")
    if not np.all(np.isfinite(initials)):
        raise NonFiniteState("initial coordinates contain non-finite entries")
    if t1 < t0:
        raise StepMismatch(f"t1={t1} precedes t0={t0}")
    n_steps = span_steps(t0, t1, dt)
    return _ifrk4_path(model, initials, n_steps, dt)


def integrate(
    model: ModelSpec,
    initial: State | np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> Trajectory:
    """Integrate one initial state over [t0, t1] on the uniform grid."""
    coords = initial.coords if isinstance(initial, State) else np.asarray(initial, float)
    return build_ensemble(model, coords[None, :], t0, t1, dt).trajectories[0]


def build_ensemble(
    model: ModelSpec,
    initials: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
    label: str = "",
) -> Ensemble:
    """Integrate a stack of initial coordinates into one shared-grid ensemble.

    The integrator's (B, n+1, dim) output becomes the ensemble's array as it
    is, frozen in place rather than copied.
    """
    paths = integrate_batch(model, initials, t0, t1, dt)
    paths.setflags(write=False)
    return frozen_view(Ensemble, samples=paths, t0=t0, dt=dt, model=model, label=label)


def complete_surrogates(
    model: ModelSpec,
    initials: np.ndarray,
    t_back: float,
    horizon: float,
    dt: float,
) -> Ensemble:
    """Far-past surrogate library for complete trajectories.

    Members start at t = -t_back so that by t = 0 the transient from the
    seeded initial data has decayed; their restrictions to [0, horizon]
    stand in for restrictions of complete trajectories.
    """
    if t_back < 0:
        raise ValueError("t_back must be nonnegative")
    span_steps(-t_back, 0.0, dt)  # library grid must contain t = 0
    return build_ensemble(model, initials, -t_back, horizon, dt, label="surrogate-library")


def r_map(ensemble: Ensemble, t: float) -> list[State]:
    """Reachability slice: member states at grid time t >= 0.

    The ensemble stands for the trajectory family out of its initial set; the
    returned states sample R(t) of that set.
    """
    if ensemble.t0 != 0.0:
        raise ValueError("r_map expects an ensemble rebased to start at t = 0")
    if t < 0:
        raise ValueError(f"r_map needs t >= 0, got {t}")
    return ensemble.states_at(t)


def translate(traj: Trajectory, s: float) -> Trajectory:
    """Shift the time labels by s (the translation group on trajectories)."""
    return frozen_view(
        Trajectory, t0=traj.t0 + s, dt=traj.dt, samples=traj.samples, model=traj.model
    )


def restrict(traj: Trajectory, a: float, b: float) -> Trajectory:
    """Restriction to the grid window [a, b] (no resampling)."""
    ia, ib = window_indices(traj, a, b)
    return frozen_view(
        Trajectory,
        t0=traj.t0 + ia * traj.dt,
        dt=traj.dt,
        samples=traj.samples[ia : ib + 1],
        model=traj.model,
    )


def rebase_to_zero(traj: Trajectory) -> Trajectory:
    """Translate so the first sample sits at t = 0."""
    return translate(traj, -traj.t0)


def forward_ensemble(library: Ensemble, horizon: float | None = None) -> Ensemble:
    """Forward parts [0, horizon] of a surrogate library, rebased to t0 = 0."""
    end = library.t_end if horizon is None else horizon
    ia, ib = window_indices(library.trajectories[0], 0.0, end)
    return frozen_view(
        Ensemble,
        samples=library.samples[:, ia : ib + 1],
        t0=0.0,
        dt=library.dt,
        model=library.model,
        label=library.label + ":forward",
    )
