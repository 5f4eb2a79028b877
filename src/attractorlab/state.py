"""Ensembles of trajectories on uniform time grids.

A phase-space point is a finite coordinate row of its model's dimension. An
ensemble holds uniform-grid samplings of solution curves that share a grid
in one array; a single trajectory is a one-member ensemble. Ensembles are
frozen and hold read-only arrays, so they can be shared freely between
estimators and views of them need no copy. Estimators that compare two
operands check them with one guard, _check_pair: one model, one step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyEnsemble, GridMismatch, ModelMismatch, NonFiniteState, OffGrid
from .errors import StepMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .models import ModelSpec

# Slack, in grid steps, used when snapping a time to a grid index.
GRID_TOL = 1e-6


def _frozen_array(values, ndim: int) -> np.ndarray:
    """Read-only finite copy of external input."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteState("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


def frozen_view(cls, **fields):
    """A frozen container over arrays that are already read-only and finite.

    Views of an ensemble's own array take this path: no copy
    and no re-check, where the public constructors copy external input.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def grid_index(t: float, t0: float, dt: float) -> int:
    """Snap t to an index on the grid {t0 + k dt}; OffGrid if it misses."""
    x = (t - t0) / dt
    k = int(round(x)) if np.isfinite(x) else None  # a non-finite index is off the grid
    if k is None or abs(x - k) > GRID_TOL:
        raise OffGrid(f"t={t} is not on the grid t0={t0}, dt={dt}")
    return k


def span_steps(t0: float, t1: float, dt: float) -> int:
    """Number of steps covering [t0, t1]; StepMismatch unless integral."""
    if dt <= 0 or not np.isfinite(dt):
        raise StepMismatch(f"dt must be positive and finite, got {dt}")
    x = (t1 - t0) / dt
    n = int(round(x)) if np.isfinite(x) else -1  # a non-finite step count is off the grid
    if n < 0 or abs(x - n) > GRID_TOL:
        raise StepMismatch(f"[{t0}, {t1}] is not an integer number of steps of {dt}")
    return n


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Trajectories sharing model, grid origin, step, and length.

    samples[i, k] holds member i at time t0 + k dt, in one read-only
    (n_members, n_samples, dim) array. No interpolation is ever performed:
    off-grid time queries raise OffGrid.
    """

    samples: np.ndarray
    t0: float
    dt: float
    model: "ModelSpec"

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "samples", _frozen_array(self.samples, 3))
        if self.samples.shape[0] < 1:
            raise EmptyEnsemble("ensemble has no members")
        if self.samples.shape[1] < 1:
            raise ValueError("ensemble members need at least one sample")

    @property
    def n_members(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    def index_of(self, t: float) -> int:
        k = grid_index(t, self.t0, self.dt)
        if k < 0 or k >= self.n_samples:
            raise OffGrid(f"t={t} outside trajectory span [{self.t0}, {self.t_end}]")
        return k

    def samples_at(self, t: float) -> np.ndarray:
        """Member coordinates at grid time t, (n_members, dim)."""
        return self.samples[:, self.index_of(t)]


def _check_pair(a, b) -> None:
    """The guard of every estimator that compares two operands (ensembles or
    set estimates): ModelMismatch unless both belong to one model,
    GridMismatch unless two ensembles share their step."""
    if a.model.key != b.model.key:
        raise ModelMismatch("operands belong to different models")
    if isinstance(a, Ensemble) and isinstance(b, Ensemble) and a.dt != b.dt:
        raise GridMismatch(f"operand grid steps differ: {a.dt} vs {b.dt}")


def _check_time_zero(*ensembles: Ensemble) -> None:
    """ValueError unless every ensemble starts at t = 0, as surrogate libraries
    and the families of trajectory space do."""
    for ens in ensembles:
        if ens.t0 != 0.0:
            raise ValueError(f"libraries and trajectory families must start at t = 0, got {ens.t0}")
