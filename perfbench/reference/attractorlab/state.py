"""Phase-space and trajectory data types.

States are finite coordinate vectors tied to a model; trajectories are
uniform-grid samplings of a single state curve; ensembles bundle trajectories
that share a grid. All containers are frozen and hold read-only arrays, so
they can be shared freely between estimators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    EmptyEnsemble,
    EmptyWindow,
    GridMismatch,
    NonFiniteState,
    OffGrid,
    StepMismatch,
)

if TYPE_CHECKING:  # pragma: no cover
    from .models import ModelSpec

# Relative slack used when snapping a time to a grid index.
GRID_RTOL = 1e-6


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteState("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


def grid_index(t: float, t0: float, dt: float) -> int:
    """Snap t to an index on the grid {t0 + k dt}; OffGrid if it misses."""
    x = (t - t0) / dt
    k = int(round(x))
    if abs(x - k) > GRID_RTOL * max(1.0, abs(x)):
        raise OffGrid(f"t={t} is not on the grid t0={t0}, dt={dt}")
    return k


def span_steps(t0: float, t1: float, dt: float) -> int:
    """Number of steps covering [t0, t1]; StepMismatch unless integral."""
    if dt <= 0 or not np.isfinite(dt):
        raise StepMismatch(f"dt must be positive and finite, got {dt}")
    x = (t1 - t0) / dt
    n = int(round(x))
    if n < 0 or abs(x - n) > GRID_RTOL * max(1.0, abs(x)):
        raise StepMismatch(f"[{t0}, {t1}] is not an integer number of steps of {dt}")
    return n


@dataclass(frozen=True, eq=False)
class State:
    """A point of the truncated phase space: coords plus the owning model."""

    coords: np.ndarray
    model: "ModelSpec"

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_array(self.coords, 1))

    @property
    def model_id(self) -> str:
        return self.model.key

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def norm(self) -> float:
        """Strong (L2 / Parseval) norm."""
        return float(np.linalg.norm(self.coords))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid samples of one solution curve.

    samples[k] holds the coordinates at time t0 + k dt. No interpolation is
    ever performed: off-grid time queries raise OffGrid.
    """

    t0: float
    dt: float
    samples: np.ndarray
    model: "ModelSpec"

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "samples", _frozen_array(self.samples, 2))
        if self.samples.shape[0] < 1:
            raise ValueError("trajectory needs at least one sample")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def states(self) -> list[State]:
        return [State(row, self.model) for row in self.samples]

    def index_of(self, t: float) -> int:
        k = grid_index(t, self.t0, self.dt)
        if k < 0 or k >= self.n_samples:
            raise OffGrid(
                f"t={t} outside trajectory span [{self.t0}, {self.t_end}]"
            )
        return k

    def state_at(self, t: float) -> State:
        return State(self.samples[self.index_of(t)], self.model)

    def norms(self) -> np.ndarray:
        """Strong norm at every grid time."""
        return np.linalg.norm(self.samples, axis=1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Trajectories sharing model, grid origin, step, and length."""

    trajectories: tuple[Trajectory, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if not self.trajectories:
            raise EmptyEnsemble("ensemble has no members")
        head = self.trajectories[0]
        for tr in self.trajectories[1:]:
            if (
                tr.model.key != head.model.key
                or tr.dt != head.dt
                or tr.t0 != head.t0
                or tr.n_samples != head.n_samples
            ):
                raise GridMismatch("ensemble members must share model and grid")

    @property
    def n_members(self) -> int:
        return len(self.trajectories)

    @property
    def model(self) -> "ModelSpec":
        return self.trajectories[0].model

    @property
    def t0(self) -> float:
        return self.trajectories[0].t0

    @property
    def dt(self) -> float:
        return self.trajectories[0].dt

    @property
    def t_end(self) -> float:
        return self.trajectories[0].t_end

    def samples_at(self, t: float) -> np.ndarray:
        """Member coordinates at grid time t, stacked (n_members, dim)."""
        k = self.trajectories[0].index_of(t)
        return np.stack([tr.samples[k] for tr in self.trajectories])

    def states_at(self, t: float) -> list[State]:
        return [tr.state_at(t) for tr in self.trajectories]

    def initial_states(self) -> list[State]:
        return [State(tr.samples[0], tr.model) for tr in self.trajectories]


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """Closed absorbing ball {|u| <= radius} used as the bounded phase space."""

    radius: float
    model: "ModelSpec"

    def __post_init__(self):
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError(f"phase-space radius must be positive, got {self.radius}")

    def contains(self, x: State, slack: float = 0.0) -> bool:
        return x.norm() <= self.radius + slack


def window_indices(traj: Trajectory, a: float, b: float) -> tuple[int, int]:
    """Grid index range [ia, ib] covering the window [a, b] of a trajectory."""
    if b < a:
        raise EmptyWindow(f"window [{a}, {b}] is empty")
    ia = traj.index_of(a)
    ib = traj.index_of(b)
    return ia, ib


def common_grid_offsets(
    u: Trajectory, v: Trajectory, a: float, b: float
) -> tuple[int, int, int]:
    """Start indices of [a, b] in u and v plus the shared sample count.

    Requires identical steps; each trajectory must carry the window on its own
    grid (phase alignment follows from both containing a).
    """
    if u.dt != v.dt:
        raise GridMismatch(f"trajectory steps differ: {u.dt} vs {v.dt}")
    if b < a:
        raise EmptyWindow(f"window [{a}, {b}] is empty")
    iu = u.index_of(a)
    iv = v.index_of(a)
    count = span_steps(a, b, u.dt) + 1
    if iu + count > u.n_samples or iv + count > v.n_samples:
        raise OffGrid(f"window [{a}, {b}] exceeds a trajectory span")
    return iu, iv, count
