"""Time integration and operations on ensembles of trajectories.

The stepper is a classical fourth-order Runge-Kutta scheme with an
integrating-factor treatment of the diagonal dissipative term: the stiff
linear decay is applied through exact exponentials, so pure-decay dynamics
(the toy model, or unforced high modes) are integrated exactly and the step
limit comes only from the nonlinear transfer. All evaluation is vectorized
over ensemble members with a fixed reduction order and never mixes rows.

There is one stepping loop. integrate_groups takes every group of initial
states a run needs (each with its own start time and step count; the model
is autonomous, so a start time only labels the grid), stacks them by
descending step count and steps them in one pass over a batch that shrinks
as groups reach their last step. build_ensemble is its one-group case.
Two lanes, this process and a forked child (fork_lane and join_lane, which
the CLI's trajectory writer also uses), share the rows round-robin where
fork and two CPUs are usable (no setting). In one lane or two, fused, batched
and single integration give bit-identical members. A single trajectory is a
one-member Ensemble; translation, restriction and rebasing act on all
members at once and return views of the same array.
"""
from __future__ import annotations

import mmap
import os
import warnings
from typing import NamedTuple

import numpy as np

from .errors import EmptyWindow, GridMismatch, NonFiniteState, StepMismatch
from .models import ModelSpec, linear_rates, nonlinear_array, release_workspace, spec_dim
from .state import Ensemble, frozen_view, span_steps

__all__ = [
    "Ensemble",
    "Group",
    "make_group",
    "surrogate_group",
    "integrate_groups",
    "integrate",
    "build_ensemble",
    "complete_surrogates",
    "translate",
    "restrict",
]


class Group(NamedTuple):
    """A stack of initial states (B, dim) to integrate from t0 over n_steps steps of dt.

    With norms set, the pass keeps only the strong norm of each sample,
    (B, n_steps + 1), instead of the samples themselves.
    """

    initials: np.ndarray
    t0: float
    dt: float
    n_steps: int
    norms: bool = False


def make_group(
    model: ModelSpec,
    initials: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
    norms: bool = False,
) -> Group:
    """A Group of finite (B, dim) initials over the grid span [t0, t1]."""
    initials = np.asarray(initials, dtype=float)
    if initials.ndim != 2 or initials.shape[1] != spec_dim(model):
        raise ValueError(f"initials must be (B, {spec_dim(model)})")
    if not np.all(np.isfinite(initials)):
        raise NonFiniteState("initial coordinates contain non-finite entries")
    if t1 < t0:
        raise StepMismatch(f"t1={t1} precedes t0={t0}")
    return Group(initials, t0, dt, span_steps(t0, t1, dt), norms)


def _store(out: np.ndarray, k: int, rows: np.ndarray) -> None:
    if out.ndim == 3:
        out[:, k] = rows
    else:
        out[:, k] = np.linalg.norm(rows, axis=1)


def _ifrk4_path(spec: ModelSpec, u0: np.ndarray, n_steps: np.ndarray, dt: float, sinks) -> None:
    """Step initial states (B, dim) whose step counts n_steps descend.

    Row i takes n_steps[i] steps. Each step advances only the prefix of rows
    that still step, so the batch shrinks as rows finish. sinks lists
    (start, stop, out) for consecutive row ranges of one step count; out
    receives sample k of its rows at out[:, k] (see _store).
    """
    rates = linear_rates(spec)
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half
    sixth = dt / 6.0
    for start, stop, out in sinks:
        _store(out, 0, u0[start:stop])
    u = u0
    live = u0.shape[0]
    for k in range(int(n_steps[0]) if live else 0):
        while n_steps[live - 1] <= k:
            live -= 1
        u = u[:live]
        n1 = nonlinear_array(spec, u)
        ua = e_half * (u + (dt / 2.0) * n1)
        n2 = nonlinear_array(spec, ua)
        ub = e_half * u + (dt / 2.0) * n2
        n3 = nonlinear_array(spec, ub)
        uc = e_full * u + dt * (e_half * n3)
        n4 = nonlinear_array(spec, uc)
        u = e_full * u + sixth * (e_full * n1 + 2.0 * (e_half * (n2 + n3)) + n4)
        if not np.isfinite(u).all():
            raise NonFiniteState(f"integration blew up at step {k + 1}")
        for start, stop, out in sinks:
            if stop <= live:
                _store(out, k + 1, u[start:stop])


def _lane_count(rows: int) -> int:
    """Processes for a pass over rows: at most 2, one per usable CPU, 1 without fork."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1, rows) if hasattr(os, "fork") else 1


def _shared_empty(shape: tuple) -> np.ndarray:
    """An uninitialised float array in an anonymous mapping that a forked child shares."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(8 * size, 1)), float, count=size).reshape(shape)


def _lane_path(spec: ModelSpec, u0, n_steps, dt: float, sinks, k: int) -> None:
    """_ifrk4_path over rows k, k + 2, ... of a pass, each sink cut to its strided rows."""
    cut = [((a - k + 1) // 2, (b - k + 1) // 2, out[(a + k) % 2 :: 2]) for a, b, out in sinks]
    _ifrk4_path(spec, u0[k::2], n_steps[k::2], dt, cut)


def fork_lane(work, rows: int) -> int | None:
    """The pid of a forked child running work(), or None for one lane.

    _lane_count(rows) decides; a failed fork also means one lane. The child
    leaves only through os._exit (0 if work returned), and any warning fails it.
    """
    if _lane_count(rows) < 2:
        return None
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork when threads exist (OpenBLAS starts some). Safe
        # here: the child runs no BLAS, so it needs none of their locks, then os._exit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:  # no process to spare: one lane
            return None
    if pid == 0:
        code = 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                work()
            code = 0
        finally:
            os._exit(code)
    return pid


def join_lane(pid: int, finished: bool) -> bool:
    """Reap the child pid, killed first unless finished; True if it exited with status 0."""
    if not finished:
        os.kill(pid, 9)  # SIGKILL; POSIX fixes its number, and importing signal costs 1 ms
    return os.waitpid(pid, 0)[1] == 0


def integrate_groups(model: ModelSpec, groups) -> list:
    """Integrate every group in one pass; each group's Ensemble, or its norms.

    The groups' initials are stacked by descending step count and stepped as
    one batch that shrinks as groups reach their last step. Each group's
    samples go into its own read-only array, which becomes its Ensemble as
    it is; a norms group gets its read-only (B, n_steps + 1) norms instead.
    Rows never mix, so every member has the same bits as in its own pass.
    If either of two lanes fails, the pass reruns here as one lane.
    """
    if not groups:
        return []
    dt = groups[0].dt
    if any(g.dt != dt for g in groups):
        raise GridMismatch("the groups of one pass need one dt")
    outs = [
        _shared_empty((len(g.initials), g.n_steps + 1) + (() if g.norms else g.initials.shape[1:]))
        for g in groups
    ]
    order = sorted(range(len(groups)), key=lambda i: -groups[i].n_steps)
    sizes = [len(groups[i].initials) for i in order]
    ends = np.cumsum(sizes)
    sinks = [(end - size, end, outs[i]) for i, size, end in zip(order, sizes, ends)]
    u0 = np.concatenate([groups[i].initials for i in order])
    n_steps = np.repeat([groups[i].n_steps for i in order], sizes)
    try:
        # lane 1 in a forked child, lane 0 here; any failure reruns the pass as one lane
        pid = fork_lane(lambda: _lane_path(model, u0, n_steps, dt, sinks, 1), len(u0))
        done = False
        if pid is not None:
            try:
                _lane_path(model, u0, n_steps, dt, sinks, 0)
                done = True
            except Exception:  # the one-lane rerun raises it again
                pass
            finally:
                done = join_lane(pid, done) and done
        if not done:
            _ifrk4_path(model, u0, n_steps, dt, sinks)
    finally:
        release_workspace(model)
    for out in outs:
        out.setflags(write=False)
    return [
        out if g.norms else frozen_view(Ensemble, samples=out, t0=g.t0, dt=dt, model=model)
        for g, out in zip(groups, outs)
    ]


def integrate(
    model: ModelSpec,
    initial: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> Ensemble:
    """Integrate one initial coordinate row over [t0, t1]: a one-member ensemble."""
    return build_ensemble(model, np.asarray(initial, float)[None, :], t0, t1, dt)


def build_ensemble(
    model: ModelSpec,
    initials: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> Ensemble:
    """Integrate a stack of initial coordinates into one shared-grid ensemble.

    The one-group case of integrate_groups: the integrator's (B, n+1, dim)
    output becomes the ensemble's array as it is, frozen in place rather
    than copied.
    """
    return integrate_groups(model, [make_group(model, initials, t0, t1, dt)])[0]


def surrogate_group(
    model: ModelSpec,
    initials: np.ndarray,
    t_back: float,
    horizon: float,
    dt: float,
) -> Group:
    """The Group of a far-past surrogate library (see complete_surrogates)."""
    if t_back < 0:
        raise ValueError("t_back must be nonnegative")
    span_steps(-t_back, 0.0, dt)  # library grid must contain t = 0
    return make_group(model, initials, -t_back, horizon, dt)


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
    return integrate_groups(model, [surrogate_group(model, initials, t_back, horizon, dt)])[0]


def translate(ens: Ensemble, s: float) -> Ensemble:
    """Shift the time labels by s (the translation group on trajectories)."""
    return frozen_view(Ensemble, samples=ens.samples, t0=ens.t0 + s, dt=ens.dt, model=ens.model)


def restrict(ens: Ensemble, a: float, b: float) -> Ensemble:
    """Restriction of every member to the grid window [a, b] (no resampling)."""
    if b < a:
        raise EmptyWindow(f"window [{a}, {b}] is empty")
    ia = ens.index_of(a)
    ib = ens.index_of(b)
    return frozen_view(
        Ensemble,
        samples=ens.samples[:, ia : ib + 1],
        t0=ens.t0 + ia * ens.dt,
        dt=ens.dt,
        model=ens.model,
    )


def rebase_to_zero(ens: Ensemble) -> Ensemble:
    """Translate so the first sample sits at t = 0."""
    return translate(ens, -ens.t0)


def forward_ensemble(library: Ensemble, horizon: float | None = None) -> Ensemble:
    """Forward parts [0, horizon] of a surrogate library, rebased to t0 = 0."""
    return rebase_to_zero(restrict(library, 0.0, library.t_end if horizon is None else horizon))
