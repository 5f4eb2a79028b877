"""Time integration and operations on ensembles of trajectories.

The stepper is a classical fourth-order Runge-Kutta scheme with an
integrating-factor treatment of the diagonal dissipative term: the stiff
linear decay is applied through exact exponentials, so pure-decay dynamics
(the toy model, or unforced high modes) are integrated exactly and the step
limit comes only from the nonlinear transfer. All evaluation is vectorized
over ensemble members with a fixed reduction order and never mixes rows.

There is one stepping loop. integrate_pass takes every group of initial
states a run needs (each with its own start time and step count; the model
is autonomous, so a start time only labels the grid) and steps them in one
pass over batches that shrink as groups reach their last step;
build_ensemble and complete_surrogates are its one-group cases. Where fork
and two CPUs are usable (no setting), the pass is split by ensemble, not by
row: one forked child steps a contiguous block of the first group's
members, sized to balance member-steps, and this process steps every other
row; each side computes the energy ledger rows a group keeps for the members
it stepped. The child can go on to work on its own members (the CLI formats
their part of trajectories.csv there) while this process carries on. Split or
not, fused, batched and single integration give bit-identical members. A
surrogate library keeps only its samples on [0, horizon], so it starts at
t = 0, and the checks that read a library reject one that starts elsewhere.
A blow-up is reported by its NonFiniteState alone, with no numpy warning
first. A single trajectory is a one-member Ensemble; translation and
restriction act on all members at once and return views of the same array.
"""
from __future__ import annotations

import math
import mmap
import os
import warnings
from typing import NamedTuple

import numpy as np

from .errors import EmptyWindow, GridMismatch, NonFiniteState, StepMismatch
from .models import EnergyLedger, ModelSpec, ledger_rows, linear_rates, nonlinear_pass, spec_dim
from .state import Ensemble, frozen_view, span_steps


class Group(NamedTuple):
    """A stack of initial states (B, dim) to integrate over n_steps steps of dt.

    The pass keeps sample k for k >= skip, and the first kept sample sits at
    t0. With norms set, it keeps only the strong norm of each such sample,
    (B, n_steps - skip + 1), instead of the samples themselves. With ledger
    set (not with norms), it also keeps their ledger rows (see integrate_pass).
    """

    initials: np.ndarray
    t0: float
    dt: float
    n_steps: int
    norms: bool = False
    skip: int = 0
    ledger: bool = False


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
    (start, stop, skip, out) for consecutive row ranges of one step count;
    out receives sample k >= skip of its rows at out[:, k - skip] (see _store).
    A batch that overflows raises NonFiniteState at that step, with no
    numpy warning first. Every stage calls one evaluator bound for this path.
    """
    rates = linear_rates(spec)
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half
    sixth = dt / 6.0

    def store(k: int, u: np.ndarray) -> None:
        for start, stop, skip, out in sinks:
            if stop <= len(u) and k >= skip:
                _store(out, k - skip, u[start:stop])

    u, nonlinear = nonlinear_pass(spec, u0)
    store(0, u)
    live = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(int(n_steps[0]) if live else 0):
            while n_steps[live - 1] <= k:
                live -= 1
            u = u[:live]
            n1 = nonlinear(u)
            ua = e_half * (u + (dt / 2.0) * n1)
            n2 = nonlinear(ua)
            ub = e_half * u + (dt / 2.0) * n2
            n3 = nonlinear(ub)
            eu = e_full * u
            uc = eu + dt * (e_half * n3)
            n4 = nonlinear(uc)
            u = eu + sixth * (e_full * n1 + 2.0 * (e_half * (n2 + n3)) + n4)
            if not np.isfinite(u).all():
                raise NonFiniteState(f"integration blew up at step {k + 1}")
            store(k + 1, u)


def _step(spec: ModelSpec, parts, dt: float) -> None:
    """Step parts (initials, n_steps, skip, out, ledger) as one batch by descending n_steps,
    then fill each given (3, B, samples) ledger; an error there carries stage "ledger"."""
    parts = sorted((p for p in parts if len(p[0])), key=lambda p: -p[1])
    if not parts:
        return
    sizes = [len(p[0]) for p in parts]
    ends = np.cumsum(sizes)
    sinks = [(e - size, e, skip, out) for (_, _, skip, out, _), size, e in zip(parts, sizes, ends)]
    u0 = np.concatenate([p[0] for p in parts])
    _ifrk4_path(spec, u0, np.repeat([p[1] for p in parts], sizes), dt, sinks)
    for *_, out, led in parts:
        if led is not None:
            try:
                ledger_rows(spec, out, led)
            except Exception as exc:
                exc.stage = "ledger"
                raise


def _can_fork() -> bool:
    """A pass forks where os.fork exists and this process may use two CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return hasattr(os, "fork") and (cpus or 1) >= 2


def _shared_empty(shape: tuple) -> np.ndarray:
    """An uninitialised float array in an anonymous mapping that a forked child shares;
    MemoryError, naming the shape, if the mapping cannot be made."""
    size = math.prod(shape)
    try:
        buf = mmap.mmap(-1, max(8 * size, 1))
    except OSError as exc:
        raise MemoryError(f"cannot map a shared float array of shape {shape}: {exc.strerror}")
    except OverflowError:  # a size past what mmap can take
        raise MemoryError(f"cannot map a shared float array of shape {shape}: too large")
    return np.frombuffer(buf, float, count=size).reshape(shape)


class Tail(NamedTuple):
    """The forked child of a pass: its pid, the first group's members it steps,
    and the read end of the pipe it writes one byte to once their rows are stored."""

    pid: int
    members: range
    fd: int

    def join(self, finished: bool = True) -> bool:
        """Reap the child, killed first unless finished; True if it exited with status 0."""
        if not finished:
            os.kill(self.pid, 9)  # SIGKILL; POSIX fixes its number, and importing signal costs 1 ms
        os.close(self.fd)
        return os.waitpid(self.pid, 0)[1] == 0


def _fork_rows(model: ModelSpec, part, dt: float, members: range, then) -> Tail | None:
    """The Tail of a forked child that steps part, writes its byte and calls then().

    None if no pipe or process is to be had. The child leaves only through
    os._exit (0 if then returned), and any warning fails it.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork when threads exist (OpenBLAS starts some). Safe
        # here: the child's one BLAS call is models.ledger_rows's u @ g, and numpy's
        # OpenBLAS (pthreads, not OpenMP) stops its pool in a pthread_atfork handler
        # before each fork, so the child inherits no pool lock; it leaves by os._exit.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            pid = None
    if pid == 0:
        code = 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                os.close(r)
                _step(model, [part], dt)
                os.write(w, b"\1")
                os.close(w)
                if then is not None:
                    then()
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    if pid is None:
        os.close(r)
        return None
    return Tail(pid, members, r)


def _split(groups) -> int:
    """h: a forked child steps members [h, n) of the first group, this process the rest.

    With S the first group's step count and W the other groups' member-steps,
    h = ceil((n S - W) / (2 S)) balances the two sides' member-steps, clipped
    to [0, n // 2]. h = n means no fork, as when either side would be empty.
    """
    n, s = len(groups[0].initials), groups[0].n_steps
    w = sum(len(g.initials) * g.n_steps for g in groups[1:])
    h = min(n // 2, max(0, -((w - n * s) // (2 * s)))) if s else n
    return h if h < n and h * s + w > 0 and _can_fork() else n


def _block(initials, n_steps, skip, out, led, rows: slice):
    """The members rows of the part (initials, n_steps, skip, out, led)."""
    return initials[rows], n_steps, skip, out[rows], None if led is None else led[:, rows]


def _path(g: Group, out: np.ndarray, model: ModelSpec, led=None):
    ens = out if g.norms else frozen_view(Ensemble, samples=out, t0=g.t0, dt=g.dt, model=model)
    return ens if led is None else (ens, EnergyLedger(ens.times, *led))


def integrate_pass(model: ModelSpec, groups, then=None) -> tuple[list, Tail | None]:
    """Integrate every group in one pass: (each group's Ensemble or norms, tail).

    The pass forks at most once (see _split): the child steps members [h, n)
    of the first group and this process every other row, each side as one
    batch by descending step count that shrinks as rows finish. Rows never
    mix, so every member has the same bits as in its own pass. If the child
    fails before its byte, this process steps its rows too; if this
    process's rows fail, the child is killed and every row runs again here,
    so errors read as in one process. Each side fills the ledger rows of the
    members it stepped, the child before its byte, so neither process reads
    the other's samples for them. Given then, the child goes on to call
    then(the first group's ensemble, range(h, n)), which may read only those
    members, and tail is its Tail for the caller to join; else tail is None.
    Each group's samples (or, for a norms group, norms) are one read-only
    array; a ledger group's path is (its Ensemble, its EnergyLedger).
    """
    if not groups:
        return [], None
    dt = groups[0].dt
    if any(g.dt != dt for g in groups):
        raise GridMismatch("the groups of one pass need one dt")
    outs = [
        _shared_empty(
            (len(g.initials), g.n_steps - g.skip + 1) + (() if g.norms else g.initials.shape[1:])
        )
        for g in groups
    ]
    leds = [_shared_empty((3,) + o.shape[:2]) if g.ledger else None for g, o in zip(groups, outs)]
    parts = [(g.initials, g.n_steps, g.skip, out, led) for g, out, led in zip(groups, outs, leds)]
    first, n, h = groups[0], len(groups[0].initials), _split(groups)
    ours, theirs = [_block(*parts[0], slice(h))] + parts[1:], _block(*parts[0], slice(h, n))
    after = None if then is None else lambda: then(_path(first, outs[0], model), range(h, n))
    child = _fork_rows(model, theirs, dt, range(h, n), after) if h < n else None
    tail, rows = None, parts  # rows: what this process steps last (all of them without a child)
    try:
        if child is not None:
            try:
                _step(model, ours, dt)
                rows = [] if os.read(child.fd, 1) == b"\1" else [theirs]  # EOF: it died first
            except Exception:  # every row again here, so errors read as in one process
                pass
            if not rows and then is not None:
                tail = child
            else:
                child.join(rows is not parts)
            child = None
        _step(model, rows, dt)
    finally:
        if child is not None:  # interrupted while the child ran
            child.join(False)
    for out in outs + [led for led in leds if led is not None]:
        out.setflags(write=False)
    return [_path(g, out, model, led) for g, out, led in zip(groups, outs, leds)], tail


def build_ensemble(
    model: ModelSpec,
    initials: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> Ensemble:
    """Integrate a stack of initial coordinates into one shared-grid ensemble.

    The one-group case of integrate_pass: the integrator's (B, n+1, dim)
    output becomes the ensemble's array as it is, frozen in place rather
    than copied.
    """
    return integrate_pass(model, [make_group(model, initials, t0, t1, dt)])[0][0]


def surrogate_group(
    model: ModelSpec,
    initials: np.ndarray,
    t_back: float,
    horizon: float,
    dt: float,
) -> Group:
    """The Group of a far-past surrogate library (see complete_surrogates).

    It steps from t = -t_back to horizon and keeps only the samples on
    [0, horizon], the first at t0 = 0.
    """
    if t_back < 0:
        raise ValueError("t_back must be nonnegative")
    skip = span_steps(-t_back, 0.0, dt)  # library grid must contain t = 0
    group = make_group(model, initials, -t_back, horizon, dt)
    if group.n_steps < skip:
        raise StepMismatch(f"horizon={horizon} precedes t = 0")
    return group._replace(t0=0.0, skip=skip)


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
    stand in for restrictions of complete trajectories. Only those are kept:
    the library's t0 is 0, and the transient is stepped but never stored.
    """
    return integrate_pass(model, [surrogate_group(model, initials, t_back, horizon, dt)])[0][0]


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
