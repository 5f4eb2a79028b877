"""Model specifications and dynamics.

Three families share one coordinate convention (real vectors whose Euclidean
norm is the energy norm):

* ``galerkin_nse_2d`` / ``galerkin_nse_3d``: spectral Galerkin truncations of
  the incompressible Navier-Stokes equations on a periodic box, on the
  zero-mean solenoidal trigonometric basis (see :mod:`.spectral`),
  du/dt + nu A u + B(u, u) = g.
* ``dyadic``: the dyadic shell cascade
  da_n/dt = lam^n a_{n-1}^2 - lam^{n+1} a_n a_{n+1} - nu lam^{2n} a_n + g_n,
  shells n = 0..N with a_{-1} = a_{N+1} = 0; the nonlinear energy flux
  telescopes to zero.
* ``toy_contraction``: du/dt = -u with the exact flow e^{-t} x, used as a
  fully analyzable reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AttractorLabError, GridTooCoarse, ModelMismatch, NonFiniteState
from .spectral import ModeTable, advect, build_mode_table, self_advection
from .state import Ensemble

KINDS = ("galerkin_nse_2d", "galerkin_nse_3d", "dyadic", "toy_contraction")
NSE_KINDS = ("galerkin_nse_2d", "galerkin_nse_3d")


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description; the key string, exact in every field, identifies it."""

    kind: str
    nu: float
    L: float
    truncation: int
    lam: float
    forcing: tuple[float, ...] | None
    key: str


def model_dim(kind: str, truncation: int) -> int:
    if kind == "galerkin_nse_2d":
        return 2 * (((2 * truncation + 1) ** 2 - 1) // 2)
    if kind == "galerkin_nse_3d":
        return 4 * (((2 * truncation + 1) ** 3 - 1) // 2)
    if kind == "dyadic":
        return truncation + 1
    if kind == "toy_contraction":
        return truncation
    raise ValueError(f"unknown model kind {kind!r}")


def make_spec(
    kind: str,
    nu: float = 1.0,
    L: float = 2.0 * np.pi,
    truncation: int = 1,
    lam: float = 2.0,
    forcing: Sequence[float] | np.ndarray | None = None,
) -> ModelSpec:
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    if not (nu > 0 and np.isfinite(nu)):
        raise ValueError(f"nu must be positive and finite, got {nu}")
    if not (L > 0 and np.isfinite(L)):
        raise ValueError(f"L must be positive and finite, got {L}")
    if truncation < 1 or truncation != int(truncation):
        raise ValueError(f"truncation must be an integer >= 1, got {truncation}")
    if kind == "dyadic" and not (lam > 1 and np.isfinite(lam)):
        raise ValueError(f"dyadic lam must exceed 1, got {lam}")
    # the largest decay rate must be a finite float
    top, rate = 1.0, ""
    with np.errstate(over="ignore"):
        if kind == "dyadic":
            top = nu * np.float64(lam) ** (2.0 * truncation)
            rate = f"nu lam^(2N) at nu={nu}, lam={lam}, N={truncation}"
        elif kind in NSE_KINDS:
            d = 3 if kind == "galerkin_nse_3d" else 2
            top = nu * (2.0 * np.pi * truncation / np.float64(L)) ** 2 * d
            rate = f"nu (2 pi N / L)^2 d at nu={nu}, L={L}, N={truncation}, d={d}"
    if not np.isfinite(top):
        raise ValueError(f"the largest linear rate {rate} is not a finite float")
    dim = model_dim(kind, int(truncation))
    g_tuple: tuple[float, ...] | None = None
    if forcing is not None:
        g = np.asarray(forcing, dtype=float)
        if g.shape != (dim,):
            raise ValueError(f"forcing must have shape ({dim},), got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteState("forcing contains non-finite entries")
        if np.any(g != 0.0):
            if kind == "toy_contraction":
                raise ValueError("toy_contraction supports zero forcing only")
            g_tuple = tuple(float(x) for x in g)
    g_hex = np.asarray(g_tuple, dtype=float).tobytes().hex() if g_tuple is not None else "0"
    key = (
        f"{kind}|nu={nu:.17g}|L={L:.17g}|N={int(truncation)}"
        f"|lam={lam:.17g}|g={g_hex}"
    )
    return ModelSpec(
        kind=kind,
        nu=float(nu),
        L=float(L),
        truncation=int(truncation),
        lam=float(lam),
        forcing=g_tuple,
        key=key,
    )


# ---------------------------------------------------------------------------
# cached per-spec arrays

# (d, L, N) -> mode table, and (spec key, name) -> read-only array
_MEMO: dict[tuple, ModeTable | np.ndarray] = {}


def _memo(key: tuple, build):
    value = _MEMO.get(key)
    if value is None:
        value = _MEMO[key] = build()
    return value


def _cached_table(kind: str, L: float, truncation: int) -> ModeTable:
    key = (2 if kind == "galerkin_nse_2d" else 3, float(L), int(truncation))
    return _memo(key, lambda: build_mode_table(*key))


def mode_table(spec: ModelSpec) -> ModeTable:
    if spec.kind not in NSE_KINDS:
        raise ModelMismatch(f"{spec.kind} has no Fourier mode table")
    return _cached_table(spec.kind, spec.L, spec.truncation)


def _cached(spec: ModelSpec, name: str, build) -> np.ndarray:
    def frozen() -> np.ndarray:
        arr = build()
        arr.setflags(write=False)
        return arr

    return _memo((spec.key, name), frozen)


def spec_dim(spec: ModelSpec) -> int:
    return model_dim(spec.kind, spec.truncation)


def stokes_eigenvalues(spec: ModelSpec) -> np.ndarray:
    """Per-coordinate eigenvalues of the dissipative operator A.

    NSE: (2 pi |kappa|_2 / L)^2 repeated over each mode's coordinates;
    dyadic: lam^{2n}; toy: 1.
    """

    def build() -> np.ndarray:
        if spec.kind in NSE_KINDS:
            table = mode_table(spec)
            return np.repeat(table.stokes, table.group_size)
        if spec.kind == "dyadic":
            n = np.arange(spec.truncation + 1, dtype=float)
            return spec.lam ** (2.0 * n)
        return np.ones(spec.truncation)

    return _cached(spec, "stokes", build)


def weak_weights(spec: ModelSpec) -> tuple[np.ndarray, int]:
    """Per-group weights 2^-|kappa|_1 (NSE) or 2^-n, and the group size."""
    if spec.kind in NSE_KINDS:
        table = mode_table(spec)
        return _cached(spec, "wweights", lambda: 2.0 ** (-table.l1.astype(float))), table.group_size
    dim = spec_dim(spec)
    return _cached(spec, "wweights", lambda: 2.0 ** (-np.arange(dim, dtype=float))), 1


def forcing_array(spec: ModelSpec) -> np.ndarray:
    def build() -> np.ndarray:
        if spec.forcing is None:
            return np.zeros(spec_dim(spec))
        return np.asarray(spec.forcing, dtype=float)

    return _cached(spec, "forcing", build)


def linear_rates(spec: ModelSpec) -> np.ndarray:
    """Decay rates of the diagonal linear term (nu A; the toy uses rate 1)."""

    def build() -> np.ndarray:
        if spec.kind == "toy_contraction":
            return np.ones(spec.truncation)
        return spec.nu * stokes_eigenvalues(spec)

    return _cached(spec, "rates", build)


# ---------------------------------------------------------------------------
# dynamics (array level)


def _check_operand(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1] != spec_dim(spec):
        raise ModelMismatch(
            f"coords dim {u.shape[-1]} does not match model dim {spec_dim(spec)}"
        )
    if not np.isfinite(u).all():
        raise NonFiniteState("operand contains non-finite entries")
    return u


def nonlinear_array(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    """Everything except the diagonal linear decay: forcing plus transfer, by one
    call of nonlinear_pass's evaluator on u viewed as (rows, dim)."""
    u = _check_operand(spec, u)
    rows, f = nonlinear_pass(spec, u.reshape(-1, u.shape[-1]))
    return f(rows).reshape(u.shape)


def nonlinear_pass(spec: ModelSpec, u0: np.ndarray):
    """(u0 checked once, as a C-contiguous float array; f) for one integration pass:
    f(u) is forcing plus transfer, or NonFiniteState for a non-finite u, for C-contiguous
    float (n, dim) u, n <= len(u0). Forcing, table, shell rates and buffers are bound here."""
    u0 = np.ascontiguousarray(_check_operand(spec, u0))
    g = forcing_array(spec)
    if spec.kind in NSE_KINDS:
        b = self_advection(mode_table(spec), u0.shape[0])

        def transfer(u: np.ndarray) -> np.ndarray:
            r = b(u)
            return np.subtract(g, r, out=r)  # g - B(u, u)

    elif spec.kind == "dyadic":
        lam_n = spec.lam ** np.arange(spec.truncation + 1, dtype=float)
        lam_n1, zero = spec.lam * lam_n, np.zeros((len(u0), 1))  # a_{-1} = a_{N+1} = 0

        def transfer(a: np.ndarray) -> np.ndarray:
            prev = np.concatenate((zero[: len(a)], a[:, :-1]), axis=1)
            nxt = np.concatenate((a[:, 1:], zero[: len(a)]), axis=1)
            return g + (lam_n * prev**2 - lam_n1 * a * nxt)

    else:
        transfer = np.zeros_like  # the toy's nonlinear part is zero

    def f(u: np.ndarray) -> np.ndarray:
        if not np.isfinite(u).all():
            raise NonFiniteState("operand contains non-finite entries")
        return transfer(u)

    return u0, f


def rhs_array(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    u = _check_operand(spec, u)
    return nonlinear_array(spec, u) - linear_rates(spec) * u


def enstrophy(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    """Squared dissipation norm ||u||^2 = (A u, u)."""
    u = _check_operand(spec, u)
    sq = u * u
    sq *= stokes_eigenvalues(spec)
    return sq.sum(axis=-1)


# ---------------------------------------------------------------------------
# absorbing ball and forcing construction


# relative margin of the absorbing and default radii over their bounds
_RADIUS_MARGIN = 0.1


def absorbing_radius(spec: ModelSpec) -> float:
    """Radius 1.1 |g| L / (2 pi nu) of the absorbing energy ball.

    Zero forcing degenerates to radius 0 (the attractor is the origin);
    callers pick an explicit ball in that case.
    """
    if spec.kind not in NSE_KINDS:
        raise ModelMismatch(f"absorbing_radius applies to Galerkin NSE, not {spec.kind}")
    g_norm = float(np.linalg.norm(forcing_array(spec)))
    return (1.0 + _RADIUS_MARGIN) * g_norm * spec.L / (2.0 * np.pi * spec.nu)


def default_radius(spec: ModelSpec) -> float:
    """Phase-space radius used when a config leaves it unset."""
    if spec.kind in NSE_KINDS:
        r = absorbing_radius(spec)
        return r if r > 0 else 1.0
    if spec.kind == "dyadic":
        g_norm = float(np.linalg.norm(forcing_array(spec)))
        r = (1.0 + _RADIUS_MARGIN) * g_norm / spec.nu
        return r if r > 0 else 1.0
    return 1.0


def nse_forcing(
    kind: str,
    L: float,
    truncation: int,
    entries: Sequence[dict],
) -> np.ndarray:
    """Forcing coordinates from the config's {"mode", "amplitude"} entries.

    Each entry places the amplitude on the cos coefficient of the first
    tangent direction of its (lexicographically positive) mode; an entry may
    override ``component`` (tangent index) and ``part`` ("cos"/"sin").
    """
    if kind not in NSE_KINDS:
        raise ValueError(f"nse_forcing applies to Galerkin NSE, not {kind}")
    table = _cached_table(kind, L, truncation)
    g = np.zeros(table.dim)
    lookup = {tuple(k): i for i, k in enumerate(table.kappa_half)}
    for entry in entries:
        mode = tuple(int(c) for c in entry["mode"])
        amp = float(entry["amplitude"])
        comp = int(entry.get("component", 0))
        part = str(entry.get("part", "cos"))
        if mode not in lookup:
            raise ValueError(
                f"mode {mode} is not a retained lexicographically-positive mode"
            )
        if comp < 0 or comp >= table.n_tan:
            raise ValueError(f"component {comp} out of range for {kind}")
        if part not in ("cos", "sin"):
            raise ValueError(f"part must be 'cos' or 'sin', got {part!r}")
        idx = lookup[mode] * table.group_size + 2 * comp + (0 if part == "cos" else 1)
        g[idx] += amp
    return g


def dyadic_forcing(truncation: int, entries: Sequence[dict]) -> np.ndarray:
    """Shell forcing from the config's {"shell", "amplitude"} entries."""
    g = np.zeros(truncation + 1)
    for entry in entries:
        shell, amp = int(entry["shell"]), float(entry["amplitude"])
        if shell < 0 or shell > truncation:
            raise ValueError(f"shell {shell} outside 0..{truncation}")
        g[shell] += amp
    return g


# ---------------------------------------------------------------------------
# steady states (damped Newton, exact Jacobians)


def rhs_jacobian(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    """Exact Jacobian of rhs_array at u."""
    u = _check_operand(spec, u)
    dim = spec_dim(spec)
    if spec.kind == "toy_contraction":
        return -np.eye(dim)
    if spec.kind == "dyadic":
        n = np.arange(dim, dtype=float)
        lam_n = spec.lam ** n
        jac = np.zeros((dim, dim))
        diag = -spec.lam * lam_n * np.concatenate([u[1:], [0.0]])
        jac[np.arange(dim), np.arange(dim)] = diag - linear_rates(spec)
        rows = np.arange(1, dim)
        jac[rows, rows - 1] += 2.0 * lam_n[1:] * u[:-1]
        jac[rows - 1, rows] += -spec.lam * lam_n[:-1] * u[:-1]
        return jac
    table, eye = mode_table(spec), np.eye(dim)
    return -np.diag(linear_rates(spec)) - (advect(table, u, eye) + advect(table, eye, u)).T


def steady_state(spec: ModelSpec) -> np.ndarray:
    """Zero of the right-hand side via damped Newton from rest.

    At most 80 Newton steps, to a residual norm of at most 1e-12.
    """
    tol = 1e-12
    u = np.zeros(spec_dim(spec))
    res = rhs_array(spec, u)
    res_norm = float(np.linalg.norm(res))
    for _ in range(80):
        if res_norm <= tol:
            return u
        step = np.linalg.solve(rhs_jacobian(spec, u), -res)
        alpha = 1.0
        while alpha >= 1e-4:
            cand = u + alpha * step
            cand_res = rhs_array(spec, cand)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm <= (1.0 - 1e-4 * alpha) * res_norm:
                break
            alpha *= 0.5
        else:
            raise AttractorLabError(
                f"Newton line search found no decrease below step 1e-4 "
                f"at residual {res_norm:.3e} (target {tol:.1e})"
            )
        u, res, res_norm = cand, cand_res, cand_norm
    if res_norm <= tol:
        return u
    raise AttractorLabError(
        f"Newton stalled at residual {res_norm:.3e} (target {tol:.1e})"
    )


# ---------------------------------------------------------------------------
# phase-space sampling


def sample_ball(
    spec: ModelSpec,
    n: int,
    radius: float,
    seed: int,
    boundary: bool = False,
    profile: np.ndarray | None = None,
) -> np.ndarray:
    """Seeded sample of n points: uniform sphere directions, power-rule radii.

    ``boundary=True`` pins every radius to the sphere; ``profile`` rescales
    direction components before normalization (used for smooth initial data).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    dim = spec_dim(spec)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, dim))
    if profile is not None:
        dirs = dirs * profile
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if boundary:
        radii = np.full(n, float(radius))
    else:
        radii = radius * rng.random(n) ** (1.0 / dim)
    return dirs * radii[:, None]


def smooth_profile(spec: ModelSpec) -> np.ndarray:
    """Per-coordinate damping (1 + A-eigenvalue)^-1 for smooth samples."""
    return (1.0 + stokes_eigenvalues(spec)) ** -1.0


# ---------------------------------------------------------------------------
# energy ledger and hypothesis checks


@dataclass(frozen=True, eq=False)
class EnergyLedger:
    """Grid samples of |u|^2, ||u||^2, and the forcing work (g, u)."""

    times: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    work: np.ndarray


@dataclass(frozen=True)
class EnergyReport:
    holds: bool
    worst_delta: float
    delta_used: float
    eps: float


def ledger_rows(spec: ModelSpec, u: np.ndarray, out: np.ndarray) -> None:
    """Energy, enstrophy and work of members u (b, n_samples, dim) into out (3, b, n_samples);
    any contiguous block of an ensemble's members gets the bits of the whole."""
    # member by member: a whole-ensemble square would set a verify run's peak memory
    for m, um in enumerate(u):
        out[0, m] = (um * um).sum(axis=-1)
        out[1, m] = enstrophy(spec, um)
    out[2] = u @ forcing_array(spec)


def energy_ledger(spec: ModelSpec, ens: Ensemble) -> EnergyLedger:
    """Ledger of every member: energy, enstrophy and work are (n_members, n_samples)."""
    if ens.model.key != spec.key:
        raise ModelMismatch("trajectory does not belong to this model")
    rows = np.empty((3,) + ens.samples.shape[:-1])
    ledger_rows(spec, ens.samples, rows)
    return EnergyLedger(ens.times, *rows)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running composite-Simpson integral of equally spaced samples, from 0.

    The arithmetic of scipy.integrate.cumulative_simpson(y, dx=dx,
    initial=0.0), operation for operation, so the results are the same bits:
    each step's integral comes from the quadratic through three samples,
    taken forward for even steps and on the reversed samples for odd steps
    and the last one, then summed in order. Fewer than three samples fall
    back to the trapezoid rule. Integrates along the last axis.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 3:
        steps = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:

        def sub(f):
            return dx / 3 * (5 * f[..., :-2] / 4 + 2 * f[..., 1:-1] - f[..., 2:] / 4)

        fwd, bwd = sub(y), sub(y[..., ::-1])[..., ::-1]
        steps = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
        steps[..., :-1:2] = fwd[..., ::2]
        steps[..., 1::2] = bwd[..., ::2]
        steps[..., -1] = bwd[..., -1]
    # + 0.0 as scipy adds `initial`, which turns -0.0 into 0.0
    zero = np.zeros(y.shape[:-1] + (1,))
    return np.concatenate((zero, np.cumsum(steps, axis=-1) + 0.0), axis=-1)


def energy_identity_gap(spec: ModelSpec, ledger: EnergyLedger) -> np.ndarray:
    """Peak-to-peak defect of |u|^2 + 2 nu int ||u||^2 - 2 int (g, u), per member.

    The bracket is conserved exactly along Galerkin solutions, so its spread
    measures the combined integrator and quadrature error.
    """
    dt = float(ledger.times[1] - ledger.times[0]) if len(ledger.times) > 1 else 1.0
    diss = _cumulative_simpson(ledger.enstrophy, dt)
    work = _cumulative_simpson(ledger.work, dt)
    q = ledger.energy + 2.0 * spec.nu * diss - 2.0 * work
    return q.max(axis=-1) - q.min(axis=-1)


def check_energy_inequality(
    ens: Ensemble, ledger: EnergyLedger, eps: float, radius: float
) -> EnergyReport:
    """Pointwise energy estimate |u(t)|^2 <= |u(t0)|^2 + eps for a recent t0.

    The look-back width delta = eps / (2 |g| R) bounds the energy gain
    2 int (g, u) <= 2 |g| R delta inside the absorbing ball of radius R,
    which is the inequality the width certifies (the plain-norm variant
    fails for R < 1/2 with the same delta). Zero forcing admits the whole
    past. Requires at least one interior grid point per window
    (GridTooCoarse otherwise). The report holds when every member holds;
    worst_delta is the worst over members.
    """
    spec = ens.model
    energy = ledger.energy
    g_norm = float(np.linalg.norm(forcing_array(spec)))
    r = float(radius)
    if g_norm * r > 0:
        delta = eps / (2.0 * g_norm * r)
    else:
        delta = float(ens.t_end - ens.t0) + ens.dt
    lookback = int(np.ceil(delta / ens.dt - 1e-12)) - 1
    if lookback < 1:
        raise GridTooCoarse(
            f"window delta={delta:.3e} holds no interior grid point at dt={ens.dt}"
        )
    # window k holds energy[..., max(0, k - lookback) : k], padded with -inf
    pad = np.full(energy.shape[:-1] + (lookback,), -np.inf)
    past = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((pad, energy[..., :-1]), axis=-1), lookback, axis=-1
    )[..., 1:, :]
    worst = float((energy[..., 1:] - past.max(axis=-1) - eps).max(initial=-np.inf))
    return EnergyReport(
        holds=bool(worst <= 0.0),
        worst_delta=worst,
        delta_used=float(delta),
        eps=float(eps),
    )
