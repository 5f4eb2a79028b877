"""Full forward scans that the verdict-first searches must agree with.

Each oracle evaluates every sampled time, front to back, and then reads the
verdict off the complete record: the definition of the report, with no
early exit. The package scans backward and stops at the deciding violation;
these scans stay slow on purpose and live only in the tests.
attraction_scan_oracle measures is_attracting's semidistance one time slice
at a time, where the package searches once per member over all its samples.
Two more oracles search the surrogate library with explicit loops over its members
and shifts, for check_quasi_invariance and tracking_error_profile. The
module also holds the tangent-scalar conversions and coords_to_modes, from which the
physical-space advection oracle of test_spectral builds its fields,
member_views, the one-member views that per-member checks compare against, and
nonlinear_oracle, each model kind's forcing plus transfer by its own formula.
steady_state is the damped-Newton reference of the steady regimes, built on
rhs_array and its exact Jacobian rhs_jacobian, and traj_set_semidist is the
one-sided weak tail-metric semidistance that translation_invariance_oracle
takes both ways.
"""
import numpy as np

from attractorlab.errors import (
    AttractorLabError,
    GridMismatch,
    HorizonTooShort,
    ModelMismatch,
)
from attractorlab.limits import AttractionReport
from attractorlab.metrics import (
    pairwise_to_set,
    strong_dist_arrays,
    tail_steps,
    window_dist,
    window_semidists,
)
from attractorlab.models import (
    NSE_KINDS,
    ModelSpec,
    _check_operand,
    forcing_array,
    linear_rates,
    mode_table,
    nonlinear_array,
    spec_dim,
)
from attractorlab.spectral import ModeTable, advect, advect_self
from attractorlab.state import Ensemble, _check_pair, _check_time_zero, frozen_view
from attractorlab.trajectory_space import (
    TranslationInvarianceRecord,
    TrajectoryAttractionReport,
    translate_semigroup,
)
from attractorlab.verification import TrackingReport, _tracking_grid, is_grid_continuous


def member_views(ens):
    """One-member views of an ensemble's own array, one per member, in order."""
    return [
        frozen_view(Ensemble, samples=row[None], t0=ens.t0, dt=ens.dt, model=ens.model)
        for row in ens.samples
    ]


def nonlinear_oracle(spec, u):
    """Forcing plus transfer of operands (..., dim) by each kind's own formula: the
    reference that models.nonlinear_array and the pass's evaluator equal bit for bit."""
    u = np.asarray(u, dtype=float)
    g = forcing_array(spec)
    if spec.kind in NSE_KINDS:
        return g - advect_self(mode_table(spec), u)
    if spec.kind == "dyadic":
        lam_n = spec.lam ** np.arange(spec.truncation + 1, dtype=float)
        prev, nxt = np.zeros_like(u), np.zeros_like(u)
        prev[..., 1:], nxt[..., :-1] = u[..., :-1], u[..., 1:]
        return g + (lam_n * prev**2 - spec.lam * lam_n * u * nxt)
    return np.zeros_like(u)


def rhs_array(spec: ModelSpec, u: np.ndarray) -> np.ndarray:
    u = _check_operand(spec, u)
    return nonlinear_array(spec, u) - linear_rates(spec) * u


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


def attraction_scan_oracle(candidate, ensemble, eps):
    """is_attracting by one nearest-point search per time slice over all members."""
    if candidate.model.key != ensemble.model.key:
        raise ModelMismatch("candidate set and ensemble belong to different models")
    idx = np.arange(ensemble.n_samples)
    times = ensemble.t0 + ensemble.dt * idx
    semi = np.empty(idx.shape[0])
    for j, k in enumerate(idx):
        semi[j] = pairwise_to_set(
            ensemble.model, ensemble.samples[:, k, :], candidate.points, candidate.metric
        ).max()
    viol = np.flatnonzero(semi >= eps)
    if viol.size == 0:
        entry_j = 0
    elif viol[-1] + 1 >= idx.shape[0]:
        entry_j = None
    else:
        entry_j = int(viol[-1] + 1)
    return AttractionReport(
        t_entry=None if entry_j is None else float(times[entry_j]),
        eps=eps,
        metric=candidate.metric,
        worst_overall=float(semi.max()),
        worst_after_entry=float("inf") if entry_j is None else float(semi[entry_j:].max()),
        n_times=int(idx.shape[0]),
    )


def attraction_report_oracle(k_space, attractor, eps):
    """trajectory_attraction_report by a full forward scan of every shift, with
    strong windows [0, 2]."""
    if not (eps > 0):
        raise ValueError("eps must be positive")
    dt = k_space.dt
    if dt != attractor.dt:
        raise GridMismatch("trajectory space and attractor grids differ")
    steps = tail_steps(dt)
    w_tail = int(steps[-1])
    w_strong = int(round(2.0 / dt))
    n = k_space.n_samples
    w_need = max(w_tail, w_strong)
    if n <= w_need or attractor.n_samples <= w_need:
        raise HorizonTooShort("trajectory-space horizon too short for the windows")
    stride = max(1, (n - 1 - w_need) // 32)
    shifts = np.arange(0, n - w_need, stride)
    strong_mode = all(is_grid_continuous(v) for v in member_views(attractor))

    def entry(w, m, tail=None):
        ref = attractor.samples[:, : w + 1]
        worst = [
            window_semidists(k_space.model, k_space.samples[:, k : k + w + 1], ref, m, tail)[0]
            for k in shifts
        ]
        viol = np.flatnonzero(np.array(worst) >= eps)
        if viol.size == 0:
            return float(shifts[0] * dt)
        if viol[-1] + 1 >= shifts.shape[0]:
            return None
        return float(shifts[viol[-1] + 1] * dt)

    return TrajectoryAttractionReport(
        t_entry=entry(w_tail, "weak", steps),
        strong_mode=strong_mode,
        t_entry_strong=entry(w_strong, "strong") if strong_mode else None,
        eps=eps,
        n_times=int(shifts.shape[0]),
    )


def traj_set_semidist(a: Ensemble, b: Ensemble) -> float:
    """One-sided semidistance between trajectory families in the weak tail metric."""
    _check_pair(a, b)
    _check_time_zero(a, b)
    steps = tail_steps(a.dt)
    w = int(steps[-1])
    if min(a.n_samples, b.n_samples) <= w:
        raise HorizonTooShort("tail metric window exceeds a member grid")
    pair = window_semidists(a.model, a.samples[:, : w + 1], b.samples[:, : w + 1], "weak", steps)
    return pair[0]


def translation_invariance_oracle(attractor, tol):
    """translation_invariance by two traj_set_semidist scans per shift, t = 1 and 2."""
    defects = []
    for t in (1.0, 2.0):
        shifted = translate_semigroup(attractor, t)
        defects.append(
            max(traj_set_semidist(shifted, attractor), traj_set_semidist(attractor, shifted))
        )
    return TranslationInvarianceRecord(
        t_values=(1.0, 2.0), defects=tuple(defects), tol=tol, ok=all(d <= tol for d in defects)
    )


def tracking_oracle(ensemble, library, m, eps, window_T):
    """check_tracking by matching every member at every sampled t*, ascending."""
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T)
    spec = ensemble.model

    def member_match(u_seg):
        for li, vs in enumerate(library.samples):
            a_d = strong_dist_arrays(vs[shift_idx] - u_seg[0])
            for j in np.flatnonzero(a_d < eps):
                s = int(shift_idx[j])
                err = float(window_dist(spec, u_seg, vs[s : s + w + 1], m, steps))
                if err < eps:
                    return li, s, err
        return None

    per_t = []
    for k in t_star_idx:
        pairs, shifts, worst = [], [], 0.0
        ok = True
        for mi, us in enumerate(ensemble.samples):
            found = member_match(us[k : k + w + 1])
            if found is None:
                ok = False
                break
            li, s, err = found
            pairs.append((mi, li))
            shifts.append(library.t0 + s * library.dt)
            worst = max(worst, err)
        per_t.append((ok, worst, tuple(pairs), tuple(shifts)))
    if not per_t[-1][0]:
        return None
    first_ok = len(per_t) - 1
    while first_ok > 0 and per_t[first_ok - 1][0]:
        first_ok -= 1
    ok, worst, pairs, shifts = per_t[first_ok]
    return TrackingReport(
        t_star=ensemble.t0 + int(t_star_idx[first_ok]) * ensemble.dt,
        metric=m,
        eps=eps,
        worst_error=worst,
        matched_pairs=pairs,
        shifts=shifts,
    )


def tracking_ladder_oracle(ensemble, library, m, window_T, eps_ladder):
    return tuple(
        (float(eps), tracking_oracle(ensemble, library, m, eps, window_T)) for eps in eps_ladder
    )


def quasi_invariance_oracle(est, library, eps, t_win):
    """The uncovered points of check_quasi_invariance: for each point, library
    members in stored order, anchored shifts ascending, first covering window
    wins."""
    cloud = est.points
    w = int(round(t_win / library.dt))
    lo, hi = w, library.n_samples - 1 - w
    uncovered = []
    for a_idx in range(cloud.shape[0]):
        a = cloud[a_idx]
        hit = False
        for vs in library.samples:
            anchor = strong_dist_arrays(vs[lo : hi + 1] - a)
            for j in np.flatnonzero(anchor < eps):
                s = lo + int(j)
                window = vs[s - w : s + w + 1]
                if pairwise_to_set(library.model, window, cloud, est.metric).max() < eps:
                    hit = True
                    break
            if hit:
                break
        if not hit:
            uncovered.append(a_idx)
    return tuple(uncovered)


def error_profile_oracle(ensemble, library, m, window_T):
    """tracking_error_profile: each member's window error against every library
    member at that member's strong-anchor-nearest shift."""
    w, steps, t_star_idx, shift_idx = _tracking_grid(ensemble, library, m, window_T)
    errors = []
    for k in t_star_idx:
        worst = 0.0
        for us in ensemble.samples:
            seg = us[k : k + w + 1]
            best = np.inf
            for vs in library.samples:
                s = int(shift_idx[int(np.argmin(strong_dist_arrays(vs[shift_idx] - seg[0])))])
                err = float(window_dist(ensemble.model, seg, vs[s : s + w + 1], m, steps))
                best = min(best, err)
            worst = max(worst, best)
        errors.append(worst)
    return ensemble.t0 + t_star_idx * ensemble.dt, np.array(errors)


def coords_to_scalars(table: ModeTable, coords: np.ndarray) -> np.ndarray:
    """Real coords (..., dim) -> tangent scalars psi (..., n_channels)."""
    shape = coords.shape[:-1]
    z = coords.reshape(shape + (table.n_channels, 2))
    return (z[..., 0] - 1j * z[..., 1]) / np.sqrt(2.0)


def scalars_to_coords(table: ModeTable, psi: np.ndarray) -> np.ndarray:
    """Tangent scalars (..., n_channels) -> real coords (..., dim)."""
    out = np.empty(psi.shape[:-1] + (table.n_channels, 2))
    out[..., 0] = np.sqrt(2.0) * psi.real
    out[..., 1] = -np.sqrt(2.0) * psi.imag
    return out.reshape(psi.shape[:-1] + (table.dim,))


def coords_to_modes(table: ModeTable, coords: np.ndarray) -> np.ndarray:
    """Real coordinates -> complex vector coefficients on the full mode set.

    Coefficients are rescaled by L^{d/2} so that the summed squared moduli
    over the full set equal the squared L2 norm of the field.
    """
    psi = coords_to_scalars(table, coords)
    shaped = psi.reshape(psi.shape[:-1] + (table.n_half, table.n_tan))
    c_half = np.einsum("...mt,mtd->...md", shaped, table.tangents)
    return np.concatenate([c_half, np.conj(c_half)], axis=-2)
