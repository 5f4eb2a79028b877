"""Finite estimators for omega-limit sets, attracting sets, and attractors.

The limit-set definitions quantify over t -> infinity; the estimators here
replace that with a discard-transient-then-cluster pass over a finite
ensemble horizon. Late samples are clustered first, so the representatives
come from the most converged part of the run. Every distance from points
to a set is metrics.pairwise_to_set. The horizon-doubling self-consistency
check lives in the test suite, not here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySet, HorizonTooShort, InsufficientSamples, ModelMismatch
from .metrics import _check_metric, pairwise_to_set
from .models import ModelSpec, spec_dim
from .state import Ensemble, _check_pair, _frozen_array, grid_index


@dataclass(frozen=True, eq=False)
class AttractionReport:
    """Outcome of a uniform-attraction scan.

    t_entry is the earliest sampled time after which every reachable slice
    stayed within eps of the candidate set, or None when even the final slice
    violated eps.
    """

    t_entry: float | None
    eps: float
    metric: str
    worst_overall: float
    worst_after_entry: float
    n_times: int


@dataclass(frozen=True, eq=False)
class SetEstimate:
    """Finite point cloud standing in for a limit set.

    ``points`` is one read-only (n, dim) array of the model's coordinates.
    Carries the metric it was built in, the clustering tolerance, and the
    sampling horizon, so downstream comparisons know what resolution to
    trust. ``attraction`` is attached by global_attractor.
    """

    points: np.ndarray
    model: ModelSpec
    metric: str
    tol: float
    horizon: float
    attraction: AttractionReport | None = None

    def __post_init__(self):
        if len(self.points) == 0:
            raise EmptySet("set estimate has no points")
        object.__setattr__(self, "points", _frozen_array(self.points, 2))
        if self.points.shape[1] != spec_dim(self.model):
            raise ModelMismatch("set estimate points do not match the model dimension")
        _check_metric(self.metric)
        if not (self.tol > 0):
            raise ValueError(f"cluster tolerance must be positive, got {self.tol}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class OmegaParams:
    """Sampling window and clustering resolution for limit-set estimation."""

    t_transient: float = 0.0
    t_max: float = 1.0
    sample_stride: int = 1
    cluster_tol: float = 1e-3

    def __post_init__(self):
        if not (0 <= self.t_transient < self.t_max):
            raise ValueError(
                f"need 0 <= t_transient < t_max, got {self.t_transient}, {self.t_max}"
            )
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if not (self.cluster_tol > 0):
            raise ValueError("cluster_tol must be positive")


def greedy_cluster(spec: ModelSpec, blocks, m: str, tol: float) -> list[np.ndarray]:
    """Greedy metric dedupe over an iterable of coordinate blocks.

    A row is accepted only if it is farther than tol (in metric m) from every
    previously accepted row; order inside and across blocks is fixed, so the
    result is deterministic. Returns the accepted rows.
    """
    buf = None  # accepted rows in buf[:n_acc]; doubles when full
    n_acc = 0
    for block in blocks:
        if buf is None:
            buf = np.empty((16, block.shape[1]))
        if n_acc:
            near = pairwise_to_set(spec, block, buf[:n_acc], m) <= tol
        else:
            near = np.zeros(block.shape[0], dtype=bool)
        # rows kept before this block are already ruled out by `near`
        start = n_acc
        for row, skip in zip(block, near):
            if skip:
                continue
            if n_acc > start and pairwise_to_set(spec, row, buf[start:n_acc], m)[0] <= tol:
                continue
            if n_acc == buf.shape[0]:
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[n_acc] = row
            n_acc += 1
    return [] if buf is None else list(buf[:n_acc])


def omega_limit(ensemble: Ensemble, m: str, p: OmegaParams) -> SetEstimate:
    """Cluster the post-transient reachable states into a limit-set estimate.

    Samples every sample_stride-th grid time in [t_transient, t_max], newest
    first, and keeps greedy cluster representatives at resolution cluster_tol.
    """
    _check_metric(m)
    slack = 1e-9 * max(1.0, abs(p.t_max))
    if ensemble.t_end + slack < p.t_max:
        raise HorizonTooShort(
            f"omega sampling needs the grid to reach t={p.t_max}, ends at {ensemble.t_end}"
        )
    i0 = grid_index(p.t_transient, ensemble.t0, ensemble.dt)
    i1 = grid_index(p.t_max, ensemble.t0, ensemble.dt)
    if not (0 <= i0 <= i1 < ensemble.n_samples):
        raise HorizonTooShort(
            f"sampling window [{p.t_transient}, {p.t_max}] is not inside the ensemble grid"
        )
    order = range(i1, i0 - 1, -p.sample_stride)
    blocks = (ensemble.samples[:, k, :] for k in order)
    accepted = greedy_cluster(ensemble.model, blocks, m, p.cluster_tol)
    return SetEstimate(accepted, ensemble.model, m, tol=p.cluster_tol, horizon=p.t_max)


def is_attracting(candidate: SetEstimate, ensemble: Ensemble, eps: float) -> AttractionReport:
    """Scan reachable slices for uniform attraction to the candidate set.

    Checks the semidistance sup_{x in R(t)} inf_{a in candidate} d(x, a) < eps
    at every grid time; reports the earliest entry time after which no
    violation occurs. The inner inf is one pairwise_to_set call per member
    over all of its samples (a view, never a copy); the sup is the max over
    members at each time.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    _check_pair(candidate, ensemble)
    spec, cloud, m = ensemble.model, candidate.points, candidate.metric
    semi = np.max([pairwise_to_set(spec, s, cloud, m) for s in ensemble.samples], axis=0)
    viol = np.flatnonzero(semi >= eps)
    # the slice after the last violation; past the end when the final one violates
    entry_j = int(viol[-1]) + 1 if viol.size else 0
    entered = entry_j < semi.shape[0]
    return AttractionReport(
        t_entry=float(ensemble.times[entry_j]) if entered else None,
        eps=eps,
        metric=m,
        worst_overall=float(semi.max()),
        worst_after_entry=float(semi[entry_j:].max()) if entered else float("inf"),
        n_times=semi.shape[0],
    )


def global_attractor(ensemble_of_x: Ensemble, m: str, p: OmegaParams) -> SetEstimate:
    """Attractor estimate: omega limit of a phase-space-sampling ensemble.

    The attractor, when it exists, equals the omega limit of the whole phase
    space, and it exists exactly when that omega limit attracts; the scan
    verdict is attached to the returned estimate. The attraction eps is
    twice the clustering tolerance (one cluster radius each for the estimate
    and the scanned slice).
    """
    est = omega_limit(ensemble_of_x, m, p)
    report = is_attracting(est, ensemble_of_x, 2.0 * p.cluster_tol)
    return replace(est, attraction=report)


def asymptotic_compactness_defect(
    ensemble: Ensemble,
    times,
    k: int,
) -> float:
    """Covering radius of diagonal late-time samples under greedy k-centers.

    Draws x_j = (member j mod M)(t_j) for the increasing times t_j, then runs
    farthest-first k-center selection in the strong metric and returns the
    covering radius. Near-zero values witness relative compactness at
    resolution k; values bounded away from zero flag escaping mass. The
    radius is nonincreasing in k.
    """
    times = [float(t) for t in times]
    if len(times) < 2:
        raise InsufficientSamples("need at least two sample times")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if not (1 <= k <= len(times)):
        raise InsufficientSamples(f"need 1 <= k <= {len(times)} centers, got {k}")
    members = np.arange(len(times)) % ensemble.n_members
    samples = ensemble.samples[members, [ensemble.index_of(t) for t in times]]
    # farthest-first traversal, first sample seeds the centers
    d_near = np.linalg.norm(samples - samples[0], axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d_near))
        d_new = np.linalg.norm(samples - samples[nxt], axis=1)
        d_near = np.minimum(d_near, d_new)
    return float(d_near.max())
