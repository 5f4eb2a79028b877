"""Strong and weak metrics on coordinate arrays, point clouds and trajectories.

The strong metric is the Euclidean distance on coordinates, which by the
orthonormal-basis convention equals the L2 distance of the represented
fields. The weak metric is the bounded weighted series

    d_w(u, v) = sum_kappa 2^(-|kappa|_1) r_kappa / (1 + r_kappa),

with r_kappa the modulus of the coefficient difference on mode kappa,
evaluated over the finite retained mode set; shell models reuse the same
formula with the shell index in place of |kappa|_1. On a fixed truncation the
two metrics are equivalent, which is exactly what the estimator cross-checks
exploit; the weak one stands in for the weak topology of the untruncated
problem.

Trajectory comparisons use the sup metric on a window [a, b] and the
geometric tail series sum_T 2^(-T) s_T / (1 + s_T) with
s_T = sup_{[a, a+T]} d(u, v), truncated at t_max_windows (the dropped tail is
bounded by 2^-t_max_windows). Both reductions come from one kernel,
window_dist, which every window-matching search in the package calls; its
leading axes broadcast, so the windows of all members of an ensemble
against one reference window take one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Literal

import numpy as np

from .errors import ModelMismatch
from .models import ModelSpec, spec_dim, weak_weights
from .state import span_steps

MetricKind = Literal["strong", "weak"]
METRIC_KINDS = ("strong", "weak")
_CHUNK = 1 << 14


@dataclass(frozen=True)
class TrajMetricParams:
    """Tail-metric truncation: windows [a, a+T] for T = 1..t_max_windows."""

    t_max_windows: int = 8

    def __post_init__(self):
        if self.t_max_windows < 1:
            raise ValueError("t_max_windows must be >= 1")


def _check_metric(m: str) -> str:
    if m not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {m!r}; expected strong|weak")
    return m


# ---------------------------------------------------------------------------
# array-level kernels (leading axes broadcast)


def strong_dist_arrays(diff: np.ndarray) -> np.ndarray:
    # np.linalg.norm(diff, axis=-1) evaluates this same expression
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def _strong_dist_owned(diff: np.ndarray) -> np.ndarray:
    """strong_dist_arrays(diff), bitwise, squaring diff in place.

    For a difference the caller owns and no longer needs: it saves a
    temporary the size of diff.
    """
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=-1))


def weak_dist_arrays(spec: ModelSpec, diff: np.ndarray) -> np.ndarray:
    # The group moduli r are sums of strided slices of the squared
    # difference, added in group order: the same arithmetic, in the same
    # order, as the Euclidean norm over each size-gs group, without a
    # reduction over a short last axis.
    weights, gs = weak_weights(spec)
    sq = diff * diff
    r = sq if gs == 1 else sq[..., 0::gs] + sq[..., 1::gs]
    for j in range(2, gs):
        r += sq[..., j::gs]
    np.sqrt(r, out=r)
    q = r + 1.0
    np.divide(r, q, out=q)
    q *= weights
    return q.sum(axis=-1)


def dist_arrays(spec: ModelSpec, x: np.ndarray, y: np.ndarray, m: str) -> np.ndarray:
    _check_metric(m)
    diff = np.asarray(x, float) - np.asarray(y, float)
    if diff.shape[-1] != spec_dim(spec):
        raise ModelMismatch("coordinate dimension does not match the model")
    return _pointwise(spec, diff, m)


def _pointwise(spec: ModelSpec, diff: np.ndarray, m: str) -> np.ndarray:
    return strong_dist_arrays(diff) if m == "strong" else weak_dist_arrays(spec, diff)


def cross_dist(spec: ModelSpec, a: np.ndarray, b: np.ndarray, m: str) -> np.ndarray:
    """Pairwise distance matrix (n, k) between two coordinate stacks."""
    _check_metric(m)
    a = np.atleast_2d(np.asarray(a, float))
    b = np.atleast_2d(np.asarray(b, float))
    # Rows of a in chunks small enough that each temporary stays under
    # _CHUNK elements (below glibc's mmap threshold, so no page faults).
    out = np.empty((a.shape[0], b.shape[0]))
    per = max(1, _CHUNK // max(1, b.size))
    for i in range(0, a.shape[0], per):
        out[i : i + per] = _pointwise(spec, a[i : i + per, None, :] - b, m)
    return out


def pairwise_to_set(
    spec: ModelSpec, stack: np.ndarray, cloud: np.ndarray, m: str
) -> np.ndarray:
    """Distance from each row of ``stack`` to the nearest point of ``cloud``.

    Bitwise the row minimum of cross_dist. Strong inputs of more than
    _SCREEN_MIN pair-coordinates screen the pairs through the Gram expansion
    first (see _strong_nearest).
    """
    return _nearest_in(spec, cloud, m)(stack)


def _nearest_in(spec: ModelSpec, cloud: np.ndarray, m: str):
    """pairwise_to_set(spec, ., cloud, m) for one cloud and many stacks.

    The strong screen's squared norms of the cloud, and their max, are
    computed once, when the first stack needs them.
    """
    b = np.atleast_2d(np.asarray(cloud, float))

    @cache
    def cloud_norms():
        nb = np.einsum("ij,ij->i", b, b)
        return nb, nb.max()

    def nearest(stack: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(stack, float))
        if m == "strong" and a.shape[0] * b.size > _SCREEN_MIN:
            near = _strong_nearest(a, b, *cloud_norms())
            if near is not None:
                return near
        return cross_dist(spec, a, b, m).min(axis=1)

    return nearest


# Rounding bound of the Gram screen per unit of |a|^2 + |b|^2 and per
# coordinate. An inner product of length dim errs by at most
# dim u / (1 - dim u) times |a| |b|, u = eps / 2 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, sec. 3.1); the screened value and
# the direct squared distance together err by about (2 dim + 3) eps
# (|a|^2 + |b|^2), and 4 (dim + 4) eps leaves a factor of two to spare.
_GRAM_SLACK = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Below this many pair-coordinates (rows x cloud points x dim) the screen's
# fixed cost (about 45 us) loses to brute force; measured, the two cross
# between 8e3 and 3e4 for dims 8, 80 and 240 and 1 to 128 rows.
_SCREEN_MIN = 1 << 14


def _strong_nearest(
    a: np.ndarray, b: np.ndarray, nb: np.ndarray, nb_max: float
) -> np.ndarray | None:
    """Row minima of the strong metric from a to b, bitwise as brute force.

    |x - y|^2 = |x|^2 + |y|^2 - 2 x.y; within one row |x|^2 is common to all
    pairs, so e = |y|^2 - 2 x.y (one BLAS product per chunk) ranks them. A
    pair survives when its e is within twice the row's margin
    _GRAM_SLACK (dim + 4) (|x|^2 + max |y|^2) of the row minimum, which
    keeps every pair whose direct distance can be the row minimum. The
    survivors are measured with strong_dist_arrays, the formula of
    cross_dist, and sqrt is monotone, so the minimum is the same bits.
    Returns None unless 4 (max |x|^2 + max |y|^2) is finite: past that, e,
    its row bound or the margin could overflow and bound nothing (NaN and
    inf inputs land here too), and brute force takes the input. nb holds the
    squared norms |y|^2 of the rows of b, and nb_max their max.
    """
    na = np.einsum("ij,ij->i", a, a)
    with np.errstate(over="ignore"):
        if not np.isfinite(4.0 * (na.max() + nb_max)):
            return None
    k = b.shape[0]
    # 2 x margin; the tiny term absorbs rounding in the subnormal range
    width = 2.0 * (_GRAM_SLACK * (a.shape[1] + 4) * (na + nb_max) + _TINY)
    out = np.empty(a.shape[0])
    per = max(1, _CHUNK // k)
    for i in range(0, a.shape[0], per):
        ac = a[i : i + per]
        e = (ac * -2.0) @ b.T  # exact: scaling by a power of two
        e += nb
        bound = e.min(axis=1)
        bound += width[i : i + per]
        flat = np.flatnonzero(e <= bound[:, None])
        rows, cols = np.divmod(flat, k)
        d = strong_dist_arrays(ac[rows] - b[cols])
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[i : i + per] = np.minimum.reduceat(d, starts)
    return out


def weak_weight_total(spec: ModelSpec) -> float:
    """Sum of the weak-metric weights: d_w <= W d_s holds with this W."""
    weights, _ = weak_weights(spec)
    return float(weights.sum())


# ---------------------------------------------------------------------------
# trajectory metrics


def tail_steps(p: TrajMetricParams, dt: float) -> np.ndarray:
    """Grid offsets of the tail-window ends T = 1..t_max_windows at step dt."""
    return np.array([span_steps(0.0, t, dt) for t in range(1, p.t_max_windows + 1)])


def window_dist(spec: ModelSpec, u: np.ndarray, v: np.ndarray, m: str, steps=None):
    """Distance between sample windows u, v of shape (..., n, dim).

    The pointwise metric m is reduced over the window axis: the sup when
    ``steps`` is None, else the truncated tail series
    sum_T 2^-T s_T / (1 + s_T) with s_T the running sup up to offset
    steps[T - 1] (see tail_steps). The series is summed in T order, which
    fixes its rounding.
    """
    d = _pointwise(spec, u - v, m)
    if steps is None:
        return d.max(axis=-1)
    running = np.maximum.accumulate(d, axis=-1)
    total = 0.0
    for t_win, k in enumerate(steps, start=1):
        s = running[..., k]
        total = total + 2.0 ** (-t_win) * s / (1.0 + s)
    return total


def window_semidist(spec: ModelSpec, a: np.ndarray, b: np.ndarray, m: str, steps=None) -> float:
    """sup over windows u in a of min over windows v in b of window_dist(u, v).

    a and b stack equal-length windows, (members, n, dim); one window pair
    is compared at a time, so temporaries stay one (n, dim) block.
    """
    worst = 0.0
    for u in a:
        worst = max(worst, min(float(window_dist(spec, u, v, m, steps)) for v in b))
    return worst


def window_escapes(
    spec: ModelSpec, a: np.ndarray, b: np.ndarray, m: str, eps: float, steps=None
) -> bool:
    """Whether some window of a is >= eps from every window of b.

    The same answer as window_semidist(spec, a, b, m, steps) >= eps for
    eps > 0, from the same window_dist values, but it stops at the first
    window of a that escapes, and for each window of a at the first window
    of b closer than eps.
    """
    return any(all(float(window_dist(spec, u, v, m, steps)) >= eps for v in b) for u in a)
