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
problem. The distance from each row of a stack to the nearest point of a
cloud has one search, pairwise_to_set; its max is the set semidistance.

Trajectory comparisons use the sup metric on a window [a, b] and the
geometric tail series sum_T 2^(-T) s_T / (1 + s_T) with
s_T = sup_{[a, a+T]} d(u, v), truncated at T = TAIL_WINDOWS (the dropped tail
is bounded by 2^-TAIL_WINDOWS). Both reductions come from one kernel,
window_dist; its leading axes broadcast, so the windows of all members of
an ensemble against one reference window take one call. Every search over
windows goes through one scan, window_nearest: the distance from one window
to the nearest of any iterable of windows, in stored order, stopping at the
first one under eps. The semidistances between two window stacks, both ways, are read off
one table of window pairs as that scan would read it (window_semidists).
"""
from __future__ import annotations

import numpy as np

from .errors import ModelMismatch
from .models import ModelSpec, spec_dim, weak_weights
from .state import span_steps

METRIC_KINDS = ("strong", "weak")
_CHUNK = 1 << 14
# the tail series' windows [a, a+T], T = 1..TAIL_WINDOWS
TAIL_WINDOWS = 8


def _check_metric(m: str) -> str:
    if m not in METRIC_KINDS:
        raise ValueError(f"unknown metric kind {m!r}; expected strong|weak")
    return m


# ---------------------------------------------------------------------------
# array-level kernels (leading axes broadcast)


def strong_dist_arrays(diff: np.ndarray) -> np.ndarray:
    # np.linalg.norm(diff, axis=-1) evaluates this same expression
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


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

    The one nearest-point search. Bitwise the row minimum of cross_dist,
    taken over blocks of rows whose (rows, cloud) matrix holds at most
    _CHUNK entries, so the full matrix is never built. Strong inputs of more
    than _SCREEN_MIN pair-coordinates screen the pairs through the Gram
    expansion first (see _strong_nearest).
    """
    a = np.atleast_2d(np.asarray(stack, float))
    b = np.atleast_2d(np.asarray(cloud, float))
    if m == "strong" and a.shape[0] * b.size > _SCREEN_MIN:
        near = _strong_nearest(a, b)
        if near is not None:
            return near
    out = np.empty(a.shape[0])
    per = max(1, _CHUNK // b.shape[0])
    for i in range(0, a.shape[0], per):
        out[i : i + per] = cross_dist(spec, a[i : i + per], b, m).min(axis=1)
    return out


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


def _strong_nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
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
    inf inputs land here too), and brute force takes the input.
    """
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    nb_max = nb.max()
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


def tail_steps(dt: float) -> np.ndarray:
    """Grid offsets of the tail-window ends T = 1..TAIL_WINDOWS at step dt."""
    return np.array([span_steps(0.0, t, dt) for t in range(1, TAIL_WINDOWS + 1)])


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


def window_nearest(spec: ModelSpec, u: np.ndarray, b: np.ndarray, m: str, steps=None, eps=0.0):
    """min over windows v in b of window_dist(u, v), scanning b in stored order.

    u is one window (n, dim) and b is any iterable of equal-length windows,
    such as a (members, n, dim) stack or a generator of views; one window
    pair is compared at a time, so temporaries stay one (n, dim) block. The
    scan stops at the first value under eps and returns it, so the result
    is < eps exactly when the min is. inf for an empty b.
    """
    nearest = np.inf
    for v in b:
        d = float(window_dist(spec, u, v, m, steps))
        if d < eps:
            return d
        nearest = min(nearest, d)
    return nearest


def window_semidists(spec: ModelSpec, a: np.ndarray, b: np.ndarray, m: str, steps=None):
    """The semidistances (a to b, b to a) from one table of window pairs.

    The semidistance from a to b is the sup over windows u in a of the nearest
    window_dist(u, v), v in b. window_dist(u, v) and window_dist(v, u) are the
    same bits, since u - v and v - u square alike, so each pair is measured
    once. A direction scans as window_nearest does with eps 0, in stored
    order: Python min from inf over a row, then Python max from 0.0 over the
    rows, so NaN and ties fall alike.
    """
    table = [[float(window_dist(spec, u, v, m, steps)) for v in b] for u in a]
    columns = [[row[j] for row in table] for j in range(len(b))]
    return tuple(max([0.0] + [min([np.inf, *row]) for row in rows]) for rows in (table, columns))
