"""Solenoidal Fourier bookkeeping for the Galerkin Navier-Stokes models.

Velocity fields live on the zero-mean, divergence-free trigonometric
polynomials of degree |kappa|_inf <= N on the periodic box [0, L]^d. Each
retained wave vector kappa (one representative per conjugate pair, chosen
lexicographically positive) carries n_tan unit tangent vectors orthogonal to
kappa (one in 2d, two in 3d); coordinates are the cos/sin coefficients in the
L2-orthonormal real basis, so the Euclidean norm of the coordinate vector is
the L2 norm of the field (Parseval).

The advective bilinear form is evaluated as a direct truncated convolution:
exact on the retained modes, no aliasing. Writing the complex coefficient of
mode kappa as psi e(kappa) (tangent scalars), the Leray-projected pair
interaction reduces to

    omega_out += i (2 pi / L) L^{-d/2} * C * psi_{k1} psi_{k2},
    C = (e(k1) . k2) (e(k2) . e(out)),

so the geometry lives in one precomputed real coefficient per (pair, tangent
combination), stored once as the complex C + 0j that the complex multiply
would cast it to, and evaluation is scalar complex multiply-adds over a table
pre-sorted by output channel (fixed reduction order, identical for single and
batched calls). The self-advection B(u, u) of every time step runs over a
symmetric table: entries (k1, k2) and (k2, k1) of one output channel multiply
the same psi_{k1} psi_{k2}, so one entry with coefficient C12 + C21 does the
work of both (Lorenz 1960; Kraichnan 1959). It gathers from the complex view
x + i y of the coordinates into one buffer pair per table and process, reused
across calls and freed after each integration pass (not reentrant).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Precomputed mode set, tangent bases, and scalar convolution table."""

    d: int
    n_tan: int
    L: float
    trunc: int
    kappa_half: np.ndarray   # (Mh, d) int, lexicographically positive reps
    kappa_full: np.ndarray   # (2 Mh, d) int, [half; -half]
    tangents: np.ndarray     # (Mh, n_tan, d) float, unit, orthogonal to kappa
    l1: np.ndarray           # (Mh,) int, |kappa|_1
    stokes: np.ndarray       # (Mh,) float, (2 pi |kappa|_2 / L)^2
    # scalar convolution entries, sorted by output channel
    ch_in1: np.ndarray       # (P,) int, full channel index of psi_{k1}
    ch_in2: np.ndarray       # (P,) int, full channel index of psi_{k2}
    ch_coeff: np.ndarray     # (P,) complex, geometric coefficient C + 0j
    ch_offsets: np.ndarray   # (n_channels,) segment starts in the sorted entries
    # symmetric self-advection entries, sorted by output channel
    sym_in1: np.ndarray      # (P_sym,) int, full channel index, sym_in1 < sym_in2
    sym_in2: np.ndarray      # (P_sym,) int
    sym_coeff: np.ndarray    # (P_sym,) complex, C12 + C21 + 0j
    sym_offsets: np.ndarray  # (n_channels,) segment starts in the symmetric entries
    conv_factor: complex     # i (2 pi / L) L^{-d/2}
    # flat buffer pair of advect_self, grown to the largest P_sym * B seen
    sym_work: list = field(default_factory=lambda: [np.empty(0, complex)] * 2, repr=False)

    @property
    def n_half(self) -> int:
        return self.kappa_half.shape[0]

    @property
    def n_channels(self) -> int:
        # one complex scalar per (half mode, tangent direction)
        return self.n_half * self.n_tan

    @property
    def group_size(self) -> int:
        # real coords per mode: (cos, sin) per tangent direction
        return 2 * self.n_tan

    @property
    def dim(self) -> int:
        return self.n_half * self.group_size


def _lex_positive(kappa: np.ndarray) -> np.ndarray:
    """Mask of wave vectors whose first nonzero component is positive."""
    n, d = kappa.shape
    undecided = np.ones(n, dtype=bool)
    pos = np.zeros(n, dtype=bool)
    for j in range(d):
        col = kappa[:, j]
        pos |= undecided & (col > 0)
        undecided &= col == 0
    return pos


def _tangent_basis(kappa: np.ndarray, d: int) -> np.ndarray:
    """Deterministic orthonormal tangent frame for each wave vector."""
    m = kappa.shape[0]
    k = kappa.astype(float)
    if d == 2:
        perp = np.stack([-k[:, 1], k[:, 0]], axis=1)
        perp /= np.linalg.norm(perp, axis=1, keepdims=True)
        return perp[:, None, :]
    # d == 3: helper axis = coordinate direction least aligned with kappa
    helper_idx = np.argmin(np.abs(kappa), axis=1)
    helper = np.zeros((m, 3))
    helper[np.arange(m), helper_idx] = 1.0
    e1 = np.cross(k, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(k, e1)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    return np.stack([e1, e2], axis=1)


def _channel_starts(out: np.ndarray, n_channels: int, d: int, n: int) -> np.ndarray:
    """Segment starts of entries sorted by output channel, one per channel."""
    starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]])
    if len(starts) != n_channels:
        raise ValueError(f"mode table d={d} N={n} leaves an output channel without entries")
    return starts


def build_mode_table(d: int, L: float, trunc: int) -> ModeTable:
    n = trunc
    modes = np.array(
        [k for k in product(range(-n, n + 1), repeat=d) if any(c != 0 for c in k)],
        dtype=int,
    )
    half = modes[_lex_positive(modes)]
    # low modes first; lexicographic within an l1 shell
    order = np.lexsort(tuple(half[:, j] for j in reversed(range(d))) + (np.abs(half).sum(1),))
    half = half[order]
    mh = half.shape[0]
    full = np.vstack([half, -half])
    n_tan = d - 1
    tangents = _tangent_basis(half, d)
    # conjugate modes reuse the representative's tangent frame: the stored
    # scalar of -kappa is the conjugate of the scalar of kappa on e(kappa)
    tangents_full = np.vstack([tangents, tangents])

    # dense lookup kappa -> half index (or -1)
    lookup = -np.ones((2 * n + 1,) * d, dtype=int)
    for i, kap in enumerate(half):
        lookup[tuple(kap + n)] = i

    sums = full[:, None, :] + full[None, :, :]
    in_range = np.all(np.abs(sums) <= n, axis=-1)
    nonzero = np.any(sums != 0, axis=-1)
    flat = sums.reshape(-1, d)
    lexpos = _lex_positive(flat).reshape(sums.shape[:2])
    mask = in_range & nonzero & lexpos
    i1, i2 = np.nonzero(mask)
    out = lookup[tuple(sums[i1, i2].T + n)]

    # geometric coefficients over tangent combinations
    k2f = full[i2].astype(float)
    dot1 = np.einsum("pad,pd->pa", tangents_full[i1], k2f)          # (P0, n_tan)
    dot2 = np.einsum("pbd,pgd->pbg", tangents_full[i2], tangents[out])  # (P0, n_tan, n_tan)
    coeff = dot1[:, :, None, None] * dot2[:, None, :, :]            # (P0, a, b, g)

    p0 = i1.shape[0]
    alpha, beta, gamma = np.meshgrid(
        np.arange(n_tan), np.arange(n_tan), np.arange(n_tan), indexing="ij"
    )
    alpha = np.broadcast_to(alpha, (p0, n_tan, n_tan, n_tan))
    beta = np.broadcast_to(beta, (p0, n_tan, n_tan, n_tan))
    gamma = np.broadcast_to(gamma, (p0, n_tan, n_tan, n_tan))
    ch1 = (i1[:, None, None, None] * n_tan + alpha).ravel()
    ch2 = (i2[:, None, None, None] * n_tan + beta).ravel()
    cho = (out[:, None, None, None] * n_tan + gamma).ravel()
    cf = coeff.ravel()

    keep = cf != 0.0
    ch1, ch2, cho, cf = ch1[keep], ch2[keep], cho[keep], cf[keep]
    sort = np.argsort(cho, kind="stable")
    ch1, ch2, cho, cf = ch1[sort], ch2[sort], cho[sort], cf[sort]

    # symmetric table: merge the entries keyed (out, min, max), sum their
    # coefficients and drop the sums that cancel. A pair (k, k) has
    # C = (e(k) . k)(...) = 0, so its rounding residue is dropped too.
    lo, hi = np.minimum(ch1, ch2), np.maximum(ch1, ch2)
    sort = np.lexsort((hi, lo, cho))
    lo, hi, s_out = lo[sort], hi[sort], cho[sort]
    new_key = (np.diff(s_out) != 0) | (np.diff(lo) != 0) | (np.diff(hi) != 0)
    first = np.flatnonzero(np.r_[True, new_key])
    s_cf = np.add.reduceat(cf[sort], first)
    lo, hi, s_out = lo[first], hi[first], s_out[first]
    keep = (s_cf != 0.0) & (lo < hi)

    return ModeTable(
        d=d,
        n_tan=n_tan,
        L=float(L),
        trunc=n,
        kappa_half=half,
        kappa_full=full,
        tangents=tangents,
        l1=np.abs(half).sum(axis=1),
        stokes=(2.0 * np.pi / L) ** 2 * (half.astype(float) ** 2).sum(axis=1),
        ch_in1=ch1,
        ch_in2=ch2,
        ch_coeff=cf.astype(complex),
        ch_offsets=_channel_starts(cho, mh * n_tan, d, n),
        sym_in1=lo[keep],
        sym_in2=hi[keep],
        sym_coeff=s_cf[keep].astype(complex),
        sym_offsets=_channel_starts(s_out[keep], mh * n_tan, d, n),
        conv_factor=1j * (2.0 * np.pi / L) * L ** (-d / 2.0),
    )


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


# The second operand is gathered in blocks of at most this many complex
# entries. Two full (P, B) temporaries made glibc trim and re-fault them on
# every large-batch call (about 350 minor page faults per call at B=32).
_GATHER_ENTRIES = 1 << 14


def _full_scalars(table: ModeTable, coords: np.ndarray) -> np.ndarray:
    """Coords (B, dim) or (dim,) -> full-channel scalars [psi; conj psi], (2 n_channels, B)."""
    psi = coords_to_scalars(table, np.atleast_2d(coords)).T
    return np.concatenate([psi, np.conj(psi)], axis=0)


def advect(table: ModeTable, u_coords: np.ndarray, v_coords: np.ndarray) -> np.ndarray:
    """Leray-projected advection B(u, v) = P_sigma(u . grad v) in coordinates.

    Accepts (B, dim) batches or single (dim,) vectors. When v_coords is
    u_coords, the operand is converted once and gathered twice.
    """
    single = u_coords.ndim == 1
    full_u = _full_scalars(table, u_coords)
    full_v = full_u if v_coords is u_coords else _full_scalars(table, v_coords)
    contrib = np.take(full_u, table.ch_in1, axis=0)
    contrib *= table.ch_coeff[:, None]
    rows = max(1, _GATHER_ENTRIES // contrib.shape[1])
    for lo in range(0, contrib.shape[0], rows):
        contrib[lo : lo + rows] *= np.take(full_v, table.ch_in2[lo : lo + rows], axis=0)
    # one segment per output channel, in channel order (checked at build)
    seg = np.add.reduceat(contrib, table.ch_offsets, axis=0)  # (n_channels, B)
    out = scalars_to_coords(table, (table.conv_factor * seg).T)
    return out[0] if single else out


def advect_self(table: ModeTable, u_coords: np.ndarray) -> np.ndarray:
    """Self-advection B(u, u) over the symmetric table, shaped like advect(table, u, u).

    Gathers from z = x + i y = sqrt 2 conj(psi); with real coefficients and
    an imaginary conv_factor, -conv_factor / sqrt 2 times the channel sums is
    the complex view of the result. The gathers and products fill the
    table's reused buffer pair, viewed as (B, P_sym) so that the per-entry
    coefficient multiplies contiguous rows; a call allocates nothing of that
    size, and the result does not alias it.
    """
    z = np.ascontiguousarray(np.atleast_2d(u_coords), dtype=float).view(complex)
    full = np.concatenate([z, np.conj(z)], axis=1)  # (B, 2 n_channels)
    batch, p = full.shape[0], table.sym_in1.size
    work = table.sym_work
    if work[0].size < batch * p:
        work[:] = [np.empty(batch * p, complex), np.empty(batch * p, complex)]
    a, b = (w[: batch * p].reshape(batch, p) for w in work)
    # mode="wrap" writes straight into out (indices are in range); "raise" would buffer a copy
    np.take(full, table.sym_in1, axis=1, out=a, mode="wrap")
    np.take(full, table.sym_in2, axis=1, out=b, mode="wrap")
    np.multiply(a, b, out=a)
    np.multiply(a, table.sym_coeff, out=a)
    seg = np.add.reduceat(a, table.sym_offsets, axis=1)  # (B, n_channels)
    seg *= -table.conv_factor / np.sqrt(2.0)
    out = seg.view(float)
    return out[0] if u_coords.ndim == 1 else out
