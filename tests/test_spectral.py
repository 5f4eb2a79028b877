"""Fourier bookkeeping and the truncated advection convolution.

The heavy correctness check is an independent physical-space oracle: fields
are evaluated on a fine periodic grid, (u . grad) v is formed pointwise, and
mode/tangent coefficients are recovered by trapezoid quadrature (exact for
trigonometric polynomials once the grid resolves degree 3N).
"""
import tracemalloc

import numpy as np
import pytest
from oracles import coords_to_modes, coords_to_scalars, scalars_to_coords

from attractorlab import spectral
from attractorlab.spectral import advect, advect_self, build_mode_table

RNG_SEED = 42


def _field_on_grid(table, coords, grid_n):
    """Velocity field samples on the uniform periodic grid, shape (G..G, d)."""
    c_full = coords_to_modes(table, coords)  # (2Mh, d)
    L = table.L
    axes = [np.arange(grid_n) * (L / grid_n) for _ in range(table.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack(mesh, axis=-1)  # (G.., d)
    phase = np.tensordot(x, table.kappa_full.T.astype(float), axes=1)  # (G.., 2Mh)
    waves = np.exp(2j * np.pi * phase / L) * L ** (-table.d / 2.0)
    return np.real(np.tensordot(waves, c_full, axes=([-1], [0])))


def _grad_on_grid(table, coords, grid_n):
    """Component gradients d v_b / d x_a, shape (G.., d, d) indexed [a, b]."""
    c_full = coords_to_modes(table, coords)
    L = table.L
    axes = [np.arange(grid_n) * (L / grid_n) for _ in range(table.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack(mesh, axis=-1)
    phase = np.tensordot(x, table.kappa_full.T.astype(float), axes=1)
    waves = np.exp(2j * np.pi * phase / L) * L ** (-table.d / 2.0)
    ik = 2j * np.pi * table.kappa_full.astype(float) / L  # (2Mh, d)
    grads = np.einsum("...m,ma,mb->...ab", waves, ik, c_full)
    return np.real(grads)


def _project_tangent_scalars(table, w_grid, grid_n):
    """Tangent coefficients of a grid field on each half mode (Leray part)."""
    L = table.L
    axes = [np.arange(grid_n) * (L / grid_n) for _ in range(table.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack(mesh, axis=-1)
    phase = np.tensordot(x, table.kappa_half.T.astype(float), axes=1)
    conj_waves = np.exp(-2j * np.pi * phase / L) * L ** (-table.d / 2.0)
    cell = (L / grid_n) ** table.d
    # c_half[m, d] = integral w(x) conj(phi_m(x)) dx
    w_flat = w_grid.reshape(-1, table.d)
    cw_flat = conj_waves.reshape(-1, table.n_half)
    c_half = cell * np.einsum("xd,xm->md", w_flat, cw_flat)
    return np.einsum("md,mtd->mt", c_half, table.tangents)


@pytest.mark.parametrize("d,trunc", [(2, 2), (2, 3), (3, 1)])
def test_mode_table_structure(d, trunc):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    assert table.n_half == ((2 * trunc + 1) ** d - 1) // 2
    assert table.n_tan == d - 1
    assert table.dim == table.n_half * 2 * table.n_tan
    # one representative per conjugate pair
    seen = {tuple(k) for k in table.kappa_half}
    assert all(tuple(-k) not in seen for k in table.kappa_half)
    # low-to-high ordering by |kappa|_1
    assert np.all(np.diff(table.l1) >= 0)
    np.testing.assert_allclose(
        table.stokes, (table.kappa_half.astype(float) ** 2).sum(1), atol=1e-14
    )
    # tangent frames: unit, orthogonal to kappa, mutually orthogonal
    kf = table.kappa_half.astype(float)
    for a in range(table.n_tan):
        e = table.tangents[:, a, :]
        np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.einsum("md,md->m", e, kf), 0.0, atol=1e-13)
    if d == 3:
        dots = np.einsum("md,md->m", table.tangents[:, 0], table.tangents[:, 1])
        np.testing.assert_allclose(dots, 0.0, atol=1e-13)
    # convolution table sorted by output channel: every output channel has
    # one segment, in channel order, so advect needs no scatter
    assert table.ch_offsets.shape == (table.n_channels,)
    assert table.ch_offsets[0] == 0 and np.all(np.diff(table.ch_offsets) > 0)


def test_scalar_roundtrip_exact():
    table = build_mode_table(2, 2.0 * np.pi, 3)
    rng = np.random.default_rng(RNG_SEED)
    coords = rng.standard_normal((5, table.dim))
    back = scalars_to_coords(table, coords_to_scalars(table, coords))
    assert np.array_equal(back, coords) or np.allclose(back, coords, atol=0, rtol=1e-15)


@pytest.mark.parametrize("d,trunc,grid", [(2, 2, 16), (3, 1, 8)])
def test_parseval_against_grid_quadrature(d, trunc, grid):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    rng = np.random.default_rng(RNG_SEED)
    coords = rng.standard_normal(table.dim)
    u = _field_on_grid(table, coords, grid)
    cell = (table.L / grid) ** d
    l2sq = cell * float((u * u).sum())
    assert abs(l2sq - float(coords @ coords)) <= 1e-12 * (1 + coords @ coords)


def test_hand_advection_single_pair():
    # u = cos mode (1,0), v = cos mode (0,1), unit coefficients:
    # (u . grad) v = (2 pi / L^3)(sin(x+y) - sin(x-y)) x_hat, whose tangent
    # projection puts -pi/L^2 on the sin coordinate of (1,1) and of (1,-1)
    for L in (2.0 * np.pi, 1.7):
        table = build_mode_table(2, L, 2)
        idx = {tuple(k): i for i, k in enumerate(table.kappa_half)}
        u = np.zeros(table.dim)
        v = np.zeros(table.dim)
        u[2 * idx[(1, 0)]] = 1.0  # cos coordinate
        v[2 * idx[(0, 1)]] = 1.0
        b = advect(table, u, v)
        expected = np.zeros(table.dim)
        expected[2 * idx[(1, 1)] + 1] = -np.pi / L**2
        expected[2 * idx[(1, -1)] + 1] = -np.pi / L**2
        np.testing.assert_allclose(b, expected, atol=1e-15 / L**2)


@pytest.mark.parametrize("d,trunc,grid", [(2, 2, 16), (3, 1, 8)])
def test_advection_against_physical_oracle(d, trunc, grid):
    # grid quadrature is exact for products of degree <= 3 trunc < grid
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(3):
        uc = rng.standard_normal(table.dim)
        vc = rng.standard_normal(table.dim)
        u = _field_on_grid(table, uc, grid)
        gv = _grad_on_grid(table, vc, grid)
        w = np.einsum("...a,...ab->...b", u, gv)
        psi_oracle = _project_tangent_scalars(table, w, grid)
        b = advect(table, uc, vc)
        psi_b = coords_to_scalars(table, b).reshape(table.n_half, table.n_tan)
        scale = np.linalg.norm(uc) * np.linalg.norm(vc)
        np.testing.assert_allclose(psi_b, psi_oracle, atol=1e-12 * scale)


def test_advect_batch_matches_single_bitwise():
    table = build_mode_table(2, 2.0 * np.pi, 3)
    rng = np.random.default_rng(RNG_SEED)
    u = rng.standard_normal((4, table.dim))
    v = rng.standard_normal((4, table.dim))
    batch = advect(table, u, v)
    for i in range(4):
        assert np.array_equal(batch[i], advect(table, u[i], v[i]))


@pytest.mark.parametrize("d,trunc", [(2, 2), (2, 4), (2, 8), (3, 2)])
@pytest.mark.parametrize("batch", [None, 1, 7, 64])
def test_advect_shared_operand_matches_copy_bitwise(d, trunc, batch):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    shape = (table.dim,) if batch is None else (batch, table.dim)
    u = np.random.default_rng(RNG_SEED).standard_normal(shape)
    shared = advect(table, u, u)
    assert shared.shape == shape
    assert np.array_equal(shared, advect(table, u, u.copy()))


def _recorded_work(monkeypatch):
    """Sizes of every gather buffer spectral._work hands out from now on."""
    sizes, work = [], spectral._work

    def recorded(p, rows):
        pair = work(p, rows)
        sizes.extend(w.size for w in pair)
        return pair

    monkeypatch.setattr(spectral, "_work", recorded)
    return sizes


@pytest.mark.parametrize("entries", [256, None])
def test_contract_slices_keep_bits_and_bound_buffers(monkeypatch, entries):
    table = build_mode_table(2, 2.0 * np.pi, 4)
    u, v = np.random.default_rng(RNG_SEED).standard_normal((2, 50, table.dim))
    whole = advect(table, u, v), advect_self(table, u)
    # at 256 entries every slice is one row: P_sym = 780 and P = 1544
    if entries is not None:
        monkeypatch.setattr(spectral, "_WORK_ENTRIES", entries)
    sizes = _recorded_work(monkeypatch)
    sliced = advect(table, u, v), advect_self(table, u), spectral.self_advection(table, 50)(u)
    assert all(np.array_equal(a, b) for a, b in zip(whole + whole[1:], sliced))
    bound = max(spectral._WORK_ENTRIES, table.ch_in1.size)
    assert len(sizes) == 6 and all(0 < size <= bound for size in sizes)
    # a larger batch takes more slices, not a larger buffer pair
    advect_self(table, np.tile(u, (4, 1)))
    assert all(size <= bound for size in sizes)


@pytest.mark.parametrize("d,trunc", [(2, 2), (2, 4), (3, 2)])
def test_ch_coeff_is_complex_with_zero_imaginary_part(d, trunc):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    assert table.ch_coeff.dtype == np.complex128
    assert np.all(table.ch_coeff.imag == 0.0)
    assert np.all(table.ch_coeff.real != 0.0)


def _entry_channels(offsets, n_entries):
    """Output channel of each entry of a table sorted by output channel."""
    return np.repeat(np.arange(offsets.size), np.diff(np.r_[offsets, n_entries]))


# 2D N=8 has four (k, k) entries in the ordered table whose coefficient is the
# rounding residue of e(k) . k = 0; the symmetric table drops them
@pytest.mark.parametrize("d,trunc,entries", [(2, 4, 780), (2, 8, 11116), (3, 3, 88204)])
def test_symmetric_table_entry_counts(d, trunc, entries):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    assert table.sym_in1.size == table.sym_in2.size == table.sym_coeff.size == entries


@pytest.mark.parametrize("d,trunc", [(2, 2), (2, 4), (2, 8), (3, 2)])
def test_symmetric_table_merges_the_ordered_table(d, trunc):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    p = table.sym_in1.size
    # one segment per output channel, in channel order
    assert table.sym_offsets.shape == (table.n_channels,)
    assert table.sym_offsets[0] == 0 and np.all(np.diff(table.sym_offsets) > 0)
    assert table.sym_offsets[-1] < p
    assert table.sym_coeff.dtype == np.complex128
    assert np.all(table.sym_coeff.imag == 0.0) and np.all(table.sym_coeff.real != 0.0)
    assert np.all(table.sym_in1 < table.sym_in2)
    out = _entry_channels(table.sym_offsets, p)
    keys = list(zip(out.tolist(), table.sym_in1.tolist(), table.sym_in2.tolist()))
    assert len(set(keys)) == p
    ordered = dict(
        zip(
            zip(
                _entry_channels(table.ch_offsets, table.ch_in1.size).tolist(),
                table.ch_in1.tolist(),
                table.ch_in2.tolist(),
            ),
            table.ch_coeff.real.tolist(),
        )
    )
    # each entry is C(out, a, b) + C(out, b, a), and no nonzero sum is missing
    for (o, a, b), c in zip(keys, table.sym_coeff.real.tolist()):
        assert c == ordered.get((o, a, b), 0.0) + ordered.get((o, b, a), 0.0)
    merged = {
        (o, min(a, b), max(a, b)) for o, a, b in ordered
        if a != b and ordered.get((o, a, b), 0.0) + ordered.get((o, b, a), 0.0) != 0.0
    }
    assert merged == set(keys)


@pytest.mark.parametrize("d,trunc", [(2, 2), (2, 4), (2, 8), (3, 2)])
@pytest.mark.parametrize("batch", [None, 1, 7, 64])
def test_advect_self_matches_advect(d, trunc, batch):
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    shape = (table.dim,) if batch is None else (batch, table.dim)
    u = np.random.default_rng(RNG_SEED).standard_normal(shape)
    ordered = advect(table, u, u)
    sym = advect_self(table, u)
    assert sym.shape == shape
    assert np.abs(sym - ordered).max() <= 1e-15 * np.abs(ordered).max()
    if batch is not None:
        for i in range(batch):
            assert np.array_equal(sym[i], advect_self(table, u[i]))


def test_advect_self_workspace_reuse():
    table = build_mode_table(2, 2.0 * np.pi, 4)
    rng = np.random.default_rng(RNG_SEED)
    batches = [rng.standard_normal((b, table.dim)) for b in (50, 6, 9, 10, 50)]
    # one bound evaluator reuses its buffers across calls, as a pass does
    bound = spectral.self_advection(table, 50)
    first = bound(batches[0])
    kept = first.copy()
    reused = [bound(u) for u in batches]
    # a result does not alias the buffers that later calls overwrite
    assert np.array_equal(first, kept)
    for u, got in zip(batches, reused):
        assert np.array_equal(got, advect_self(table, u))
    # a warm call allocates nothing of size P_sym x B
    tracemalloc.start()
    try:
        bound(batches[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.sym_in1.size * 50 * 16


@pytest.mark.parametrize("d,trunc", [(2, 3), (3, 1)])
def test_advection_identities(d, trunc):
    # (B(u,v), v) = 0 and (B(u,v), w) = -(B(u,w), v)
    table = build_mode_table(d, 2.0 * np.pi, trunc)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        u, v, w = rng.standard_normal((3, table.dim))
        buv = advect(table, u, v)
        buw = advect(table, u, w)
        scale = np.linalg.norm(u) * np.linalg.norm(v) * max(np.linalg.norm(w), 1.0)
        assert abs(buv @ v) <= 1e-12 * scale
        assert abs(buv @ w + buw @ v) <= 1e-12 * scale


def test_coords_to_modes_divergence_free():
    table = build_mode_table(2, 2.0 * np.pi, 3)
    rng = np.random.default_rng(RNG_SEED)
    c = coords_to_modes(table, rng.standard_normal(table.dim))
    divs = np.einsum("md,md->m", c, table.kappa_full.astype(float))
    np.testing.assert_allclose(divs, 0.0, atol=1e-13)
