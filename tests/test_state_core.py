"""Grid containers and the integrating-factor stepper."""
import dataclasses
import os
import weakref

import numpy as np
import pytest
from oracles import rhs_array
from scipy.integrate import solve_ivp

from attractorlab import core, spectral
from attractorlab.core import (
    build_ensemble,
    complete_surrogates,
    integrate_pass,
    make_group,
    restrict,
    surrogate_group,
    translate,
)
from attractorlab.errors import (
    EmptyEnsemble,
    EmptyWindow,
    GridMismatch,
    NonFiniteState,
    OffGrid,
    StepMismatch,
)
from attractorlab.models import (
    default_radius,
    energy_ledger,
    make_spec,
    mode_table,
    nse_forcing,
    sample_ball,
)
from attractorlab.state import Ensemble, grid_index, span_steps

TOY = make_spec("toy_contraction", truncation=4)
_KICK = [{"mode": [1, 0], "amplitude": 0.1}]
_NSE4 = make_spec(
    "galerkin_nse_2d",
    nu=1.0,
    truncation=4,
    forcing=nse_forcing("galerkin_nse_2d", 2 * np.pi, 4, _KICK),
)


def test_grid_index_snaps_and_rejects():
    assert grid_index(0.3, 0.0, 0.1) == 3
    assert grid_index(-0.5, -1.0, 0.25) == 2
    # accumulated float time must still snap
    assert grid_index(0.1 * 7, 0.0, 0.1) == 7
    with pytest.raises(OffGrid):
        grid_index(0.35, 0.0, 0.1)


def test_grid_snapping_is_absolute_on_long_grids():
    # 0.4 steps off the grid, half a million steps out: still rejected
    with pytest.raises(OffGrid):
        grid_index(500.0004, 0.0, 0.001)
    with pytest.raises(StepMismatch):
        span_steps(0.0, 500.0004, 0.001)
    assert grid_index(0.001 * 500000, 0.0, 0.001) == 500000
    assert span_steps(0.0, 500.0, 0.001) == 500000


def test_span_steps():
    assert span_steps(0.0, 1.0, 0.25) == 4
    assert span_steps(2.0, 2.0, 0.1) == 0
    with pytest.raises(StepMismatch):
        span_steps(0.0, 1.0, 0.3)
    with pytest.raises(StepMismatch):
        span_steps(0.0, -1.0, 0.5)
    with pytest.raises(StepMismatch):
        span_steps(0.0, 1.0, -0.1)


def test_state_validation():
    # A state is a finite coordinate row; containers hold read-only copies.
    row = np.ones(4)
    tr = build_ensemble(TOY, row[None], 0.0, 0.1, 0.1)
    assert tr.samples.shape == (1, 2, 4) and np.linalg.norm(tr.samples[0, 0]) == 2.0
    with pytest.raises(NonFiniteState):
        build_ensemble(TOY, [[1.0, np.nan, 0.0, 0.0]], 0.0, 0.1, 0.1)
    with pytest.raises(NonFiniteState):
        Ensemble([[[1.0, np.nan, 0.0, 0.0]]], 0.0, 0.1, TOY)
    own = Ensemble(row[None, None, :], 0.0, 0.1, TOY)
    row[0] = 9.0  # the ensemble holds its own copy
    assert own.samples[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        own.samples[0, 0, 0] = 5.0  # frozen
    with pytest.raises(ValueError):
        tr.samples[0, 0, 0] = 5.0  # frozen


def test_trajectory_indexing():
    # a single trajectory is a one-member ensemble
    samples = np.arange(10, dtype=float).reshape(1, 5, 2)
    tr = Ensemble(samples, 1.0, 0.5, TOY)
    assert tr.t_end == 3.0
    assert tr.index_of(2.0) == 2
    assert np.array_equal(tr.samples_at(3.0), [[8.0, 9.0]])
    np.testing.assert_allclose(tr.times, [1.0, 1.5, 2.0, 2.5, 3.0])
    with pytest.raises(OffGrid, match=r"t=3.5 outside trajectory span \[1.0, 3.0\]"):
        tr.index_of(3.5)
    with pytest.raises(OffGrid):
        tr.index_of(1.3)
    with pytest.raises(ValueError):
        Ensemble(samples, 0.0, -0.1, TOY)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((1, 0, 2)), 0.0, 0.1, TOY)


def test_ensemble_grid_checks():
    with pytest.raises(EmptyEnsemble):
        Ensemble(np.zeros((0, 3, 2)), 0.0, 0.1, TOY)
    with pytest.raises(ValueError):
        Ensemble(np.zeros((3, 2)), 0.0, 0.1, TOY)  # members share one grid axis
    ens = Ensemble(np.zeros((2, 3, 2)), 0.0, 0.1, TOY)
    assert ens.n_members == 2 and ens.dt == 0.1
    assert ens.samples_at(0.1).shape == (2, 2)


def test_ensemble_is_one_array_with_views():
    initials = np.eye(4)
    ens = build_ensemble(TOY, initials, 0.0, 1.0, 0.1)
    assert ens.samples.shape == (4, 11, 4) and not ens.samples.flags.writeable
    assert np.shares_memory(ens.samples, restrict(ens, 0.5, 1.0).samples)
    # external input is copied and finite-checked
    raw = np.zeros((2, 3, 4))
    own = Ensemble(raw, 0.0, 0.1, TOY)
    assert not np.shares_memory(raw, own.samples)
    raw[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteState):
        Ensemble(raw, 0.0, 0.1, TOY)


def test_window_indices():
    # restrict keeps grid indices 2..6 of [1.0, 3.0] on every member
    samples = np.arange(18, dtype=float).reshape(2, 9, 1)
    ens = Ensemble(samples, 0.0, 0.5, TOY)
    win = restrict(ens, 1.0, 3.0)
    assert win.t0 == 1.0 and np.array_equal(win.samples, samples[:, 2:7])
    with pytest.raises(EmptyWindow):
        restrict(ens, 3.0, 1.0)
    with pytest.raises(OffGrid):
        restrict(ens, 1.0, 4.5)


def test_toy_decay_is_exact():
    # dx/dt = -x is pure linear decay; the integrating factor makes the
    # stepper exact on it regardless of dt
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    tr = build_ensemble(TOY, x0[None], 0.0, 5.0, 0.25)
    expected = x0[None, :] * np.exp(-tr.times)[:, None]
    np.testing.assert_allclose(tr.samples[0], expected, rtol=0, atol=1e-14)


def test_stepper_is_fourth_order():
    spec = make_spec("galerkin_nse_2d", nu=0.05, truncation=2)
    u0 = sample_ball(spec, 1, radius=1.0, seed=3)[0]

    ref = solve_ivp(
        lambda t, u: rhs_array(spec, u),
        (0.0, 1.0),
        u0,
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
        t_eval=[1.0],
    ).y[:, -1]
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        end = build_ensemble(spec, u0[None], 0.0, 1.0, dt).samples[0, -1]
        errs.append(np.linalg.norm(end - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 3.5 and order2 > 3.5


def test_batch_matches_single_bitwise():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    initials = sample_ball(spec, 5, radius=0.5, seed=9)
    batch = build_ensemble(spec, initials, 0.0, 1.0, 0.02).samples
    for i in range(5):
        single = build_ensemble(spec, initials[i][None], 0.0, 1.0, 0.02)
        assert np.array_equal(batch[i], single.samples[0])


def test_integration_rejects_bad_input():
    with pytest.raises(NonFiniteState):
        build_ensemble(TOY, np.full((1, 4), np.nan), 0.0, 1.0, 0.1)
    with pytest.raises(StepMismatch):
        build_ensemble(TOY, np.zeros((1, 4)), 0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        build_ensemble(TOY, np.zeros((1, 3)), 0.0, 1.0, 0.1)


def test_blowup_raises():
    # dyadic cascade with zero viscosity and huge data overflows quickly
    spec = make_spec("dyadic", nu=1e-12, truncation=10, lam=2.0)
    huge = np.full((1, 11), 1e150)
    with pytest.raises(NonFiniteState):
        build_ensemble(spec, huge, 0.0, 1.0, 0.1)


def test_restart_composition_matches_continuation():
    # reachability composition R(t+s) = R(t) R(s) for the deterministic
    # flow: restarting from the mid state reproduces the tail bitwise
    for spec, n, dt in (
        (make_spec("galerkin_nse_2d", nu=1.0, truncation=2), 16, 0.02),
        (make_spec("dyadic", nu=0.5, truncation=6, lam=2.0), 16, 0.01),
    ):
        initials = sample_ball(spec, n, radius=0.5, seed=21)
        ens = build_ensemble(spec, initials, 0.0, 2.0, dt)
        mid = ens.samples_at(0.8)
        ens2 = build_ensemble(spec, mid, 0.0, 1.2, dt)
        k = ens.index_of(0.8)
        assert np.array_equal(ens.samples[:, k:], ens2.samples)


def test_translate_restrict_rebase():
    one = build_ensemble(TOY, np.ones((1, 4)), 0.0, 2.0, 0.1)
    for tr in (one, build_ensemble(TOY, np.eye(4), 0.0, 2.0, 0.1)):
        t5 = translate(tr, 5.0)
        assert t5.t0 == 5.0 and np.array_equal(t5.samples, tr.samples)
        win = restrict(tr, 0.5, 1.5)
        assert win.t0 == 0.5 and win.n_samples == 11
        assert np.array_equal(win.samples, tr.samples[:, 5:16])
        z = translate(t5, -t5.t0)
        assert z.t0 == 0.0 and np.shares_memory(z.samples, tr.samples)


def test_complete_surrogates_contains_zero():
    lib = complete_surrogates(TOY, np.eye(4), t_back=2.0, horizon=1.0, dt=0.1)
    assert lib.t0 == 0.0 and lib.n_samples == 11
    assert lib.index_of(0.0) == 0
    assert lib.t_end == 1.0
    with pytest.raises(StepMismatch):
        complete_surrogates(TOY, np.eye(4), t_back=0.25, horizon=1.0, dt=0.1)
    with pytest.raises(StepMismatch):
        surrogate_group(TOY, np.eye(4), t_back=2.0, horizon=-1.0, dt=0.1)


@pytest.mark.parametrize("t_back", [0.0, 0.3, 1.0])
def test_complete_surrogates_are_the_forward_part_of_a_full_integration(t_back):
    initials = sample_ball(_NSE4, 3, radius=default_radius(_NSE4), seed=8)
    full = build_ensemble(_NSE4, initials, -t_back, 0.5, 0.02)
    lib = complete_surrogates(_NSE4, initials, t_back, 0.5, 0.02)
    assert np.array_equal(lib.samples, full.samples[:, full.index_of(0.0) :])
    assert lib.t0 == 0.0 and lib.t_end == 0.5 and not lib.samples.flags.writeable


def test_deterministic_rerun_bitwise():
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    initials = sample_ball(spec, 3, radius=0.5, seed=77)
    a = build_ensemble(spec, initials, 0.0, 1.0, 0.02)
    b = build_ensemble(spec, sample_ball(spec, 3, radius=0.5, seed=77), 0.0, 1.0, 0.02)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize(
    "spec",
    [
        make_spec(
            "galerkin_nse_2d",
            nu=1.0,
            truncation=4,
            forcing=nse_forcing("galerkin_nse_2d", 2 * np.pi, 4, _KICK),
        ),
        make_spec("dyadic", nu=0.5, truncation=6, lam=2.0),
    ],
    ids=["nse2d", "dyadic"],
)
def test_fused_pass_matches_one_build_per_group_bitwise(spec):
    # mixed step counts with a tie, a library group starting at -t_back, a
    # one-member group and a norms group, all in one shrinking batch
    dt = 0.02
    ini = sample_ball(spec, 14, radius=default_radius(spec), seed=4)
    spans = [(ini[0:3], 0.0, 1.0), (ini[3:5], 0.0, 0.4), (ini[5:6], 0.0, 1.0), (ini[6:9], 0.0, 0.1)]
    groups = [make_group(spec, rows, t0, t1, dt) for rows, t0, t1 in spans]
    groups.append(surrogate_group(spec, ini[9:12], t_back=0.6, horizon=0.6, dt=dt))
    groups.append(make_group(spec, ini[12:14], 0.0, 0.7, dt, norms=True))
    fused = integrate_pass(spec, groups)[0]
    for (rows, t0, t1), ens in zip(spans, fused):
        alone = build_ensemble(spec, rows, t0, t1, dt)
        assert ens.t0 == alone.t0 and ens.dt == alone.dt
        assert np.array_equal(ens.samples, alone.samples)
        assert not ens.samples.flags.writeable
    lib = complete_surrogates(spec, ini[9:12], t_back=0.6, horizon=0.6, dt=dt)
    assert fused[4].t0 == 0.0 and np.array_equal(fused[4].samples, lib.samples)
    members = build_ensemble(spec, ini[12:14], 0.0, 0.7, dt).samples
    norms = np.array([np.linalg.norm(member, axis=1) for member in members])
    assert fused[5].shape == (2, 36) and np.array_equal(fused[5], norms)


def test_fused_pass_needs_one_dt():
    groups = [make_group(TOY, np.eye(4), 0.0, 1.0, 0.1), make_group(TOY, np.eye(4), 0.0, 1.0, 0.05)]
    with pytest.raises(GridMismatch):
        integrate_pass(TOY, groups)
    assert integrate_pass(TOY, []) == ([], None)


def _forking(monkeypatch, fork):
    """Let every pass fork or not; record this process's forks and the rows of
    each _ifrk4_path call it makes (a forked child records nothing here)."""
    seen = {"forks": 0, "rows": []}
    os_fork, path = os.fork, core._ifrk4_path

    def counted_fork():
        seen["forks"] += 1
        return os_fork()

    def counted_path(spec, u0, *rest):
        seen["rows"].append(len(u0))
        return path(spec, u0, *rest)

    monkeypatch.setattr(core, "_can_fork", lambda: fork)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(core, "_ifrk4_path", counted_path)
    return seen


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_groups(case: str) -> list:
    """The groups of a pass whose child steps members [h, n) of the first, which
    keeps its ledger rows."""
    ini = sample_ball(_NSE4, 9, radius=default_radius(_NSE4), seed=4)
    dt = 0.02
    # the run's member count, and the library members of 150 steps each
    n, lib = {
        "lone member": (1, 0),  # one row: no fork, h = n = 1
        "lone odd": (5, 0),  # h = n // 2 = 2
        "run lighter than the library": (2, 1),  # 100 against 150: h = 0
        "one run member over": (7, 2),  # h = ceil((350 - 300) / 100) = 1
        "run heavier than the library": (8, 1),  # h = ceil((400 - 150) / 100) = 3
    }[case]
    groups = [make_group(_NSE4, ini[:n], 0.0, 1.0, dt)._replace(ledger=True)]
    if lib:
        groups.append(surrogate_group(_NSE4, ini[9 - lib :], t_back=2.0, horizon=1.0, dt=dt))
    return groups


def _arrays(path) -> list:
    """The arrays of a path: norms, samples, or samples and ledger rows; the
    ledger rows must have the bits of energy_ledger over the whole ensemble."""
    if not isinstance(path, tuple):
        return [getattr(path, "samples", path)]
    ens, led = path
    whole = energy_ledger(ens.model, ens)
    for field in ("times", "energy", "enstrophy", "work"):
        assert getattr(led, field).tobytes() == getattr(whole, field).tobytes(), field
    return [ens.samples, led.energy, led.enstrophy, led.work]


def _one_fork_and_the_bits_of_one_process(monkeypatch, spec, groups, h):
    """Each pass forks once unless h = n, its child steps members [h, n) of the
    first group, and every path has the bits of the pass that does not fork."""
    n, rows = len(groups[0].initials), sum(len(g.initials) for g in groups)
    passes = {}
    for fork in (False, True):
        seen = _forking(monkeypatch, fork)
        assert core._split(groups) == (h if fork else n)
        passes[fork] = integrate_pass(spec, groups)[0]
        assert seen == {"forks": int(fork and h < n), "rows": [rows - (n - h) if fork else rows]}
        _no_child_left()
        monkeypatch.undo()
    for one, two in zip(passes[False], passes[True]):
        for a, b in zip(_arrays(one), _arrays(two), strict=True):
            assert np.array_equal(a, b)
            assert not b.flags.writeable


@pytest.mark.parametrize(
    "spec", [_NSE4, make_spec("dyadic", nu=0.5, truncation=6, lam=2.0)], ids=["nse2d", "dyadic"]
)
def test_two_lanes_give_the_bits_of_one(spec, monkeypatch):
    # the groups of test_fused_pass_matches_one_build_per_group_bitwise: the
    # first's 3 x 50 member-steps against 355 others, so the child takes all 3
    dt = 0.02
    ini = sample_ball(spec, 14, radius=default_radius(spec), seed=4)
    spans = [(ini[0:3], 0.0, 1.0), (ini[3:5], 0.0, 0.4), (ini[5:6], 0.0, 1.0), (ini[6:9], 0.0, 0.1)]
    groups = [make_group(spec, rows, t0, t1, dt) for rows, t0, t1 in spans]
    groups.append(surrogate_group(spec, ini[9:12], t_back=0.6, horizon=0.6, dt=dt))
    groups.append(make_group(spec, ini[12:14], 0.0, 0.7, dt, norms=True))
    _one_fork_and_the_bits_of_one_process(monkeypatch, spec, groups, 0)


@pytest.mark.parametrize(
    "case, h",
    [
        ("lone odd", 2),
        ("run heavier than the library", 3),
        ("run lighter than the library", 0),
        ("one run member over", 1),
        ("lone member", 1),
    ],
)
def test_the_split_gives_the_bits_of_one_process(case, h, monkeypatch):
    _one_fork_and_the_bits_of_one_process(monkeypatch, _NSE4, _split_groups(case), h)


@pytest.mark.parametrize("when", ["before", "in its ledger rows", "after"])
def test_a_child_that_dies_around_its_byte_leaves_the_same_bits(when, monkeypatch):
    groups = _split_groups("run heavier than the library")
    seen = _forking(monkeypatch, False)
    alone = integrate_pass(_NSE4, groups)[0]
    monkeypatch.undo()
    seen = _forking(monkeypatch, True)
    parent, step, ledger_rows = os.getpid(), core._step, core.ledger_rows

    def dying_before_its_byte(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step(*args)

    def dying_in_its_ledger_rows(*args):
        if os.getpid() != parent:
            os._exit(3)
        return ledger_rows(*args)

    def dying_after_its_byte(ensemble, members):
        os._exit(3)

    if when != "after":
        if when == "before":
            monkeypatch.setattr(core, "_step", dying_before_its_byte)
        else:  # the child stepped its members but dies filling their ledger rows
            monkeypatch.setattr(core, "ledger_rows", dying_in_its_ledger_rows)
        paths, tail = core.integrate_pass(_NSE4, groups, dying_after_its_byte)
        # this process stepped its own rows, then the child's 5, and filled their ledger rows
        assert tail is None and seen["rows"] == [4, 5]
    else:
        paths, tail = core.integrate_pass(_NSE4, groups, dying_after_its_byte)
        assert tail.members == range(3, 8) and seen["rows"] == [4]
        assert tail.join() is False
    _no_child_left()
    for one, two in zip(alone, paths):
        for a, b in zip(_arrays(one), _arrays(two), strict=True):
            assert np.array_equal(a, b)


def test_a_tail_runs_then_on_the_childs_members(tmp_path, monkeypatch):
    groups = _split_groups("lone odd")
    _forking(monkeypatch, True)
    out = tmp_path / "members.txt"

    def then(ensemble, members):
        out.write_text(repr((list(members), ensemble.samples[members.start :].tobytes().hex())))

    paths, tail = core.integrate_pass(_NSE4, groups, then)
    assert tail.members == range(2, 5) and tail.join() is True
    _no_child_left()
    # then reads the ensemble of the first group, whose path also holds its ledger
    assert out.read_text() == repr(([2, 3, 4], paths[0][0].samples[2:].tobytes().hex()))
    # without then the child leaves once its rows are stored
    assert core.integrate_pass(_NSE4, groups)[1] is None
    _no_child_left()


@pytest.mark.parametrize("huge_row", [0, 1], ids=["lane0", "lane1"])
def test_a_failing_lane_reruns_the_pass_here(huge_row, monkeypatch):
    # a lone two-row group: row 0 stays here, row 1 goes to the child
    spec = make_spec("dyadic", nu=1.0, truncation=10, lam=2.0)
    initials = np.full((2, 11), 0.1)
    initials[huge_row] = 1e20
    messages = []
    for fork in (False, True):
        seen = _forking(monkeypatch, fork)
        with pytest.raises(NonFiniteState) as err:
            build_ensemble(spec, initials, 0.0, 1.0, 0.1)
        messages.append(str(err.value))
        _no_child_left()
        # here: row 0 fails, the child is killed and both rows run again;
        # child: it fails before its byte and its row runs here
        assert seen["rows"] == ([2] if not fork else [1, 2] if huge_row == 0 else [1, 1])
        monkeypatch.undo()
    assert messages[0] == messages[1] == "integration blew up at step 1"


def test_a_one_row_pass_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a one-row pass forked")

    monkeypatch.setattr(os, "fork", no_fork)
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=2)
    build_ensemble(spec, sample_ball(spec, 1, radius=0.5, seed=2), 0.0, 0.2, 0.02)
    build_ensemble(TOY, np.ones((1, 4)), 0.0, 1.0, 0.1)


def test_a_pass_frees_the_advection_workspace(monkeypatch):
    spec = make_spec("galerkin_nse_2d", nu=1.0, truncation=4)
    table = mode_table(spec)
    initials = sample_ball(spec, 6, radius=0.5, seed=5)
    buffers, work = [], spectral._work

    def recorded(p, rows):
        pair = work(p, rows)
        buffers.append(([w.size for w in pair], weakref.ref(pair)))
        return pair

    monkeypatch.setattr(spectral, "_work", recorded)
    first = build_ensemble(spec, initials, 0.0, 0.4, 0.02).samples
    # this process's pass bound one buffer pair, within max(2^16, P) entries each,
    # and nothing holds it once the pass is over, the table least of all
    bound = max(spectral._WORK_ENTRIES, table.sym_in1.size)
    [(sizes, ref)] = buffers
    assert len(sizes) == 2 and all(0 < size <= bound for size in sizes)
    assert ref() is None
    assert set(vars(table)) == {f.name for f in dataclasses.fields(table)}
    # the next pass binds its own buffers and gives the same bits
    again = build_ensemble(spec, initials, 0.0, 0.4, 0.02).samples
    assert len(buffers) == 2 and all(ref() is None for _, ref in buffers)
    assert np.array_equal(first, again)
