"""Command-line entry point: config validation, outputs, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import attraction_report_oracle

import attractorlab.cli as cli
import attractorlab.core as core
import attractorlab.limits as limits
import attractorlab.models as models
from attractorlab.cli import load_config, main
from attractorlab.core import build_ensemble, integrate_pass, make_group
from attractorlab.errors import ConfigInvalid, NonFiniteState
from attractorlab.state import Ensemble
from attractorlab.verification import check_strong_convergence_at_point

TOY = {
    "model": {"kind": "toy_contraction", "truncation": 4},
    "seed": 5,
    "ensemble_size": 3,
    "horizon": 10.0,
    "dt": 0.02,
    "radius": 1.0,
    "omega": {"t_transient": 8.0, "t_max": 10.0, "sample_stride": 10, "cluster_tol": 1e-3},
    "library": {"size": 2, "t_back": 10.0, "horizon": 8.0},
}


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _run(tmp_path, sub, payload, **extra):
    cfg = dict(payload)
    out = tmp_path / "out"
    cfg["output_dir"] = str(out)
    argv = [sub, "--config", _write_cfg(tmp_path, cfg)]
    for k, v in extra.items():
        argv += [f"--{k}", str(v)]
    return main(argv), out


FIVE = ("trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json")


def test_simulate_writes_all_outputs(tmp_path):
    code, out = _run(tmp_path, "simulate", TOY)
    assert code == 0
    for f in FIVE:
        assert (out / f).exists(), f
    header = (out / "trajectories.csv").read_text().splitlines()[0]
    assert header == "time,member,c0,c1,c2,c3"
    led = (out / "ledger.csv").read_text().splitlines()
    assert led[0] == "member,time,energy,enstrophy,work"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifact"] == "attractorlab"
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == sorted(FIVE)
    assert json.loads((out / "sets.json").read_text()) == {}


def test_omega_subcommand_reports_origin(tmp_path):
    code, out = _run(tmp_path, "omega", TOY)
    assert code == 0
    sets = json.loads((out / "sets.json").read_text())
    pts = sets["omega"]["points"]
    assert len(pts) == 1
    assert max(abs(v) for v in pts[0]) < 1e-3


def test_attractor_subcommand_attaches_attraction(tmp_path):
    code, out = _run(tmp_path, "attractor", TOY)
    assert code == 0
    sets = json.loads((out / "sets.json").read_text())
    assert sets["attractor"]["attraction"]["t_entry"] is not None
    reports = json.loads((out / "reports.json").read_text())
    assert reports["checks"][0]["name"] == "attracting"
    assert reports["checks"][0]["status"] == "pass"


def test_seed_and_out_overrides(tmp_path):
    cfg = dict(TOY)
    cfg["output_dir"] = str(tmp_path / "ignored")
    path = _write_cfg(tmp_path, cfg)
    dest = tmp_path / "elsewhere"
    code = main(["simulate", "--config", path, "--seed", "99", "--out", str(dest)])
    assert code == 0
    manifest = json.loads((dest / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert not (tmp_path / "ignored").exists()


def test_rerun_is_byte_identical(tmp_path):
    payload = dict(TOY)
    payload["checks"] = [{"name": "energy"}, {"name": "point_convergence"}]
    code1, out = _run(tmp_path, "verify", payload)
    first = {f: (out / f).read_bytes() for f in FIVE}
    code2, out = _run(tmp_path, "verify", payload)
    assert code1 == code2 == 0
    for f in FIVE:
        assert (out / f).read_bytes() == first[f], f


def test_verify_failure_exit_code(tmp_path):
    # a mixed ladder: the matched rung keeps its record, the missed one is null
    payload = dict(TOY)
    payload["checks"] = [{"name": "tracking", "eps_ladder": [0.5, 1e-15]}]
    code, out = _run(tmp_path, "verify", payload)
    assert code == 2
    reports = json.loads((out / "reports.json").read_text())
    (rep,) = reports["checks"]
    assert rep["status"] == "fail"
    assert list(rep["ladder"]) == ["0.5", "1e-15"]
    matched = rep["ladder"]["0.5"]
    assert sorted(matched) == ["t_star", "worst_error"]
    assert 0.0 <= matched["t_star"] <= TOY["horizon"] and 0.0 <= matched["worst_error"] < 0.5
    assert rep["ladder"]["1e-15"] is None


def test_verify_hypothesis_fail_exit_code(tmp_path):
    # single-member sequence cannot certify weak convergence
    payload = dict(TOY)
    payload["checks"] = [{"name": "point_convergence", "n_seq": 1, "t_star": 4.0}]
    code, out = _run(tmp_path, "verify", payload)
    assert code == 3
    reports = json.loads((out / "reports.json").read_text())
    assert reports["checks"][0]["status"] == "hypothesis_fail"


def test_fail_beats_hypothesis_fail(tmp_path):
    payload = dict(TOY)
    payload["checks"] = [
        {"name": "point_convergence", "n_seq": 1, "t_star": 4.0},
        {"name": "tracking", "eps_ladder": [1e-15]},
    ]
    code, _ = _run(tmp_path, "verify", payload)
    assert code == 2


def test_runtime_error_recorded_and_exit_one(tmp_path):
    # omega window beyond the integrated horizon is a runtime error, not a crash
    payload = dict(TOY)
    payload["omega"] = dict(TOY["omega"], t_max=100.0, t_transient=50.0)
    code, out = _run(tmp_path, "omega", payload)
    assert code == 1
    reports = json.loads((out / "reports.json").read_text())
    assert reports["error"]["type"] == "HorizonTooShort"
    for f in FIVE:
        assert (out / f).exists(), f


@pytest.mark.parametrize(
    "t_star,dt,horizon,window",
    [(0.0, 0.02, 10.0, (0, 50)), (10.0, 0.02, 10.0, (450, 500)), (3.0, 0.3, 6.0, (7, 13))],
    ids=["t0", "horizon", "dt0.3"],
)
def test_the_point_group_steps_only_to_its_window(tmp_path, t_star, dt, horizon, window):
    checks = [{"name": "point_convergence", "t_star": t_star}]
    payload = dict(TOY, dt=dt, horizon=horizon, checks=checks, output_dir=str(tmp_path))
    cfg = load_config(_write_cfg(tmp_path, payload))
    spec = cli._build_spec(cfg["model"])
    ctx = cli._RunContext(cfg, spec)
    group = cli._point_group(cfg, cfg["checks"][0], ctx)
    assert (group.skip, group.n_steps) == window
    full = make_group(spec, group.initials, 0.0, horizon, dt)
    limit = Ensemble(ctx.ensemble.samples[:1], 0.0, dt, spec)

    windowed, whole = (integrate_pass(spec, [g])[0][0] for g in (group, full))
    assert windowed.n_samples == window[1] - window[0] + 1
    # repr writes every float of the report exactly
    got, want = (
        repr(check_strong_convergence_at_point(seq, limit, t_star)) for seq in (windowed, whole)
    )
    assert got == want and "converged=True" in want


class _ArrayMemoryError(MemoryError):
    """Stands in for the private subclass that numpy raises."""


def _out_of_memory(*args, **kwargs):
    raise _ArrayMemoryError("Unable to allocate 385. GiB for an array")


def test_a_mode_table_out_of_memory_is_a_config_error(tmp_path, monkeypatch, capsys):
    # truncation 200 would ask build_mode_table for 385 GiB; the patch raises at once
    monkeypatch.setattr(models, "build_mode_table", _out_of_memory)
    model = {"kind": "galerkin_nse_2d", "truncation": 200,
             "forcing": [{"mode": [1, 0], "amplitude": 0.1}]}
    code, out = _run(tmp_path, "simulate", dict(TOY, model=model))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: model: Unable to allocate 385. GiB" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["galerkin_nse_2d", "galerkin_nse_3d"])
def test_an_unforced_mode_table_out_of_memory_is_a_config_error(
    kind, tmp_path, monkeypatch, capsys
):
    # the table is built at load for every NSE model, not only through its forcing
    monkeypatch.setattr(models, "build_mode_table", _out_of_memory)
    code, out = _run(tmp_path, "simulate", dict(TOY, model={"kind": kind, "truncation": 200}))
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: model: Unable to allocate 385. GiB" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["sample_ball", "mmap"])
def test_running_out_of_memory_is_an_error_record(tmp_path, monkeypatch, capsys, stage):
    # ensemble_size 10^12 or horizon 10^12 would ask for TiBs; the patches raise at once
    if stage == "sample_ball":
        monkeypatch.setattr(cli, "sample_ball", _out_of_memory)
        payload, message = dict(TOY, ensemble_size=10**12), "Unable to allocate"
    else:
        def no_mapping(*args, **kwargs):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(core.mmap, "mmap", no_mapping)
        payload = dict(TOY, horizon=1e12, dt=0.5)
        message = "cannot map a shared float array of shape (3, 2000000000001, 4): Cannot allocate"
    code, out = _run(tmp_path, "simulate", payload)
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    error = json.loads((out / "reports.json").read_text())["error"]
    assert error["type"] == "MemoryError" and message in error["message"]
    for f in FIVE:
        assert (out / f).exists(), f


@pytest.mark.parametrize(
    "horizon, dt, error",
    [
        (1e300, 1e-300, "StepMismatch: [0.0, 1e+300] is not an integer number of steps of 1e-300"),
        (
            1e20,
            1e-3,
            "MemoryError: cannot map a shared float array of shape"
            " (3, 99999999999999991611393, 4): too large",
        ),
        (
            1e15,
            1e-3,
            "MemoryError: cannot map a shared float array of shape"
            " (3, 1000000000000000001, 4): too large",
        ),
    ],
    ids=["inf steps", "past mmap", "past int64"],
)
def test_a_step_count_past_what_fits_is_an_error_record(horizon, dt, error, tmp_path, capsys):
    # horizon / dt overflows to inf, or its steps overflow the mapping's size; at
    # 1e18 steps the element count 1.2e19 is past int64, where np.prod would wrap
    code, out = _run(tmp_path, "simulate", dict(TOY, horizon=horizon, dt=dt))
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    record = json.loads((out / "reports.json").read_text())["error"]
    assert f"{record['type']}: {record['message']}" == error
    for f in FIVE:
        assert (out / f).exists(), f


@pytest.mark.parametrize(
    "payload",
    [
        dict(TOY, horizon=1e300, dt=1e-300, checks=[{"name": "compactness"}]),
        dict(TOY, horizon=1.0, dt=1e-10, checks=[{"name": "point_convergence", "t_star": 1e308}]),
    ],
    ids=["inf steps", "t_star past the steps"],
)
def test_a_grid_time_past_the_floats_is_a_config_error(payload, tmp_path, capsys):
    code, out = _run(tmp_path, "verify", payload)
    assert code == 1
    assert "must be a dt-grid time in [0, horizon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, payload",
    [("simulate", dict(TOY, ensemble_size=2)), ("trajectory-attractor", TOY)],
    ids=["this process first", "child first"],
)
def test_a_ledger_out_of_memory_is_an_error_record(tmp_path, monkeypatch, capsys, sub, payload):
    # the pass computes the ledger rows. simulate: this process fills [0, 1) and
    # the child [1, 2); trajectory-attractor: the child fills all three run members
    # (h = 0) and fails before its byte, so this process steps them and fails too
    monkeypatch.setattr(core, "ledger_rows", _out_of_memory)
    for fork in (False, True):
        monkeypatch.setattr(core, "_can_fork", lambda: fork)
        (tmp_path / str(fork)).mkdir()
        code, out = _run(tmp_path / str(fork), sub, payload)
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        _no_child_left()
        error = {"type": "MemoryError", "message": "Unable to allocate 385. GiB for an array"}
        reports = json.loads((out / "reports.json").read_text())
        assert reports == {"checks": [], "error": {**error, "stage": "ledger"}}
        for f in FIVE:
            assert (out / f).exists(), f


def test_a_check_out_of_memory_keeps_the_other_records(tmp_path, monkeypatch, capsys):
    # n_samples 10^12 would ask sample_ball for TiBs; the patch raises at once
    sample_ball = cli.sample_ball

    def absorbing_out_of_memory(spec, n, **kwargs):
        if n == 10**12:
            _out_of_memory()
        return sample_ball(spec, n, **kwargs)

    monkeypatch.setattr(cli, "sample_ball", absorbing_out_of_memory)
    checks = [
        {"name": "energy"},
        {"name": "absorbing", "n_samples": 10**12},
        {"name": "compactness"},
    ]
    code, out = _run(tmp_path, "verify", dict(NSE2, checks=checks))
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    reports = json.loads((out / "reports.json").read_text())
    assert "error" not in reports
    energy, absorbing, compactness = reports["checks"]
    assert energy["name"] == "energy" and energy["status"] in ("pass", "fail")
    assert compactness["name"] == "compactness" and compactness["status"] in ("pass", "fail")
    assert absorbing == {
        "name": "absorbing",
        "status": "error",
        "type": "MemoryError",
        "message": "Unable to allocate 385. GiB for an array",
        "stage": "absorbing",
    }
    for f in FIVE:
        assert (out / f).exists(), f


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "dyadic", "truncation": 1100, "forcing": [{"shell": 1, "amplitude": 0.5}]},
        {"kind": "dyadic", "truncation": 3, "lambda": 1e100},
        {"kind": "galerkin_nse_2d", "truncation": 2, "nu": 1e308},
    ],
    ids=["dyadic-truncation", "dyadic-lambda", "nse-nu"],
)
def test_an_overflowing_linear_rate_is_a_config_error(model, tmp_path, capsys):
    # each of these ran after a numpy overflow warning, and the first two
    # exited 1 with a NonFiniteState record
    cfg = dict(TOY, model=model, horizon=0.1, dt=0.1, output_dir=str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: model: the largest linear rate")
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_absorbing_check_on_forced_model(tmp_path):
    payload = {
        "model": {
            "kind": "galerkin_nse_2d",
            "truncation": 2,
            "forcing": [{"mode": [1, 0], "amplitude": 0.1}],
        },
        "seed": 1,
        "ensemble_size": 2,
        "horizon": 4.0,
        "dt": 0.02,
        "checks": [{"name": "absorbing", "n_samples": 8, "horizon": 4.0}],
    }
    code, out = _run(tmp_path, "verify", payload)
    assert code == 0
    rep = json.loads((out / "reports.json").read_text())["checks"][0]
    assert rep["status"] == "pass"
    assert 0.0 < rep["worst_entry_time"] < 4.0
    # samples still outside the ball at the check's horizon: no entry time
    payload["model"]["forcing"] = [{"mode": [1, 0], "amplitude": 0.5}]
    payload["checks"] = [{"name": "absorbing", "n_samples": 4, "horizon": 0.04}]
    code, out = _run(tmp_path, "verify", payload)
    assert code == 2
    rep = json.loads((out / "reports.json").read_text())["checks"][0]
    assert rep["status"] == "fail" and rep["worst_entry_time"] is None


def test_absorbing_on_an_unforced_model_is_a_hypothesis_failure(tmp_path, monkeypatch):
    # zero forcing gives radius 0: the boundary samples would all be the rest state
    passes = _passes(monkeypatch)
    payload = dict(NSE2, model={"kind": "galerkin_nse_2d", "truncation": 2},
                   checks=[{"name": "absorbing", "n_samples": 4}])
    code, out = _run(tmp_path, "verify", payload)
    assert code == 3
    assert json.loads((out / "reports.json").read_text())["checks"] == [{
        "name": "absorbing",
        "status": "hypothesis_fail",
        "detail": "zero forcing: the absorbing ball is the rest state, radius 0",
    }]
    assert passes == [[3]]  # the run alone: no absorbing group is integrated


@pytest.mark.parametrize(
    "fields,n",
    [({"k": 16, "n_times": 16}, 16), ({"n_times": 30, "t_from": 9.94}, 4)],
    ids=["k-equals-times", "times-fewer-than-k"],
)
def test_compactness_with_a_center_per_sampled_time_is_a_hypothesis_failure(
    fields, n, tmp_path
):
    # every sample a center gives defect 0, which would pass even at threshold 0
    chk = {"name": "compactness", "threshold": 0.0, **fields}
    code, out = _run(tmp_path, "verify", dict(TOY, checks=[chk]))
    assert code == 3
    (rep,) = json.loads((out / "reports.json").read_text())["checks"]
    k = fields.get("k", 8)
    assert rep == {
        "name": "compactness",
        "status": "hypothesis_fail",
        "detail": f"k={k} centers cover all {n} sampled times: defect 0",
    }


def test_compactness_with_fewer_centers_than_times_keeps_its_record(tmp_path):
    chk = {"name": "compactness", "k": 15, "n_times": 16, "threshold": 0.0}
    code, out = _run(tmp_path, "verify", dict(TOY, checks=[chk]))
    (rep,) = json.loads((out / "reports.json").read_text())["checks"]
    assert sorted(rep) == ["defect", "k", "name", "status", "threshold"]
    assert rep["k"] == 15 and rep["defect"] > 0.0
    assert (code, rep["status"]) == (2, "fail")


def test_compactness_asking_for_more_times_than_the_grid_holds_takes_them_all(tmp_path):
    # horizon 1 at dt 0.02 holds 26 samples from t_from 0.5; asking for 2^62
    # times must pick those 26 without walking the 2^62 requests
    short = dict(TOY, horizon=1.0, omega=dict(TOY["omega"], t_transient=0.5, t_max=1.0))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    records = []
    for n_times in (2**62, 26):
        out = tmp_path / str(n_times)
        cfg = dict(short, output_dir=str(out), checks=[{"name": "compactness", "n_times": n_times}])
        cfg_path = _write_cfg(tmp_path, cfg, f"{n_times}.json")
        run = [sys.executable, "-m", "attractorlab.cli", "verify", "--config", cfg_path]
        done = subprocess.run(run, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode in (0, 2), done.stderr
        (rep,) = json.loads((out / "reports.json").read_text())["checks"]
        records.append(rep)
    assert records[0] == records[1]
    assert sorted(records[0]) == ["defect", "k", "name", "status", "threshold"]


def test_a_norm_exactly_at_the_absorbing_bound_is_inside(tmp_path):
    # the member enters at the second step and ends exactly on the check's
    # bound r_abs + slack, which still counts as inside the ball
    cfg = load_config(_write_cfg(tmp_path, NSE2))
    spec = cli._build_spec(cfg["model"])
    r_abs = models.absorbing_radius(spec)
    norms = np.array([[2.0 * r_abs, 0.5 * r_abs, r_abs + 1e-9 * r_abs]])
    ctx = SimpleNamespace(spec=spec, own=lambda chk: norms)
    rep = cli._check_absorbing(cfg, {"n_samples": 1}, ctx)
    assert rep == {
        "status": "pass", "radius": r_abs, "worst_entry_time": cfg["dt"], "n_samples": 1,
    }


def test_a_member_of_zero_energy_leaves_the_gap_ratio_to_the_others():
    # a member that starts at rest has initial energy 0: its gap is left out
    # of the ratio, not divided by 0, so the ratio is the moving member's
    spec = models.make_spec("toy_contraction", truncation=4)
    moving = np.array([[0.5, -0.25, 0.125, 1.0]])
    chk = {"eps_ladder": [0.1], "gap_tol": 1.0}
    reps = []
    for initials in (moving, np.concatenate([np.zeros_like(moving), moving])):
        ens = build_ensemble(spec, initials, 0.0, 2.0, 0.02)
        ctx = SimpleNamespace(
            spec=spec, ensemble=ens, ledger=models.energy_ledger(spec, ens), radius=1.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps.append(cli._check_energy({}, chk, ctx))
    assert reps[0]["gap_ratio"] > 0.0
    assert reps[1]["gap_ratio"] == reps[0]["gap_ratio"]


@pytest.mark.parametrize(
    "name,bound,reading",
    [("energy", "gap_tol", "gap_ratio"), ("compactness", "threshold", "defect")],
)
def test_a_verify_reading_equal_to_its_bound_passes(name, bound, reading, tmp_path):
    # the first run's reading, written back as the bound (JSON round-trips floats exactly)
    code, out = _run(tmp_path, "verify", dict(NSE2, checks=[{"name": name, bound: 0.0}]))
    (first,) = json.loads((out / "reports.json").read_text())["checks"]
    assert (code, first["status"]) == (2, "fail") and first[reading] > 0.0
    value = first[reading]
    code, out = _run(tmp_path, "verify", dict(NSE2, checks=[{"name": name, bound: value}]))
    (rep,) = json.loads((out / "reports.json").read_text())["checks"]
    assert rep[reading] == rep[bound] == value
    assert (code, rep["status"]) == (0, "pass")


def test_config_error_messages(tmp_path, capsys):
    bad = dict(TOY)
    bad["modle"] = 1
    assert main(["simulate", "--config", _write_cfg(tmp_path, bad, "a.json")]) == 1
    assert "modle" in capsys.readouterr().err
    bad2 = {"model": {"kind": "toy_contraction", "truncation": 4, "forcng": []},
            "horizon": 1.0, "dt": 0.1}
    assert main(["simulate", "--config", _write_cfg(tmp_path, bad2, "b.json")]) == 1
    assert "model.forcng" in capsys.readouterr().err
    bad3 = dict(TOY)
    bad3["checks"] = [{"name": "nonsense"}]
    assert main(["verify", "--config", _write_cfg(tmp_path, bad3, "c.json")]) == 1
    assert "checks[0].name" in capsys.readouterr().err
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unreadable_config_path_is_a_config_error(tmp_path, capsys):
    # a directory, a file that is not UTF-8 text, text that is not JSON, and
    # JSON nested past the parser's recursion limit
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    broken = tmp_path / "broken.json"
    broken.write_text('{"seed": 5,')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    cases = (
        (tmp_path, "cannot be read"),
        (binary, "not UTF-8"),
        (broken, "not valid JSON"),
        (deep, "nested too deeply"),
    )
    for path, reason in cases:
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err


def test_output_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    path = _write_cfg(tmp_path, TOY)
    for out in (taken, taken / "sub"):
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output_dir" in err
    cfg = _write_cfg(tmp_path, dict(TOY, output_dir=str(taken)), "file_out.json")
    assert main(["simulate", "--config", cfg]) == 1
    assert "output_dir" in capsys.readouterr().err
    assert taken.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file_out.json", "taken"]


def test_config_type_errors_are_config_errors(tmp_path, capsys):
    # each must give a config error naming the field, not a raw Python exception
    nse = {"kind": "galerkin_nse_2d", "truncation": 2}
    cases = [
        ("config.omega must be an object", {"omega": 3}),
        ("config.output_dir must be a str", {"output_dir": 5}),
        ("config.checks must be a list", {"checks": {}}),
        ("truncation", {"model": dict(TOY["model"], truncation="abc")}),
        ("truncation", {"model": dict(TOY["model"], truncation=None)}),
        ("amplitude", {"model": dict(nse, forcing=[{"mode": [1, 0]}])}),
        ("mode", {"model": dict(nse, forcing=[{"mode": "ab", "amplitude": 0.1}])}),
        ("metric", {"checks": [{"name": "tracking", "metric": "euclid"}]}),
        # well-typed, but rejected by the model itself
        ("mode", {"model": dict(nse, forcing=[{"mode": [9, 9], "amplitude": 0.1}])}),
        ("mode", {"model": dict(nse, forcing=[{"mode": [0, 0], "amplitude": 0.1}])}),
        ("mode", {"model": dict(nse, forcing=[{"mode": [-1, 0], "amplitude": 0.1}])}),
        ("mode", {"model": dict(nse, forcing=[{"mode": [1, 0, 0], "amplitude": 0.1}])}),
        ("component", {"model": dict(nse, forcing=[{"mode": [1, 0], "amplitude": 0.1,
                                                     "component": 1}])}),
        ("shell", {"model": {"kind": "dyadic", "truncation": 4,
                             "forcing": [{"shell": 5, "amplitude": 0.1}]}}),
        ("model.forcing must be empty",
         {"model": dict(TOY["model"], forcing=[{"shell": 1, "amplitude": 0.1}])}),
        # well-typed, but out of the field's range
        ("radius", {"radius": -1}),
        ("dt", {"dt": 0}),
        ("horizon", {"horizon": -1}),
        ("ensemble_size", {"ensemble_size": 0}),
        ("seed", {"seed": -1}),
        ("library.size", {"library": dict(TOY["library"], size=0)}),
        ("library.t_back", {"library": dict(TOY["library"], t_back=-1)}),
        ("library.horizon", {"library": dict(TOY["library"], horizon=0)}),
        ("t_transient", {"omega": dict(TOY["omega"], t_transient=10.0)}),
        ("omega.sample_stride", {"omega": dict(TOY["omega"], sample_stride=0)}),
        ("omega.cluster_tol", {"omega": dict(TOY["omega"], cluster_tol=0)}),
        ("n_samples", {"checks": [{"name": "absorbing", "n_samples": 0}]}),
        ("checks[0].horizon", {"checks": [{"name": "absorbing", "horizon": 0}]}),
        ("checks[0].k", {"checks": [{"name": "compactness", "k": 0}]}),
        ("n_seq", {"checks": [{"name": "point_convergence", "n_seq": 0}]}),
        ("n_times", {"checks": [{"name": "compactness", "n_times": 1}]}),
        ("window_T", {"checks": [{"name": "tracking", "window_T": 0}]}),
        ("eps_ladder[1]", {"checks": [{"name": "tracking", "eps_ladder": [0.1, -0.1]}]}),
        ("checks[0].eps", {"checks": [{"name": "quasi_invariance", "eps": -1}]}),
        # times outside the run's grid [0, horizon] (t_from keeps two samples)
        ("t_star", {"checks": [{"name": "point_convergence", "t_star": 100}]}),
        ("t_star", {"checks": [{"name": "point_convergence", "t_star": -0.5}]}),
        ("t_star", {"checks": [{"name": "point_convergence", "t_star": 5.001}]}),
        ("t_from", {"checks": [{"name": "compactness", "t_from": -3}]}),
        ("t_from", {"checks": [{"name": "compactness", "t_from": 10.0}]}),
        ("t_from", {"checks": [{"name": "compactness", "t_from": 5.005}]}),
    ]
    for i, (field, change) in enumerate(cases):
        cfg = {**TOY, "output_dir": str(tmp_path / "out"), **change}
        path = _write_cfg(tmp_path, cfg, f"t{i}.json")
        assert main(["verify", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "out").exists()
    # the command-line seed override is held to the seed field's bound
    path = _write_cfg(tmp_path, dict(TOY, output_dir=str(tmp_path / "out")), "seed.json")
    assert main(["verify", "--config", path, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err
    assert not (tmp_path / "out").exists()
    # the grid-time bounds hold their endpoints
    ends = [{"name": "point_convergence", "t_star": 10.0}, {"name": "compactness", "t_from": 0}]
    cfg = load_config(_write_cfg(tmp_path, dict(TOY, checks=ends), "ends.json"))
    assert [chk.get("t_star", chk.get("t_from")) for chk in cfg["checks"]] == [10.0, 0.0]


@pytest.mark.parametrize("name", ["energy", "tracking"])
def test_an_empty_eps_ladder_is_a_config_error(name, tmp_path, capsys):
    # an empty ladder has no rung to fail, so the check would pass on nothing
    code, out = _run(tmp_path, "verify", dict(TOY, checks=[{"name": name, "eps_ladder": []}]))
    assert code == 1
    err = capsys.readouterr().err
    field = "config.checks[0].eps_ladder"
    assert err == f"config error: {field} must be a non-empty list of numbers, got []\n"
    assert not out.exists()


_NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)

# path into the fuzz config -> whether the field must be an integer
_NUMERIC_FIELDS = {
    ("model", "truncation"): True,
    ("model", "nu"): False,
    ("model", "forcing", 0, "amplitude"): False,
    ("model", "forcing", 0, "mode", 1): True,
    ("model", "forcing", 0, "component"): True,
    ("horizon",): False,
    ("dt",): False,
    ("seed",): True,
    ("ensemble_size",): True,
    ("radius",): False,
    ("omega", "cluster_tol"): False,
    ("omega", "sample_stride"): True,
    ("library", "size"): True,
    ("checks", 0, "gap_tol"): False,
    ("checks", 0, "eps_ladder", 0): False,
    ("checks", 1, "n_samples"): True,
}


@settings(max_examples=80, deadline=None)
@given(
    field=st.sampled_from(sorted(_NUMERIC_FIELDS, key=str)),
    value=st.one_of(_NOT_A_NUMBER, st.just(2.5)),
)
def test_malformed_numeric_fields_fuzz(field, value):
    # 2.5 is malformed only where an integer is required; None means
    # "use the default" for radius only
    assume(value != 2.5 or _NUMERIC_FIELDS[field])
    assume(not (value is None and field == ("radius",)))
    cfg = dict(
        TOY,
        model={"kind": "galerkin_nse_2d", "truncation": 2,
               "forcing": [{"mode": [1, 0], "amplitude": 0.1}]},
        omega=dict(TOY["omega"]),
        library=dict(TOY["library"]),
        checks=[{"name": "energy", "gap_tol": 1e-3, "eps_ladder": [0.1]},
                {"name": "absorbing", "n_samples": 4}],
    )
    node = cfg
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["verify", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code == 1
        assert err.getvalue().startswith("config error:")
        assert not (Path(tmp) / "out").exists()


def test_load_config_requires_core_fields(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"horizon": 1.0, "dt": 0.1}))
    with pytest.raises(ConfigInvalid, match="model"):
        load_config(p)
    p.write_text(json.dumps({"model": {"kind": "toy_contraction", "truncation": 2}, "dt": 0.1}))
    with pytest.raises(ConfigInvalid, match="horizon"):
        load_config(p)
    p.write_text(json.dumps({"model": {"kind": "sand", "truncation": 2}, "horizon": 1.0, "dt": 0.1}))
    with pytest.raises(ConfigInvalid, match="model.kind"):
        load_config(p)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_booleans_written_as_json_booleans(tmp_path):
    payload = dict(TOY, library=dict(TOY["library"], horizon=10.0))
    _, out = _run(tmp_path, "trajectory-attractor", payload)
    rep = json.loads((out / "reports.json").read_text())["checks"][0]
    assert rep["strong_mode"] is True
    payload = dict(TOY, checks=[{"name": "energy"}])
    code, out = _run(tmp_path, "verify", payload)
    assert code == 0
    ladder = json.loads((out / "reports.json").read_text())["checks"][0]["ladder"]
    assert ladder and all(rung["holds"] is True for rung in ladder.values())


def test_non_finite_values_written_as_null(tmp_path):
    # estimate taken from the early transient: the decaying slices leave it
    # behind, so the attraction scan never enters and its worst value is inf
    payload = dict(TOY, omega=dict(TOY["omega"], t_transient=1.0, t_max=2.0))
    code, out = _run(tmp_path, "attractor", payload)
    assert code == 2
    sets = json.loads((out / "sets.json").read_text(), parse_constant=_reject_constant)
    attraction = sets["attractor"]["attraction"]
    assert attraction["t_entry"] is None
    assert attraction["worst_after_entry"] is None
    for name in FIVE[2:]:
        json.loads((out / name).read_text(), parse_constant=_reject_constant)


def _counting(monkeypatch, module, name):
    """The argument tuples of every call to module.name from here on."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


_LIBRARY_SET_CHECKS = [{"name": "quasi_invariance"}, {"name": "maximal_invariant"}]


def test_verify_computes_the_attractor_once(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, cli, "omega_limit")
    code, out = _run(tmp_path, "verify", dict(TOY, checks=_LIBRARY_SET_CHECKS))
    assert code == 0
    assert len(calls) == 1
    names = [c["name"] for c in json.loads((out / "reports.json").read_text())["checks"]]
    assert names == ["quasi_invariance", "maximal_invariant"]


def test_omega_builds_its_estimate_once(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, cli, "omega_limit")
    code, out = _run(tmp_path, "omega", TOY)
    assert code == 0
    assert len(calls) == 1
    assert len(json.loads((out / "sets.json").read_text())["omega"]["points"]) == 1


def test_only_attractor_scans_for_attraction(tmp_path, monkeypatch):
    # verify's library checks and omega judge or write the omega-limit
    # estimate alone: with the scan patched to raise they write the bytes of
    # an unpatched run, and attractor scans its estimate exactly once
    payload = dict(TOY, checks=_LIBRARY_SET_CHECKS)
    unpatched = {}
    for sub in ("verify", "omega"):
        code, out = _run(tmp_path, sub, payload)
        unpatched[sub] = (code, [(out / f).read_bytes() for f in FIVE])

    def refuse(*args, **kwargs):
        raise AssertionError("an attraction scan ran")

    monkeypatch.setattr(limits, "is_attracting", refuse)
    for sub in ("verify", "omega"):
        code, out = _run(tmp_path, sub, payload)
        assert (code, [(out / f).read_bytes() for f in FIVE]) == unpatched[sub], sub
    monkeypatch.undo()
    calls = _counting(monkeypatch, limits, "is_attracting")
    code, out = _run(tmp_path, "attractor", payload)
    assert code == 0
    assert len(calls) == 1
    assert json.loads((out / "reports.json").read_text())["checks"][0]["name"] == "attracting"


def test_a_run_builds_one_energy_ledger(tmp_path, monkeypatch):
    # every member's ledger row is computed once, by the process that stepped
    # it: this process fills [0, h) only, and the child [h, n) before its byte
    log = tmp_path / "rows.log"
    original = core.ledger_rows

    def logged(spec, u, out):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(u)}\n")
        original(spec, u, out)

    monkeypatch.setattr(core, "ledger_rows", logged)
    written = {}
    for fork in (False, True):
        monkeypatch.setattr(core, "_can_fork", lambda: fork)
        for sub, checks in (("simulate", []), ("verify", [{"name": "energy"}] * 2)):
            log.write_text("")
            (tmp_path / f"{sub}{fork}").mkdir()
            code, out = _run(tmp_path / f"{sub}{fork}", sub, dict(NSE2, checks=checks))
            assert code in (0, 2)
            _no_child_left()
            rows = {}
            for line in log.read_text().splitlines():
                pid, count = map(int, line.split())
                rows[pid == os.getpid()] = rows.get(pid == os.getpid(), 0) + count
            # n = 3 run members and no other group: h = n // 2 = 1
            assert rows == ({True: 1, False: 2} if fork else {True: 3})
            written[sub, fork] = (out / "ledger.csv").read_bytes()
        first, second = json.loads((out / "reports.json").read_text())["checks"]
        assert first == second and first["name"] == "energy"
    assert len(set(written.values())) == 1


def test_trajectory_attractor_artifacts_match_full_scan(tmp_path, monkeypatch):
    # the backward attraction scan writes the bytes the full forward scan wrote
    payload = dict(
        TOY,
        horizon=16.0,
        library={"size": 3, "t_back": 10.0, "horizon": 16.0},
        omega={"cluster_tol": 1e-3},
    )
    written = {}
    for name in ("shipped", "oracle"):
        if name == "oracle":
            monkeypatch.setattr(cli, "trajectory_attraction_report", attraction_report_oracle)
        (tmp_path / name).mkdir()
        code, out = _run(tmp_path / name, "trajectory-attractor", payload)
        assert code == 0
        written[name] = [(out / f).read_bytes() for f in ("reports.json", "sets.json")]
    assert written["shipped"] == written["oracle"]
    check = json.loads(written["shipped"][0])["checks"][0]
    assert check["t_entry"] > 0.0 and check["t_entry_strong"] > 0.0


# every check but absorbing, which reads only norms and applies to NSE models
_TOY_CHECKS = (
    "energy", "tracking", "quasi_invariance", "maximal_invariant", "compactness",
    "point_convergence",
)


@pytest.mark.parametrize("sub", ["verify", "trajectory-attractor"])
def test_no_run_copies_the_pass_arrays_through_the_public_constructor(sub, tmp_path, monkeypatch):
    # every ensemble a run builds from its pass's arrays is a view or a
    # frozen copy; a run whose public Ensemble constructor raises writes the
    # same artifacts
    payload = dict(
        TOY,
        horizon=16.0,
        library={"size": 3, "t_back": 10.0, "horizon": 16.0},
        omega={"cluster_tol": 1e-3},
        checks=[{"name": name} for name in _TOY_CHECKS],
    )
    written = {}
    for side in ("constructor", "no constructor"):
        if side == "no constructor":

            def refuse(self):
                raise RuntimeError("the public Ensemble constructor ran")

            monkeypatch.setattr(Ensemble, "__post_init__", refuse)
        (tmp_path / side).mkdir()
        code, out = _run(tmp_path / side, sub, payload)
        written[side] = (code, [(out / f).read_bytes() for f in FIVE[:4]])
    assert written["constructor"] == written["no constructor"]
    reports = json.loads(written["constructor"][1][3])
    assert "error" not in reports
    assert all(r["status"] != "error" for r in reports["checks"])


def test_failed_attractor_is_built_once(tmp_path, monkeypatch):
    # both checks need the attractor; its failed build is not repeated, and
    # each check records the same error
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise ValueError("no attractor")

    monkeypatch.setattr(cli, "omega_limit", failing)
    code, out = _run(tmp_path, "verify", dict(TOY, checks=_LIBRARY_SET_CHECKS))
    assert code == 1
    assert len(calls) == 1
    reports = json.loads((out / "reports.json").read_text())["checks"]
    assert [(r["name"], r["status"], r["type"], r["message"]) for r in reports] == [
        ("quasi_invariance", "error", "ValueError", "no attractor"),
        ("maximal_invariant", "error", "ValueError", "no attractor"),
    ]


def test_failing_check_keeps_the_others(tmp_path):
    # quasi_invariance raises (its window does not fit the library horizon);
    # the checks before and after it still report
    payload = dict(
        TOY,
        checks=[
            {"name": "energy"},
            {"name": "quasi_invariance", "t_win": 50.0},
            {"name": "compactness"},
        ],
    )
    code, out = _run(tmp_path, "verify", payload)
    assert code == 1
    reports = json.loads((out / "reports.json").read_text())
    assert "error" not in reports
    energy, quasi, compact = reports["checks"]
    assert energy["name"] == "energy" and energy["status"] == "pass"
    assert quasi == {
        "name": "quasi_invariance",
        "status": "error",
        "type": "ValueError",
        "message": "library horizon too short for the requested window",
        "stage": "quasi_invariance",
    }
    assert compact["name"] == "compactness" and compact["status"] in ("pass", "fail")


def test_cli_run_imports_no_scipy(tmp_path):
    cfg = {
        "model": {"kind": "galerkin_nse_2d", "truncation": 2,
                  "forcing": [{"mode": [1, 0], "amplitude": 0.1}]},
        "ensemble_size": 2,
        "horizon": 4.0,
        "dt": 0.02,
        "metric": "strong",
        "output_dir": str(tmp_path / "out"),
        "omega": {"t_transient": 2.0, "t_max": 4.0, "sample_stride": 2, "cluster_tol": 1e-3},
        "library": {"size": 2, "t_back": 4.0, "horizon": 4.0},
        "checks": [
            {"name": "energy", "eps_ladder": [0.1]},
            {"name": "maximal_invariant"},
            {"name": "compactness"},
        ],
    }
    path = _write_cfg(tmp_path, cfg)
    script = (
        "import sys\n"
        "import attractorlab.cli as cli\n"
        f"code = cli.main(['verify', '--config', {path!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, loaded)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    code, loaded = done.stdout.split(" ", 1)
    assert code in ("0", "2", "3")
    assert loaded.strip() == "[]"
    assert (tmp_path / "out" / "reports.json").exists()



def test_cli_import_leaves_out_hashlib():
    script = "import sys\nimport attractorlab.cli\nprint('_hashlib' in sys.modules)\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


NSE2 = {
    "model": {
        "kind": "galerkin_nse_2d",
        "truncation": 2,
        "forcing": [{"mode": [1, 0], "amplitude": 0.1}],
    },
    "seed": 3,
    "ensemble_size": 3,
    "horizon": 4.0,
    "dt": 0.02,
    "library": {"size": 2, "t_back": 2.0, "horizon": 4.0},
}
LIBRARY_CHECKS = ("tracking", "quasi_invariance", "maximal_invariant")


def _passes(monkeypatch):
    # record the member count of every group of every integration pass
    passes = []
    original = cli.integrate_pass

    def counting(spec, groups, then=None):
        passes.append([g.initials.shape[0] for g in groups])
        return original(spec, groups, then)

    monkeypatch.setattr(cli, "integrate_pass", counting)
    return passes


def _fused_and_separate(tmp_path, monkeypatch, payload):
    """The four run artifacts of a verify run, fused and on the separate path.

    The separate path is forced by a fused pass that raises NonFiniteState;
    each group is then integrated alone on first use.
    """
    written = {}
    for side in ("fused", "separate"):
        if side == "separate":
            original = cli.integrate_pass

            def refusing(spec, groups, then=None):
                if len(groups) > 1:
                    raise NonFiniteState("forced blow-up of the fused pass")
                return original(spec, groups, then)

            monkeypatch.setattr(cli, "integrate_pass", refusing)
        (tmp_path / side).mkdir()
        code, out = _run(tmp_path / side, "verify", payload)
        written[side] = (code, [(out / f).read_bytes() for f in FIVE[:4]])
    assert written["fused"] == written["separate"]
    code, files = written["fused"]
    return code, json.loads(files[3])


def test_off_grid_library_fails_only_the_library_checks(tmp_path, monkeypatch):
    payload = dict(
        NSE2,
        library={"size": 2, "t_back": 1.01, "horizon": 4.0},
        checks=[
            {"name": "energy", "gap_tol": 5e-3},
            {"name": "absorbing", "n_samples": 4},
            *({"name": name} for name in LIBRARY_CHECKS),
            {"name": "point_convergence", "n_seq": 3},
        ],
    )
    code, reports = _fused_and_separate(tmp_path, monkeypatch, payload)
    assert code == 1 and "error" not in reports
    by_name = {r["name"]: r for r in reports["checks"]}
    for name in LIBRARY_CHECKS:
        assert by_name[name]["status"] == "error"
        assert by_name[name]["type"] == "StepMismatch"
    assert by_name["energy"]["status"] == "pass"
    assert by_name["absorbing"]["status"] == "pass"
    assert by_name["point_convergence"]["status"] in ("pass", "fail", "hypothesis_fail")


def test_absorbing_on_a_dyadic_model_fails_that_check_alone(tmp_path, monkeypatch):
    payload = dict(
        NSE2,
        model={"kind": "dyadic", "truncation": 6, "forcing": [{"shell": 1, "amplitude": 0.5}]},
        checks=[
            {"name": "compactness"},
            {"name": "absorbing"},
            {"name": "point_convergence", "n_seq": 2},
        ],
    )
    code, reports = _fused_and_separate(tmp_path, monkeypatch, payload)
    assert code == 1
    compact, absorbing, point = reports["checks"]
    assert absorbing["status"] == "error" and absorbing["type"] == "ModelMismatch"
    assert compact["status"] == "pass"
    assert point["status"] != "error"


def test_fused_blow_up_records_what_the_separate_path_records(tmp_path, monkeypatch):
    # every check of the criterion-style config, through the forced fallback
    payload = dict(
        NSE2,
        checks=[
            {"name": "energy", "gap_tol": 5e-3},
            {"name": "absorbing", "n_samples": 4},
            {"name": "tracking"},
            {"name": "quasi_invariance"},
            {"name": "maximal_invariant"},
            {"name": "compactness"},
            {"name": "point_convergence", "n_seq": 2},
        ],
    )
    _fused_and_separate(tmp_path, monkeypatch, payload)


def test_one_group_blowing_up_in_the_fused_pass(tmp_path, monkeypatch):
    # the absorbing samples start far out and blow up, the run does not; the
    # pass falls back to one group at a time and only the absorbing check errs
    payload = dict(
        NSE2,
        model=dict(NSE2["model"], nu=0.05, forcing=[{"mode": [1, 0], "amplitude": 100.0}]),
        horizon=1.0,
        dt=0.1,
        radius=0.01,
        checks=[{"name": "compactness"}, {"name": "absorbing", "n_samples": 4}],
    )
    passes = _passes(monkeypatch)
    code, reports = _fused_and_separate(tmp_path, monkeypatch, payload)
    # the fused pass, which blew up, then the run and the absorbing group alone
    assert passes[:3] == [[3, 4], [3], [4]]
    compact, absorbing = reports["checks"]
    # six sampled times from t_from = 0.5 at dt = 0.1: the default k = 8 covers them all
    assert compact["status"] == "hypothesis_fail"
    assert (absorbing["status"], absorbing["type"]) == ("error", "NonFiniteState")
    assert absorbing["message"] == "integration blew up at step 2"


def test_verify_integrates_only_what_its_checks_read(tmp_path, monkeypatch):
    passes = _passes(monkeypatch)
    no_library = [
        {"name": "energy"},
        {"name": "compactness"},
        {"name": "absorbing", "n_samples": 4},
    ]
    code, _ = _run(tmp_path, "verify", dict(NSE2, checks=no_library))
    assert code in (0, 2)
    assert passes == [[3, 4]]  # one pass: the run and the absorbing samples
    passes.clear()
    (tmp_path / "lib").mkdir()
    _run(tmp_path / "lib", "verify", dict(NSE2, checks=no_library + [{"name": "tracking"}]))
    assert passes == [[3, 2, 4]]  # the library joins the same pass


def test_duplicated_checks_get_their_own_groups(tmp_path, monkeypatch):
    passes = _passes(monkeypatch)
    payload = dict(
        NSE2,
        checks=[
            {"name": "absorbing", "n_samples": 4, "horizon": 1.0},
            {"name": "point_convergence", "n_seq": 2},
            {"name": "tracking"},
            {"name": "absorbing", "n_samples": 4, "horizon": 3.0},
            {"name": "point_convergence", "n_seq": 3, "t_star": 1.0},
        ],
    )
    code, reports = _fused_and_separate(tmp_path, monkeypatch, payload)
    assert passes[0] == [3, 2, 4, 2, 4, 3]
    first, second = (r for r in reports["checks"] if r["name"] == "point_convergence")
    assert first["status"] == second["status"]


# Every integer field of the config tables, as (table, key) -> a config that
# sets it to the placeholder BIG. The test below fails if a table gains an
# integer field that this map leaves out.
# 21 steps of 0.1: horizon / 2 = 1.05 is off the grid, and the half-horizon default is 1.0
_ODD = dict(NSE2, horizon=2.1, dt=0.1)


@pytest.mark.parametrize("sub", ["omega", "attractor"])
def test_the_default_transient_of_an_odd_step_count_is_on_the_grid(sub, tmp_path):
    code, out = _run(tmp_path, sub, _ODD)
    assert code != 1
    assert "error" not in json.loads((out / "reports.json").read_text())
    assert json.loads((out / "manifest.json").read_text())["config"]["omega"]["t_transient"] == 1.0


@pytest.mark.parametrize("name, field", [("compactness", "t_from"), ("point_convergence", "t_star")])
def test_a_bare_check_of_an_odd_step_count_runs(name, field, tmp_path, capsys):
    code, out = _run(tmp_path, "verify", dict(_ODD, checks=[{"name": name}]))
    assert "config error" not in capsys.readouterr().err
    (rep,) = json.loads((out / "reports.json").read_text())["checks"]
    assert code != 1 and rep["status"] != "error"
    assert json.loads((out / "manifest.json").read_text())["config"]["checks"][0][field] == 1.0


def test_the_default_half_horizon_of_an_even_step_count_is_horizon_over_two(tmp_path):
    # 6 steps of 0.1: 0.6 / 2 is 0.3, where (6 // 2) * 0.1 would be 0.30000000000000004
    checks = [{"name": "compactness"}, {"name": "point_convergence"}]
    cfg = load_config(_write_cfg(tmp_path, dict(NSE2, horizon=0.6, dt=0.1, checks=checks)))
    halves = [cfg["omega"]["t_transient"], cfg["checks"][0]["t_from"], cfg["checks"][1]["t_star"]]
    assert [repr(t) for t in halves] == ["0.3"] * 3


BIG = "BIG"
_NSE_MODEL = {"kind": "galerkin_nse_2d", "truncation": 2}
_INT_FIELDS = {
    ("config", "seed"): {"seed": BIG},
    ("config", "ensemble_size"): {"ensemble_size": BIG},
    ("config", "save_stride"): {"save_stride": BIG},
    ("omega", "sample_stride"): {"omega": dict(TOY["omega"], sample_stride=BIG)},
    ("library", "size"): {"library": dict(TOY["library"], size=BIG)},
    ("model", "truncation"): {"model": dict(TOY["model"], truncation=BIG)},
    ("nse", "mode"): {"model": dict(_NSE_MODEL, forcing=[{"mode": [BIG, 0], "amplitude": 0.1}])},
    ("nse", "component"): {
        "model": dict(_NSE_MODEL, forcing=[{"mode": [1, 0], "amplitude": 0.1, "component": BIG}])
    },
    ("dyadic", "shell"): {
        "model": {"kind": "dyadic", "truncation": 4, "forcing": [{"shell": BIG, "amplitude": 0.1}]}
    },
    ("absorbing", "n_samples"): {"checks": [{"name": "absorbing", "n_samples": BIG}]},
    ("compactness", "k"): {"checks": [{"name": "compactness", "k": BIG}]},
    ("compactness", "n_times"): {"checks": [{"name": "compactness", "n_times": BIG}]},
    ("point_convergence", "n_seq"): {"checks": [{"name": "point_convergence", "n_seq": BIG}]},
}


def _int_fields() -> set:
    tables = {"config": cli._CONFIG, "model": cli._MODEL, **cli._FORCING}
    tables.update((name, fields) for name, (_, fields, _) in cli._CHECKS.items())
    tables.update((name, cli._CONFIG[name][0]) for name in ("omega", "library"))
    return {
        (table, key)
        for table, fields in tables.items()
        for key, (kind, _, _) in fields.items()
        if kind is int or kind == [int]
    }


def _with_big(change, value):
    if change == BIG:
        return value
    if isinstance(change, dict):
        return {k: _with_big(v, value) for k, v in change.items()}
    if isinstance(change, list):
        return [_with_big(v, value) for v in change]
    return change


def test_every_int_field_is_covered():
    assert set(_INT_FIELDS) == _int_fields()


@pytest.mark.parametrize("value", [2**80, -(2**80), 2**63, -(2**63) - 1], ids=str)
@pytest.mark.parametrize("field", sorted(_INT_FIELDS), ids="-".join)
def test_int_fields_past_64_bits_are_config_errors(field, value, tmp_path, capsys):
    cfg = dict(TOY, output_dir=str(tmp_path / "out"), **_with_big(_INT_FIELDS[field], value))
    assert main(["verify", "--config", _write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field[1] in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_64_bit_edges_of_int_fields(tmp_path, capsys):
    # the largest seed passes; the command-line seed and a float field written
    # as a huge integer are held to the same 64-bit range
    assert load_config(_write_cfg(tmp_path, dict(TOY, seed=2**63 - 1)))["seed"] == 2**63 - 1
    path = _write_cfg(tmp_path, dict(TOY, output_dir=str(tmp_path / "out")), "seed.json")
    for argv in (["--seed", str(2**80)], ["--seed", str(-(2**80))]):
        assert main(["verify", "--config", path, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--seed" in err
    for field, value in (("horizon", 10**400), ("dt", 2**80), ("radius", -(2**80))):
        cfg = dict(TOY, output_dir=str(tmp_path / "out"), **{field: value})
        assert main(["verify", "--config", _write_cfg(tmp_path, cfg, "f.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["galerkin_nse_2d", "galerkin_nse_3d"])
@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_an_L_too_small_to_scale_is_a_config_error(kind, forced, tmp_path, capsys):
    model = {"kind": kind, "truncation": 2, "L": 1e-300}
    if forced:
        mode = [1, 0, 0] if kind.endswith("3d") else [1, 0]
        model["forcing"] = [{"mode": mode, "amplitude": 0.1}]
    cfg = dict(TOY, model=model, output_dir=str(tmp_path / "out"))
    assert main(["simulate", "--config", _write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "model.L" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("L", [1e-120, 1e-77, 1e76, 1e300])
def test_an_L_whose_sampling_or_radius_leaves_the_floats_is_a_config_error(L, tmp_path, capsys):
    # each of these ran and exited 1 with a NonFiniteState record after numpy
    # overflow or divide-by-zero warnings
    model = {"kind": "galerkin_nse_2d", "truncation": 2, "L": L}
    model["forcing"] = [{"mode": [1, 0], "amplitude": 0.1}]
    cfg = dict(TOY, model=model, output_dir=str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "model.L" in captured.err
    assert not (tmp_path / "out").exists()
    # just inside the bounds the run is clean
    for inside in (1e-75, 9.9e75):
        model["L"] = inside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", _write_cfg(tmp_path, cfg)]) == 0


# The split pass: a forked child steps a block of the run's members, then
# writes trajectories.csv while this process runs the checks.

_WRITER = dict(NSE2, horizon=1.0, checks=[{"name": "energy"}, {"name": "compactness"}])


def _open_fds() -> list:
    return sorted(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forking(monkeypatch, fork):
    """Let every pass fork or not; record each run pass's tail and count this
    process's forks."""
    tails, forks = [], []
    integrate, os_fork = cli.integrate_pass, os.fork

    def recorded(spec, groups, then=None):
        paths, tail = integrate(spec, groups, then)
        if then is not None:
            tails.append(tail)
        return paths, tail

    def counted_fork():
        forks.append(1)
        return os_fork()

    monkeypatch.setattr(core, "_can_fork", lambda: fork)
    monkeypatch.setattr(cli, "integrate_pass", recorded)
    monkeypatch.setattr(os, "fork", counted_fork)
    return tails, forks


def _writer_run(tmp_path, name, payload, sub="verify"):
    (tmp_path / name).mkdir()
    fds = _open_fds()
    code, out = _run(tmp_path / name, sub, payload)
    _no_child_left()
    assert _open_fds() == fds
    # the manifest differs only in output_dir
    return code, {f: (out / f).read_bytes() for f in FIVE[:4]}


_RUN_HEAVY = dict(NSE2, ensemble_size=16, library={"size": 2, "t_back": 1.0, "horizon": 4.0})


def _writes_here(monkeypatch):
    """Record the _write_trajectories calls that this process makes, and the
    split of each pass."""
    parent, write, split = os.getpid(), cli._write_trajectories, core._split
    seen = {"writes": 0, "splits": []}

    def recorded_write(*args):
        seen["writes"] += os.getpid() == parent
        return write(*args)

    def recorded_split(groups):
        seen["splits"].append(split(groups))
        return seen["splits"][-1]

    monkeypatch.setattr(cli, "_write_trajectories", recorded_write)
    monkeypatch.setattr(core, "_split", recorded_split)
    return seen


def _the_bytes_of_one_process(tmp_path, monkeypatch, payload, h):
    _forking(monkeypatch, False)
    here = _writes_here(monkeypatch)
    one = _writer_run(tmp_path, "one", payload)
    assert here == {"writes": 1, "splits": [payload["ensemble_size"]]}
    monkeypatch.undo()
    tails, forks = _forking(monkeypatch, True)
    here = _writes_here(monkeypatch)
    two = _writer_run(tmp_path, "two", payload)
    # one fork for the run; its child stepped members [h, n) and wrote the whole
    # file, so this process wrote none of it
    assert len(forks) == 1 and len(tails) == 1 and tails[0] is not None
    assert here == {"writes": 0, "splits": [h]}
    assert one == two
    lines = one[1]["trajectories.csv"].decode().splitlines()
    samples = range(0, round(payload["horizon"] / payload["dt"]) + 1, payload.get("save_stride", 1))
    assert len(lines) == 1 + payload["ensemble_size"] * len(samples)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("members", [4, 5])
def test_trajectories_have_the_bytes_of_one_lane(members, stride, tmp_path, monkeypatch):
    # the run alone: the child steps and formats members [n // 2, n)
    payload = dict(_WRITER, ensemble_size=members, save_stride=stride)
    _the_bytes_of_one_process(tmp_path, monkeypatch, payload, members // 2)


@pytest.mark.parametrize(
    "payload, h",
    [
        # the run, the library and a norms group: the child takes the whole run
        (dict(_WRITER, checks=[{"name": "tracking"}, {"name": "absorbing", "n_samples": 4}]), 0),
        # 16 x 200 run steps against 500 library steps: h = ceil(2700 / 400)
        (dict(_RUN_HEAVY, checks=[{"name": "tracking"}]), 7),
    ],
    ids=["h0", "uneven"],
)
def test_a_run_with_other_groups_has_the_bytes_of_one_process(payload, h, tmp_path, monkeypatch):
    _the_bytes_of_one_process(tmp_path, monkeypatch, payload, h)


def test_a_one_member_run_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-member run forked")

    _forking(monkeypatch, True)
    monkeypatch.setattr(os, "fork", no_fork)
    code, files = _writer_run(tmp_path, "one", dict(_WRITER, ensemble_size=1), "simulate")
    assert code == 0
    assert len(files["trajectories.csv"].decode().splitlines()) == 1 + 51


def test_a_failing_writer_child_leaves_the_same_bytes(tmp_path, monkeypatch):
    payload = dict(_WRITER, ensemble_size=5, save_stride=3)
    tails, _ = _forking(monkeypatch, True)
    good = _writer_run(tmp_path, "good", payload)
    parent, write, step = os.getpid(), cli._write_trajectories, core._step
    writes = []

    def exiting_in_the_child(path, *args):
        if os.getpid() != parent:
            path.write_text("partial")
            os._exit(3)
        writes.append(path)
        return write(path, *args)

    def raising_in_the_child(path, *args):
        if os.getpid() != parent:
            path.write_text("partial")
            raise OSError("the child's writer failed")
        writes.append(path)
        return write(path, *args)

    def dying_in_the_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step(*args)

    joined, join = [], core.Tail.join

    def recorded_join(tail, finished=True):
        joined.append(join(tail, finished))
        return joined[-1]

    monkeypatch.setattr(core.Tail, "join", recorded_join)
    # the child dies before its byte: this process steps its members and writes the file
    monkeypatch.setattr(core, "_step", dying_in_the_child)
    monkeypatch.setattr(cli, "_write_trajectories", exiting_in_the_child)
    assert _writer_run(tmp_path, "dead", payload) == good
    assert tails[1:] == [None] and joined == [False] and len(writes) == 1
    monkeypatch.setattr(core, "_step", step)
    # the child writes part of the file, then exits 3 or raises: this process
    # writes the whole file once, over the part
    for name, failing in (("exits", exiting_in_the_child), ("raises", raising_in_the_child)):
        writes.clear()
        monkeypatch.setattr(cli, "_write_trajectories", failing)
        assert _writer_run(tmp_path, name, payload) == good
        assert writes == [tmp_path / name / "out" / "trajectories.csv"]
    assert None not in tails[2:] and len(tails) == 4 and joined == [False, False, False]


def test_the_small_artifacts_are_written_before_the_writer_child_is_reaped(
    tmp_path, monkeypatch
):
    # an error-record run: the omega window lies past the horizon
    payload = dict(_WRITER, ensemble_size=4, omega=dict(TOY["omega"], t_max=100.0))
    _forking(monkeypatch, False)
    one = _writer_run(tmp_path, "one", payload, "omega")
    monkeypatch.undo()
    tails, _ = _forking(monkeypatch, True)
    on_join, join = [], core.Tail.join

    def recorded_join(tail, finished=True):
        # the child writes trajectories.csv, so whether it is there yet is timing
        out = (tmp_path / "two" / "out").iterdir()
        on_join.append(sorted(f.name for f in out if f.name != "trajectories.csv"))
        return join(tail, finished)

    monkeypatch.setattr(core.Tail, "join", recorded_join)
    two = _writer_run(tmp_path, "two", payload, "omega")
    assert one == two and two[0] == 1 and tails[0] is not None
    assert json.loads(two[1]["reports.json"])["error"]["type"] == "HorizonTooShort"
    # the child is reaped once the other small files are written, before the manifest
    assert on_join == [["ledger.csv", "reports.json", "sets.json"]]
    assert sorted(f.name for f in (tmp_path / "two" / "out").iterdir()) == sorted(FIVE)


def test_a_check_that_raises_after_the_fork_writes_nothing(tmp_path, monkeypatch):
    def raising(cfg, chk, ctx):
        raise RuntimeError("check crashed")

    tails, forks = _forking(monkeypatch, True)
    monkeypatch.setitem(cli._CHECKS, "energy", (raising, *cli._CHECKS["energy"][1:]))
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="check crashed"):
        _run(tmp_path, "verify", _WRITER)
    assert tails[0] is not None and len(forks) == 1  # the child had been forked
    _no_child_left()
    assert _open_fds() == fds
    assert list((tmp_path / "out").iterdir()) == []


def test_a_check_that_raises_once_the_child_has_written_leaves_no_trajectories(
    tmp_path, monkeypatch
):
    path = tmp_path / "out" / "trajectories.csv"

    def raising_once_written(cfg, chk, ctx):
        for _ in range(500):  # the child has started its file within 5 s
            if path.exists():
                break
            time.sleep(0.01)
        assert path.exists()
        raise RuntimeError("check crashed")

    tails, _ = _forking(monkeypatch, True)
    monkeypatch.setitem(cli._CHECKS, "energy", (raising_once_written, *cli._CHECKS["energy"][1:]))
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="check crashed"):
        _run(tmp_path, "verify", _WRITER)
    assert tails[0] is not None
    _no_child_left()
    assert _open_fds() == fds
    # the killed child's file, whole or in part, is removed with it
    assert list((tmp_path / "out").iterdir()) == []


def test_the_writer_child_never_flushes_inherited_stdio(tmp_path):
    # text buffered on both streams before the run is printed once, as with no fork
    cfg = _write_cfg(tmp_path, dict(_WRITER, output_dir=str(tmp_path / "out")))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    printed = []
    for fork in (False, True):
        script = (
            "import sys\n"
            "import attractorlab.core as core\n"
            "import attractorlab.cli as cli\n"
            f"core._can_fork = lambda: {fork}\n"
            "print('before', end=' ')\n"
            "sys.stderr.write('before ')\n"
            f"code = cli.main(['verify', '--config', {cfg!r}])\n"
            "print('after', code)\n"
            "sys.stderr.write('after')\n"
        )
        run = [sys.executable, "-c", script]
        done = subprocess.run(run, capture_output=True, text=True, env=env)
        printed.append((done.returncode, done.stdout, done.stderr))
    assert printed[0] == printed[1] == (0, "before after 2\n", "before after")
