"""Experiment runner: config in, deterministic data products out.

A run builds one model, integrates every ensemble it needs in one pass,
executes the requested pipeline, and writes five files under the output
directory: trajectories.csv, sets.json, reports.json, ledger.csv, and
manifest.json. The ensembles of the pass are the seeded run ensemble and,
where the subcommand or a configured check reads them, the surrogate library
and each check's own ensemble; they step as one batch that shrinks as each
reaches its last step. Fused, batched and single integration give the same
bits, so no artifact depends on which ensembles share the pass. Identical
configs produce byte-identical files; the manifest carries the effective
config and seed instead of a timestamp. Unknown config keys are rejected with the
offending field named, and numeric failures abort with a structured error
record in reports.json; in verify, a check that raises gets its own error
record and the other checks still run. The run's ensemble is the pass's
first group, so the pass's forked child, if any, steps a block of the run's
members, computes their energy ledger rows and then writes trajectories.csv
while this process steps the other rows, computes the ledger rows of its
members and runs the checks. This process writes the other artifacts after
the checks, and trajectories.csv, whole, only where no child exited 0.

Exit codes: 0 all checks passed, 1 config or runtime error, 2 at least one
check returned false, 3 at least one check could not establish its
hypotheses (a false verdict outranks a hypothesis failure).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import Group, Tail, integrate_pass, make_group, surrogate_group
from .errors import AttractorLabError, ConfigInvalid, HypothesisFail, NonFiniteState, OffGrid
from .limits import OmegaParams, asymptotic_compactness_defect, global_attractor, omega_limit
from .metrics import METRIC_KINDS
from .models import (
    EnergyLedger,
    ModelSpec,
    KINDS,
    NSE_KINDS,
    absorbing_radius,
    check_energy_inequality,
    default_radius,
    dyadic_forcing,
    energy_identity_gap,
    make_spec,
    mode_table,
    nse_forcing,
    sample_ball,
    smooth_profile,
    spec_dim,
)
from .state import Ensemble, frozen_view, grid_index
from .trajectory_space import (
    trajectory_attraction_report,
    trajectory_attractor,
    translation_invariance,
)
from .verification import (
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    _point_window,
    tracking_ladder,
)

SUBCOMMANDS = ("simulate", "omega", "attractor", "trajectory-attractor", "verify")

# Config tables: each section maps its keys to (kind, default, bound). A kind
# is int, float or str, a tuple of allowed strings, [int] or [float] for a
# non-empty list of numbers, a nested table, or list for a list of entries that
# load_config checks itself. A default is a value, _REQUIRED, or a function
# of the top-level config walked so far. A bound ("> 0", ">= 1", or such
# comparisons joined by ", ") applies to a number or to each number of a list;
# "in [0, horizon]" and "in [0, horizon)" bound a time on the run's dt grid.
_REQUIRED = object()


def _horizon(cfg: dict) -> float:
    return cfg["horizon"]


def _half_horizon(cfg: dict) -> float:
    """horizon / 2, or on an odd step count n the grid time (n // 2) dt below it."""
    n = cfg["horizon"] / cfg["dt"]
    if np.isfinite(n) and round(n) % 2:
        return round(n) // 2 * cfg["dt"]
    return cfg["horizon"] / 2.0


# L scales every wavenumber by 2 pi / L. Below 1e-76 the smooth sampling
# profile of the |kappa| = 1 mode, about (L / 2 pi)^2, squares out of the
# normal floats in each draw's norm. Above 1e76 the absorbing radius
# 1.1 |g| L / (2 pi nu), the sampling radius, overflows when the advection
# squares it once the forcing's |g| / nu passes about 1e78.
_MODEL = {
    "kind": (KINDS, _REQUIRED, None),
    "nu": (float, 1.0, "> 0"),
    "L": (float, 2.0 * np.pi, "> 1e-76, < 1e76"),
    "truncation": (int, _REQUIRED, ">= 1"),
    "lambda": (float, 2.0, None),
    "forcing": (list, [], None),
}
_FORCING = {
    "nse": {
        "mode": ([int], _REQUIRED, None),
        "amplitude": (float, _REQUIRED, None),
        "component": (int, 0, None),
        "part": (("cos", "sin"), "cos", None),
    },
    "dyadic": {"shell": (int, _REQUIRED, None), "amplitude": (float, _REQUIRED, None)},
}
_CONFIG = {
    "model": (_MODEL, _REQUIRED, None),
    "seed": (int, 0, ">= 0"),
    "ensemble_size": (int, 8, ">= 1"),
    "horizon": (float, _REQUIRED, "> 0"),
    "dt": (float, _REQUIRED, "> 0"),
    "radius": (float, None, "> 0"),  # None: the model's default radius
    "metric": (METRIC_KINDS, "strong", None),
    "save_stride": (int, 1, ">= 1"),
    "output_dir": (str, "out", None),
    "omega": (
        {
            "t_transient": (float, _half_horizon, None),
            "t_max": (float, _horizon, None),
            "sample_stride": (int, 1, ">= 1"),
            "cluster_tol": (float, 1e-3, "> 0"),
        },
        {},
        None,
    ),
    "library": (
        {
            "size": (int, 8, ">= 1"),
            "t_back": (float, 50.0, ">= 0"),
            "horizon": (float, _horizon, "> 0"),
        },
        {},
        None,
    ),
    "checks": (list, [], None),
}


def _value(value, kind, bound, where: str, root: dict):
    """value checked against its kind and bound; ConfigInvalid otherwise.

    A number must be finite and not a boolean, and an int integral and within 64 bits.
    """
    if isinstance(kind, dict):
        return _section(value, kind, where, root)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigInvalid(f"{where} must be one of {kind}, got {value!r}")
        return value
    if kind in (str, list):
        if not isinstance(value, kind):
            raise ConfigInvalid(f"{where} must be a {kind.__name__}, got {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigInvalid(f"{where} must be a non-empty list of numbers, got {value!r}")
        return [_value(v, kind[0], bound, f"{where}[{j}]", root) for j, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigInvalid(f"{where} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    if (kind is int or isinstance(value, int)) and not -(2**63) <= value < 2**63:
        raise ConfigInvalid(f"{where} must fit in a signed 64-bit integer, got {value!r}")
    if bound is not None and bound.startswith("in"):
        n = root["horizon"] / root["dt"]
        try:
            k = grid_index(value, 0.0, root["dt"])
            ok = np.isfinite(n) and 0 <= k <= round(n) - bound.endswith(")")
        except OffGrid:
            ok = False
        if not ok:
            raise ConfigInvalid(f"{where} must be a dt-grid time {bound}, got {value!r}")
    elif bound is not None:
        for rule in bound.split(", "):
            op, limit = rule.split()
            ok = {">": value > float(limit), ">=": value >= float(limit), "<": value < float(limit)}
            if not ok[op]:
                raise ConfigInvalid(f"{where} must be {bound}, got {value!r}")
    return kind(value)


def _section(raw, table: dict, where: str, root: dict | None = None) -> dict:
    """A config object walked against its table, every field filled."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{where} must be an object")
    out: dict = {}
    root = out if root is None else root
    for key, (kind, default, bound) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigInvalid(f"missing config key {where}.{key}")
        if callable(value):
            value = value(root)
        if value is not None or default is not None:
            value = _value(value, kind, bound, f"{where}.{key}", root)
        out[key] = value
    for key in raw:
        if key not in table:
            raise ConfigInvalid(f"unknown config key {where}.{key}")
    return out


def load_config(path: str | Path) -> dict:
    """Parse and validate a JSON experiment config, filling every default."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigInvalid(f"config file cannot be read: {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config file is not UTF-8 text: {path}: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigInvalid(f"config is nested too deeply to parse: {path}")
    cfg = _section(raw, _CONFIG, "config")
    model = cfg["model"]
    forcing = _FORCING["nse" if model["kind"] in NSE_KINDS else "dyadic"]
    model["forcing"] = [
        _section(entry, forcing, f"config.model.forcing[{i}]", cfg)
        for i, entry in enumerate(model["forcing"])
    ]
    checks = []
    for i, chk in enumerate(cfg["checks"]):
        name = chk.get("name") if isinstance(chk, dict) else None
        fields = _CHECKS[name][1] if isinstance(name, str) and name in _CHECKS else {}
        table = {"name": (tuple(_CHECKS), _REQUIRED, None), **fields}
        checks.append(_section(chk, table, f"config.checks[{i}]", cfg))
    cfg["checks"] = checks
    try:
        OmegaParams(**cfg["omega"])
    except ValueError as exc:
        raise ConfigInvalid(f"config.omega: {exc}")
    return cfg


def _build_spec(mc: dict) -> ModelSpec:
    """The model of a validated config; ConfigInvalid for one the model rejects."""
    kind = mc["kind"]
    if mc["forcing"] and kind == "toy_contraction":
        raise ConfigInvalid("model.forcing must be empty for the toy model")
    try:
        forcing = None
        if mc["forcing"]:
            if kind in NSE_KINDS:
                forcing = nse_forcing(kind, mc["L"], mc["truncation"], mc["forcing"])
            else:
                forcing = dyadic_forcing(mc["truncation"], mc["forcing"])
        spec = make_spec(kind, mc["nu"], mc["L"], mc["truncation"], mc["lambda"], forcing)
        if kind in NSE_KINDS:
            mode_table(spec)
        return spec
    except (ValueError, NonFiniteState, MemoryError) as exc:
        raise ConfigInvalid(f"model: {exc}")


# ---------------------------------------------------------------------------
# serialization helpers


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain JSON values.

    bool is tested before int (bool is an int subclass), and non-finite
    floats become None, since JSON has no Infinity or NaN.
    """
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: Path, payload) -> None:
    text = json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


# The CSV writers stream one member at a time: the text of a whole ensemble
# is never held in memory at once. The pass's child writes trajectories.csv
# while the checks run; this process writes it only where no child exited 0.
def _write_trajectories(path: Path, ensemble: Ensemble, stride: int) -> None:
    ks = range(0, ensemble.n_samples, stride)
    times = [repr(float(ensemble.t0 + k * ensemble.dt)) for k in ks]
    with path.open("w") as fh:
        dim = ensemble.samples.shape[2]
        fh.write("time,member," + ",".join(f"c{j}" for j in range(dim)) + "\n")
        for mi in range(ensemble.n_members):
            rows = zip(times, ensemble.samples[mi, ::stride].tolist())
            fh.writelines(f"{t},{mi}," + ",".join(map(repr, row)) + "\n" for t, row in rows)


def _write_ledger(path: Path, led: EnergyLedger, stride: int) -> None:
    times = np.broadcast_to(led.times, led.energy.shape)
    table = np.stack([times, led.energy, led.enstrophy, led.work], axis=-1)
    with path.open("w") as fh:
        fh.write("member,time,energy,enstrophy,work\n")
        for mi, member in enumerate(table[:, ::stride]):
            fh.writelines(f"{mi}," + ",".join(map(repr, row)) + "\n" for row in member.tolist())


def _set_payload(est) -> dict:
    payload = {"metric": est.metric, "tol": est.tol, "horizon": est.horizon, "points": est.points}
    if est.attraction is not None:
        payload["attraction"] = asdict(est.attraction)
    return payload


# ---------------------------------------------------------------------------
# pipeline pieces


def _initials(spec: ModelSpec, n: int, radius: float, seed: int, boundary=False) -> np.ndarray:
    profile = smooth_profile(spec) if spec.kind in NSE_KINDS else None
    return sample_ball(spec, n, radius=radius, seed=seed, boundary=boundary, profile=profile)


def _status_exit(reports: list[dict]) -> int:
    statuses = {r["status"] for r in reports}
    if "error" in statuses:
        return 1
    if "fail" in statuses:
        return 2
    if "hypothesis_fail" in statuses:
        return 3
    return 0


class _RunContext:
    """What the parts of one run share; the costly ones are built once.

    The run's ensemble, the surrogate library and each check's own ensemble
    are groups of one integration, keyed "run", "library" and by the id of
    the check's config entry. integrate() steps the groups a run needs in
    one pass; a group it did not produce is integrated alone on first use.
    Each costly part is built once, on first use; if building it raises,
    later uses raise the same exception without building it again. The
    attractor is the bare omega-limit estimate, with no attraction scan.
    """

    def __init__(self, cfg: dict, spec: ModelSpec):
        self.cfg, self.spec = cfg, spec
        self.radius = default_radius(spec) if cfg["radius"] is None else cfg["radius"]
        self.initials = _initials(spec, cfg["ensemble_size"], self.radius, cfg["seed"])
        self._checks = {id(chk): chk for chk in cfg["checks"]}
        self._built: dict = {}  # part name -> (value, exception)

    def _group(self, key) -> Group:
        cfg = self.cfg
        if key == "run":
            group = make_group(self.spec, self.initials, 0.0, cfg["horizon"], cfg["dt"])
            return group._replace(ledger=True)
        if key == "library":
            lib = cfg["library"]
            initials = _initials(self.spec, lib["size"], self.radius, cfg["seed"] + 1)
            return surrogate_group(self.spec, initials, lib["t_back"], lib["horizon"], cfg["dt"])
        chk = self._checks[key]
        return _CHECKS[chk["name"]][2](cfg, chk, self)

    def _once(self, name, build):
        if name not in self._built:
            try:
                self._built[name] = (build(), None)
            except Exception as exc:
                self._built[name] = (None, exc)
        value, exc = self._built[name]
        if exc is not None:
            raise exc
        return value

    def integrate(self, keys, then=None) -> Tail | None:
        """Integrate the run's group and the named groups in one pass; its tail.

        The run's group comes first and must form: its error is the run's.
        Another group that cannot be formed stays out of the pass and raises
        at its first use. If the pass blows up, nothing of it is kept: each
        group is then integrated alone, in the order of first use, and
        records its own error. The tail is the pass's child still running
        then on the run's ensemble (see core.integrate_pass), or None.
        """
        formed = {"run": self._group("run")}
        for key in keys:
            try:
                formed[key] = self._group(key)
            except Exception as exc:
                self._built[key] = (None, exc)
        try:
            paths, tail = integrate_pass(self.spec, list(formed.values()), then)
        except NonFiniteState:
            return None
        self._built.update((key, (value, None)) for key, value in zip(formed, paths))
        return tail

    def paths(self, key):
        """The integrated group key: from the shared pass, or integrated alone."""
        return self._once(key, lambda: integrate_pass(self.spec, [self._group(key)])[0][0])

    @property
    def ensemble(self) -> Ensemble:
        return self.paths("run")[0]

    @property
    def library(self) -> Ensemble:
        return self.paths("library")

    def own(self, chk: dict):
        """The check's own integrated group."""
        return self.paths(id(chk))

    @property
    def ledger(self) -> EnergyLedger:
        return self.paths("run")[1]

    def release(self) -> None:
        """Free every part but the run's ensemble and ledger, which the writers read;
        the pass filled the ledger, so nothing maps the child's members' samples here."""
        self._built = {key: part for key, part in self._built.items() if key == "run"}

    @property
    def attractor(self):
        cfg = self.cfg
        return self._once(
            "attractor",
            lambda: omega_limit(self.ensemble, cfg["metric"], OmegaParams(**cfg["omega"])),
        )


# check runners; each takes (cfg, check config, run context) and returns its
# report record, which _run_checks names


def _check_energy(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    led = ctx.ledger
    e0 = led.energy[:, 0]
    gaps = energy_identity_gap(ctx.spec, led)
    worst_ratio = max(0.0, float(np.divide(gaps, e0, out=gaps, where=e0 > 0).max()))
    rungs = {}
    for eps in chk["eps_ladder"]:
        rep = check_energy_inequality(ctx.ensemble, led, eps, radius=ctx.radius)
        rungs[repr(eps)] = {"holds": rep.holds, "worst_delta": rep.worst_delta}
    holds = all(rec["holds"] for rec in rungs.values())
    ok = holds and worst_ratio <= chk["gap_tol"]
    return {
        "status": "pass" if ok else "fail",
        "gap_ratio": worst_ratio,
        "gap_tol": chk["gap_tol"],
        "ladder": rungs,
    }


def _absorbing_ball(spec: ModelSpec) -> float:
    """The absorbing radius; HypothesisFail when zero forcing shrinks the ball to the rest state."""
    r_abs = absorbing_radius(spec)
    if r_abs <= 0.0:
        raise HypothesisFail("zero forcing: the absorbing ball is the rest state, radius 0")
    return r_abs


def _absorbing_group(cfg: dict, chk: dict, ctx: _RunContext) -> Group:
    r_abs = _absorbing_ball(ctx.spec)
    boundary = _initials(ctx.spec, chk["n_samples"], 2.0 * r_abs, cfg["seed"] + 2, boundary=True)
    # the check reads only the norms of the samples
    return make_group(ctx.spec, boundary, 0.0, chk["horizon"], cfg["dt"], norms=True)


def _check_absorbing(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    r_abs = _absorbing_ball(ctx.spec)
    ok = True
    worst_entry = 0.0
    slack = 1e-9 * r_abs
    for norms in ctx.own(chk):
        inside = norms <= r_abs + slack
        entered = np.flatnonzero(inside)
        if entered.size == 0 or not inside[entered[0] :].all():
            ok = False
            break
        worst_entry = max(worst_entry, float(entered[0] * cfg["dt"]))
    return {
        "status": "pass" if ok else "fail",
        "radius": r_abs,
        "worst_entry_time": worst_entry if ok else None,
        "n_samples": chk["n_samples"],
    }


def _check_tracking(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    rungs = tracking_ladder(
        ctx.ensemble, ctx.library, chk["metric"], chk["window_T"], eps_ladder=chk["eps_ladder"]
    )
    out = {}
    ok = True
    for eps, rep in rungs:
        if rep is None:
            ok = False
            out[repr(eps)] = None
        else:
            out[repr(eps)] = {"t_star": rep.t_star, "worst_error": rep.worst_error}
    return {
        "status": "pass" if ok else "fail",
        "metric": chk["metric"],
        "ladder": out,
    }


def _check_quasi_invariance(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    rep = check_quasi_invariance(ctx.attractor, ctx.library, eps=chk["eps"], t_win=chk["t_win"])
    return {
        "status": "pass" if rep.covered_fraction == 1.0 else "fail",
        "covered_fraction": rep.covered_fraction,
        "eps": chk["eps"],
    }


def _check_maximal_invariant(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    rep = check_maximal_invariant(ctx.attractor, ctx.library, eps=chk["eps"])
    ok = rep.i_subset_a and rep.a_subset_i
    return {
        "status": "pass" if ok else "fail",
        "d_i_to_a": rep.d_i_to_a,
        "d_a_to_i": rep.d_a_to_i,
        "eps": chk["eps"],
    }


def _check_compactness(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    n_times = chk["n_times"]
    ensemble = ctx.ensemble
    k_from = ensemble.index_of(chk["t_from"])
    n = ensemble.n_samples
    stride = max(1, (n - k_from - 1) // max(1, n_times - 1))
    idx = range(k_from, n, stride)[:n_times]
    times = [ensemble.t0 + i * ensemble.dt for i in idx]
    k = chk["k"]
    if k >= len(times):
        raise HypothesisFail(f"k={k} centers cover all {len(times)} sampled times: defect 0")
    defect = asymptotic_compactness_defect(ensemble, times, k)
    return {
        "status": "pass" if defect <= chk["threshold"] else "fail",
        "defect": defect,
        "k": k,
        "threshold": chk["threshold"],
    }


def _point_group(cfg: dict, chk: dict, ctx: _RunContext) -> Group:
    # starts x0 + 2^-n e_0 around the run's first initial state x0, kept over
    # the check's window around t_star and stepped no further
    bump = np.zeros(spec_dim(ctx.spec))
    bump[0] = 1.0
    x0 = ctx.initials[0]
    starts = [x0 + 2.0 ** (-n) * bump for n in range(1, chk["n_seq"] + 1)]
    dt = cfg["dt"]
    group = make_group(ctx.spec, np.array(starts), 0.0, cfg["horizon"], dt)
    lo, hi = _point_window(grid_index(chk["t_star"], 0.0, dt), dt, group.n_steps + 1)
    return group._replace(t0=lo * dt, n_steps=hi, skip=lo)


def _check_point_convergence(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    ens = ctx.ensemble
    base = frozen_view(Ensemble, samples=ens.samples[:1], t0=ens.t0, dt=ens.dt, model=ens.model)
    rep = check_strong_convergence_at_point(ctx.own(chk), base, chk["t_star"])
    return {
        "status": "pass" if rep.converged else "fail",
        "dists": list(rep.dists),
        "t_star": chk["t_star"],
    }


_EPS_LADDER = ([float], [1e-1, 1e-2, 1e-3], "> 0")

# check name -> (runner, config table of its fields besides "name", what the
# check integrates besides the run's ensemble: None, "library" for the
# surrogate library, or a builder (cfg, check config, run context) -> Group of
# its own)
_CHECKS = {
    "energy": (
        _check_energy,
        {"eps_ladder": _EPS_LADDER, "gap_tol": (float, 1e-6, ">= 0")},
        None,
    ),
    "absorbing": (
        _check_absorbing,
        {"n_samples": (int, 64, ">= 1"), "horizon": (float, _horizon, "> 0")},
        _absorbing_group,
    ),
    "tracking": (
        _check_tracking,
        {
            "metric": (METRIC_KINDS, lambda cfg: cfg["metric"], None),
            "eps_ladder": _EPS_LADDER,
            "window_T": (float, 2.0, "> 0"),
        },
        "library",
    ),
    "quasi_invariance": (
        _check_quasi_invariance,
        {"eps": (float, 1e-3, "> 0"), "t_win": (float, 2.0, "> 0")},
        "library",
    ),
    "maximal_invariant": (_check_maximal_invariant, {"eps": (float, 1e-3, "> 0")}, "library"),
    "compactness": (
        _check_compactness,
        {
            "k": (int, 8, ">= 1"),
            "n_times": (int, 16, ">= 2"),
            "t_from": (float, _half_horizon, "in [0, horizon)"),
            "threshold": (float, 1e-2, ">= 0"),
        },
        None,
    ),
    "point_convergence": (
        _check_point_convergence,
        {"t_star": (float, _half_horizon, "in [0, horizon]"), "n_seq": (int, 6, ">= 1")},
        _point_group,
    ),
}


# what a run, or one check of verify, records as its error instead of raising
_RECORDED = (AttractorLabError, ValueError, MemoryError)


def _error_record(exc: BaseException) -> dict:
    # numpy raises a private subclass of MemoryError; record the public name
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    stage = getattr(exc, "stage", None)  # set by the pass for its ledger rows
    return {"type": name, "message": str(exc), **({"stage": stage} if stage else {})}


def _run_checks(ctx: _RunContext) -> list[dict]:
    """Run the configured checks, each on its own.

    Each record is named after its check. A check that raises HypothesisFail
    leaves a hypothesis_fail record with its detail; one that raises another
    error leaves an error record, and the next check still runs. The
    omega-limit estimate is built on first use, once, with no attraction scan.
    """
    reports = []
    for chk in ctx.cfg["checks"]:
        name = chk["name"]
        try:
            record = _CHECKS[name][0](ctx.cfg, chk, ctx)
        except HypothesisFail as exc:
            record = {"status": "hypothesis_fail", "detail": str(exc)}
        except _RECORDED as exc:
            record = {"status": "error", **_error_record(exc), "stage": name}
        reports.append({"name": name, **record})
    return reports


def _groups(subcommand: str, cfg: dict) -> list:
    """Keys of the groups besides the run's that a subcommand integrates."""
    if subcommand == "trajectory-attractor":
        return ["library"]
    if subcommand != "verify":
        return []
    checks = cfg["checks"]
    reads = [_CHECKS[chk["name"]][2] for chk in checks]
    library = ["library"] if "library" in reads else []
    return library + [id(chk) for chk, what in zip(checks, reads) if callable(what)]


def _trajectory_attraction(ctx: _RunContext, sets: dict) -> dict:
    """The trajectory-attractor record; its slice at t = 0 goes into sets."""
    cluster_tol = ctx.cfg["omega"]["cluster_tol"]
    ensemble = ctx.ensemble
    att = trajectory_attractor(ensemble, ctx.library, cluster_tol)
    invariance = translation_invariance(att, tol=cluster_tol)
    rep = trajectory_attraction_report(ensemble, att, eps=2.0 * cluster_tol)
    sets["trajectory_attractor_slice0"] = {
        "metric": "weak",
        "tol": cluster_tol,
        "horizon": att.t_end,
        "points": att.samples[:, 0].copy(),  # a copy: the attractor is freed on return
    }
    return {
        "name": "trajectory_attraction",
        "status": "pass" if invariance.ok and rep.t_entry is not None else "fail",
        "invariance_defects": list(invariance.defects),
        "t_entry": rep.t_entry,
        "strong_mode": rep.strong_mode,
        "t_entry_strong": rep.t_entry_strong,
        "n_members": att.n_members,
    }


# ---------------------------------------------------------------------------
# entry point


def run(subcommand: str, cfg: dict) -> int:
    # A model that the config describes but the model code rejects (a mode,
    # component or shell it does not retain), or an output_dir that names a
    # file, raises ConfigInvalid here, before any artifact is written.
    spec = _build_spec(cfg["model"])
    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"output_dir {str(out)!r}: cannot create directory: {exc.strerror}")
    sets: dict = {}
    reports: list[dict] = []
    error_record = None
    exit_code = 0
    ensemble = tail = None  # tail: the pass's child, writing trajectories.csv
    stride, path = cfg["save_stride"], out / "trajectories.csv"
    try:
        try:
            ctx = _RunContext(cfg, spec)
            tail = ctx.integrate(
                _groups(subcommand, cfg), lambda ens: _write_trajectories(path, ens, stride)
            )
            ensemble = ctx.ensemble
            if subcommand == "omega":
                sets["omega"] = _set_payload(ctx.attractor)
            elif subcommand == "attractor":
                est = global_attractor(ensemble, cfg["metric"], OmegaParams(**cfg["omega"]))
                sets["attractor"] = _set_payload(est)
                reports.append(
                    {
                        "name": "attracting",
                        "status": "pass" if est.attraction.t_entry is not None else "fail",
                        "t_entry": est.attraction.t_entry,
                        "eps": est.attraction.eps,
                    }
                )
            elif subcommand == "trajectory-attractor":
                reports.append(_trajectory_attraction(ctx, sets))
            elif subcommand == "verify":
                reports = _run_checks(ctx)
            exit_code = _status_exit(reports)
        except _RECORDED as exc:
            error_record = _error_record(exc)
            exit_code = 1
        if ensemble is None:
            path.write_text("time,member\n")
            (out / "ledger.csv").write_text("member,time,energy,enstrophy,work\n")
        else:  # the small artifacts while the child writes trajectories.csv
            ctx.release()
            _write_ledger(out / "ledger.csv", ctx.ledger, stride)
        _write_json(out / "sets.json", sets)
        payload: dict = {"checks": reports}
        if error_record is not None:
            payload["error"] = error_record
        _write_json(out / "reports.json", payload)
        if ensemble is not None:
            written, tail = tail is not None and tail.join(), None
            if not written:  # no child, or it failed: the whole file here, over any part of it
                _write_trajectories(path, ensemble, stride)
    finally:
        if tail is not None:  # something raised before the child was reaped: no part of its file
            tail.join(False)
            path.unlink(missing_ok=True)
    manifest = {
        "artifact": "attractorlab",
        "version": __version__,
        "subcommand": subcommand,
        "seed": cfg["seed"],
        "config": cfg,
        "outputs": sorted(
            ["trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json"]
        ),
    }
    _write_json(out / "manifest.json", manifest)
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="attractorlab",
        description="Attractor estimation and theorem checks for dissipative models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _value(args.seed, int, ">= 0", "--seed", cfg)
        if args.out is not None:
            cfg["output_dir"] = args.out
        return run(args.subcommand, cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
