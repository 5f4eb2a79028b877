"""Experiment runner: config in, deterministic data products out.

A run builds one model and one seeded ensemble, executes the requested
pipeline, and writes five files under the output directory: trajectories.csv,
sets.json, reports.json, ledger.csv, and manifest.json. Identical configs
produce byte-identical files; the manifest carries the effective config and
seed instead of a timestamp. Unknown config keys are rejected with the
offending field named, and numeric failures abort with a structured error
record in reports.json; in verify, a check that raises gets its own error
record and the other checks still run.

Exit codes: 0 all checks passed, 1 config or runtime error, 2 at least one
check returned false, 3 at least one check could not establish its
hypotheses (a false verdict outranks a hypothesis failure).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import build_ensemble, complete_surrogates
from .errors import AttractorLabError, ConfigInvalid, HypothesisFail, NonFiniteState
from .limits import OmegaParams, asymptotic_compactness_defect, global_attractor, omega_limit
from .metrics import METRIC_KINDS, TrajMetricParams
from .models import (
    ModelSpec,
    KINDS,
    NSE_KINDS,
    absorbing_radius,
    check_energy_inequality,
    default_radius,
    dyadic_forcing,
    energy_identity_gap,
    energy_ledger,
    make_spec,
    nse_forcing,
    sample_ball,
    smooth_profile,
    spec_dim,
)
from .state import Ensemble
from .trajectory_space import (
    trajectory_attraction_report,
    trajectory_attractor,
    translation_invariance,
)
from .verification import (
    check_maximal_invariant,
    check_quasi_invariance,
    check_strong_convergence_at_point,
    tracking_ladder,
)

SUBCOMMANDS = ("simulate", "omega", "attractor", "trajectory-attractor", "verify")

_MODEL_KEYS = {"kind", "nu", "L", "truncation", "lambda", "forcing"}
_OMEGA_KEYS = {"t_transient", "t_max", "sample_stride", "cluster_tol"}
_LIBRARY_KEYS = {"size", "t_back", "horizon"}
_TOP_KEYS = {
    "model",
    "seed",
    "ensemble_size",
    "horizon",
    "dt",
    "radius",
    "metric",
    "omega",
    "library",
    "checks",
    "output_dir",
    "save_stride",
}
# check name -> {key: type}; numeric keys are validated by load_config
_CHECK_KEYS = {
    "energy": {"name": str, "eps_ladder": list, "gap_tol": float},
    "absorbing": {"name": str, "n_samples": int, "horizon": float},
    "tracking": {"name": str, "metric": str, "eps_ladder": list, "window_T": float},
    "quasi_invariance": {"name": str, "eps": float, "t_win": float},
    "maximal_invariant": {"name": str, "eps": float},
    "compactness": {"name": str, "k": int, "n_times": int, "t_from": float, "threshold": float},
    "point_convergence": {"name": str, "t_star": float, "n_seq": int},
}
_NSE_FORCING_KEYS = {"mode", "amplitude", "component", "part"}
_DYADIC_FORCING_KEYS = {"shell", "amplitude"}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigInvalid(f"unknown config key {where}.{key}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigInvalid(f"missing config key {where}.{key}")
    return section[key]


def _number(value, where: str, kind: type):
    """value as a finite int or float; ConfigInvalid for anything else.

    Booleans, non-finite values and, for kind int, non-integral values are
    rejected too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{where} must be a number, got {value!r}")
    if not np.isfinite(value):
        raise ConfigInvalid(f"{where} must be finite, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigInvalid(f"{where} must be an integer, got {value!r}")
    return kind(value)


def load_config(path: str | Path) -> dict:
    """Parse and validate a JSON experiment config, filling defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be an object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    model = _require(raw, "model", "config")
    if not isinstance(model, dict):
        raise ConfigInvalid("config.model must be an object")
    _reject_unknown(model, _MODEL_KEYS, "model")
    kind = _require(model, "kind", "model")
    if kind not in KINDS:
        raise ConfigInvalid(f"model.kind must be one of {KINDS}, got {kind!r}")
    cfg = {
        "model": {
            "kind": kind,
            "nu": _number(model.get("nu", 1.0), "model.nu", float),
            "L": _number(model.get("L", 2.0 * np.pi), "model.L", float),
            "truncation": _number(
                _require(model, "truncation", "model"), "model.truncation", int
            ),
            "lambda": _number(model.get("lambda", 2.0), "model.lambda", float),
            "forcing": model.get("forcing", []),
        },
        "seed": _number(raw.get("seed", 0), "config.seed", int),
        "ensemble_size": _number(raw.get("ensemble_size", 8), "config.ensemble_size", int),
        "horizon": _number(_require(raw, "horizon", "config"), "config.horizon", float),
        "dt": _number(_require(raw, "dt", "config"), "config.dt", float),
        "radius": (
            None if raw.get("radius") is None else _number(raw["radius"], "config.radius", float)
        ),
        "metric": raw.get("metric", "strong"),
        "save_stride": _number(raw.get("save_stride", 1), "config.save_stride", int),
        "output_dir": raw.get("output_dir", "out"),
    }
    if cfg["metric"] not in METRIC_KINDS:
        raise ConfigInvalid(f"config.metric must be one of {METRIC_KINDS}")
    if cfg["save_stride"] < 1:
        raise ConfigInvalid("config.save_stride must be >= 1")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigInvalid("config.output_dir must be a string")
    if not isinstance(cfg["model"]["forcing"], list):
        raise ConfigInvalid("model.forcing must be a list of entries")
    for i, entry in enumerate(cfg["model"]["forcing"]):
        where = f"model.forcing[{i}]"
        if not isinstance(entry, dict):
            raise ConfigInvalid(f"{where} must be an object")
        allowed = _NSE_FORCING_KEYS if kind in NSE_KINDS else _DYADIC_FORCING_KEYS
        _reject_unknown(entry, allowed, where)
        _number(_require(entry, "amplitude", where), f"{where}.amplitude", float)
        if kind not in NSE_KINDS:
            _number(_require(entry, "shell", where), f"{where}.shell", int)
            continue
        mode = _require(entry, "mode", where)
        if not isinstance(mode, list):
            raise ConfigInvalid(f"{where}.mode must be a list of integers")
        for j, c in enumerate(mode):
            _number(c, f"{where}.mode[{j}]", int)
        _number(entry.get("component", 0), f"{where}.component", int)
        if entry.get("part", "cos") not in ("cos", "sin"):
            raise ConfigInvalid(f"{where}.part must be 'cos' or 'sin'")

    omega = raw.get("omega", {})
    if not isinstance(omega, dict):
        raise ConfigInvalid("config.omega must be an object")
    _reject_unknown(omega, _OMEGA_KEYS, "omega")
    horizon = cfg["horizon"]
    cfg["omega"] = {
        "t_transient": _number(omega.get("t_transient", horizon / 2.0), "omega.t_transient", float),
        "t_max": _number(omega.get("t_max", horizon), "omega.t_max", float),
        "sample_stride": _number(omega.get("sample_stride", 1), "omega.sample_stride", int),
        "cluster_tol": _number(omega.get("cluster_tol", 1e-3), "omega.cluster_tol", float),
    }
    library = raw.get("library", {})
    if not isinstance(library, dict):
        raise ConfigInvalid("config.library must be an object")
    _reject_unknown(library, _LIBRARY_KEYS, "library")
    cfg["library"] = {
        "size": _number(library.get("size", 8), "library.size", int),
        "t_back": _number(library.get("t_back", 50.0), "library.t_back", float),
        "horizon": _number(library.get("horizon", horizon), "library.horizon", float),
    }
    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigInvalid("config.checks must be a list")
    cfg["checks"] = []
    for i, chk in enumerate(checks):
        if not isinstance(chk, dict):
            raise ConfigInvalid(f"checks[{i}] must be an object")
        name = _require(chk, "name", f"checks[{i}]")
        if not isinstance(name, str) or name not in _CHECK_KEYS:
            raise ConfigInvalid(
                f"checks[{i}].name must be one of {sorted(_CHECK_KEYS)}, got {name!r}"
            )
        _reject_unknown(chk, _CHECK_KEYS[name], f"checks[{i}]")
        for key, kind in _CHECK_KEYS[name].items():
            where = f"checks[{i}].{key}"
            if key not in chk or kind is str:
                continue
            if kind is not list:
                _number(chk[key], where, kind)
            elif not isinstance(chk[key], list):
                raise ConfigInvalid(f"{where} must be a list of numbers")
            else:
                for j, value in enumerate(chk[key]):
                    _number(value, f"{where}[{j}]", float)
        if chk.get("metric", cfg["metric"]) not in METRIC_KINDS:
            raise ConfigInvalid(f"checks[{i}].metric must be one of {METRIC_KINDS}")
        cfg["checks"].append(dict(chk))
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
        return make_spec(
            kind,
            nu=mc["nu"],
            L=mc["L"],
            truncation=mc["truncation"],
            lam=mc["lambda"],
            forcing=forcing,
        )
    except (ValueError, NonFiniteState) as exc:
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


def _write_trajectories(path: Path, ensemble: Ensemble, stride: int) -> None:
    dim = ensemble.samples.shape[2]
    header = "time,member," + ",".join(f"c{j}" for j in range(dim))
    lines = [header]
    for mi, member in enumerate(ensemble.samples):
        for k in range(0, ensemble.n_samples, stride):
            t = float(ensemble.t0 + k * ensemble.dt)
            lines.append(f"{t!r},{mi}," + ",".join(map(repr, member[k].tolist())))
    path.write_text("\n".join(lines) + "\n")


def _write_ledger(path: Path, spec: ModelSpec, ensemble: Ensemble, stride: int) -> None:
    lines = ["member,time,energy,enstrophy,work"]
    for mi, tr in enumerate(ensemble.trajectories):
        led = energy_ledger(spec, tr)
        table = np.stack([led.times, led.energy, led.enstrophy, led.work], axis=1)
        for row in table[::stride].tolist():
            lines.append(f"{mi}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


def _set_payload(est) -> dict:
    payload = {
        "metric": est.metric,
        "tol": est.tol,
        "horizon": est.horizon,
        "points": [list(p.coords) for p in est.points],
    }
    if est.attraction is not None:
        payload["attraction"] = asdict(est.attraction)
    return payload


# ---------------------------------------------------------------------------
# pipeline pieces


def _initials(spec: ModelSpec, n: int, radius: float, seed: int) -> np.ndarray:
    profile = smooth_profile(spec) if spec.kind in NSE_KINDS else None
    return sample_ball(spec, n, radius=radius, seed=seed, profile=profile)


def _setup(cfg: dict, spec: ModelSpec):
    radius = cfg["radius"]
    if radius is None:
        radius = default_radius(spec)
    initials = _initials(spec, cfg["ensemble_size"], radius, cfg["seed"])
    ensemble = build_ensemble(spec, initials, 0.0, cfg["horizon"], cfg["dt"], label="run")
    return radius, ensemble


def _build_library(cfg: dict, spec: ModelSpec, radius: float) -> Ensemble:
    lib_cfg = cfg["library"]
    initials = _initials(spec, lib_cfg["size"], radius, cfg["seed"] + 1)
    return complete_surrogates(
        spec,
        initials,
        t_back=lib_cfg["t_back"],
        horizon=lib_cfg["horizon"],
        dt=cfg["dt"],
    )


def _omega_params(cfg: dict) -> OmegaParams:
    o = cfg["omega"]
    return OmegaParams(
        t_transient=o["t_transient"],
        t_max=o["t_max"],
        sample_stride=o["sample_stride"],
        cluster_tol=o["cluster_tol"],
    )


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
    """What the checks of one verify run share; the costly parts are lazy.

    Each costly part is built once, on first use; if building it raises,
    later uses raise the same exception without building it again.
    """

    def __init__(self, cfg: dict, spec: ModelSpec, radius: float, ensemble: Ensemble):
        self.cfg, self.spec, self.radius, self.ensemble = cfg, spec, radius, ensemble
        self._built: dict = {}  # part name -> (value, exception)

    def _once(self, name: str, build):
        if name not in self._built:
            try:
                self._built[name] = (build(), None)
            except Exception as exc:
                self._built[name] = (None, exc)
        value, exc = self._built[name]
        if exc is not None:
            raise exc
        return value

    @property
    def library(self) -> Ensemble:
        return self._once("library", lambda: _build_library(self.cfg, self.spec, self.radius))

    @property
    def attractor(self):
        return self._once(
            "attractor",
            lambda: global_attractor(self.ensemble, self.cfg["metric"], _omega_params(self.cfg)),
        )


# check runners; each takes (cfg, check config, run context) and returns a
# report record


def _check_energy(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    eps_ladder = [float(e) for e in chk.get("eps_ladder", (1e-1, 1e-2, 1e-3))]
    gap_tol = float(chk.get("gap_tol", 1e-6))
    worst_ratio = 0.0
    rungs = {}
    holds = True
    for tr in ctx.ensemble.trajectories:
        led = energy_ledger(ctx.spec, tr)
        e0 = float(led.energy[0])
        gap = energy_identity_gap(ctx.spec, led)
        worst_ratio = max(worst_ratio, gap / e0 if e0 > 0 else gap)
        for eps in eps_ladder:
            rep = check_energy_inequality(tr, led, eps, radius=ctx.radius)
            rec = rungs.setdefault(repr(eps), {"holds": True, "worst_delta": -np.inf})
            rec["holds"] = rec["holds"] and rep.holds
            rec["worst_delta"] = max(rec["worst_delta"], rep.worst_delta)
            holds = holds and rep.holds
    ok = holds and worst_ratio <= gap_tol
    return {
        "name": "energy",
        "status": "pass" if ok else "fail",
        "gap_ratio": worst_ratio,
        "gap_tol": gap_tol,
        "ladder": rungs,
    }


def _check_absorbing(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    spec = ctx.spec
    n = int(chk.get("n_samples", 64))
    horizon = float(chk.get("horizon", cfg["horizon"]))
    r_abs = absorbing_radius(spec)
    profile = smooth_profile(spec) if spec.kind in NSE_KINDS else None
    boundary = sample_ball(
        spec, n, radius=2.0 * r_abs, seed=cfg["seed"] + 2, boundary=True, profile=profile
    )
    ens = build_ensemble(spec, boundary, 0.0, horizon, cfg["dt"], label="absorbing")
    ok = True
    worst_entry = 0.0
    slack = 1e-9 * r_abs
    for tr in ens.trajectories:
        norms = np.linalg.norm(tr.samples, axis=1)
        inside = norms <= r_abs + slack
        entered = np.flatnonzero(inside)
        if entered.size == 0 or not inside[entered[0] :].all():
            ok = False
            break
        worst_entry = max(worst_entry, float(entered[0] * tr.dt))
    return {
        "name": "absorbing",
        "status": "pass" if ok else "fail",
        "radius": r_abs,
        "worst_entry_time": worst_entry,
        "n_samples": n,
    }


def _check_tracking(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    metric = chk.get("metric", cfg["metric"])
    ladder = [float(e) for e in chk.get("eps_ladder", (1e-1, 1e-2, 1e-3))]
    window = float(chk.get("window_T", 2.0))
    rungs = tracking_ladder(ctx.ensemble, ctx.library, metric, window, eps_ladder=ladder)
    out = {}
    ok = True
    for eps, rep in rungs:
        if rep is None:
            ok = False
            out[repr(eps)] = None
        else:
            out[repr(eps)] = {"t_star": rep.t_star, "worst_error": rep.worst_error}
    return {
        "name": "tracking",
        "status": "pass" if ok else "fail",
        "metric": metric,
        "ladder": out,
    }


def _check_quasi_invariance(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    eps = float(chk.get("eps", 1e-3))
    t_win = float(chk.get("t_win", 2.0))
    rep = check_quasi_invariance(ctx.attractor, ctx.library, eps=eps, t_win=t_win)
    return {
        "name": "quasi_invariance",
        "status": "pass" if rep.covered_fraction == 1.0 else "fail",
        "covered_fraction": rep.covered_fraction,
        "eps": eps,
    }


def _check_maximal_invariant(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    eps = float(chk.get("eps", 1e-3))
    rep = check_maximal_invariant(ctx.attractor, ctx.library, eps=eps)
    ok = rep.i_subset_a and rep.a_subset_i
    return {
        "name": "maximal_invariant",
        "status": "pass" if ok else "fail",
        "d_i_to_a": rep.d_i_to_a,
        "d_a_to_i": rep.d_a_to_i,
        "eps": eps,
    }


def _check_compactness(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    k = int(chk.get("k", 8))
    n_times = int(chk.get("n_times", 16))
    t_from = float(chk.get("t_from", cfg["horizon"] / 2.0))
    threshold = float(chk.get("threshold", 1e-2))
    ensemble = ctx.ensemble
    k_from = ensemble.index_of(t_from)
    n = ensemble.n_samples
    stride = max(1, (n - k_from - 1) // max(1, n_times - 1))
    idx = [k_from + j * stride for j in range(n_times) if k_from + j * stride < n]
    times = [ensemble.t0 + i * ensemble.dt for i in idx]
    defect = asymptotic_compactness_defect(ensemble, times, min(k, len(times)))
    return {
        "name": "compactness",
        "status": "pass" if defect <= threshold else "fail",
        "defect": defect,
        "k": min(k, len(times)),
        "threshold": threshold,
    }


def _check_point_convergence(cfg: dict, chk: dict, ctx: _RunContext) -> dict:
    t_star = float(chk.get("t_star", cfg["horizon"] / 2.0))
    n_seq = int(chk.get("n_seq", 6))
    base = ctx.ensemble.trajectories[0]
    bump = np.zeros(spec_dim(ctx.spec))
    bump[0] = 1.0
    starts = [base.samples[0] + 2.0 ** (-n) * bump for n in range(1, n_seq + 1)]
    seq = build_ensemble(ctx.spec, np.array(starts), 0.0, cfg["horizon"], cfg["dt"]).trajectories
    try:
        rep = check_strong_convergence_at_point(seq, base, t_star)
    except HypothesisFail as exc:
        return {
            "name": "point_convergence",
            "status": "hypothesis_fail",
            "detail": str(exc),
        }
    return {
        "name": "point_convergence",
        "status": "pass" if rep.converged else "fail",
        "dists": list(rep.dists),
        "t_star": t_star,
    }


_CHECKS = {
    "energy": _check_energy,
    "absorbing": _check_absorbing,
    "tracking": _check_tracking,
    "quasi_invariance": _check_quasi_invariance,
    "maximal_invariant": _check_maximal_invariant,
    "compactness": _check_compactness,
    "point_convergence": _check_point_convergence,
}


def _run_checks(cfg: dict, spec, radius, ensemble) -> list[dict]:
    """Run the configured checks, each on its own.

    A check that raises leaves an error record naming it, and the next check
    still runs. The library and the attractor are built on first use, once.
    """
    ctx = _RunContext(cfg, spec, radius, ensemble)
    reports = []
    for chk in cfg["checks"]:
        name = chk["name"]
        try:
            reports.append(_CHECKS[name](cfg, chk, ctx))
        except (AttractorLabError, ValueError) as exc:
            reports.append(
                {
                    "name": name,
                    "status": "error",
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "stage": name,
                }
            )
    return reports


# ---------------------------------------------------------------------------
# entry point


def run(subcommand: str, cfg: dict) -> int:
    # A model that the config describes but the model code rejects (a mode,
    # component or shell it does not retain) raises ConfigInvalid here,
    # before any artifact is written.
    spec = _build_spec(cfg["model"])
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    sets: dict = {}
    reports: list[dict] = []
    error_record = None
    exit_code = 0
    radius, ensemble = None, None
    stride = cfg["save_stride"]
    try:
        radius, ensemble = _setup(cfg, spec)
        if subcommand == "omega":
            est = omega_limit(ensemble, cfg["metric"], _omega_params(cfg))
            sets["omega"] = _set_payload(est)
        elif subcommand == "attractor":
            est = global_attractor(ensemble, cfg["metric"], _omega_params(cfg))
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
            library = _build_library(cfg, spec, radius)
            params = TrajMetricParams()
            cluster_tol = cfg["omega"]["cluster_tol"]
            att = trajectory_attractor(ensemble, library, params, cluster_tol=cluster_tol)
            invariance = translation_invariance(att, params, tol=cluster_tol)
            rep = trajectory_attraction_report(ensemble, att, params, eps=2.0 * cluster_tol)
            sets["trajectory_attractor_slice0"] = {
                "metric": "weak",
                "tol": cluster_tol,
                "horizon": att.t_end,
                "points": att.samples[:, 0],
            }
            reports.append(
                {
                    "name": "trajectory_attraction",
                    "status": "pass" if invariance.ok and rep.t_entry is not None else "fail",
                    "invariance_defects": list(invariance.defects),
                    "t_entry": rep.t_entry,
                    "strong_mode": rep.strong_mode,
                    "t_entry_strong": rep.t_entry_strong,
                    "n_members": att.n_members,
                }
            )
        elif subcommand == "verify":
            reports = _run_checks(cfg, spec, radius, ensemble)
        exit_code = _status_exit(reports)
    except (AttractorLabError, ValueError) as exc:
        error_record = {"type": type(exc).__name__, "message": str(exc)}
        exit_code = 1

    if ensemble is not None:
        _write_trajectories(out / "trajectories.csv", ensemble, stride)
        _write_ledger(out / "ledger.csv", spec, ensemble, stride)
    else:
        (out / "trajectories.csv").write_text("time,member\n")
        (out / "ledger.csv").write_text("member,time,energy,enstrophy,work\n")
    _write_json(out / "sets.json", sets)
    payload: dict = {"checks": reports}
    if error_record is not None:
        payload["error"] = error_record
    _write_json(out / "reports.json", payload)
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
            cfg["seed"] = int(args.seed)
        if args.out is not None:
            cfg["output_dir"] = args.out
        return run(args.subcommand, cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
