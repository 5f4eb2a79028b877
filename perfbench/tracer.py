"""Traced CLI run: time the calls into each attractorlab layer from outside.

Usage: python3 perfbench/tracer.py SUBCOMMAND CONFIG SPANS_JSON

Runs ``attractorlab.cli.main`` in this process after wrapping the public
functions listed in HOOKS. A module imports its callees by name, so each
wrapper is installed under every attractorlab module attribute that refers
to the original function; otherwise calls would slip past it. Spans stay in
memory and are written to SPANS_JSON when the run ends. The exit code is
the CLI's.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


def _advect_work(args, out):
    table, u = args[0], args[1]
    # direct-sum convolution kernels carry P table entries; others report 0
    return [_rows(u), int(getattr(getattr(table, "ch_coeff", ()), "size", 0))]


def _cross_dist_pairs(args, out):
    return [int(out.size)]


def _ensemble_member_steps(args, out):
    return [out.n_members * (out.trajectories[0].n_samples - 1)]


def _omega_rows(args, out):
    ens, p = args[0], args[2]
    i0 = round((p.t_transient - ens.t0) / ens.dt)
    i1 = round((p.t_max - ens.t0) / ens.dt)
    return [ens.n_members * len(range(i1, i0 - 1, -p.sample_stride)), out.n_points]


def _n_times(args, out):
    return [out.n_times]


def _n_members(args, out):
    return [out.n_members]


# (span name, defining module, function, work counter); the span's layer is
# the part of its name before the first dot
HOOKS = (
    ("cli.run", "cli", "run", None),
    ("spectral.build_mode_table", "spectral", "build_mode_table", None),
    ("spectral.advect", "spectral", "advect", _advect_work),
    ("models.nonlinear_array", "models", "nonlinear_array", None),
    ("models.energy_ledger", "models", "energy_ledger", None),
    ("models.energy_identity_gap", "models", "energy_identity_gap", None),
    ("models.check_energy_inequality", "models", "check_energy_inequality", None),
    ("core.build_ensemble", "core", "build_ensemble", _ensemble_member_steps),
    ("metrics.cross_dist", "metrics", "cross_dist", _cross_dist_pairs),
    ("limits.omega_limit", "limits", "omega_limit", _omega_rows),
    ("limits.is_attracting", "limits", "is_attracting", _n_times),
    ("limits.global_attractor", "limits", "global_attractor", None),
    ("verification.tracking", "verification", "tracking_ladder", None),
    ("verification.quasi_invariance", "verification", "check_quasi_invariance", None),
    ("verification.maximal_invariant", "verification", "check_maximal_invariant", None),
    ("verification.point_convergence", "verification", "check_strong_convergence_at_point", None),
    ("trajectory_space.trajectory_attractor", "trajectory_space", "trajectory_attractor", _n_members),
    ("trajectory_space.attraction_report", "trajectory_space", "trajectory_attraction_report", _n_times),
)


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end, work."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index, start, end, work]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work):
        self.names.append(name)
        name_idx = len(self.names) - 1
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name_idx, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, out)
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every hook under every name it is bound to; return the hooks not found."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "attractorlab"]
        missing = []
        for name, mod_name, fn_name, work in HOOKS:
            original = getattr(sys.modules.get(f"attractorlab.{mod_name}"), fn_name, None)
            if original is None:
                missing.append(name)
                continue
            traced = self.wrap(name, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
        return missing


def main(argv: list[str]) -> int:
    subcommand, config, spans_path = argv
    import attractorlab.cli as cli

    import_s = time.perf_counter() - _T_START
    tracer = Tracer()
    missing = tracer.install()
    code = cli.main([subcommand, "--config", config])
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "package_file": cli.__file__,
                "missing_hooks": missing,
                "names": tracer.names,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
