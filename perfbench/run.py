"""attractorlab benchmark: four CLI workloads, timed end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py, or ``all``. The
load is a closed loop: one client runs one CLI process at a time and starts
the next when the previous one has exited. Every run is checked against the
shipped reference for its workload seed (perfbench/check.py).

``--trace 0`` warms both builds up, then runs the workload in pairs for S
seconds: one run of the checked-out sources and one of the reference
build (perfbench/reference, the sources this benchmark was defined on),
back to back, alternating which goes first. SETUP_PROBES set-up probes
(perfbench/probe.py) are interleaved. It reports medians of

  wall_rel     the median wall time of one CLI process (launch to exit,
               import included) over the median wall time of the
               reference build's runs
  setup_s      launch to exit of a probe that imports the CLI, loads the
               config and builds the model spec and its mode table
  peak_rss_mb  peak resident memory of that one CLI process (from wait4)

The speed of a shared host drifts by 10-30% over tens of seconds; both
builds see the same drift, so the ratio stays steady where the wall time
itself does not. The wall times are kept in the record.

``--trace 1`` alternates traced runs (perfbench/tracer.py) with untraced
ones and reports per-layer metrics: self and busy times, call and work
counts, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment and every run. A table goes to standard error.
Scratch files go to .perfbench/ under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_SRC = HERE / "reference"
SCRATCH = ROOT / ".perfbench"
REFS = HERE / "refs"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, make_config, workload_seed  # noqa: E402

SETUP_PROBES = 4
MIN_PAIRS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path, src: Path = SRC) -> tuple[int, float, float]:
    """Run one child to exit; return its exit code, wall seconds and peak RSS in MB.

    The rusage comes from wait4 on this child alone; RUSAGE_CHILDREN would
    report the maximum over every child reaped so far.
    """
    with open(cwd / "child.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(src), stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(subcommand: str) -> list[str]:
    return [sys.executable, "-m", "attractorlab.cli", subcommand, "--config", "config.json"]


def probe_argv() -> list[str]:
    return [sys.executable, str(HERE / "probe.py"), "config.json"]


def _cache_size(level: int) -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def environment() -> dict:
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


class Workload:
    """One workload at one seed: its config, reference and run directory."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.subcommand, _, self.dominant = WORKLOADS[name]
        self.seed = workload_seed(seed)
        self.dir = SCRATCH / name
        self.reference_dir = self.dir / "reference"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.reference_dir.mkdir(parents=True)
        config = json.dumps(make_config(name, self.seed), indent=1)
        (self.dir / "config.json").write_text(config)
        (self.reference_dir / "config.json").write_text(config)
        ref_path = REFS / name / f"seed{self.seed}"
        self.ref = json.loads(ref_path.with_suffix(".json").read_text())
        with np.load(ref_path.with_suffix(".npz")) as npz:
            self.ref_points = {k: npz[k].astype(float) for k in npz.files}
        self.digests: list[str] = []
        self.runs: list[dict] = []

    def gate(self, code: int) -> list[str]:
        """Check the artifacts of the run that just exited."""
        out = self.dir / "out"
        try:
            problems = check.compare(check.fingerprint(out, code), self.ref, self.ref_points)
            dig = check.digest(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
        if self.digests and dig != self.digests[0]:
            problems.append("artifact digest differs from this code's first run")
        self.digests.append(dig)
        return problems

    def run(self, traced: bool) -> dict:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), self.subcommand, "config.json", "spans.json"]
        else:
            argv = cli_argv(self.subcommand)
        code, wall, rss = run_child(argv, self.dir)
        problems = self.gate(code)
        rec = {"traced": traced, "exit_code": code, "wall_s": wall, "peak_rss_mb": rss}
        if traced and not problems:
            doc = json.loads((self.dir / "spans.json").read_text())
            if not Path(doc["package_file"]).resolve().is_relative_to(SRC):
                raise SystemExit(f"traced run imported attractorlab from {doc['package_file']}")
            rec["layers"] = layers.layer_metrics(doc, self.dir / "out")
            rec["missing_hooks"] = doc["missing_hooks"]
        rec["problems"] = problems
        self.runs.append(rec)
        return rec

    def reference_run(self) -> dict:
        """Run the reference build on the same config; only its exit code is checked."""
        shutil.rmtree(self.reference_dir / "out", ignore_errors=True)
        code, wall, _ = run_child(cli_argv(self.subcommand), self.reference_dir, REFERENCE_SRC)
        problems = [] if code == self.ref["exit_code"] else [f"reference build exit code {code}"]
        rec = {"reference": True, "exit_code": code, "wall_s": wall, "problems": problems}
        self.runs.append(rec)
        return rec

    def probe(self) -> dict:
        code, wall, _ = run_child(probe_argv(), self.dir)
        rec = {"setup_s": wall, "problems": [] if code == 0 else [f"probe exit code {code}"]}
        self.runs.append(rec)
        return rec


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    metrics: dict = {}
    if not trace:
        # warm the file cache and bytecode of both builds; not counted
        run_child(probe_argv(), wl.dir)
        run_child(probe_argv(), wl.reference_dir, REFERENCE_SRC)
        deadline = time.perf_counter() + seconds
        # probes are interleaved with the pairs so both sample the whole window
        setups: list[float] = []
        walls: list[float] = []
        reference_walls: list[float] = []
        pair_s: list[float] = []
        rss: list[float] = []
        while len(walls) < MIN_PAIRS or time.perf_counter() + _median(pair_s) <= deadline:
            if len(setups) < SETUP_PROBES:
                setups.append(wl.probe()["setup_s"])
            pair_start = time.perf_counter()
            if len(walls) % 2:
                ref = wl.reference_run()
                run = wl.run(traced=False)
            else:
                run = wl.run(traced=False)
                ref = wl.reference_run()
            pair_s.append(time.perf_counter() - pair_start)
            walls.append(run["wall_s"])
            reference_walls.append(ref["wall_s"])
            rss.append(run["peak_rss_mb"])
        while len(setups) < SETUP_PROBES:
            setups.append(wl.probe()["setup_s"])
        metrics["wall_rel"] = (_median(walls) / _median(reference_walls), "ratio")
        metrics["setup_s"] = (_median(setups), "s")
        metrics["peak_rss_mb"] = (_median(rss), "MB")
    else:
        deadline = time.perf_counter() + seconds
        traced: list[dict] = []
        plain: list[dict] = []
        while len(traced) < 2 or time.perf_counter() + traced[-1]["wall_s"] + plain[-1]["wall_s"] <= deadline:
            traced.append(wl.run(traced=True))
            plain.append(wl.run(traced=False))
        good = [r["layers"] for r in traced if "layers" in r]
        if not good:
            raise SystemExit(f"{wl.name}: no traced run passed the correctness gate")
        for key, unit in layers.METRICS.items():
            metrics[key] = (_median([g[key] for g in good]), unit)
        overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain])
        metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(name, seed)
    metrics = measure(wl, seconds, trace)
    failed = sum(1 for r in wl.runs if r["problems"])
    record = {
        "workload": name,
        "subcommand": wl.subcommand,
        "seed": seed,
        "workload_seed": wl.seed,
        "trace": trace,
        "reference_digest": wl.ref["digest"],
        "digest_matches_reference": bool(wl.digests) and wl.digests[0] == wl.ref["digest"],
        "runs": wl.runs,
    }
    if trace:
        layer_self = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
        record["dominant_layer"] = max(layer_self, key=layer_self.get)
        record["dominant_expected"] = wl.dominant
    return {
        "record": record,
        "correct": failed == 0,
        "attempted": len(wl.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(res: dict) -> None:
    rec = res["record"]
    print(f"\n{rec['workload']} (seed {rec['seed']} -> workload seed {rec['workload_seed']})", file=sys.stderr)
    for key, m in res["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'fail_frac':44s} {res['failed'] / res['attempted']:14.6g} failed/attempted", file=sys.stderr)
    if "dominant_layer" in rec:
        print(f"  dominant layer {rec['dominant_layer']} (expected {rec['dominant_expected']})", file=sys.stderr)
    for run in rec["runs"]:
        if run.get("missing_hooks"):
            print(f"  not traced (function not found): {run['missing_hooks']}", file=sys.stderr)
        for problem in run["problems"]:
            print(f"  FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "attractorlab" / "cli.py").is_file():
        print(f"attractorlab sources not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res["record"]["environment"] = env
        report(res)
        print(json.dumps({"record": res.pop("record")}))
        results.append(res)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": m for n, r in zip(names, results) for k, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
