"""Regenerate the correctness references in perfbench/refs/.

Usage (from the repository root): python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once per seed in workloads.SEEDS with the checked-out
sources and stores what check.py compares: verdicts, reported numbers,
final-state projections and ledger rows as JSON, and set estimates as
float32 arrays. Regenerate only when a change is meant to alter results,
and say so in CHANGES.md.
"""
from __future__ import annotations

import json
import shutil
import sys

import numpy as np

from run import REFS, SCRATCH, SRC, cli_argv, run_child
from workloads import SEEDS, WORKLOADS, make_config

sys.path.insert(0, str(SRC))
from attractorlab import models  # noqa: E402
from probe import build_spec  # noqa: E402

import check  # noqa: E402


def make_ref(name: str, seed: int) -> dict:
    work = SCRATCH / "refs" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(make_config(name, seed), indent=1))
    subcommand = WORKLOADS[name][0]
    code, wall, _ = run_child(cli_argv(subcommand), work)
    fp = check.fingerprint(work / "out", code)
    weights, group = models.weak_weights(build_spec(str(work / "config.json")))
    points = {k: s.pop("points").astype(np.float32) for k, s in fp["sets"].items()}
    for k, s in fp["sets"].items():
        s["n_points"] = len(points[k])
    ref = {
        "workload": name,
        "seed": seed,
        **fp,
        "weak_weights": weights.tolist(),
        "group_size": group,
        "digest": check.digest(work / "out"),
    }
    dest = REFS / name
    dest.mkdir(parents=True, exist_ok=True)
    (dest / f"seed{seed}.json").write_text(json.dumps(ref, indent=1) + "\n")
    np.savez_compressed(dest / f"seed{seed}.npz", **points)
    print(
        f"{name} seed {seed}: exit {code}, {wall:.1f} s, verdicts {fp['checks']}, "
        f"set sizes { {k: s['n_points'] for k, s in fp['sets'].items()} }",
        flush=True,
    )
    return ref


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        for seed in SEEDS:
            make_ref(name, seed)
