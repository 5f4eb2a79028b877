"""Compare the CLI's artifacts built from two source trees.

Usage (from the repository root):

    python3 tools/artifact_diff.py PARENT_SRC [VERIFY_CONFIG ...]

Runs ``python -m attractorlab.cli`` once with PARENT_SRC and once with this
checkout's ``src/`` on the import path, on the four perfbench workloads at
workload seeds 0-4 and on each extra ``verify`` config given. Every run
writes into its own temporary directory. The exit codes and the five
artifacts must match: four files byte for byte, and manifest.json after
mapping the run's ``output_dir`` to one placeholder. Prints each difference
and exits 1 if there is one; exits 0 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SEEDS, WORKLOADS, make_config  # noqa: E402

ARTIFACTS = ("trajectories.csv", "ledger.csv", "sets.json", "reports.json", "manifest.json")


def _run(src: Path, subcommand: str, config: dict, work: Path) -> tuple[int, dict]:
    """Exit code and artifact bytes of one CLI run with src on the path."""
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [subcommand, "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "attractorlab.cli", *argv], cwd=work, env=env, capture_output=True
    )
    files = {}
    for name in ARTIFACTS:
        path = out / name
        files[name] = path.read_bytes() if path.exists() else None
    if files["manifest.json"] is not None:
        manifest = json.loads(files["manifest.json"])
        manifest["config"]["output_dir"] = "<out>"
        files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return proc.returncode, files


def _cases(extra: list[str]):
    for name, (subcommand, _, _) in WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name} seed {seed}", subcommand, make_config(name, seed)
    for path in extra:
        yield path, "verify", json.loads(Path(path).read_text())


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    diffs = 0
    for label, subcommand, config in _cases(argv[1:]):
        with tempfile.TemporaryDirectory() as tmp:
            sides = []
            for side, src in (("parent", parent), ("change", ROOT / "src")):
                work = Path(tmp) / side
                work.mkdir()
                sides.append(_run(src, subcommand, config, work))
        (code_a, files_a), (code_b, files_b) = sides
        bad = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
        bad += [name for name in ARTIFACTS if files_a[name] != files_b[name]]
        print(f"{label}: exit {code_b}, " + ("DIFFERS: " + ", ".join(bad) if bad else "same"))
        diffs += bool(bad)
    print(f"{diffs} case(s) differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
