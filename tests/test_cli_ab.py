"""tools/cli_ab.py reads a run's peak memory without its own and its children's CPU
time, and takes workload names."""
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _cli_ab():
    spec = importlib.util.spec_from_file_location("cli_ab", ROOT / "tools" / "cli_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peak_rss_leaves_out_the_harness_memory(tmp_path):
    # spawned from this process, python3 -c pass would read at least the 60 MiB
    # that np.ones writes here
    ballast = np.ones(60 * 2**20 // 8)  # noqa: F841
    argv = [sys.executable, "-c", "pass"]
    wall, cpu, rss_mb, code = _cli_ab().measure(argv, tmp_path, dict(os.environ))
    assert code == 0 and wall > 0.0 and cpu > 0.0
    assert rss_mb < 40.0


def test_cpu_time_counts_the_children_the_command_reaps(tmp_path):
    # the command forks a child that burns 0.2 s of CPU, and waits for it
    burn = (
        "import os, time\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    start = time.process_time()\n"
        "    while time.process_time() - start < 0.2:\n"
        "        pass\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    wall, cpu, rss_mb, code = _cli_ab().measure([sys.executable, "-c", burn], tmp_path, {})
    assert code == 0 and cpu >= 0.15


def test_workload_names_follow_pairs():
    cli_ab = _cli_ab()
    parent = str(ROOT / "src")
    assert cli_ab.parse([parent]) == (ROOT / "src", 10, cli_ab.NAMES)
    assert cli_ab.parse([parent, "3"]) == (ROOT / "src", 3, ("verify-nse2d", "trajattr-kolmogorov"))
    names = ["attractor-kolmogorov", "simulate-nse3d"]
    assert cli_ab.parse([parent, "12", *names]) == (ROOT / "src", 12, tuple(names))


@pytest.mark.parametrize(
    "argv",
    [[], ["src", "3", "no-such-workload"], ["src", "3", "verify-nse2d", "verify"], ["src", "0"],
     ["src", "ten"], ["src", "-1"]],
)
def test_a_malformed_command_line_prints_the_usage_and_runs_nothing(argv, monkeypatch, capsys):
    cli_ab = _cli_ab()

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was compiled or a run started")

    monkeypatch.setattr(cli_ab.compileall, "compile_dir", refuse)
    monkeypatch.setattr(cli_ab, "_run", refuse)
    assert cli_ab.main(argv) == 2
    assert capsys.readouterr().err.strip() == cli_ab.__doc__.strip()
