"""tools/cli_ab.py reads a run's peak memory without its own."""
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

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
    wall, rss_mb, code = _cli_ab().measure(argv, tmp_path, dict(os.environ))
    assert code == 0 and wall > 0.0
    assert rss_mb < 40.0
