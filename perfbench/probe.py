"""Set-up probe: import the CLI, load a config, build its model and mode table.

Usage: python3 perfbench/probe.py CONFIG

The benchmark times this process from launch to exit as the set-up cost that
every CLI run pays before it integrates anything.
"""
from __future__ import annotations

import sys

from attractorlab import cli, models


def build_spec(config: str) -> models.ModelSpec:
    """The config's model spec, built as the CLI builds it (Galerkin NSE only)."""
    mc = cli.load_config(config)["model"]
    g = models.nse_forcing(mc["kind"], mc["L"], mc["truncation"], mc["forcing"])
    return models.make_spec(
        mc["kind"], nu=mc["nu"], L=mc["L"], truncation=mc["truncation"], lam=mc["lambda"], forcing=g
    )


if __name__ == "__main__":
    models.mode_table(build_spec(sys.argv[1]))
