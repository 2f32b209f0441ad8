"""Helpers shared by the tests that start a fresh interpreter."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env(**extra):
    """The current environment plus ``extra``, with this checkout's src first
    on PYTHONPATH, so a child interpreter imports the package under test."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env
