"""Every reproduction script and every Python block of the README runs cleanly."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "repro").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def _run(args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_scripts_found():
    assert len(SCRIPTS) >= 7


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_repro_script_prints_ok(script):
    proc = _run([str(script)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "OK", proc.stdout


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
