"""Every script under ``demos/`` runs to completion without writing to stderr,
every Python block in README.md runs, and so does every ``prosotag`` command
in its shell blocks."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from prosotag import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# each command of the shell blocks, its continuation lines joined
README_COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("prosotag ")
]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert README_BLOCKS
    monkeypatch.chdir(tmp_path)
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch):
    """The command-line walk-through, in order, each command exiting 0; an
    elided command (``OPENBLAS_NUM_THREADS=1 prosotag fit ...``) is not one."""
    assert [shlex.split(line)[1] for line in README_COMMANDS] == [
        "synth", "fit", "stats", "tag", "inspect"
    ]
    monkeypatch.chdir(tmp_path)
    for line in README_COMMANDS:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
    assert (tmp_path / "tags.jsonl").stat().st_size > 0
