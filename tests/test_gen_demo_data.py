"""The demo-data generator writes nothing when asked for help or given an unknown flag."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagekit

DATA = Path(stagekit.__file__).parent / "data"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "gen_demo_data.py"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2)])
def test_arguments_are_parsed_before_anything_is_written(argv, code):
    before = {p.name: p.stat().st_mtime_ns for p in DATA.iterdir()}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(DATA.parents[1]), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(TOOL), *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == code, result.stderr
    assert "wrote" not in result.stdout
    assert {p.name: p.stat().st_mtime_ns for p in DATA.iterdir()} == before
    assert len(before) == 11
