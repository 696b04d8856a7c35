"""The demo-data generator writes nothing when asked for help or given an unknown flag,
and regenerates the bundled demo data byte for byte."""

import importlib.util
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


def test_regenerated_data_equals_the_bundled_files(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gen_demo_data", TOOL)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "DATA_DIR", tmp_path)
    assert gen.main([]) == 0
    bundled = sorted(p.name for p in DATA.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == bundled
    assert len(bundled) == 11
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
