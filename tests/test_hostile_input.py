"""The exit-code contract under hostile input: the demo data, mutated, run through ``cli.main``.

Whatever is done to one input file (the config or a CSV), a pipeline run
either succeeds (exit 0) or fails with exit 2 or 3 and one ``error:`` line on
stderr; no traceback, and no output file (nor its temporary file) unless it
succeeded.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import stagekit
from stagekit.cli import main

DATA = Path(stagekit.__file__).parent / "data"
CONFIG = json.loads((DATA / "demo_config.json").read_text(encoding="utf-8"))
CSV_FILES = sorted(p.name for p in DATA.glob("*.csv"))

# JSON values of every type, for a config value swapped for one of another type.
SWAPS = ("x", "", "ratings_round1.csv", 0, -1, 3, 1.5, 10 ** 30, 10 ** 400, float("inf"), True, False, None,
         [], ["x"], {}, {"x": 1})


def key_paths(node, prefix=()):
    """The path of every key (or list index) in a JSON value, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


CONFIG_PATHS = list(key_paths(CONFIG))
# Optional keys the demo config leaves out, set to a swapped value like any other.
OPTIONAL_PATHS = [("ca_table",), ("cs_map",), ("rounds", 0, "thresholds"), ("rounds", 1, "round_no"),
                  ("rounds", 2, "distributed"), ("rounds", 0, "scale_max"), ("ca_table", "intuition"),
                  ("cs_map", "familiar")]


def at(config, path):
    """The container that holds the last key of ``path``."""
    for key in path[:-1]:
        config = config[key]
    return config


@st.composite
def config_edits(draw):
    """(file name, new bytes) for the config with one value swapped or set, or one key removed."""
    config = json.loads(json.dumps(CONFIG))
    if draw(st.booleans()):
        path = draw(st.sampled_from(CONFIG_PATHS + OPTIONAL_PATHS))
        if path[0] in ("ca_table", "cs_map") and len(path) == 2:
            config[path[0]] = {}
        at(config, path)[path[-1]] = draw(st.sampled_from(SWAPS))
    else:
        path = draw(st.sampled_from(CONFIG_PATHS))
        del at(config, path)[path[-1]]
    return "demo_config.json", json.dumps(config).encode()


@st.composite
def byte_edits(draw):
    """(file name, new bytes) for any input truncated, or with a few bytes replaced."""
    name = draw(st.sampled_from(["demo_config.json", *CSV_FILES]))
    data = bytearray((DATA / name).read_bytes())
    if draw(st.booleans()):
        return name, bytes(data[:draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))  # 0x80.. is not UTF-8
    return name, bytes(data)


@st.composite
def header_edits(draw):
    """(file name, new bytes) for a CSV whose header names one of its columns twice."""
    name = draw(st.sampled_from(CSV_FILES))
    header, newline, body = (DATA / name).read_bytes().partition(b"\n")
    cells = header.split(b",")
    i, j = draw(st.permutations(range(len(cells))))[:2]
    cells[i] = cells[j]
    return name, b",".join(cells) + newline + body


@settings(max_examples=200, deadline=None)
@given(st.one_of(config_edits(), byte_edits(), header_edits()))
def test_mutated_demo_input_exits_0_2_or_3_with_one_line(tmp_path_factory, edit):
    name, data = edit
    work = tmp_path_factory.mktemp("hostile")
    for src in DATA.iterdir():
        shutil.copyfile(src, work / src.name)
    (work / name).write_bytes(data)
    out = work / "out" / "bundle.json"
    out.parent.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["pipeline", "--config", str(work / "demo_config.json"), "--out", str(out)])
    assert stdout.getvalue() == ""
    if rc == 0:
        assert stderr.getvalue() == ""
        assert [p.name for p in out.parent.iterdir()] == ["bundle.json"]
    else:
        assert rc in (2, 3)
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        assert list(out.parent.iterdir()) == []
