"""The exit-code contract under hostile input: the demo data, mutated, run through ``cli.main``.

Whatever is done to one input file (the config or a CSV), to one flag of a
command of README's quick start (or to one of its options, given the empty
value), or to one value of an emitted bundle read back by ``report``, a run
either succeeds (exit 0) or fails with exit 2 or 3 and one ``error:`` line on
stderr; no traceback, and no output file (nor its temporary file) unless it
succeeded; a failed command changes no file.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stagekit
from stagekit.cli import build_parser, main
from stagekit.errors import StagekitError
from stagekit.io import read_json
from stagekit.report import bundle_from_obj, bundle_to_obj
from test_golden import quick_start

DATA = Path(stagekit.__file__).parent / "data"
CONFIG = json.loads((DATA / "demo_config.json").read_text(encoding="utf-8"))
CSV_FILES = sorted(p.name for p in DATA.glob("*.csv"))
BUNDLE = bundle_to_obj(stagekit.run_pipeline(DATA / "demo_config.json"))

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


# README's quick start, one argv per command; each runs from a copy of the data and of
# the files the commands before it wrote, so its $DATA paths are the copy's.
QUICK_START = [[arg.replace(str(DATA), ".") for arg in argv] for argv in quick_start()]


def _options(parser) -> dict[str, set[str]]:
    """Each option of ``parser`` that takes a value, and the options it excludes, itself among them."""
    excludes = {a: group._group_actions for group in parser._mutually_exclusive_groups for a in group._group_actions}
    return {a.option_strings[-1]: {b.option_strings[-1] for b in excludes.get(a, [a])}
            for a in parser._actions if a.option_strings and a.nargs is None}


OPTIONS = {name: _options(p) for name, p in build_parser()._subparsers._group_actions[0].choices.items()}
# Every quick-start command with one of its subcommand's options given the empty value.
EMPTY_VALUE_CASES = [(k, option) for k, argv in enumerate(QUICK_START) for option in OPTIONS[argv[0]]]


def with_empty_value(argv: list[str], option: str) -> list[str]:
    """``argv`` with ``option`` given as '' in place of its value, or of the options it excludes."""
    out = list(argv)
    for name in OPTIONS[argv[0]][option]:
        if name in out:
            del out[out.index(name):out.index(name) + 2]
    return out + [option, ""]


@st.composite
def argv_edits(draw):
    """A quick-start command with one flag (alone or with its value) dropped, repeated or garbled,
    or with one option given the empty value: (the command's index, its argv)."""
    k = draw(st.integers(0, len(QUICK_START) - 1))
    argv = list(QUICK_START[k])
    edit = draw(st.sampled_from(["drop", "repeat", "garble", "empty value"]))
    if edit == "empty value":
        return k, with_empty_value(argv, draw(st.sampled_from(sorted(OPTIONS[argv[0]]))))
    i = draw(st.sampled_from([i for i, arg in enumerate(argv) if i == 0 or arg.startswith("-")]))
    end = i + draw(st.integers(1, 1 if i == 0 else 2))
    if edit == "drop":
        del argv[i:end]
    elif edit == "repeat":
        argv[i:i] = argv[i:end]
    else:  # a few characters cut or put in; an argv string cannot hold a NUL byte
        flag, at = argv[i], draw(st.integers(0, len(argv[i])))
        text = draw(st.text(st.characters(blacklist_characters="\0"), max_size=2))
        argv[i] = flag[:at] + text + flag[at + draw(st.integers(0, 2)):]
    return k, argv


# One path per bundle field: a list's first entry stands for the others.
BUNDLE_PATHS = [p for p in key_paths(BUNDLE) if all(key == 0 for key in p if type(key) is int)]


@st.composite
def bundle_edits(draw):
    """The demo bundle as JSON text with one value swapped, NaN among the swaps."""
    bundle = json.loads(json.dumps(BUNDLE))
    path = draw(st.sampled_from(BUNDLE_PATHS))
    at(bundle, path)[path[-1]] = draw(st.sampled_from(SWAPS + (float("nan"),)))
    return json.dumps(bundle)



def demo_copy(tmp_path_factory) -> Path:
    """A fresh directory holding the demo data and an empty ``out`` directory."""
    work = tmp_path_factory.mktemp("hostile")
    for src in DATA.iterdir():
        shutil.copyfile(src, work / src.name)
    (work / "out").mkdir()
    return work


def run_main(argv, cwd=None):
    """``main(argv)`` run in ``cwd``: its exit code (``--help`` exits 0), stdout and stderr."""
    stdout, stderr, home = io.StringIO(), io.StringIO(), os.getcwd()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            os.chdir(cwd or home)
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        finally:
            os.chdir(home)
    return rc, stdout.getvalue(), stderr.getvalue()


def assert_contract(rc, stdout, stderr):
    if rc == 0:
        assert stderr == ""
    else:
        assert rc in (2, 3)
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(config_edits(), byte_edits(), header_edits()))
def test_mutated_demo_input_exits_0_2_or_3_with_one_line(tmp_path_factory, edit):
    name, data = edit
    work = demo_copy(tmp_path_factory)
    (work / name).write_bytes(data)
    out = work / "out" / "bundle.json"
    rc, stdout, stderr = run_main(["pipeline", "--config", str(work / "demo_config.json"),
                                   "--out", str(out)])
    assert stdout == ""
    assert_contract(rc, stdout, stderr)
    assert [p.name for p in out.parent.iterdir()] == (["bundle.json"] if rc == 0 else [])


@pytest.fixture(scope="module")
def quick_start_runs(tmp_path_factory) -> list[Path]:
    """For each quick-start command, a directory as it stood before the command ran."""
    work, runs = demo_copy(tmp_path_factory), []
    for argv in QUICK_START:
        runs.append(tmp_path_factory.mktemp("before"))
        shutil.copytree(work, runs[-1], dirs_exist_ok=True)
        assert run_main(argv, cwd=work)[0] == 0, argv
    return runs


def run_edited(runs: list[Path], k: int, argv: list[str], tmp_path_factory) -> None:
    """Run ``argv`` where quick-start command ``k`` ran; it keeps the contract and changes nothing if it fails."""
    work = tmp_path_factory.mktemp("hostile")
    shutil.copytree(runs[k], work, dirs_exist_ok=True)
    before = {p: p.read_bytes() for p in work.rglob("*") if p.is_file()}
    rc, stdout, stderr = run_main(argv, cwd=work)
    assert_contract(rc, stdout, stderr)
    if rc != 0:
        assert {p: p.read_bytes() for p in work.rglob("*") if p.is_file()} == before


FORM = next(k for k, argv in enumerate(QUICK_START) if argv[0] == "form")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv_edits())
@example((FORM, with_empty_value(QUICK_START[FORM], "--retained")))  # once a TypeError traceback
def test_mutated_demo_argv_exits_0_2_or_3_with_one_line(tmp_path_factory, quick_start_runs, edit):
    run_edited(quick_start_runs, *edit, tmp_path_factory)


@pytest.mark.parametrize("k, option", EMPTY_VALUE_CASES,
                         ids=[f"{QUICK_START[k][0]}-{k}{option}" for k, option in EMPTY_VALUE_CASES])
def test_quick_start_option_given_the_empty_value(tmp_path_factory, quick_start_runs, k, option):
    run_edited(quick_start_runs, k, with_empty_value(QUICK_START[k], option), tmp_path_factory)


@settings(max_examples=100, deadline=None)
@given(bundle_edits(), st.sampled_from(["json", "markdown"]))
def test_report_of_mutated_demo_bundle_exits_0_2_or_3_with_one_line(tmp_path_factory, text, fmt):
    bundle = tmp_path_factory.mktemp("hostile") / "bundle.json"
    bundle.write_text(text, encoding="utf-8")
    assert_contract(*run_main(["report", "--bundle", str(bundle), "--format", fmt]))


def reader_accepts(path) -> bool:
    """Whether ``bundle_from_obj`` (behind ``screen``, ``form``, ``weights``, ``score``) takes the file."""
    try:
        bundle_from_obj(read_json(path), path)
    except StagekitError:
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(bundle_edits(), st.sampled_from(["json", "markdown"]))
def test_report_exits_0_exactly_when_the_bundle_reader_accepts(tmp_path_factory, text, fmt):
    bundle = tmp_path_factory.mktemp("hostile") / "bundle.json"
    bundle.write_text(text, encoding="utf-8")
    rc, stdout, stderr = run_main(["report", "--bundle", str(bundle), "--format", fmt])
    assert_contract(rc, stdout, stderr)
    assert (rc == 0) == reader_accepts(bundle)


# Edits that one of the two former bundle checks took and the other refused, and ids listed twice.
@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("path, value", [
    (("rounds", 0, "indicators", 0, "mean"), None),
    (("weights", "nodes", 0, "level"), "bogus"),
    (("reliability", "questions", 0, "note"), 5),
    (("reliability", "n_respondents"), "many"),
    (("validity", "items", 0, "passes"), "no"),
    (("rounds",), 0),
    (("weights", "nodes", 0, "local_weight", "value"), 7),
    (("rounds", 0, "indicators", 1, "id"), BUNDLE["rounds"][0]["indicators"][0]["id"]),
    (("weights", "nodes", 1, "id"), BUNDLE["weights"]["nodes"][0]["id"]),
    (("score", "dimensions", 1, "id"), BUNDLE["score"]["dimensions"][0]["id"]),
    (("rounds", 1, "round_no"), BUNDLE["rounds"][0]["round_no"]),
    (("rounds", 0, "screening", "retained", 1), BUNDLE["rounds"][0]["screening"]["retained"][0]),
    (("rounds", 0, "screening", "retained", 0), BUNDLE["rounds"][0]["screening"]["dropped"][0]),
    (("weights", "consistency", 1, "group"), BUNDLE["weights"]["consistency"][0]["group"]),
    (("reliability", "indices", 1, "index_id"), BUNDLE["reliability"]["indices"][0]["index_id"]),
    (("reliability", "questions", 1, "question_id"),
     BUNDLE["reliability"]["questions"][0]["question_id"]),
    (("validity", "items", 1, "item_id"), BUNDLE["validity"]["items"][0]["item_id"]),
], ids=["mean-null", "level-bogus", "note-int", "n_respondents-str", "passes-str", "rounds-int",
        "weight-above-1", "indicator-id-repeated", "node-id-repeated", "dimension-id-repeated",
        "round-repeated", "retained-id-repeated", "id-retained-and-dropped", "group-repeated",
        "index-row-repeated", "question-row-repeated", "item-row-repeated"])
def test_edit_refused_by_report_and_the_bundle_reader(tmp_path, path, value, fmt):
    obj = json.loads(json.dumps(BUNDLE))
    at(obj, path)[path[-1]] = value
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(obj), encoding="utf-8")
    rc, stdout, stderr = run_main(["report", "--bundle", str(bundle), "--format", fmt])
    assert (rc, stdout) == (2, "")
    assert stderr.startswith(f"error: {bundle}: not a stagekit bundle (bad or missing field ")
    assert stderr.count("\n") == 1
    assert not reader_accepts(bundle)


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("depth", [980, 1200])
def test_report_of_a_bundle_with_a_deeply_nested_unknown_field(tmp_path, depth, fmt):
    """``report`` in a fresh interpreter, whose JSON reader accepts or refuses the depth by version:
    exit 0 with the bundle written back, or exit 2 with one line; never a traceback, never a partial file."""
    nested = "[" * depth + "0" + "]" * depth
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(BUNDLE)[:-1] + f', "unknown": {nested}}}', encoding="utf-8")
    (tmp_path / "out").mkdir()
    out = tmp_path / "out" / f"report.{fmt}"
    env = {**os.environ, "PYTHONPATH": str(Path(stagekit.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-m", "stagekit.cli", "report", "--bundle", str(bundle),
                          "--format", fmt, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert_contract(run.returncode, run.stdout, run.stderr)
    assert run.returncode in (0, 2)
    assert [p.name for p in out.parent.iterdir()] == ([out.name] if run.returncode == 0 else [])
    if run.returncode == 0 and fmt == "json":
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * depth))  # json.loads may recurse once per level
        try:
            written = json.loads(out.read_text(encoding="utf-8"))
        finally:
            sys.setrecursionlimit(limit)
        nested = written.pop("unknown")
        assert written == json.loads(json.dumps(BUNDLE))
        for _ in range(depth):  # one list per level, walked without recursion
            (nested,) = nested
        assert nested == 0
