"""Golden bytes: the rendered bundles of three fixed pipeline runs, and the output
files that README's quick start writes when its commands run as written, are
pinned by sha256. README's pipeline config and library use blocks are checked
against the bundled data too.

Any change to parsing, validation, statistics, scoring or rendering that moves
a single byte of the JSON or markdown output fails here. The markdown digests
were taken from the row-by-row implementation that preceded the columnar
response matrix, so they also show that the matrix code reproduces it bit for
bit; the scaled Delphi digests were taken from the per-cell ratings parser and
the per-rater Kendall's W loop in the same way. The JSON digests were retaken
when pooled scores became correctly rounded from exact per-question sums, which
moved only the last bits of some dimension scores and of what is added from
them. A deliberate change to the output must update the digests and say why.
"""

import builtins
import csv
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import stagekit
from stagekit import io as sio
from stagekit import bundle_to_obj, render_json, render_markdown, run_pipeline
from stagekit.instrument import load_default_instrument
from stagekit.report import bundle_from_obj

DATA = Path(stagekit.__file__).parent / "data"

GOLDEN = {
    "demo": {
        "json": "ab8c2c4fba4d2a54fe86f515389f444e5464f79878d75dbd2191c77ffbb16541",
        "markdown": "7cc734b6ff3ff3cffbb029e96a2b6c16bb95cb169f44fccc9ed7853ac3af5318",
    },
    "survey-5k": {
        "json": "fb68ec4039bf58c06799a600b27fef509af5f7ac538e72468c21ca502f1db511",
        "markdown": "f065de775e5ffa2088e8570cab1080fce78c61d9aac39b50e51ea9800c7ccc19",
    },
    "delphi-2k": {
        "json": "97ba43d9de7635caff5fa175dc253f854661a8d64f985dab37c00038ffe31072",
        "markdown": "87669c482c80aad5e097e3347e01cec6b035472372773a8a64191c23b410cbef",
    },
}

SURVEY_SEED = 20240205
SURVEY_RESPONDENTS = 5000
DELPHI_SEED = 20240206
DELPHI_EXPERTS = 2000


def _digests(config: Path) -> dict[str, str]:
    bundle = run_pipeline(config)
    return {
        "json": hashlib.sha256(render_json(bundle).encode("utf-8")).hexdigest(),
        "markdown": hashlib.sha256(render_markdown(bundle).encode("utf-8")).hexdigest(),
    }


def write_survey(path: Path, n: int, seed: int) -> None:
    """A correlated 0-4 survey with about 1% blank cells, columns in reverse order.

    Each respondent has a base level; each answer is that level moved by -1, 0
    or +1 and clipped to the scale. Only ``Generator.integers`` is drawn from,
    so the file depends on the seed alone.
    """
    qids = load_default_instrument().question_ids
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 5, size=(n, 1))
    values = np.clip(base + rng.integers(-1, 2, size=(n, len(qids))), 0, 4)
    blank = rng.integers(0, 100, size=values.shape) == 0
    order = list(reversed(range(len(qids))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["respondent_id", *(qids[j] for j in order)])
        for i in range(n):
            writer.writerow([f"r{i:05d}", *("" if blank[i, j] else int(values[i, j])
                                             for j in order)])


def test_demo_bundle_bytes_pinned():
    assert _digests(DATA / "demo_config.json") == GOLDEN["demo"]


@pytest.fixture(scope="module")
def survey_config(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-survey")
    for src in DATA.iterdir():
        shutil.copy(src, directory / src.name)
    write_survey(directory / "responses.csv", SURVEY_RESPONDENTS, SURVEY_SEED)
    return directory / "demo_config.json"


def test_survey_bundle_bytes_pinned(survey_config):
    assert _digests(survey_config) == GOLDEN["survey-5k"]


def test_survey_input_shape(survey_config):
    with open(survey_config.parent / "responses.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    blanks = sum(cell == "" for row in rows for cell in row[1:])
    assert len(rows) == SURVEY_RESPONDENTS
    assert 0.005 < blanks / (len(rows) * 21) < 0.015


def _header(name: str) -> list[str]:
    with open(DATA / name, encoding="utf-8", newline="") as fh:
        return next(csv.reader(fh))


def write_delphi(directory: Path, n: int, seed: int) -> dict[str, int]:
    """``n`` expert profiles and three rating rounds over the demo rounds' columns.

    Each indicator has a level and each rating is that level moved by -1, 0 or
    +1 and clipped to 1-5, so every rater ties many indicators. Round 3 has
    blank rows: a tenth fully blank, a twentieth with one blank cell and one
    out-of-range cell, which is never read because the row is blank.
    Only ``Generator.integers`` is drawn from. Returns the blank-row counts.
    """
    rng = np.random.default_rng(seed)
    choices = {"group": ("service_decision_maker", "technology_rnd",
                         "social_technology_researcher", "technology_implementer", "other"),
               "familiarity": ("very_familiar", "familiar", "moderate", "unfamiliar",
                               "very_unfamiliar")}
    header = _header("experts.csv")
    options = [choices.get(column, ("large", "medium", "small")) for column in header[1:]]
    picks = rng.integers(0, 15, size=(n, len(options)))  # 15 is a multiple of 3 and of 5
    with open(directory / "experts.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"e{i:04d}", *(values[k % len(values)] for values, k in zip(options, row))]
                         for i, row in enumerate(picks.tolist()))
    blanks = {}
    for round_no in (1, 2, 3):
        name = f"ratings_round{round_no}.csv"
        columns = _header(name)
        level = rng.integers(2, 6, size=(1, len(columns) - 1))
        values = np.clip(level + rng.integers(-1, 2, size=(n, len(columns) - 1)), 1, 5)
        rows = [[str(v) for v in row] for row in values.tolist()]
        if round_no == 3:
            full = rng.integers(0, 10, size=n) == 0
            partial = ~full & (rng.integers(0, 20, size=n) == 0)
            for i in np.flatnonzero(full).tolist():
                rows[i] = [""] * len(rows[i])
            for i in np.flatnonzero(partial).tolist():
                j = int(rng.integers(0, len(rows[i])))
                rows[i][j] = ""
                rows[i][(j + 1) % len(rows[i])] = "9"
            blanks = {"full": int(full.sum()), "partial": int(partial.sum())}
        with open(directory / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([f"e{i:04d}", *row] for i, row in enumerate(rows))
    return blanks


@pytest.fixture(scope="module")
def delphi_config(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden-delphi")
    for src in DATA.iterdir():
        shutil.copy(src, directory / src.name)
    write_delphi(directory, DELPHI_EXPERTS, DELPHI_SEED)
    return directory / "demo_config.json"


def test_delphi_bundle_bytes_pinned(delphi_config):
    assert _digests(delphi_config) == GOLDEN["delphi-2k"]


def test_delphi_input_shape(delphi_config):
    bundle = run_pipeline(delphi_config)
    assert [r.consensus.distributed for r in bundle.rounds] == [DELPHI_EXPERTS] * 3
    returned = [r.consensus.returned for r in bundle.rounds]
    assert returned[:2] == [DELPHI_EXPERTS] * 2
    assert 0.8 * DELPHI_EXPERTS < returned[2] < 0.9 * DELPHI_EXPERTS
    assert bundle.rounds[0].screening is not None


# The demo data's integer tables, which the pipeline reads through io._plain_table.
INT_TABLES = ("experts.csv", "ratings_round1.csv", "ratings_round2.csv", "ratings_round3.csv",
              "importance.csv", "expert_bonus.csv", "responses.csv")


def write_export(directory: Path, comma: str, quote: str) -> None:
    """The demo data in ``directory``, each integer table as a spreadsheet exports it: a BOM,
    CRLF line ends and ``comma`` between fields. ``quote`` "all" quotes every field (Python's
    csv.QUOTE_ALL), "text" every field but the numbers (csv.QUOTE_NONNUMERIC, R's write.csv)."""
    for src in DATA.iterdir():
        shutil.copy(src, directory / src.name)
    for name in INT_TABLES:
        with open(DATA / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        text = "".join(comma.join(f'"{c}"' if quote == "all" or quote == "text" and not c.isdigit() else c
                                  for c in row) + "\r\n" for row in rows)
        (directory / name).write_text("\ufeff" + text, encoding="utf-8", newline="")


@pytest.mark.parametrize("comma, quote", [(",", "all"), (",", "text"), (", ", "")],
                         ids=["every field quoted", "text fields quoted", "blank after each comma"])
def test_demo_exports_read_plain_to_the_pinned_bytes(tmp_path, comma, quote):
    write_export(tmp_path, comma, quote)
    read, plain_table = {}, sio._plain_table

    def spy(path, *args):
        read[path.name] = plain_table(path, *args)
        return read[path.name]

    with patch.object(sio, "_plain_table", spy):
        assert _digests(tmp_path / "demo_config.json") == GOLDEN["demo"]
    assert sorted(read) == sorted(INT_TABLES)
    assert all(result is not None for result in read.values())


_END = object()


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 computes it.

    As in CPython's ``builtin_sum_impl``: ints are added exactly; once the
    result is a float, floats are added with Neumaier's compensation and ints
    plainly, and the compensation is folded in, where finite, when that run
    ends; anything after it is added with ``+``, as before 3.12.
    """
    items = iter(iterable)
    result = start
    while type(result) is int:
        item = next(items, _END)
        if item is _END:
            return result
        result = result + item
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                result = (total + comp if comp and math.isfinite(comp) else total) + item
                break
        else:
            return total + comp if comp and math.isfinite(comp) else total
    for item in items:
        result = result + item
    return result


@pytest.mark.parametrize("name, fixture", [("demo", None), ("survey-5k", "survey_config"),
                                           ("delphi-2k", "delphi_config")])
def test_bundle_bytes_hold_under_compensated_sum(name, fixture, monkeypatch, request):
    """The pinned bytes do not depend on builtin ``sum``, which Python 3.12 changed."""
    config = DATA / "demo_config.json" if fixture is None else request.getfixturevalue(fixture)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0  # 0.9999999999999999 when added in order
    assert _digests(config) == GOLDEN[name]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, fence: str) -> str:
    """README's first ``fence`` block under ``## heading``, read as CI's awk reads it.

    From the first line that starts with the heading, the block runs from the
    first line that is exactly the opening fence to the next line that is
    exactly the closing one.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"## {heading}"))
    opening = lines.index(f"```{fence}", start)
    return "\n".join(lines[opening + 1:lines.index("```", opening + 1)])


def quick_start() -> list[list[str]]:
    """README's quick start as one argv per command, ``stagekit`` dropped.

    The one assignment allowed is the ``DATA=$(python3 -c ...)`` line, whose
    code must print the bundled data directory; ``$DATA`` in a command is that
    directory.
    """
    commands = []
    for line in readme_block("Quick start", "sh").replace("\\\n", "").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if re.match(r"\w+=", line):
            assert line.startswith("DATA=$(") and line.endswith(")"), f"unexpected assignment: {line}"
            python, flag, code = shlex.split(line[len("DATA=$("):-1])
            assert (python, flag) == ("python3", "-c"), line
            printed = StringIO()
            with redirect_stdout(printed):
                exec(code, {})
            assert printed.getvalue() == f"{DATA}\n", line
            continue
        program, *argv = shlex.split(line)
        assert program == "stagekit", line
        commands.append([arg.replace("$DATA", str(DATA)) for arg in argv])
    return commands


def run_quick_start(directory: Path) -> str:
    """Run README's quick start through ``cli.main`` in ``directory``; the last command's stdout."""
    from stagekit.cli import main

    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in quick_start():
            stdout = StringIO()
            with redirect_stdout(stdout):
                assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return stdout.getvalue()


def file_digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


# The files README's quick start writes, by name. Its last command prints the
# demo bundle as markdown, pinned as GOLDEN["demo"]["markdown"].
GOLDEN_CLI = {
    "round1.json": "08c1d930589a8f9748828d1eae44c71aa2e863830eba3f5a36f72f33069e06ba",
    "screened.json": "4786d03cea55595b855668bee87a3446401961ef27dd753b1d1d3020f28f3777",
    "round2_form.csv": "34453a7a46e0380229364161efb3c215030c86407cc3074bc3e5ef34eab966b7",
    "round2.json": "e1e5d10c3981c85ccd3fdbc4fa0dee2dec02e4d0b7c61a47ca77e3b779f7e5f5",
    "weights.json": "cce5f75f45bd177712995d5ff33a8691b5196782c0bbc800ada998e2f01f7108",
    "score.json": "3e55e11b78f1f7c74e40d33b4baa3f434e1efab8321fdbc19c29bc761c78accb",
    "reliability.json": "00952e9adca539cbd5855395d09bca3fa0cdc6235d962347e2dd03973bbf7733",
    "validity.json": "1871e3458537fc942969a6ac1d92671485d339bf4b2ec7378668213e3bf8a79d",
    "screened.md": "31bf37bf93e35098e188c74e098e3ea4d2cf098c803d826459338f2427f492e5",
    "weights.md": "d4a6676ed47dd113035cc495944ef3fe602e716bf1a5d28d671974013fd35f80",
    "score.md": "d3173f5da58ef6d432fc9357c76f1c89ef911c143acf9e92a7db500819699ead",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory) -> tuple[Path, str]:
    """The directory README's quick start ran in, and the stdout of its last command."""
    directory = tmp_path_factory.mktemp("quick-start")
    return directory, run_quick_start(directory)


def test_cli_output_bytes_pinned(cli_outputs):
    directory, stdout = cli_outputs
    assert file_digests(directory) == GOLDEN_CLI
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN["demo"]["markdown"]


def test_readme_pipeline_config_is_the_demo_config():
    config = json.loads((DATA / "demo_config.json").read_text(encoding="utf-8"))
    assert json.loads(readme_block("Pipeline config", "json")) == config


def test_readme_library_use_runs(tmp_path, monkeypatch):
    for src in DATA.iterdir():
        shutil.copy(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)
    exec(readme_block("Library use", "python"), {})


def test_cli_chain_matches_pipeline_sections(cli_outputs):
    pipeline = bundle_to_obj(run_pipeline(DATA / "demo_config.json"))

    def section(name, key):
        return json.loads((cli_outputs[0] / name).read_text(encoding="utf-8"))[key]

    assert section("screened.json", "rounds") == pipeline["rounds"][:1]
    assert section("round1.json", "rounds") == [{**pipeline["rounds"][0], "screening": None}]
    assert section("round2.json", "rounds") == pipeline["rounds"][1:2]
    assert section("weights.json", "weights") == pipeline["weights"]
    assert section("score.json", "score") == pipeline["score"]
    assert section("reliability.json", "reliability") == pipeline["reliability"]
    assert section("validity.json", "validity") == pipeline["validity"]


def test_pinned_bundles_read_back_whole(survey_config, delphi_config, cli_outputs):
    objs = [json.loads(render_json(run_pipeline(config))) for config in (survey_config, delphi_config)]
    objs += [json.loads(path.read_text(encoding="utf-8")) for path in cli_outputs[0].glob("*.json")]
    for obj in objs:
        assert bundle_to_obj(bundle_from_obj(obj)) == obj


# OpenBLAS picks its kernels by CPU; OPENBLAS_CORETYPE forces one for a process.
# A kernel the CPU lacks dies with SIGILL, so each runs only where its flag is.
OPENBLAS_KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Zen": "avx2", "Prescott": None}

KERNEL_RUN = """
import json, sys, tempfile
from pathlib import Path
import test_golden as g
with tempfile.TemporaryDirectory() as tmp:
    g.run_quick_start(Path(tmp))
    json.dump({"demo": g._digests(g.DATA / "demo_config.json"), "cli": g.file_digests(Path(tmp))}, sys.stdout)
"""


def test_same_bytes_under_every_openblas_kernel():
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        pytest.skip("no /proc/cpuinfo")
    flags = next((line.split(":", 1)[1].split() for line in cpuinfo.splitlines()
                  if line.startswith("flags")), None)
    if flags is None:
        pytest.skip("no x86 CPU flags in /proc/cpuinfo")
    path = os.pathsep.join([str(Path(stagekit.__file__).parent.parent), str(Path(__file__).parent)])
    for kernel, flag in OPENBLAS_KERNELS.items():
        if flag is not None and flag not in flags:
            continue
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", KERNEL_RUN], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, (kernel, run.stderr)
        assert json.loads(run.stdout) == {"demo": GOLDEN["demo"], "cli": GOLDEN_CLI}, kernel
