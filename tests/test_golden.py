"""Golden bytes: the rendered bundles of two fixed pipeline runs are pinned by sha256.

Any change to parsing, validation, statistics, scoring or rendering that moves
a single byte of the JSON or markdown output fails here. The pinned digests
were taken from the row-by-row implementation that preceded the columnar
response matrix, so they also show that the matrix code reproduces it bit for
bit. A deliberate change to the output must update the digests and say why.
"""

import csv
import hashlib
import shutil
from pathlib import Path

import numpy as np
import pytest

import stagekit
from stagekit import render_json, render_markdown, run_pipeline
from stagekit.instrument import load_default_instrument

DATA = Path(stagekit.__file__).parent / "data"

GOLDEN = {
    "demo": {
        "json": "5f181e52c5d31aaa86fd8ff3d7a57ba216d965260e6d521a61cb9d2d244a2e9c",
        "markdown": "7cc734b6ff3ff3cffbb029e96a2b6c16bb95cb169f44fccc9ed7853ac3af5318",
    },
    "survey-5k": {
        "json": "f6245199c42e0dea0fac0cc4ebaff9d77875551ff7e480ca9e82303a843d84e7",
        "markdown": "f065de775e5ffa2088e8570cab1080fce78c61d9aac39b50e51ea9800c7ccc19",
    },
}

SURVEY_SEED = 20240205
SURVEY_RESPONDENTS = 5000


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
