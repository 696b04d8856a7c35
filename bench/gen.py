"""Seeded inputs for the benchmark workloads.

Each workload starts from a copy of the bundled demo dataset
(src/stagekit/data/) and replaces only the files it scales:

  demo-cli     nothing; the bundled data as shipped (the seed is unused).
  survey-100k  responses.csv: 100,000 respondents x 21 questions, ~1% blank
               cells, so about a fifth of respondents are incomplete.
  delphi-10k   experts.csv, the three rating rounds and importance.csv:
               10,000 experts; round 1 rates the 16 items plus 34 candidates
               and is screened, rounds 2 and 3 rate the 27 tree nodes, 20% of
               round 3's rows are blank non-respondents, and validity reads a
               10,000 x 16 importance matrix.

The same seed always writes the same bytes. After writing, every file the
config references is read back with the csv module and checked (row and
column counts, blank cells, blank non-respondent rows); the manifest records
the cell count that cells_per_s divides by.

Standalone use, from the repository root:
  python3 bench/gen.py --workload survey-100k --seed 1 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "src" / "stagekit" / "data"
CONFIG = "demo_config.json"

WORKLOADS = ("demo-cli", "survey-100k", "delphi-10k")
SURVEY_RESPONDENTS = 100_000
SURVEY_BLANK_RATE = 0.01
DELPHI_EXPERTS = 10_000
DELPHI_CANDIDATES = 34
ROUND3_BLANK_SHARE = 0.2

# Enum values of the expert profile columns (stagekit.model).
GROUPS = ("service_decision_maker", "technology_rnd", "social_technology_researcher",
          "technology_implementer", "other")
FAMILIARITY = ("very_familiar", "familiar", "moderate", "unfamiliar", "very_unfamiliar")
IMPACTS = ("large", "medium", "small")


def demo_header(name: str) -> list[str]:
    with open(DEMO_DIR / name, encoding="utf-8", newline="") as fh:
        return next(csv.reader(fh))


def write_matrix(path: Path, header: list[str], prefix: str, cells: np.ndarray,
                 blank: np.ndarray | None = None) -> None:
    """An id column (prefix + zero-padded row number) followed by the cells.

    Numeric cells are single digits. Cells where ``blank`` is true are written
    empty. Rows go out in chunks so a 100k-row file never exists as one list.
    """
    if cells.dtype.kind in "iuf":
        cells = cells.astype(np.int64).astype("U1")
    if blank is not None:
        cells[blank] = ""
    width = len(str(len(cells)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cells), 10_000):
            chunk = cells[start:start + 10_000].tolist()
            fh.write("".join(f"{prefix}{start + i + 1:0{width}d},{','.join(row)}\n"
                             for i, row in enumerate(chunk)))


def draw(rng: np.random.Generator, probs: np.ndarray, rows: int) -> np.ndarray:
    """rows x len(probs) ratings; column j is iid from the categorical probs[j] on 1.."""
    cdf = np.cumsum(probs, axis=1)[:, :-1]
    u = rng.random((rows, probs.shape[0]))
    return 1 + (u[:, :, None] > cdf[None, :, :]).sum(axis=2)


def around(rng: np.random.Generator, base, n: int) -> np.ndarray:
    """n category distributions scattered (Dirichlet) around base."""
    return rng.dirichlet(np.asarray(base, dtype=float) * 200.0, size=n)


def config_files(out_dir: Path) -> list[str]:
    """Every CSV the pipeline config references, each listed once."""
    config = json.loads((out_dir / CONFIG).read_text(encoding="utf-8"))
    names = [config["indicators"], config["experts"]]
    names += [r["ratings"] for r in config["rounds"]]
    names += list(config["weights"]["pairwise"].values())
    names += [config["reliability"]["responses"], config["validity"]["importance"],
              config["score"]["responses"], config["score"]["bonus"]]
    return sorted(set(names))


def gen_survey(rng: np.random.Generator, out_dir: Path, n: int) -> dict:
    """One common factor, like the bundled responses; ~1% of cells left blank."""
    header = demo_header("responses.csv")
    k = len(header) - 1
    ability = rng.normal(0.4, 1.0, size=n)
    difficulty = rng.normal(0.0, 0.4, size=k)
    noise = rng.normal(0.0, 0.8, size=(n, k))
    data = np.clip(np.rint(2.0 + 1.1 * ability[:, None] + difficulty[None, :] + noise), 0, 4)
    blank = rng.random((n, k)) < SURVEY_BLANK_RATE
    write_matrix(out_dir / "responses.csv", header, "r", data, blank)
    return {"blank_cells": int(blank.sum()),
            "incomplete_respondents": int(blank.any(axis=1).sum())}


def gen_delphi(rng: np.random.Generator, out_dir: Path, m: int) -> dict:
    profiles = np.column_stack([
        rng.choice(GROUPS, size=m),
        rng.choice(FAMILIARITY, size=m, p=[0.35, 0.35, 0.2, 0.07, 0.03]),
        *(rng.choice(IMPACTS, size=m) for _ in range(4)),
    ])
    write_matrix(out_dir / "experts.csv", demo_header("experts.csv"), "e", profiles)

    # Round 1: the 16 items plus 34 candidates. Items and most candidates sit
    # near agreement; two candidates have a low mean and no full scores and
    # two are polarised (huge CV), so screening drops them by a wide margin.
    items = [c for c in demo_header("ratings_round1.csv")[1:] if not c.startswith("cand.")]
    candidates = [f"cand.c{i + 1:02d}" for i in range(DELPHI_CANDIDATES)]
    probs = np.vstack([
        around(rng, [0.01, 0.03, 0.10, 0.36, 0.50], len(items)),
        around(rng, [0.02, 0.05, 0.15, 0.40, 0.38], DELPHI_CANDIDATES - 4),
        np.tile([0.10, 0.45, 0.45, 0.0, 0.0], (2, 1)),
        np.tile([0.48, 0.02, 0.0, 0.02, 0.48], (2, 1)),
    ])
    write_matrix(out_dir / "ratings_round1.csv", ["expert_id"] + items + candidates, "e",
                 draw(rng, probs, m))

    # Rounds 2 and 3 rate the 27 tree nodes; round 3 agrees more tightly and
    # a fixed share of its rows are blank (non-respondents).
    nodes = demo_header("ratings_round2.csv")
    round2 = draw(rng, around(rng, [0.01, 0.03, 0.16, 0.45, 0.35], len(nodes) - 1), m)
    write_matrix(out_dir / "ratings_round2.csv", nodes, "e", round2)
    round3 = draw(rng, around(rng, [0.002, 0.01, 0.088, 0.50, 0.40], len(nodes) - 1), m)
    absent = np.zeros(round3.shape, dtype=bool)
    absent[rng.choice(m, size=int(round(ROUND3_BLANK_SHARE * m)), replace=False)] = True
    write_matrix(out_dir / "ratings_round3.csv", nodes, "e", round3, absent)

    items_header = demo_header("importance.csv")
    importance = draw(rng, around(rng, [0.005, 0.01, 0.02, 0.04, 0.075, 0.35, 0.50],
                                  len(items_header) - 1), m)
    write_matrix(out_dir / "importance.csv", items_header, "v", importance)
    return {"round3_non_respondents": int(absent.all(axis=1).sum())}


def scan(path: Path) -> dict:
    """Shape and blank counts of one CSV, read row by row with the csv module."""
    rows = blank_cells = blank_rows = incomplete = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        for row in reader:
            if len(row) != width:
                raise ValueError(f"{path.name}: row {rows + 1} has {len(row)} cells, "
                                 f"header has {width}")
            blanks = sum(c == "" for c in row[1:])
            rows += 1
            blank_cells += blanks
            blank_rows += blanks == width - 1
            incomplete += blanks > 0
    return {"rows": rows, "cols": width, "cells": rows * width, "blank_cells": blank_cells,
            "blank_rows": blank_rows, "incomplete_rows": incomplete}


def check_written(files: dict, workload: str, n: int, facts: dict) -> None:
    """Raise ValueError unless the scaled files have the shape the workload promises."""
    def expect(name, key, value):
        if files[name][key] != value:
            raise ValueError(f"{name}: {key} is {files[name][key]}, expected {value}")

    if workload == "survey-100k":
        expect("responses.csv", "rows", n)
        expect("responses.csv", "cols", 22)
        expect("responses.csv", "blank_cells", facts["blank_cells"])
        expect("responses.csv", "incomplete_rows", facts["incomplete_respondents"])
        rate = facts["blank_cells"] / (n * 21)
        if not 0.5 * SURVEY_BLANK_RATE < rate < 1.5 * SURVEY_BLANK_RATE:
            raise ValueError(f"responses.csv: blank-cell rate {rate:.4f}")
    elif workload == "delphi-10k":
        for name in ("experts.csv", "ratings_round1.csv", "ratings_round2.csv",
                     "ratings_round3.csv", "importance.csv"):
            expect(name, "rows", n)
        expect("ratings_round1.csv", "cols", 1 + 16 + DELPHI_CANDIDATES)
        expect("ratings_round2.csv", "cols", 1 + 27)
        expect("ratings_round3.csv", "cols", 1 + 27)
        expect("importance.csv", "cols", 1 + 16)
        expect("ratings_round1.csv", "blank_cells", 0)
        expect("ratings_round2.csv", "blank_cells", 0)
        expect("ratings_round3.csv", "blank_rows", facts["round3_non_respondents"])
        expect("ratings_round3.csv", "blank_cells", facts["round3_non_respondents"] * 27)
        expect("importance.csv", "blank_cells", 0)


def generate(workload: str, seed: int, out_dir: Path, *,
             respondents: int = SURVEY_RESPONDENTS, experts: int = DELPHI_EXPERTS) -> dict:
    """Write the workload's inputs into out_dir and return its checked manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    # The demo-sized copy under warmup/ is what a warm-up run reads.
    for target in (out_dir, out_dir / "warmup"):
        target.mkdir(parents=True, exist_ok=True)
        for path in DEMO_DIR.iterdir():
            if path.is_file():
                shutil.copyfile(path, target / path.name)
    rng = np.random.default_rng(seed)
    n, facts = 0, {}
    if workload == "survey-100k":
        n, facts = respondents, gen_survey(rng, out_dir, respondents)
    elif workload == "delphi-10k":
        n, facts = experts, gen_delphi(rng, out_dir, experts)
    files = {name: scan(out_dir / name) for name in config_files(out_dir)}
    check_written(files, workload, n, facts)
    manifest = {
        "workload": workload,
        "seed": seed,
        "config": CONFIG,
        "files": files,
        "cells": sum(f["cells"] for f in files.values()),
        **facts,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, Path(args.out))
    print(f"wrote {len(manifest['files'])} input files, {manifest['cells']} cells, to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
