"""Correctness checks on one workload's outputs, run after the timed loop.

Each check recomputes a result from the generated CSVs, independently of the
program, and compares it with the first run's JSON bundle:

  - every run's bundle (and markdown) is byte-identical to the first run's;
  - on demo-cli, the CLI's JSON equals in-process render_json of the config;
  - each round's Kendall's W matches kendalls_w_oracle on the complete rows;
  - total alpha on the complete respondents matches cronbach_alpha_oracle;
  - the screened round's thresholds and verdicts match screening_oracle;
  - the pooled composite, dimension scores and imputed cells match a plain
    numpy recomputation with column-mean imputation.

The oracles come from tests/oracles.py, the same ones the test suite uses.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import cronbach_alpha_oracle, kendalls_w_oracle, screening_oracle  # noqa: E402

CONFIG = "demo_config.json"
REL_TOL = 1e-9


class Inputs:
    """The generated CSVs as numeric matrices, each file read once."""

    def __init__(self, directory: Path):
        self.directory = directory
        self._read: dict[str, tuple] = {}

    def matrix(self, name: str) -> tuple[list[str], list[str], np.ndarray]:
        """Header, row ids and the numeric cells of a CSV, blanks as NaN."""
        if name not in self._read:
            with open(self.directory / name, encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = list(reader)
            values = np.array([[float(c) if c else np.nan for c in r[1:]] for r in rows],
                              dtype=float).reshape(len(rows), len(header) - 1)
            self._read[name] = header, [r[0] for r in rows], values
        return self._read[name]


def complete_rows(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values).any(axis=1)]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


class Checker:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def close(self, what: str, got: float, want: float) -> None:
        self.expect(_close(got, want), f"{what}: program {got!r}, reference {want!r}")


def check_determinism(c: Checker, records: list[dict]) -> None:
    ok = [r for r in records if r["ok"]]
    for kind in ok[0]["sha256"] if ok else ():
        digests = {r["sha256"][kind] for r in ok}
        c.expect(len(digests) == 1, f"{kind} output differs between runs "
                                    f"({len(digests)} distinct digests)")


def check_rounds(c: Checker, inputs: Inputs, config: dict, bundle: dict) -> None:
    scale_max = int(config.get("scale_max", 5))
    c.expect(len(bundle["rounds"]) == len(config["rounds"]), "round count differs from config")
    for entry, rnd in zip(config["rounds"], bundle["rounds"]):
        header, _, values = inputs.matrix(entry["ratings"])
        rated = complete_rows(values)
        label = f"round {rnd['round_no']}"
        c.expect(rnd["returned"] == len(rated), f"{label}: returned {rnd['returned']}, "
                                                f"file has {len(rated)} complete rows")
        c.close(f"{label} Kendall's W", rnd["kendall_w"]["value"], kendalls_w_oracle(rated))
        if entry.get("screen"):
            check_screening(c, label, header[1:], rated, scale_max, rnd)


def check_screening(c: Checker, label: str, ids: list[str], rated: np.ndarray,
                    scale_max: int, rnd: dict) -> None:
    means = rated.mean(axis=0)
    cvs = rated.std(axis=0, ddof=1) / means
    fsfs = (rated == scale_max).mean(axis=0)
    stats = {i: SimpleNamespace(mean=means[j], cv=cvs[j], full_score_freq=fsfs[j])
             for j, i in enumerate(ids)}
    for row in rnd["indicators"]:
        s = stats[row["id"]]
        c.close(f"{label} {row['id']} mean", row["mean"]["value"], s.mean)
        c.close(f"{label} {row['id']} cv", row["cv"]["value"], s.cv)
    got = {k: v["value"] for k, v in rnd["screening"]["thresholds"].items()}
    c.close(f"{label} mean_floor", got["mean_floor"], means.mean() - 2 * means.std(ddof=1))
    c.close(f"{label} fsf_floor", got["fsf_floor"],
            max(0.0, fsfs.mean() - 2 * fsfs.std(ddof=1)))
    c.close(f"{label} cv_ceiling", got["cv_ceiling"], cvs.mean() + 2 * cvs.std(ddof=1))
    verdicts = screening_oracle(stats, SimpleNamespace(**got))
    c.expect(rnd["screening"]["retained"] == [i for i in ids if not verdicts[i]],
             f"{label}: retained indicators differ from screening_oracle")
    c.expect(rnd["screening"]["reasons"] == {i: v for i, v in verdicts.items() if v},
             f"{label}: dropped indicators or reasons differ from screening_oracle")


def check_survey(c: Checker, inputs: Inputs, config: dict, bundle: dict) -> None:
    from stagekit.instrument import load_default_instrument

    instrument = load_default_instrument()
    header, _, values = inputs.matrix(config["reliability"]["responses"])
    c.expect(header[1:] == list(instrument.question_ids),
             "responses.csv columns are not in the instrument's question order")
    complete = complete_rows(values)
    rel = bundle["reliability"]
    c.expect(rel["n_excluded"] == len(values) - len(complete),
             f"reliability excluded {rel['n_excluded']}, expected {len(values) - len(complete)}")
    c.close("total alpha", rel["total_alpha"]["value"], cronbach_alpha_oracle(complete))

    # Composite, with each blank replaced by its question's mean over present answers.
    _, score_ids, score_values = inputs.matrix(config["score"]["responses"])
    blank = np.isnan(score_values)
    filled = np.where(blank, np.nanmean(score_values, axis=0), score_values)
    norm = filled / np.array([q.max_value for q in instrument.questions], dtype=float)
    col = {q: j for j, q in enumerate(instrument.question_ids)}
    local = {n["id"]: n["local_weight"]["value"] for n in bundle["weights"]["nodes"]
             if n["local_weight"] is not None}
    dims = {}
    for index_id, qids in instrument.indices:
        pooled = norm[:, [col[q] for q in qids]].mean(axis=1).mean()
        dim = instrument.dimension_of[index_id]
        dims[dim] = dims.get(dim, 0.0) + 100.0 * local[index_id] * pooled
    score = bundle["score"]
    for row in score["dimensions"]:
        c.close(f"dimension {row['id']} score", row["score"]["value"], dims[row["id"]])
    c.close("pooled composite", score["composite"]["value"],
            sum(local[d] * s for d, s in dims.items()))
    c.expect(score["n_respondents"] == len(score_ids),
             f"scored {score['n_respondents']} respondents, file has {len(score_ids)}")
    imputed = [[score_ids[r], instrument.question_ids[q]] for r, q in np.argwhere(blank)]
    c.expect(score["imputed"] == imputed,
             f"imputed cells differ: program {len(score['imputed'])}, file {len(imputed)}")


def check_outputs(workload: str, inputs: Path, records: list[dict]) -> list[str]:
    """Failure messages for this workload's outputs; empty when all checks pass."""
    c = Checker()
    if not any(r["ok"] for r in records):
        return ["no run succeeded"]
    check_determinism(c, records)
    text = (inputs / "first.json").read_text(encoding="utf-8")
    if workload == "demo-cli":
        from stagekit import render_json, run_pipeline

        c.expect(render_json(run_pipeline(inputs / CONFIG)) == text,
                 "CLI JSON differs from in-process render_json")
    bundle = json.loads(text)
    config = json.loads((inputs / CONFIG).read_text(encoding="utf-8"))
    files = Inputs(inputs)
    check_rounds(c, files, config, bundle)
    check_survey(c, files, config, bundle)
    return c.failures
