"""CSV and JSON ingestion and CSV emission with strict validation.

All CSV files are UTF-8 with a mandatory header row; emitted files use LF line
endings, '.' decimals, and no timestamps, so identical inputs always produce
byte-identical outputs. Every parse error names the offending file and, where
it applies, the row/column cell.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from contextlib import contextmanager
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ahp import PairwiseMatrix
from .consensus import RoundConsensus
from .errors import InvalidInputError, SchemaError
from .model import (
    MISSING,
    RESPONSE_MAX,
    RESPONSE_MIN,
    ExpertProfile,
    Familiarity,
    IdentityGroup,
    Impact,
    IndicatorNode,
    IndicatorTree,
    Instrument,
    JudgmentBasis,
    Level,
    RatingRound,
    ResponseSet,
    RowMatrix,
    rating_dtype,
    validate_tree,
)

_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no", ""}

_BASIS_COLUMNS = (
    ("basis_theory", JudgmentBasis.THEORETICAL_ANALYSIS),
    ("basis_practice", JudgmentBasis.PRACTICAL_EXPERIENCE),
    ("basis_peer", JudgmentBasis.PEER_REFERENCE),
    ("basis_intuition", JudgmentBasis.INTUITION),
)


def read_json(path: str | Path) -> Any:
    """The parsed content of a UTF-8 JSON file (a config, a bundle, thresholds)."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


@contextmanager
def _csv_rows(path: Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The stripped header and a stream of the non-blank rows of a CSV file."""
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file (header row is mandatory)") from None
        yield [h.strip() for h in header], (row for row in reader if any(map(str.strip, row)))


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _csv_rows(Path(path)) as (header, rows):
        return header, list(rows)


def _cell(row: list[str], i: int) -> str:
    return row[i].strip() if i < len(row) else ""


def _require_columns(path: Path, header: list[str], required: Sequence[str],
                     optional: Sequence[str] = ()) -> dict[str, int]:
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
    allowed = set(required) | set(optional)
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise SchemaError(f"{path}: unknown column(s) {', '.join(unknown)}")
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicated column in header")
    return {c: header.index(c) for c in header}


def _enum_value(path: Path, row_id: str, column: str, raw: str, enum_cls):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise SchemaError(
            f"{path}: row {row_id!r}, column {column!r}: {raw!r} is not one of: {valid}"
        ) from None


def parse_indicators(path: str | Path) -> IndicatorTree:
    """Read an indicator tree (id,name,level,parent_id,bonus[,local_weight,global_weight])."""
    path = Path(path)
    header, rows = _read_rows(path)
    col = _require_columns(
        path, header,
        required=("id", "name", "level", "parent_id", "bonus"),
        optional=("local_weight", "global_weight"),
    )
    nodes = []
    for row in rows:
        node_id = _cell(row, col["id"])
        if not node_id:
            raise SchemaError(f"{path}: row with empty id")
        level = _enum_value(path, node_id, "level", _cell(row, col["level"]), Level)
        bonus_raw = _cell(row, col["bonus"]).lower()
        if bonus_raw in _TRUE:
            bonus = True
        elif bonus_raw in _FALSE:
            bonus = False
        else:
            raise SchemaError(f"{path}: row {node_id!r}: bonus must be true/false, got {bonus_raw!r}")
        weights = {}
        for key in ("local_weight", "global_weight"):
            if key not in col:
                weights[key] = None
                continue
            raw = _cell(row, col[key])
            try:
                weights[key] = float(raw) if raw else None
            except ValueError:
                raise SchemaError(f"{path}: row {node_id!r}: {key} {raw!r} is not a number") from None
        try:
            nodes.append(IndicatorNode(
                id=node_id,
                name=_cell(row, col["name"]),
                level=level,
                parent_id=_cell(row, col["parent_id"]) or None,
                local_weight=weights["local_weight"],
                global_weight=weights["global_weight"],
                bonus=bonus,
            ))
        except InvalidInputError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    tree = IndicatorTree(nodes=tuple(nodes))
    problems = validate_tree(tree)
    if problems:
        raise SchemaError(f"{path}: invalid indicator tree: " + "; ".join(problems))
    return tree


def emit_indicators(tree: IndicatorTree, path: str | Path) -> None:
    """Write a tree back to CSV; weight columns appear iff any node has weights."""
    with_weights = any(n.local_weight is not None or n.global_weight is not None
                       for n in tree.nodes)
    header = ["id", "name", "level", "parent_id", "bonus"]
    if with_weights:
        header += ["local_weight", "global_weight"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in tree.nodes:  # already sorted by id
            row = [n.id, n.name, n.level.value, n.parent_id or "",
                   "true" if n.bonus else "false"]
            if with_weights:
                row += ["" if n.local_weight is None else repr(n.local_weight),
                        "" if n.global_weight is None else repr(n.global_weight)]
            writer.writerow(row)


def parse_experts(path: str | Path) -> tuple[ExpertProfile, ...]:
    """Read expert profiles (id,group,familiarity,basis_theory,...,basis_intuition)."""
    path = Path(path)
    header, rows = _read_rows(path)
    col = _require_columns(
        path, header,
        required=("id", "group", "familiarity") + tuple(c for c, _ in _BASIS_COLUMNS),
    )
    profiles = []
    seen: set[str] = set()
    for row in rows:
        expert_id = _cell(row, col["id"])
        if not expert_id:
            raise SchemaError(f"{path}: row with empty expert id")
        if expert_id in seen:
            raise SchemaError(f"{path}: duplicate expert id {expert_id!r}")
        seen.add(expert_id)
        basis = {}
        for column, b in _BASIS_COLUMNS:
            basis[b] = _enum_value(path, expert_id, column, _cell(row, col[column]), Impact)
        profiles.append(ExpertProfile(
            id=expert_id,
            identity_group=_enum_value(path, expert_id, "group", _cell(row, col["group"]), IdentityGroup),
            familiarity=_enum_value(path, expert_id, "familiarity",
                                    _cell(row, col["familiarity"]), Familiarity),
            judgment_basis=basis,
        ))
    return tuple(profiles)


def parse_ratings(
    path: str | Path,
    *,
    scale_max: int = 5,
    round_no: int | None = None,
    distributed: int | None = None,
    expected_ids: Iterable[str] | None = None,
) -> RatingRound:
    """Read one round's ratings (expert_id, then one column per indicator id).

    A row with any blank rating cell counts as a non-response: the expert is
    excluded from the matrix but still counted in the distributed total.
    When ``distributed`` is omitted it defaults to the file's row count;
    ``round_no`` defaults to the number in the filename (e.g. round2), else 1.

    Rows stream from the CSV reader straight into one buffer that becomes the
    experts x indicators matrix of the result, as in :func:`parse_responses`:
    each raw cell string is converted once per call and remembered (0 for a
    blank). A row holding a string not seen before is read cell by cell: a
    blank anywhere makes it a non-response, else its first bad cell is the
    one reported.
    """
    path = Path(path)
    with _csv_rows(path) as (header, rows):
        if not header or header[0] != "expert_id":
            raise SchemaError(f"{path}: first column must be expert_id")
        indicator_ids = tuple(header[1:])
        if not indicator_ids:
            raise SchemaError(f"{path}: no indicator columns")
        if len(set(indicator_ids)) != len(indicator_ids):
            dupes = sorted({i for i in indicator_ids if indicator_ids.count(i) > 1})
            raise SchemaError(f"{path}: duplicated indicator column(s) {', '.join(dupes)}")
        if expected_ids is not None:
            known = set(expected_ids)
            unknown = [i for i in indicator_ids if i not in known]
            if unknown:
                raise SchemaError(f"{path}: unknown indicator column(s) {', '.join(unknown)}")

        width = len(header)
        dtype = rating_dtype(scale_max)
        # An int8 row packs into bytes, the fastest to build, test for a 0 and append.
        pack = bytes if dtype == np.int8 else tuple
        buffer = bytearray() if dtype == np.int8 else array(dtype.char)
        memo: dict[str, int] = {}  # raw cell string -> rating, 0 for a blank cell

        def learn(expert_id: str, cells: list[str]):
            texts = [c.strip() for c in cells]
            if "" in texts:  # a non-response: its other cells are never read
                memo.update((raw, 0) for raw, text in zip(cells, texts) if not text)
                return (0,)
            for indicator_id, raw, text in zip(indicator_ids, cells, texts):
                if raw in memo:
                    continue
                try:
                    value = int(text)
                except ValueError:
                    raise SchemaError(
                        f"{path}: cell ({expert_id}, {indicator_id}): {text!r} is not an integer"
                    ) from None
                if not 1 <= value <= scale_max:
                    raise SchemaError(f"{path}: cell ({expert_id}, {indicator_id}): rating {value} "
                                      f"outside [1, {scale_max}]")
                memo[raw] = value
            return pack(map(memo.__getitem__, cells))

        row_of: dict[str, int] = {}
        non_respondents: dict[str, None] = {}  # in file order
        for row in rows:
            expert_id = row[0].strip()
            if not expert_id:
                raise SchemaError(f"{path}: row with empty expert id")
            if expert_id in row_of or expert_id in non_respondents:
                raise SchemaError(f"{path}: duplicate expert row {expert_id!r}")
            if len(row) < width:
                row += [""] * (width - len(row))
            cells = row[1:width]
            try:
                codes = pack(map(memo.__getitem__, cells))
            except KeyError:
                codes = learn(expert_id, cells)
            if 0 in codes:
                non_respondents[expert_id] = None
            else:
                row_of[expert_id] = len(row_of)
                buffer.extend(codes)
    matrix = np.frombuffer(buffer, dtype=dtype).reshape(len(row_of), len(indicator_ids))

    if round_no is None:
        match = re.search(r"round[_-]?(\d+)", path.name, re.IGNORECASE)
        round_no = int(match.group(1)) if match else 1
    if distributed is None:
        distributed = len(row_of) + len(non_respondents)
    try:
        return RatingRound(
            round_no=round_no,
            scale_max=scale_max,
            distributed=distributed,
            indicator_ids=indicator_ids,
            ratings=RowMatrix(row_of, matrix, tuple),
            non_respondents=tuple(non_respondents),
        )
    except InvalidInputError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def parse_responses(path: str | Path, instrument: Instrument) -> ResponseSet:
    """Read consumer answers (respondent_id, then the instrument's question columns).

    Column order in the file is free; the result is normalized to the
    instrument's question order. Blank cells become missing answers.

    Rows stream from the CSV reader straight into one ``int8`` buffer that
    becomes the R x Q answer matrix of the result (``MISSING`` for a blank).
    Each raw cell string is converted once per call and remembered, so a
    file with a handful of distinct spellings costs one dict lookup per cell;
    the conversion itself is the strict one (strip, ``int()``, range check),
    and the first bad cell in file order is the one reported.
    """
    path = Path(path)
    with _csv_rows(path) as (header, rows):
        if not header or header[0] != "respondent_id":
            raise SchemaError(f"{path}: first column must be respondent_id")
        file_qids = header[1:]
        expected = instrument.question_ids
        if sorted(file_qids) != sorted(expected):
            missing = sorted(set(expected) - set(file_qids))
            extra = sorted(set(file_qids) - set(expected))
            parts = []
            if missing:
                parts.append(f"missing question column(s) {', '.join(missing)}")
            if extra:
                parts.append(f"unknown column(s) {', '.join(extra)}")
            raise SchemaError(f"{path}: {'; '.join(parts)}")
        src = [file_qids.index(qid) + 1 for qid in expected]
        width = len(header)
        pick = itemgetter(*src) if len(src) > 1 else (lambda row: tuple(row[i] for i in src))
        # The matrix holds 0..4 answers, so a question's range is clipped to that.
        bounds = [(max(q.min_value, RESPONSE_MIN), min(q.max_value, RESPONSE_MAX))
                  for q in instrument.questions]
        # Per column: raw cell string -> matrix code as an unsigned byte.
        memos: list[dict[str, int]] = [{} for _ in expected]

        buffer = bytearray()
        row_of: dict[str, int] = {}
        for row in rows:
            rid = row[0].strip()
            if not rid:
                raise SchemaError(f"{path}: row with empty respondent id")
            if rid in row_of:
                raise SchemaError(f"{path}: duplicate respondent id {rid!r}")
            row_of[rid] = len(row_of)
            if len(row) < width:
                row += [""] * (width - len(row))
            cells = pick(row)
            try:
                buffer += bytes(map(dict.__getitem__, memos, cells))
            except KeyError:
                for qid, (lo, hi), memo, raw in zip(expected, bounds, memos, cells):
                    if raw in memo:
                        continue
                    text = raw.strip()
                    if not text:
                        memo[raw] = MISSING & 0xFF
                        continue
                    try:
                        value = int(text)
                    except ValueError:
                        raise SchemaError(f"{path}: cell ({rid}, {qid}): {text!r} is not an integer") from None
                    if not lo <= value <= hi:
                        raise SchemaError(f"{path}: cell ({rid}, {qid}): answer {value} outside [{lo}, {hi}]")
                    memo[raw] = value
                buffer += bytes(map(dict.__getitem__, memos, cells))
    matrix = np.frombuffer(buffer, dtype=np.int8).reshape(len(row_of), len(expected))
    return ResponseSet(question_ids=expected, consumer=RowMatrix(row_of, matrix))


def _rating_rows(path: Path, rows: Iterable[list[str]], kind: str,
                 columns: Sequence[tuple[str, int]], lo: int, hi: int) -> dict[str, tuple[int, ...]]:
    """Row id -> integer ratings in [lo, hi], read from the (column id, cell index) pairs."""
    out: dict[str, tuple[int, ...]] = {}
    for row in rows:
        row_id = _cell(row, 0)
        if not row_id:
            raise SchemaError(f"{path}: row with empty {kind} id")
        if row_id in out:
            raise SchemaError(f"{path}: duplicate {kind} row {row_id!r}")
        values = []
        for column, i in columns:
            raw = _cell(row, i)
            try:
                value = int(raw)
            except ValueError:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): {raw!r} is not an integer") from None
            if not lo <= value <= hi:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): rating {value} outside [{lo}, {hi}]")
            values.append(value)
        out[row_id] = tuple(values)
    return out


def parse_expert_bonus(path: str | Path, bonus_ids: Sequence[str]) -> dict[str, tuple[int, ...]]:
    """Read expert bonus ratings (expert_id, then one column per bonus indicator)."""
    path = Path(path)
    header, rows = _read_rows(path)
    if not header or header[0] != "expert_id":
        raise SchemaError(f"{path}: first column must be expert_id")
    col = _require_columns(path, header, required=("expert_id",) + tuple(bonus_ids))
    return _rating_rows(path, rows, "expert", [(bid, col[bid]) for bid in bonus_ids], 0, 4)


def parse_importance(path: str | Path) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """Read a rater x item importance matrix on the 1-7 scale."""
    path = Path(path)
    header, rows = _read_rows(path)
    if not header or header[0] != "rater_id":
        raise SchemaError(f"{path}: first column must be rater_id")
    item_ids = tuple(header[1:])
    if not item_ids:
        raise SchemaError(f"{path}: no item columns")
    if len(set(item_ids)) != len(item_ids):
        raise SchemaError(f"{path}: duplicated item column in header")
    matrix = _rating_rows(path, rows, "rater", list(zip(item_ids, range(1, len(header)))), 1, 7)
    return item_ids, list(matrix.values())


def _parse_ratio(raw: str) -> float:
    if "/" in raw:
        return float(Fraction(raw))
    return float(raw)


def parse_pairwise(path: str | Path) -> PairwiseMatrix:
    """Read a square pairwise table (id header row/column; fractions like 1/3 accepted)."""
    path = Path(path)
    header, rows = _read_rows(path)
    ids = tuple(header[1:])
    if not ids:
        raise SchemaError(f"{path}: no indicator columns")
    if len(rows) != len(ids):
        raise SchemaError(f"{path}: expected {len(ids)} rows for {len(ids)} columns, got {len(rows)}")
    entries = []
    for expected_id, row in zip(ids, rows):
        row_id = _cell(row, 0)
        if row_id != expected_id:
            raise SchemaError(
                f"{path}: row ids must mirror the header order; expected {expected_id!r}, got {row_id!r}"
            )
        values = []
        for i, col_id in enumerate(ids):
            raw = _cell(row, i + 1)
            try:
                values.append(_parse_ratio(raw))
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{path}: cell ({row_id}, {col_id}): {raw!r} is not a number") from None
        entries.append(tuple(values))
    try:
        return PairwiseMatrix(ids=ids, entries=tuple(entries))
    except InvalidInputError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def emit_round_form(
    prev: RoundConsensus,
    retained: Sequence[str],
    round_no: int,
    path: str | Path,
    names: Mapping[str, str] | None = None,
) -> None:
    """Write the next round's consultation form carrying the prior-round means.

    Columns: indicator_id, name, prev_mean, rating (left blank for the expert);
    rows sorted by indicator id; byte-deterministic.
    """
    if round_no < 2:
        raise InvalidInputError(f"a consultation form carries prior means; round_no must be >= 2, got {round_no}")
    if not retained:
        raise InvalidInputError("no retained indicators; a round with no indicators is meaningless")
    missing = [i for i in retained if i not in prev.stats]
    if missing:
        raise InvalidInputError(
            f"retained indicator(s) absent from round {prev.round_no}: {', '.join(sorted(missing))}"
        )
    names = names or {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["indicator_id", "name", "prev_mean", "rating"])
        for indicator_id in sorted(retained):
            writer.writerow([
                indicator_id,
                names.get(indicator_id, indicator_id),
                format(prev.stats[indicator_id].mean, ".4f"),
                "",
            ])
