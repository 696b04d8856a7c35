"""CSV and JSON ingestion and CSV emission with strict validation.

All CSV files are UTF-8 with a mandatory header row; emitted files use LF line
endings, '.' decimals, and no timestamps, so identical inputs always produce
byte-identical outputs. Every parse error names the offending file and, where
it applies, the row/column cell.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from collections import Counter
from contextlib import contextmanager, suppress
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .ahp import PairwiseMatrix
from .consensus import RoundConsensus
from .errors import InvalidInputError, SchemaError
from .model import (
    MISSING,
    RESPONSE_MAX,
    RESPONSE_MIN,
    ExpertPanel,
    IndicatorNode,
    IndicatorTree,
    Instrument,
    Level,
    RatingRound,
    ResponseSet,
    RowMatrix,
    rating_dtype,
    validate_tree,
)

_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no", ""}

# Cells per block of a plain table: its temporary arrays take about 8 bytes a cell each.
_PLAIN_BLOCK_CELLS = 25_000

# _distinct's multiplier for mixing an id's words into one: odd, so a bijection of 64-bit words.
_MIX = np.uint64(0x9E3779B97F4A7C15)

# _FIRST_BYTES[s] keeps the first s bytes of an 8-byte word and zeroes the rest.
_FIRST_BYTES = ((np.arange(8) < np.arange(9)[:, None]) * np.uint8(0xFF)).view(np.uint64)[:, 0]

# An experts file's columns of the ExpertPanel.ENUMS, in that order.
_PANEL_COLUMNS = ("basis_theory", "basis_practice", "basis_peer", "basis_intuition",
                  "group", "familiarity")


def _unreadable(path: Path, exc: OSError | UnicodeDecodeError) -> SchemaError:
    if isinstance(exc, UnicodeDecodeError):
        return SchemaError(f"{path}: not UTF-8 text ({exc.reason})")
    if isinstance(exc, FileNotFoundError):
        return SchemaError(f"{path}: file not found")
    return SchemaError(f"{path}: cannot read ({exc.strerror or exc})")


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle (no newline translation) whose content replaces ``path`` once complete.

    It writes to a temporary file beside ``path`` and moves that into place
    with ``os.replace``, so a failed run leaves neither a partial output nor
    the temporary file. A symlink keeps pointing at the output, and a target
    that exists but is not a regular file (a device, a pipe) is written in
    place. A file-system error is a SchemaError naming ``path``.
    """
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
            if not in_place:
                os.replace(tmp, target)
        except BaseException:
            if not in_place:
                with suppress(OSError):
                    os.remove(tmp)
            raise
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write ({exc.strerror or exc})") from None


def _finite(text: str) -> float:
    """A JSON number as a float; ``NaN``, ``Infinity`` and a literal past the float range are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path: str | Path) -> Any:
    """The parsed content of a UTF-8 JSON file (a config, a bundle, thresholds); numbers are finite."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit, or deep nesting
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


@contextmanager
def _csv_rows(path: Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The stripped header and a stream of the non-blank rows."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty file (header row is mandatory)") from None
            yield header, (row for row in reader if any(map(str.strip, row)))
    except (OSError, UnicodeDecodeError) as exc:  # also raised while the caller reads the rows
        raise _unreadable(path, exc) from None
    except csv.Error as exc:
        raise SchemaError(f"{path}: not a readable CSV file ({exc})") from None


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _csv_rows(Path(path)) as (header, rows):
        return header, list(rows)


def _cell(row: list[str], i: int) -> str:
    return row[i].strip() if i < len(row) else ""


def _require_width(path: Path, row_id: str, row: list[str], header: list[str]) -> None:
    """A row may be short, its missing cells read as blanks, but never longer than the header."""
    if len(row) > len(header):
        raise SchemaError(f"{path}: row {row_id!r} has {len(row)} cells for {len(header)} columns")


def _require_columns(path: Path, header: list[str], required: Sequence[str],
                     optional: Sequence[str] = ()) -> dict[str, int]:
    """Each column's position, once the header holds every ``required`` column and nothing
    but the ``optional`` ones besides, each once; one line names every problem otherwise."""
    counts = Counter(header)
    allowed = {*required, *optional}
    problems = {
        "missing": [c for c in required if c not in counts],
        "unknown": [c for c in counts if c not in allowed],
        "duplicated": [c for c, n in counts.items() if n > 1],
    }
    if any(problems.values()):
        raise SchemaError(f"{path}: " + "; ".join(
            f"{problem} column(s) {', '.join(c or repr(c) for c in names)}"
            for problem, names in problems.items() if names))
    return {c: i for i, c in enumerate(header)}


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
        _require_width(path, node_id, row, header)
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
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in tree.nodes:  # already sorted by id
            row = [n.id, n.name, n.level.value, n.parent_id or "",
                   "true" if n.bonus else "false"]
            if with_weights:
                row += ["" if n.local_weight is None else repr(n.local_weight),
                        "" if n.global_weight is None else repr(n.global_weight)]
            writer.writerow(row)


def parse_experts(path: str | Path) -> ExpertPanel:
    """Read expert profiles (id,group,familiarity,basis_theory,...,basis_intuition) into a panel."""
    _, ids, codes = _read_table(Path(path), "id", dict(zip(_PANEL_COLUMNS, ExpertPanel.ENUMS)),
                                "expert id", "", None)
    return ExpertPanel(ids, codes)


def _table_dtype(bounds: Sequence) -> str:
    """The matrix dtype of a table read by ``bounds``: each range's hi and each enum's last position fit it."""
    return rating_dtype(max((b[1] if isinstance(b, tuple) else len(b) - 1 for b in bounds), default=0))


def _words(block: np.ndarray, start: np.ndarray, length: np.ndarray, words: int) -> np.ndarray:
    """The ``length`` bytes of ``block`` from each ``start`` as ``words`` 8-byte words, one row per word.

    The bytes past a string's end are zeroed, so two strings of at most
    ``8 * words`` bytes, neither holding a zero byte, are equal exactly when
    their words are.
    """
    padded = np.concatenate([block, np.zeros(8 * words, np.uint8)])
    word_at = np.ndarray((padded.size - 7,), np.uint64, padded, strides=(1,))  # the 8 bytes from each offset
    return np.stack([word_at[start + 8 * j] & _FIRST_BYTES[np.clip(length - 8 * j, 0, 8)]
                     for j in range(words)])


def _enum_codes(block: np.ndarray, ends: np.ndarray, size: np.ndarray, enum) -> np.ndarray | None:
    """Each cell's position in ``enum``, MISSING for a blank cell; None if a cell holds none of its values.

    A cell is the ``size`` bytes of ``block`` before its separator at ``ends``.
    Its ``_words`` match the value whose words are the same, that is, exactly
    when its bytes are the value's; a cell longer than every value is none of
    them.
    """
    values = np.array([m.value.encode() for m in enum])
    if (size > values.itemsize).any():
        return None
    words = -(-values.itemsize // 8)
    text = _words(block, (ends - size).ravel(), size.ravel(), words)
    found = size.ravel() == 0
    codes = np.where(found, MISSING, 0).astype(np.int8)
    for i, value in enumerate(values.astype(f"S{8 * words}").view(np.uint64).reshape(len(values), words)):
        hit = (text == value[:, None]).all(axis=0)  # values are distinct: at most one hits a cell
        found |= hit
        codes += hit * np.int8(i)
    return codes.reshape(size.shape) if found.all() else None


def _distinct(keys: np.ndarray) -> bool:
    """Whether the columns of ``keys`` (one row per word) are distinct.

    Each column's words are mixed into one word, and equal columns mix alike;
    sorted, equal mixes are neighbours. Only the columns whose mix another
    shares, rare for distinct columns, are sorted by all their words
    (``np.lexsort``, far slower for many columns) and compared word by word.
    """
    mixed = keys[0]
    for word in keys[1:]:
        mixed = mixed * _MIX ^ word  # wraps, with no warning on arrays
    ordered = np.sort(mixed)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not shared.size:
        return True
    keys = keys[:, np.isin(mixed, shared)]
    ordered = keys[:, np.lexsort(keys)]
    return not (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any()


def _plain_table(path: Path, header: list[str], src: Sequence[int], bounds: Sequence,
                 blank: str | None, key: int = 0) -> tuple[tuple[str, ...], np.ndarray] | None:
    """``_int_table``'s result for a plain file, read from its bytes; None for any other file.

    A plain file is ASCII after an optional BOM, with no quote, space, tab or
    other control byte but the CR of a CRLF; its first line is ``header``, each
    row ends in LF or CRLF and has ``len(header)`` cells, the ids are non-empty and
    distinct, each cell at ``src`` is blank (where ``blank`` allows) or, by its
    bound, one digit within its int8 (lo, hi) or exactly one of its enum's
    values, and a blank ratings row's other digits are not range-checked. The
    csv loop reads such a file without error; this reads the same result from
    separator positions, ``_PLAIN_BLOCK_CELLS`` cells at a time, an enum cell
    by comparing its bytes with each value, and tells the ids distinct by
    sorting their ``_words``. Every id takes as many words as the longest, so
    a file whose words past the first would outgrow it (an id far longer than
    most) is left to the csv loop. Only a regular file is read, as this reads
    it a second time.
    """
    if _table_dtype(bounds) != "int8":
        return None
    if not path.is_file():  # a pipe cannot be read a second time
        return None
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if b"\r" in data:  # far quicker than a replace that finds nothing; a lone CR stays and declines
        data = data.replace(b"\r\n", b"\n")
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0  # a UTF-8 BOM
    first_end = data.find(b"\n", start)
    if first_end < 0:
        first_end = len(data)
    first_line = data[start:first_end]
    if not first_line.isascii() or first_line.decode("ascii").split(",") != header:
        return None
    body = np.frombuffer(data, np.uint8)[first_end + 1:]
    if body.size and body[-1] != ord("\n"):
        return None
    ends = np.flatnonzero(body == ord("\n"))
    width = len(header)
    cols = np.array(src, dtype=np.intp)
    # Consecutive columns are picked with a slice: views, not copies.
    pick = slice(cols[0], cols[-1] + 1) if len(cols) and (np.diff(cols) == 1).all() else cols
    # An enum's codes are its positions, all in range once read. A cell c is in [lo, hi]
    # when (c - lo) mod 256 <= hi - lo, as int8 cells never reach past -128.
    lo, hi = np.array([b if isinstance(b, tuple) else (0, len(b) - 1) for b in bounds],
                      dtype=np.int64).reshape(-1, 2).T
    lo = np.maximum(lo, -128)
    if (lo > hi).any():  # no cell is in range: the csv loop names the first
        return None
    lo, span = lo.astype(np.int8), (hi - lo).astype(np.uint8)
    enum_at: dict[Any, list[int]] = {}  # the columns of one enum are read at once
    for j, b in enumerate(bounds):
        if not isinstance(b, tuple):
            enum_at.setdefault(b, []).append(j)
    # A table of digits alone indexes its digit columns with a slice: views, not copies.
    digit_at = [j for j, b in enumerate(bounds) if isinstance(b, tuple)] if enum_at else slice(None)
    id_end = ",\n"[key == width - 1]
    matrix = np.empty((len(ends), len(src)), np.int8)
    step = max(1, _PLAIN_BLOCK_CELLS // width)
    # Each block's id offsets in body, and id sizes with the separator after; none for no rows.
    id_at, id_bytes = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for first in range(0, len(ends), step):
        offset = ends[first - 1] + 1 if first else 0
        last = ends[first:first + step] - offset
        block = body[offset:offset + last[-1] + 1]
        # Bytes outside '!'..'~' may only be the block's LFs, and none may be a quote.
        if np.count_nonzero(block - np.uint8(0x21) >= 0x5E) != last.size or (block == ord('"')).any():
            return None
        sep = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
        if sep.size != last.size * width or not np.array_equal(sep[width - 1::width], last):
            return None
        size = np.diff(sep, prepend=-1).reshape(-1, width) - 1
        sep = sep.reshape(-1, width)
        id_size, cell_size = size[:, key], size[:, pick]
        if not id_size.all() or id_size.max() > csv.field_size_limit() or cell_size[:, digit_at].max(initial=0) > 1:
            return None
        cells = matrix[first:first + last.size]  # read in place
        np.subtract(block[sep[:, pick] - 1].view(np.int8), ord("0"), out=cells)  # a one-byte cell ends at its separator
        empty = cell_size == 0
        # A digit, less '0', is 0..9; any other byte is negative or past 9, so past 9 unsigned.
        if not (empty | (cells.view(np.uint8) <= 9))[:, digit_at].all() or (blank is None and empty.any()):
            return None
        for enum, at in enum_at.items():  # each enum's columns are rewritten with their codes
            codes = _enum_codes(block, sep[:, cols[at]], cell_size[:, at], enum)
            if codes is None:
                return None
            cells[:, at] = codes
        if blank == "row":
            empty = empty.any(axis=1, keepdims=True)
        if (((cells - lo).view(np.uint8) > span) & ~empty).any():
            return None
        np.copyto(cells, MISSING, where=empty)
        id_at.append(offset + sep[:, key] - id_size)
        id_bytes.append(id_size + 1)
    # Each id and the separator after it, zero-filled to whole words: equal ids have equal
    # words, and the words without their zero bytes are the ids, each ended by its separator.
    sizes = np.concatenate(id_bytes)
    words = -(-int(sizes.max(initial=1)) // 8)
    if len(ends) * (words - 1) * 8 > body.size:  # ids far longer than most: their words would outgrow the file
        return None
    id_words = _words(body, np.concatenate(id_at), sizes, words)
    if not _distinct(id_words):  # the csv loop names the first repeat
        return None
    matrix.flags.writeable = False
    return tuple(id_words.T.tobytes().replace(b"\0", b"").decode("ascii").split(id_end)[:-1]), matrix


def _int_table(path: Path, header: list[str], rows: Iterable[list[str]], kind: str,
               columns: Sequence[str], src: Sequence[int], bounds: Sequence, word: str,
               blank: str | None, key: int = 0) -> tuple[tuple[str, ...], np.ndarray]:
    """The row ids (the cells at ``key``) in row order, and the read-only matrix of a table keyed by row id.

    The cells at ``src`` of a row are its ``columns``, each stripped and read
    by its entry in ``bounds``: with ``int()`` and checked against a (lo, hi),
    or looked up in an Enum and stored as its position there. A short row reads
    as blanks; a row longer than ``header`` is an error. A blank cell is
    ``MISSING`` when ``blank`` is "cell", makes the row ``MISSING`` when it is
    "row", and is an error when it is None. ``kind`` names a row in errors,
    e.g. "expert row". ``header`` is the file's header as ``_csv_rows`` read it.

    Rows stream into one int8 buffer (int64 when a ``hi`` does not fit it).
    Each range or enum remembers the code of every raw string read for it
    (an enum's memo starts with its values), so a row costs one dict lookup
    per cell; a row with a new string is read cell by cell, so the first bad
    cell in file order is the one reported.
    """
    noun, repeat = kind.split()
    dtype = _table_dtype(bounds)
    # An int8 row packs into bytes, the fastest to build and append; codes are unsigned bytes.
    pack, mask = (bytes, 0xFF) if dtype == "int8" else (tuple, -1)
    buffer = bytearray() if dtype == "int8" else array("q")
    memo_of: dict[Any, dict[str, int]] = {}  # columns of one range or enum share a memo
    memos = [memo_of.setdefault(b, {} if isinstance(b, tuple) else {e.value: i for i, e in enumerate(b)})
             for b in bounds]
    start = src[0] if src else 0
    if list(src) == list(range(start, start + len(src))):  # one column range: one slice
        pick = itemgetter(slice(start, start + len(src)))
    else:
        pick = itemgetter(*src)
    width = max([*src, key]) + 1

    def learn(row_id: str, cells: Sequence[str]):
        texts = [c.strip() for c in cells]
        # A blank never enters a "row" memo, so every blank row is all MISSING.
        if blank == "row" and "" in texts:  # the row's other cells are never read
            return pack([MISSING & mask] * len(cells))
        if blank:
            for memo, raw, text in zip(memos, cells, texts):
                if not text:
                    memo[raw] = MISSING & mask
        for column, bound, memo, raw, text in zip(columns, bounds, memos, cells, texts):
            if raw in memo:
                continue
            if not isinstance(bound, tuple):
                memo[raw] = memo[_enum_value(path, row_id, column, text, bound).value]
                continue
            lo, hi = bound
            try:
                value = int(text)
            except ValueError:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): {text!r} is not an integer") from None
            if not lo <= value <= hi:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): {word} {value} outside [{lo}, {hi}]")
            memo[raw] = value & mask
        return pack(map(dict.__getitem__, memos, cells))

    plain = _plain_table(path, header, src, bounds, blank, key)
    if plain is not None:
        return plain
    row_of: dict[str, int] = {}
    for row in rows:
        if len(row) < width:
            row += [""] * (width - len(row))
        row_id = row[key].strip()
        if not row_id:
            raise SchemaError(f"{path}: row with empty {noun} id")
        if row_id in row_of:
            raise SchemaError(f"{path}: duplicate {noun} {repeat} {row_id!r}")
        _require_width(path, row_id, row, header)
        row_of[row_id] = len(row_of)
        cells = pick(row)
        try:
            buffer.extend(pack(map(dict.__getitem__, memos, cells)))
        except KeyError:
            buffer.extend(learn(row_id, cells))
    matrix = np.frombuffer(buffer, dtype=dtype).reshape(len(row_of), len(columns))
    matrix.flags.writeable = False
    return tuple(row_of), matrix


def _read_table(path: Path, key: str, bounds: Mapping[str, Any] | tuple[int, int], kind: str,
                word: str, blank: str | None) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """The columns read, row ids and matrix of the integer table at ``path``.

    ``key`` names the id column. ``bounds`` maps each column to read to its
    bound (see ``_int_table``), or is one (lo, hi) for every named column but
    ``key``, in file order. The header must hold ``key`` and these columns,
    each once, in any order.
    """
    with _csv_rows(path) as (header, rows):
        if isinstance(bounds, tuple):
            bounds = dict.fromkeys((c for c in header if c and c != key), bounds)
        col = _require_columns(path, header, (key, *bounds))
        columns = tuple(bounds)
        return columns, *_int_table(path, header, rows, kind, columns, [col[c] for c in columns],
                                    list(bounds.values()), word, blank, col[key])


def parse_ratings(
    path: str | Path,
    *,
    scale_max: int = 5,
    round_no: int | None = None,
    distributed: int | None = None,
) -> RatingRound:
    """Read one round's ratings (expert_id and one column per indicator id).

    A row with any blank rating cell counts as a non-response: the expert is
    excluded from the matrix but still counted in the distributed total.
    When ``distributed`` is omitted it defaults to the file's row count;
    ``round_no`` defaults to the number in the filename (e.g. round2), else 1.
    """
    path = Path(path)
    indicator_ids, ids, matrix = _read_table(path, "expert_id", (1, scale_max), "expert row",
                                             "rating", "row")
    # Non-responses stayed in the matrix, in file order, as rows holding MISSING.
    blank = (matrix == MISSING).any(axis=1)
    non_respondents = tuple(compress(ids, blank.tolist()))
    respondents = ids
    if non_respondents:
        matrix = matrix[~blank]
        respondents = tuple(compress(ids, (~blank).tolist()))

    if round_no is None:
        match = re.search(r"round[_-]?(\d+)", path.name, re.IGNORECASE)
        round_no = int(match.group(1)) if match else 1
    if distributed is None:
        distributed = len(ids)
    try:
        return RatingRound(
            round_no=round_no,
            scale_max=scale_max,
            distributed=distributed,
            indicator_ids=indicator_ids,
            ratings=RowMatrix(respondents, matrix),
            non_respondents=non_respondents,
        )
    except InvalidInputError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def parse_responses(path: str | Path, instrument: Instrument) -> ResponseSet:
    """Read consumer answers (respondent_id and the instrument's question columns).

    Column order in the file is free; the result is normalized to the
    instrument's question order. Blank cells become missing answers.
    """
    # The matrix holds 0..4 answers, so a question's range is clipped to that.
    bounds = {q.id: (max(q.min_value, RESPONSE_MIN), min(q.max_value, RESPONSE_MAX))
              for q in instrument.questions}
    _, ids, matrix = _read_table(Path(path), "respondent_id", bounds, "respondent id", "answer", "cell")
    return ResponseSet(question_ids=instrument.question_ids, consumer=RowMatrix(ids, matrix))


def parse_expert_bonus(path: str | Path, bonus_ids: Sequence[str]) -> RowMatrix:
    """Read expert bonus ratings (expert_id and one column per bonus indicator).

    The result maps each expert id to a tuple of ratings in ``bonus_ids`` order.
    """
    bounds = dict.fromkeys(bonus_ids, (RESPONSE_MIN, RESPONSE_MAX))
    _, ids, matrix = _read_table(Path(path), "expert_id", bounds, "expert row", "rating", None)
    return RowMatrix(ids, matrix)


def parse_importance(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a rater x item importance matrix on the 1-7 scale: the item ids and a read-only int8 matrix."""
    item_ids, _, matrix = _read_table(Path(path), "rater_id", (1, 7), "rater row", "rating", None)
    return item_ids, matrix


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
        _require_width(path, row_id, row, header)
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
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["indicator_id", "name", "prev_mean", "rating"])
        for indicator_id in sorted(retained):
            writer.writerow([
                indicator_id,
                names.get(indicator_id, indicator_id),
                format(prev.stats[indicator_id].mean, ".4f"),
                "",
            ])
