"""Domain types for the STAGE instrument workflow.

Everything here is immutable after construction: dataclasses are frozen and
collection fields are normalized to tuples (or read-only answer matrices) at
construction time, so instances can be shared freely across threads. Validation that should never abort a
workflow (tree well-formedness) is report-style via :func:`validate_tree`;
per-value range checks raise :class:`~stagekit.errors.InvalidInputError`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from operator import add
from typing import TYPE_CHECKING, Any, Callable, Mapping

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

WEIGHT_SUM_TOL = 1e-9

# Consumer questionnaire response coding: 0 = "Strongly Disagree" .. 4 = "Strongly Agree".
RESPONSE_MIN = 0
RESPONSE_MAX = 4
MISSING = -1  # answer-matrix code of a consumer question left blank
# Answers and ratings must be of type int exactly: bool is an int subclass,
# and True would otherwise pass as the rating 1.


class Level(str, Enum):
    """Hierarchy level of an indicator node."""

    DIMENSION = "dimension"
    INDEX = "index"
    ITEM = "item"


class IdentityGroup(str, Enum):
    """The five expert panel identity groups."""

    SERVICE_DECISION_MAKER = "service_decision_maker"
    TECHNOLOGY_RND = "technology_rnd"
    SOCIAL_TECHNOLOGY_RESEARCHER = "social_technology_researcher"
    TECHNOLOGY_IMPLEMENTER = "technology_implementer"
    OTHER = "other"


class Familiarity(str, Enum):
    """Expert self-rated familiarity with the subject."""

    VERY_FAMILIAR = "very_familiar"
    FAMILIAR = "familiar"
    MODERATE = "moderate"
    UNFAMILIAR = "unfamiliar"
    VERY_UNFAMILIAR = "very_unfamiliar"


class JudgmentBasis(str, Enum):
    """What an expert's judgment rests on."""

    THEORETICAL_ANALYSIS = "theoretical_analysis"
    PRACTICAL_EXPERIENCE = "practical_experience"
    PEER_REFERENCE = "peer_reference"
    INTUITION = "intuition"


class Impact(str, Enum):
    """Self-rated impact of one judgment basis on the expert's ratings."""

    LARGE = "large"
    MEDIUM = "medium"
    SMALL = "small"


@dataclass(frozen=True)
class IndicatorNode:
    """One node of the indicator hierarchy.

    ``bonus`` marks supplementary indicators that sit outside the core
    dimensions and are excluded from weight normalization.
    """

    id: str
    name: str
    level: Level
    parent_id: str | None = None
    local_weight: float | None = None
    global_weight: float | None = None
    bonus: bool = False

    def __post_init__(self):
        if not self.id:
            raise InvalidInputError("indicator id must be non-empty")
        for label, w in (("local_weight", self.local_weight), ("global_weight", self.global_weight)):
            if w is not None and not (math.isfinite(w) and 0.0 <= w <= 1.0):
                raise InvalidInputError(f"node {self.id}: {label} {w!r} outside [0, 1]")


@dataclass(frozen=True)
class IndicatorTree:
    """An indicator hierarchy, normalized to a deterministic order by id."""

    nodes: tuple[IndicatorNode, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.nodes, key=lambda n: n.id))
        object.__setattr__(self, "nodes", ordered)
        object.__setattr__(self, "_by_id", {n.id: n for n in ordered})

    def node(self, node_id: str) -> IndicatorNode | None:
        return self._by_id.get(node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, parent_id: str | None) -> tuple[IndicatorNode, ...]:
        return tuple(n for n in self.nodes if n.parent_id == parent_id)

    def leaves(self) -> tuple[IndicatorNode, ...]:
        with_children = {n.parent_id for n in self.nodes if n.parent_id is not None}
        return tuple(n for n in self.nodes if n.id not in with_children)

    def sibling_groups(self) -> tuple[tuple[str | None, tuple[IndicatorNode, ...]], ...]:
        """All (parent_id, children) groups, the root group first."""
        parents: list[str | None] = [None]
        parents.extend(n.id for n in self.nodes)
        groups = []
        for pid in parents:
            members = self.children(pid)
            if members:
                groups.append((pid, members))
        return tuple(groups)


_CHILD_LEVEL = {Level.INDEX: Level.DIMENSION, Level.ITEM: Level.INDEX}


def validate_tree(tree: IndicatorTree) -> list[str]:
    """Report every structural invariant the tree violates.

    Returns an empty list iff the tree is well-formed. An empty tree is
    vacuously valid. Checks, in order: id uniqueness, level/parent rules,
    bonus-subtree consistency, and sibling-group local-weight sums (only for
    non-bonus groups whose weights are all set).
    """
    problems: list[str] = []

    seen: set[str] = set()
    for node in tree.nodes:
        if node.id in seen:
            problems.append(f"duplicate node id {node.id!r}")
        seen.add(node.id)

    for node in tree.nodes:
        if node.level is Level.DIMENSION:
            if node.parent_id is not None:
                problems.append(f"node {node.id}: dimension nodes must have no parent")
            continue
        required = _CHILD_LEVEL[node.level]
        if node.parent_id is None:
            problems.append(f"node {node.id}: {node.level.value} node has no parent")
            continue
        parent = tree.node(node.parent_id)
        if parent is None:
            problems.append(f"node {node.id}: parent {node.parent_id!r} does not exist")
        elif parent.level is not required:
            problems.append(
                f"node {node.id}: {node.level.value} parent must be a {required.value} "
                f"(got {parent.level.value})"
            )

    for node in tree.nodes:
        parent = tree.node(node.parent_id) if node.parent_id else None
        if parent is None:
            continue
        if node.bonus and not parent.bonus:
            problems.append(f"node {node.id}: bonus node inside a non-bonus (core) subtree")
        if not node.bonus and parent.bonus:
            problems.append(f"node {node.id}: non-bonus node inside a bonus subtree")

    for parent_id, members in tree.sibling_groups():
        core = [n for n in members if not n.bonus]
        if any(n.local_weight is None for n in core):
            continue
        problem = weight_sum_problem(parent_id, [n.local_weight for n in core])
        if problem:
            problems.append(problem)

    return problems


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.

    Builtin ``sum`` compensates float rounding from Python 3.12 on, so the last
    bits of its float sums depend on the Python version; these do not. Over a
    float ndarray, ``np.add.accumulate(a)[-1]`` adds in the same order.
    """
    return reduce(add, values, 0)


def group_label(parent_id: str | None) -> str:
    """How messages name the sibling group under ``parent_id``."""
    return "the dimension group" if parent_id is None else f"children of {parent_id}"


def weight_sum_problem(parent_id: str | None, local_weights: Sequence[float]) -> str | None:
    """Why a core sibling group's local weights do not sum to 1; None if they do or it is empty."""
    total = ordered_sum(local_weights)
    if not local_weights or abs(total - 1.0) <= WEIGHT_SUM_TOL:
        return None
    return f"local weights of {group_label(parent_id)} sum to {total!r}, expected 1"


@dataclass(frozen=True)
class ExpertProfile:
    """One panel expert: identity group plus the self-assessment inputs."""

    id: str
    identity_group: IdentityGroup
    familiarity: Familiarity
    judgment_basis: Mapping[JudgmentBasis, Impact]

    def __post_init__(self):
        basis = dict(self.judgment_basis)
        missing = [b.value for b in JudgmentBasis if b not in basis]
        if missing or len(basis) != len(JudgmentBasis):
            extra = sorted(str(k) for k in basis if k not in set(JudgmentBasis))
            detail = []
            if missing:
                detail.append(f"missing bases: {', '.join(missing)}")
            if extra:
                detail.append(f"unknown bases: {', '.join(extra)}")
            raise InvalidInputError(f"expert {self.id}: judgment_basis must cover all four bases exactly once"
                                    + (f" ({'; '.join(detail)})" if detail else ""))
        # In JudgmentBasis order, the order in which Ca adds an expert's bases.
        object.__setattr__(self, "judgment_basis", {b: basis[b] for b in JudgmentBasis})


def _row_numbers(ids: tuple[str, ...]) -> dict[str, int]:
    """Each of ``ids`` -> its position; an id given twice is an error."""
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) != len(ids):  # a repeated id keeps its last position
        raise InvalidInputError(f"repeated row id {next(i for n, i in enumerate(ids) if row_of[i] != n)!r}")
    return row_of


class ExpertPanel(Sequence):
    """Expert profiles as one read-only ``int8`` code matrix, read back one ExpertProfile at a time.

    ``ids`` holds the distinct expert ids in row order (a mapping gives its keys); ``row_of``, built on
    first use, maps each to its row number, and a repeated id fails there. Column j holds a value of
    ``ENUMS[j]`` as its position there: the four bases' impacts in JudgmentBasis order, group, familiarity.
    """

    ENUMS = (Impact,) * len(JudgmentBasis) + (IdentityGroup, Familiarity)

    def __init__(self, ids: Iterable[str], codes: np.ndarray):
        self.ids = tuple(ids)
        if codes.shape != (len(self.ids), len(self.ENUMS)):
            raise InvalidInputError(f"code matrix of shape {codes.shape} for {len(self.ids)} experts")
        codes.flags.writeable = False
        self.codes = codes

    @cached_property
    def row_of(self) -> dict[str, int]:
        return _row_numbers(self.ids)

    @classmethod
    def of(cls, profiles: Sequence[ExpertProfile]) -> "ExpertPanel":
        """``profiles`` as a panel (a panel as it is); two profiles may not share an id."""
        if isinstance(profiles, ExpertPanel):
            return profiles
        import numpy as np

        code_of = [{m: i for i, m in enumerate(e)} for e in cls.ENUMS]
        row_of: dict[str, int] = {}
        codes: list[list[int]] = []
        for p in profiles:
            if row_of.setdefault(p.id, len(codes)) != len(codes):
                raise InvalidInputError(f"two expert profiles with id {p.id!r}")
            values = [*p.judgment_basis.values(), p.identity_group, p.familiarity]
            try:
                codes.append(list(map(dict.__getitem__, code_of, values)))
            except KeyError as exc:
                raise InvalidInputError(f"expert {p.id}: {exc.args[0]!r} is not a value of its field") from None
        return cls(row_of, np.array(codes, dtype=np.int8).reshape(-1, len(cls.ENUMS)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        *basis, group, familiarity = (list(e)[c] for e, c in zip(self.ENUMS, self.codes[i].tolist()))
        return ExpertProfile(id=self.ids[i], identity_group=group, familiarity=familiarity,
                             judgment_basis=dict(zip(JudgmentBasis, basis)))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class RatingRound:
    """One Delphi consultation round.

    ``ratings`` holds one complete row per responding expert, stored as a
    read-only :class:`RowMatrix`: experts x ``indicator_ids`` integers, each
    row read back as a tuple. Experts who did not return a usable
    questionnaire appear in ``non_respondents`` and count toward
    ``distributed`` only. A plain mapping of rows is checked cell by cell and
    converted; a RowMatrix (from the parser) gets one vectorised range check
    and is kept as it is.
    """

    round_no: int
    scale_max: int
    distributed: int
    indicator_ids: tuple[str, ...]
    ratings: Mapping[str, tuple[int, ...]]
    non_respondents: tuple[str, ...] = ()

    def __post_init__(self):
        if self.round_no < 1:
            raise InvalidInputError(f"round_no must be positive, got {self.round_no}")
        if self.scale_max < 1:
            raise InvalidInputError(f"scale_max must be positive, got {self.scale_max}")
        ids = tuple(self.indicator_ids)
        if len(set(ids)) != len(ids):
            raise InvalidInputError("indicator ids must be unique")
        object.__setattr__(self, "indicator_ids", ids)
        object.__setattr__(self, "non_respondents", tuple(self.non_respondents))
        rows = _checked_rows(self.ratings, ids, _RATING_MESSAGES, 1, self.scale_max,
                             rating_dtype(self.scale_max))
        if self.distributed < len(rows):
            raise InvalidInputError(
                f"{len(rows)} responding experts exceed {self.distributed} distributed questionnaires"
            )
        object.__setattr__(self, "ratings", rows)

    @property
    def returned(self) -> int:
        return len(self.ratings)


@dataclass(frozen=True)
class ScreeningThresholds:
    """Retention cutoffs for one round's indicator screening."""

    mean_floor: float
    fsf_floor: float
    cv_ceiling: float

    def __post_init__(self):
        for label, v in (("mean_floor", self.mean_floor), ("fsf_floor", self.fsf_floor),
                         ("cv_ceiling", self.cv_ceiling)):
            if not math.isfinite(v):
                raise InvalidInputError(f"{label} must be finite, got {v!r}")
        if not 0.0 <= self.fsf_floor <= 1.0:
            raise InvalidInputError(f"fsf_floor {self.fsf_floor!r} outside [0, 1]")
        if self.cv_ceiling < 0:
            raise InvalidInputError(f"cv_ceiling {self.cv_ceiling!r} must be non-negative")


@dataclass(frozen=True)
class Question:
    """One questionnaire question with its response range."""

    id: str
    text: str
    min_value: int = RESPONSE_MIN
    max_value: int = RESPONSE_MAX


@dataclass(frozen=True)
class Instrument:
    """A questionnaire definition: indices, their questions, and bonus indicators.

    ``indices`` keeps the presentation order; every question belongs to
    exactly one index, and every index maps to one dimension.
    """

    indices: tuple[tuple[str, tuple[str, ...]], ...]
    questions: tuple[Question, ...]
    dimension_of: Mapping[str, str]
    bonus_indicators: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices",
                           tuple((idx, tuple(qids)) for idx, qids in self.indices))
        object.__setattr__(self, "questions", tuple(self.questions))
        object.__setattr__(self, "dimension_of", dict(self.dimension_of))
        object.__setattr__(self, "bonus_indicators",
                           tuple((bid, bname) for bid, bname in self.bonus_indicators))

        owner: dict[str, str] = {}
        for index_id, qids in self.indices:
            if index_id not in self.dimension_of:
                raise InvalidInputError(f"index {index_id}: no dimension assigned")
            for qid in qids:
                if qid in owner:
                    raise InvalidInputError(f"question {qid} assigned to both {owner[qid]} and {index_id}")
                owner[qid] = index_id
        known = {q.id for q in self.questions}
        if len(known) != len(self.questions):
            raise InvalidInputError("duplicate question ids")
        unassigned = known - set(owner)
        unknown = set(owner) - known
        if unassigned:
            raise InvalidInputError(f"questions not assigned to any index: {sorted(unassigned)}")
        if unknown:
            raise InvalidInputError(f"indices reference undefined questions: {sorted(unknown)}")

    @property
    def question_ids(self) -> tuple[str, ...]:
        return tuple(q.id for q in self.questions)

    def questions_of(self, index_id: str) -> tuple[str, ...]:
        for idx, qids in self.indices:
            if idx == index_id:
                return qids
        raise InvalidInputError(f"unknown index {index_id!r}")

    def dimensions(self) -> tuple[str, ...]:
        """Dimension ids in first-appearance order."""
        out: list[str] = []
        for index_id, _ in self.indices:
            dim = self.dimension_of[index_id]
            if dim not in out:
                out.append(dim)
        return tuple(out)

    def indices_of_dimension(self, dimension_id: str) -> tuple[str, ...]:
        return tuple(idx for idx, _ in self.indices if self.dimension_of[idx] == dimension_id)

    @property
    def bonus_ids(self) -> tuple[str, ...]:
        return tuple(bid for bid, _ in self.bonus_indicators)


def _answer_row(row: list[int]) -> tuple[int | None, ...]:
    return tuple(None if v == MISSING else v for v in row)


class RowMatrix(Mapping):
    """Read-only rows of one matrix, keyed by id and read back one row at a time.

    ``ids`` holds the distinct row ids in row order (a mapping gives its keys);
    ``row_of``, built on the first lookup by id, maps each to its row number;
    a repeated id fails there. ``read`` turns one row, as a list, into the
    mapping's value. The object takes ownership of ``matrix`` and marks it
    read-only. By default the rows are answers: an ``int8`` matrix whose
    ``MISSING`` (-1) cells read back as ``None``.
    """

    def __init__(self, ids: Iterable[str], matrix: np.ndarray,
                 read: Callable[[list], Any] = _answer_row):
        self.ids = tuple(ids)
        if matrix.ndim != 2 or len(matrix) != len(self.ids):
            raise InvalidInputError(f"matrix of shape {matrix.shape} for {len(self.ids)} row ids")
        matrix.flags.writeable = False
        self.matrix = matrix
        self._read = read

    @cached_property
    def row_of(self) -> dict[str, int]:
        return _row_numbers(self.ids)

    def __getitem__(self, key: str):
        return self._read(self.matrix[self.row_of[key]].tolist())

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"RowMatrix({len(self.ids)} rows x {self.matrix.shape[1]} columns)"


def rating_dtype(scale_max: int) -> str:
    """The matrix dtype name of ratings 1..scale_max: "int8" where it holds them, else "int64"."""
    if scale_max > 2**63 - 1:
        raise InvalidInputError(f"scale_max {scale_max} is too large")
    return "int8" if scale_max <= 127 else "int64"


# (cell error, row-length error) for each kind of rows a RowMatrix is checked for.
_RATING_MESSAGES = (
    "expert {key}, indicator {column}: rating {value!r} outside [{lo}, {hi}]",
    "expert {key}: {n} ratings for {k} indicators",
)
_CONSUMER_MESSAGES = (
    "respondent {key}, question {column}: answer {value!r} outside [{lo}, {hi}]",
    "respondent {key}: {n} answers for {k} questions",
)
_BONUS_MESSAGES = (
    "expert {key}, bonus indicator {column}: rating {value!r} outside [{lo}, {hi}]",
    "expert {key}: {n} bonus ratings for {k} indicators",
)


def _checked_rows(rows, columns: tuple[str, ...], messages: tuple[str, str], lo: int, hi: int,
                  dtype: str = "int8", allow_missing: bool = False) -> RowMatrix:
    """``rows`` as a checked RowMatrix over ``columns`` of integers in [lo, hi].

    A RowMatrix of ``dtype`` is checked with one vectorised range test and
    kept; any other mapping (or iterable of pairs) is converted cell by cell
    into an answer RowMatrix, with ``None`` stored as ``MISSING`` where
    ``allow_missing``. Either way the first offending cell in row-major order
    is the one reported.
    """
    import numpy as np

    cell_error, length_error = messages

    def fail(key, column, value):
        return InvalidInputError(cell_error.format(key=key, column=column, value=value,
                                                   lo=lo, hi=hi))

    if isinstance(rows, RowMatrix) and rows.matrix.dtype == dtype:
        matrix = rows.matrix
        if matrix.shape[1] != len(columns):
            raise InvalidInputError(f"matrix has {matrix.shape[1]} columns, expected "
                                    f"{len(columns)}")
        low = MISSING if allow_missing else lo
        if matrix.size and (matrix.min() < low or matrix.max() > hi):
            r, c = np.argwhere((matrix < low) | (matrix > hi))[0].tolist()
            raise fail(rows.ids[r], columns[c], int(matrix[r, c]))
        return rows

    ids: list[str] = []
    codes: list[int] = []
    for key, row in dict(rows).items():
        row = tuple(row)
        if len(row) != len(columns):
            raise InvalidInputError(length_error.format(key=key, n=len(row), k=len(columns)))
        for column, value in zip(columns, row):
            if value is None and allow_missing:
                codes.append(MISSING)
            elif type(value) is int and lo <= value <= hi:
                codes.append(value)
            else:
                raise fail(key, column, value)
        ids.append(key)
    matrix = np.array(codes, dtype=dtype).reshape(len(ids), len(columns))
    return RowMatrix(ids, matrix)


@dataclass(frozen=True)
class ResponseSet:
    """Collected answers: consumer questionnaire rows plus expert bonus ratings.

    Both are stored as an answer :class:`RowMatrix`: ``consumer`` is respondents x
    ``question_ids`` with ``MISSING`` (-1) for a blank answer, read back as
    ``None``; ``expert_bonus`` is experts x ``bonus_ids`` and has no blanks.
    A plain mapping of rows is checked cell by cell and converted; a matrix
    (from the parser, or reused by ``with_bonus``) gets one vectorised range
    check and is kept as it is, never re-read row by row.
    """

    question_ids: tuple[str, ...]
    consumer: Mapping[str, tuple[int | None, ...]]
    bonus_ids: tuple[str, ...] = ()
    expert_bonus: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        qids = tuple(self.question_ids)
        object.__setattr__(self, "question_ids", qids)
        object.__setattr__(self, "consumer", _checked_rows(
            self.consumer, qids, _CONSUMER_MESSAGES, RESPONSE_MIN, RESPONSE_MAX, allow_missing=True))
        bids = tuple(self.bonus_ids)
        object.__setattr__(self, "bonus_ids", bids)
        object.__setattr__(self, "expert_bonus", _checked_rows(
            self.expert_bonus, bids, _BONUS_MESSAGES, RESPONSE_MIN, RESPONSE_MAX))

    @property
    def respondents(self) -> tuple[str, ...]:
        return self.consumer.ids

    @property
    def complete_mask(self) -> np.ndarray:
        """One bool per respondent: True when every question is answered."""
        return (self.consumer.matrix != MISSING).all(axis=1)

    def missing_cells(self) -> tuple[tuple[str, str], ...]:
        """(respondent_id, question_id) pairs with no answer, in row-major order."""
        import numpy as np

        rows, cols = np.divmod(np.flatnonzero(self.consumer.matrix == MISSING), len(self.question_ids))
        ids, qids = self.consumer.ids, self.question_ids
        return tuple(zip(map(ids.__getitem__, rows.tolist()), map(qids.__getitem__, cols.tolist())))

    def with_bonus(self, bonus_ids: Sequence[str], expert_bonus: Mapping[str, Sequence[int]]) -> "ResponseSet":
        return ResponseSet(
            question_ids=self.question_ids,
            consumer=self.consumer,
            bonus_ids=tuple(bonus_ids),
            expert_bonus=expert_bonus,
        )
