"""Reliability (Cronbach's alpha, corrected item-total correlation, alpha-if-deleted)
and content validity (I-CVI, S-CVI) with the instrument's thresholds and flags.

Conventions: sample (n-1) variances throughout; negative alphas are reported
as-is; a respondent with any missing answer is excluded from reliability.
Alpha, CITC and alpha-if-deleted are read off one k x k covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, InvalidInputError
from .model import Instrument, ResponseSet, ordered_sum

CITC_FLOOR = 0.3  # items below this corrected item-total correlation get flagged
ICVI_FLOOR = 0.78
SCVI_FLOOR = 0.90
RELEVANCE_FLOOR = 5  # on the 1-7 importance scale, >= 5 counts as relevant
_GRAM_ROWS = 8192  # rows of one block of XᵀX, as float32 or float64: at most 1.4 MB at 21 questions


def _as_matrix(scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"scores must be a 2-D respondent x item matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("scores matrix contains missing or non-finite values")
    return arr


def _co_deviations(arr: np.ndarray, keep: np.ndarray | None = None) -> list[list]:
    """A k x k matrix proportional to the sample covariances of the n x k matrix ``arr``,
    or of its rows where ``keep`` holds.

    Integer scores with n * max|x|**2 below 2**53 give n * XᵀX - s * sᵀ (``s`` the
    column sums) exactly, as Python ints. XᵀX and s = 1ᵀX are summed as integers
    over the kept rows of blocks of ``_GRAM_ROWS`` rows, each block's float
    products at a time: every partial sum of a block's product is an integer
    below 2**24 (float32) or 2**53 (float64), so it is exact under every BLAS
    kernel, and the integer totals cannot overflow. Other real scores give the
    float cross-products of the centred columns, each summed by numpy, not BLAS.
    max|x| is taken over every row, kept or not: a bound on the kept rows'.
    """
    n = len(arr) if keep is None else int(np.count_nonzero(keep))
    if n < 2:
        raise InsufficientDataError(f"need >= 2 respondents, got {n}")
    peak = max(float(arr.max(initial=0)), -float(arr.min(initial=0)))
    if n * peak * peak < 2**53 and (arr.dtype.kind in "iu" or np.array_equal(arr, np.trunc(arr))):
        dtype = np.float32 if _GRAM_ROWS * peak * peak < 2**24 else np.float64
        sums, gram = 0, 0
        for first in range(0, len(arr), _GRAM_ROWS):
            x = arr[first:first + _GRAM_ROWS]
            x = (x if keep is None else x[keep[first:first + _GRAM_ROWS]]).astype(dtype, copy=False)
            sums, gram = sums + (np.ones(len(x), dtype) @ x).astype(np.int64), gram + (x.T @ x).astype(np.int64)
        sums = sums.tolist()
        return [[n * g - si * sj for g, sj in zip(row, sums)] for row, si in zip(gram.tolist(), sums)]
    if keep is not None:
        arr = arr[keep]
    dev = (arr - arr.mean(axis=0)).T
    return [[float((a * b).sum()) for b in dev] for a in dev]


def _block_total(cov: list[list], rows: Sequence[int], cols: Sequence[int]):
    return ordered_sum(cov[i][j] for i in rows for j in cols)


def _alpha(cov: list[list], cols: Sequence[int]) -> float:
    """Alpha of the items ``cols``: k/(k-1) * (1 - sum of item variances / total variance)."""
    k = len(cols)
    if k < 2:
        raise InsufficientDataError(f"need >= 2 items, got {k}")
    total = _block_total(cov, cols, cols)
    if total <= 0:  # below zero only by float rounding of a zero variance
        raise DegenerateDataError("total-score variance is zero; alpha is undefined")
    return k * (total - ordered_sum(cov[i][i] for i in cols)) / ((k - 1) * total)


def _citc(cov: list[list], cols: Sequence[int], item: int) -> float:
    """Correlation of item ``item`` with the sum of the other items of ``cols``."""
    rest = [c for c in cols if c != item]
    cross = _block_total(cov, [item], rest)
    den = cov[item][item] * _block_total(cov, rest, rest)
    if den <= 0:  # below zero only by float rounding of a zero variance
        raise DegenerateDataError(
            "constant item or constant rest-score; correlation is undefined"
        )
    return math.copysign(math.sqrt(cross * cross / den), cross)


def cronbach_alpha(scores) -> float:
    """Internal-consistency alpha: k/(k-1) * (1 - sum of item variances / total variance)."""
    arr = _as_matrix(scores)
    return _alpha(_co_deviations(arr), range(arr.shape[1]))


def corrected_item_total(scores, item: int) -> float:
    """Pearson correlation of one item with the sum of all other items."""
    arr = _as_matrix(scores)
    k = arr.shape[1]
    if not 0 <= item < k:
        raise InvalidInputError(f"item index {item} outside 0..{k - 1}")
    if k < 2:
        raise InsufficientDataError("need >= 2 items for an item-rest correlation")
    return _citc(_co_deviations(arr), range(k), item)


def alpha_if_deleted(scores, item: int) -> float:
    """Alpha of the matrix with one item column removed (needs >= 3 items)."""
    arr = _as_matrix(scores)
    k = arr.shape[1]
    if k < 3:
        raise InsufficientDataError(
            f"alpha-if-deleted needs >= 3 items (deleting one of {k} leaves a single column)"
        )
    if not 0 <= item < k:
        raise InvalidInputError(f"item index {item} outside 0..{k - 1}")
    return _alpha(_co_deviations(arr), [c for c in range(k) if c != item])


def i_cvi(ratings: Sequence[int], relevance_floor: int = RELEVANCE_FLOOR) -> float:
    """Fraction of raters scoring the item at or above the relevance floor."""
    if len(ratings) == 0:
        raise InvalidInputError("no ratings given")
    for rater, r in enumerate(ratings, start=1):
        r = r.item() if isinstance(r, np.number) else r  # a numpy number is checked and named as Python's
        # bool is an int subclass: True would otherwise pass as the rating 1
        if isinstance(r, bool) or not isinstance(r, int) or not 1 <= r <= 7:
            raise InvalidInputError(f"rater {rater}: importance rating {r!r} outside 1..7")
    return sum(1 for r in ratings if r >= relevance_floor) / len(ratings)


def s_cvi(i_cvis: Sequence[float]) -> float:
    """Scale-level content validity: the mean of the item-level indices."""
    if len(i_cvis) == 0:
        raise InvalidInputError("no item-level indices given")
    for v in i_cvis:
        v = v.item() if isinstance(v, np.number) else v
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"I-CVI {v!r} outside [0, 1]")
    return float(ordered_sum(i_cvis)) / len(i_cvis)


@dataclass(frozen=True)
class IndexReliability:
    index_id: str
    n_questions: int
    alpha: float | None
    note: str | None = None


@dataclass(frozen=True)
class QuestionReliability:
    question_id: str
    index_id: str
    citc: float | None
    alpha_if_deleted: float | None  # None for 2-question indices (not applicable)
    flagged: bool  # True iff citc is defined and below CITC_FLOOR
    note: str | None = None


@dataclass(frozen=True)
class ReliabilityTable:
    n_respondents: int  # complete respondents entering the computation
    n_excluded: int  # respondents dropped for missing answers
    total_alpha: float
    indices: tuple[IndexReliability, ...]
    questions: tuple[QuestionReliability, ...]


def reliability_report(responses: ResponseSet, instrument: Instrument) -> ReliabilityTable:
    """Per-index and total alpha plus per-question CITC / alpha-if-deleted.

    Statistics are computed per index (CITC pairs a question with the rest of
    its own index; alpha-if-deleted only where the index keeps >= 2 questions
    after deletion). Index-level degeneracies are reported inline as notes
    rather than aborting the table. Every statistic comes from one exact integer
    covariance matrix of the complete respondents, with one rounding division
    (and one square root for CITC), so a zero variance is an exact zero.
    """
    if tuple(responses.question_ids) != instrument.question_ids:
        raise InvalidInputError("response columns do not match the instrument's questions")
    complete = responses.complete_mask
    n_complete = int(complete.sum())
    if n_complete < 2:
        raise InsufficientDataError(
            f"need >= 2 complete respondents, got {n_complete}"
        )
    cov = _co_deviations(responses.consumer.matrix, complete)  # exact: answers are 0..4
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}

    total_alpha = _alpha(cov, range(len(cov)))

    def noted(statistic, *args) -> tuple[float | None, str | None]:
        """The statistic and no note, or no statistic and the note of why it is undefined."""
        try:
            return statistic(cov, *args), None
        except DegenerateDataError as exc:
            return None, str(exc)

    index_rows: list[IndexReliability] = []
    question_rows: list[QuestionReliability] = []
    for index_id, qids in instrument.indices:
        cols = [col_of[q] for q in qids]
        k = len(qids)
        alpha, note = (None, "single question; alpha not applicable") if k < 2 else noted(_alpha, cols)
        index_rows.append(IndexReliability(index_id=index_id, n_questions=k, alpha=alpha, note=note))

        for col, qid in zip(cols, qids):
            citc, q_note = ((None, "single question; item-rest correlation not applicable") if k < 2
                            else noted(_citc, cols, col))
            aid, aid_note = noted(_alpha, [c for c in cols if c != col]) if k >= 3 else (None, None)
            question_rows.append(QuestionReliability(
                question_id=qid,
                index_id=index_id,
                citc=citc,
                alpha_if_deleted=aid,
                flagged=citc is not None and citc < CITC_FLOOR,
                note="; ".join(n for n in (q_note, aid_note) if n) or None,
            ))

    return ReliabilityTable(
        n_respondents=n_complete,
        n_excluded=len(responses.consumer) - n_complete,
        total_alpha=total_alpha,
        indices=tuple(index_rows),
        questions=tuple(question_rows),
    )


@dataclass(frozen=True)
class ItemValidity:
    item_id: str
    importance_mean: float
    i_cvi: float
    passes: bool


@dataclass(frozen=True)
class ValidityTable:
    n_raters: int
    relevance_floor: int
    items: tuple[ItemValidity, ...]
    s_cvi: float
    s_cvi_passes: bool


def validity_report(item_ids: Sequence[str], ratings: Sequence[Sequence[int]]) -> ValidityTable:
    """Content validity from a complete rater x item importance matrix (1-7); no item id may repeat.

    An integer ndarray (as from :func:`stagekit.io.parse_importance`) gets one vectorised range
    check, other rows a check cell by cell; either reports the first bad cell by item, then rater.
    """
    ids = tuple(item_ids)
    if not ids:
        raise InvalidInputError("no items given")
    if len(set(ids)) != len(ids):
        raise InvalidInputError(f"item {next(i for i in ids if ids.count(i) > 1)!r} given twice")
    int_matrix = isinstance(ratings, np.ndarray) and ratings.ndim == 2 and ratings.dtype.kind in "iu"
    rows = ratings if int_matrix else [tuple(row) for row in ratings]
    if not len(rows):
        raise InvalidInputError("need at least one rater")
    for row in rows[:1] if int_matrix else rows:
        if len(row) != len(ids):
            raise InvalidInputError(f"rater row has {len(row)} ratings for {len(ids)} items")
    if not int_matrix:
        for j, item_id in enumerate(ids):
            try:
                i_cvi([row[j] for row in rows])  # checks every rating of the item
            except InvalidInputError as exc:
                raise InvalidInputError(f"item {item_id}, {exc}") from None
        rows = np.array(rows, dtype=np.int8)
    bad = (rows < 1) | (rows > 7)
    if bad.any():
        j, i = np.argwhere(bad.T)[0].tolist()
        raise InvalidInputError(f"item {ids[j]}, rater {i + 1}: importance rating "
                                f"{rows[i, j].item()!r} outside 1..7")
    n = len(rows)
    sums = rows.sum(axis=0, dtype=np.int64).tolist()  # exact, so a mean is the one np.mean gives
    relevant = np.count_nonzero(rows >= RELEVANCE_FLOOR, axis=0).tolist()
    items = tuple(ItemValidity(item_id=item_id, importance_mean=total / n, i_cvi=count / n,
                               passes=count / n >= ICVI_FLOOR)
                  for item_id, total, count in zip(ids, sums, relevant))
    scale = s_cvi([it.i_cvi for it in items])
    return ValidityTable(
        n_raters=n,
        relevance_floor=RELEVANCE_FLOOR,
        items=items,
        s_cvi=scale,
        s_cvi_passes=scale >= SCVI_FLOOR,
    )
