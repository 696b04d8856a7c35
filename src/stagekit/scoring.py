"""Weighted scoring of one piece of software against the instrument.

Consumer answers (0-4) are normalized to [0,1], averaged into index scores,
weighted into 0-100 dimension scores, and combined with the dimension weights
into the core composite. The expert bonus is a separate additive component
with a configurable positive finite cap, reported both raw (0 to 100+cap) and
rescaled back to a 0-100 range.

A blank answer is imputed with its question's mean, so a question's mean over
every respondent, imputed cells included, is exactly its answer sum over its
answer count. Each pooled dimension score is therefore computed exactly
from those per-question integers and the exact values of the local weights,
and rounded to a float once: it is the correctly rounded value, whatever the
panel's size or order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    IncompleteWeightsError,
    InvalidInputError,
)
from .model import MISSING, WEIGHT_SUM_TOL, CellPairs, Instrument, ResponseSet, ordered_sum

DEFAULT_BONUS_CAP = 10.0
_TOL = 1e-9  # slack on the bonus range


@dataclass(frozen=True)
class ScoreCard:
    """The final verdict: weighted core composite plus expert bonus."""

    dimension_scores: Mapping[str, float]
    dimension_weights: Mapping[str, float]
    composite: float
    bonus: float
    bonus_cap: float
    final: float  # composite + bonus, range 0 .. 100 + cap
    final_rescaled: float  # final mapped back onto 0-100
    n_respondents: int
    imputed: CellPairs  # (respondent_id, question_id) of each imputed answer, held as index columns


def _weight(node: str, value) -> float:
    """A local weight as a finite float; a bool, a string or any other non-real is refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"node {node}: local weight {value!r} is not a real number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise InvalidInputError("dimension scores and weights must be finite numbers")
    return value


def _local_weights(responses: ResponseSet, instrument: Instrument,
                   local: Mapping[str, float]) -> dict[str, float]:
    """Every dimension's and index's local weight, read by ``_weight``, once there are respondents."""
    if not responses.consumer:
        raise InvalidInputError("no respondents to score")
    out: dict[str, float] = {}
    for dim in instrument.dimensions():
        for kind, node in (("dimension", dim),
                           *(("index", idx) for idx in instrument.indices_of_dimension(dim))):
            if node not in local:
                raise IncompleteWeightsError(f"no local weight for {kind} {node}")
            out[node] = _weight(node, local[node])
    return out


def _question_means(responses: ResponseSet) -> dict[str, Fraction]:
    """Each question's exact mean answer, its answer sum over its answer count.

    The sums and counts come from the answer matrix's column sums and its cached
    scan for blanks. A question nobody answered has no mean to impute with.
    """
    matrix = responses.consumer.matrix
    n_blank = np.bincount(responses.consumer.blank_cells[1], minlength=len(responses.question_ids))
    counts = (len(matrix) - n_blank).tolist()
    sums = (matrix.sum(axis=0, dtype=np.int64) - MISSING * n_blank).tolist()
    means = {}
    for qid, total, count in zip(responses.question_ids, sums, counts):
        if not count:
            raise DegenerateDataError(f"question {qid} has no answers at all; cannot impute")
        means[qid] = Fraction(total, count)
    return means


def _rounded(value: Fraction) -> float:
    """``value`` correctly rounded to a float; past the float range, an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _pooled(instrument: Instrument, local: Mapping[str, float],
            means: Mapping[str, Fraction]) -> dict[str, float]:
    """Pooled dimension scores (0-100), each the correctly rounded exact value.

    Imputed cells included, a question's mean over every respondent is its
    mean answer, so an index's mean is the mean of its questions' mean answers
    over their maxima, and a dimension score is 100 times the sum of local
    weight x index mean. ``sum`` over Fractions is exact on every Python.
    """
    max_of = {q.id: q.max_value for q in instrument.questions}
    index = {idx: sum(means[q] / max_of[q] for q in qids) / len(qids) for idx, qids in instrument.indices}
    return {dim: _rounded(100 * sum(Fraction(local[idx]) * index[idx]
                                    for idx in instrument.indices_of_dimension(dim)))
            for dim in instrument.dimensions()}


def score_expert_bonus(
    bonus: Mapping[str, Sequence[int]] | Sequence[Sequence[int]],
    cap: float = DEFAULT_BONUS_CAP,
) -> float:
    """Mean bonus rating normalized to [0,1], scaled by the cap.

    Rows are keyed by expert id, or numbered from 1 when given as a sequence.
    """
    if not 0 < cap < math.inf:  # also refuses NaN
        raise InvalidInputError(f"bonus cap must be a positive finite number, got {cap!r}")
    rows = bonus if isinstance(bonus, Mapping) else dict(enumerate(bonus, start=1))
    cells = []
    for expert, row in rows.items():
        for position, v in enumerate(row, start=1):
            v = v.item() if isinstance(v, np.number) else v  # a numpy number reads as Python's
            if type(v) is not int or not 0 <= v <= 4:
                raise InvalidInputError(
                    f"expert {expert}, bonus rating {position}: {v!r} outside [0, 4]"
                )
            cells.append(v)
    if not cells:
        raise InvalidInputError("no expert bonus ratings given")
    return (sum(cells) / len(cells)) / 4.0 * cap


def composite(
    core: Mapping[str, float],
    dim_weights: Mapping[str, float],
    bonus: float,
    *,
    cap: float = DEFAULT_BONUS_CAP,
    n_respondents: int = 0,
    imputed: CellPairs | None = None,
) -> ScoreCard:
    """Combine dimension scores and the bonus into the final scorecard; ``imputed`` defaults to no pairs."""
    missing = [d for d in core if d not in dim_weights]
    if missing:
        raise IncompleteWeightsError(f"no weight for dimension(s) {', '.join(sorted(missing))}")
    extra = [d for d in dim_weights if d not in core]
    if extra:
        raise InvalidInputError(f"weights given for unknown dimension(s) {', '.join(sorted(extra))}")
    if not all(map(math.isfinite, (*core.values(), *dim_weights.values()))):
        raise InvalidInputError("dimension scores and weights must be finite numbers")
    total_w = ordered_sum(dim_weights.values())
    if abs(total_w - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"dimension weights sum to {total_w!r}, expected 1")
    if not 0 < cap < math.inf:  # also refuses NaN
        raise InvalidInputError(f"bonus cap must be a positive finite number, got {cap!r}")
    if not -_TOL <= bonus <= cap + _TOL:
        raise InvalidInputError(f"bonus {bonus!r} outside [0, {cap}]")

    core_score = ordered_sum(dim_weights[d] * core[d] for d in core)
    final = core_score + bonus
    return ScoreCard(
        dimension_scores=dict(core),
        dimension_weights=dict(dim_weights),
        composite=core_score,
        bonus=bonus,
        bonus_cap=cap,
        final=final,
        final_rescaled=final / (100.0 + cap) * 100.0,
        n_respondents=n_respondents,
        imputed=CellPairs.of((), ()) if imputed is None else imputed,
    )


def score_software(
    responses: ResponseSet,
    instrument: Instrument,
    weights: Mapping[str, float],
    *,
    bonus_cap: float = DEFAULT_BONUS_CAP,
) -> ScoreCard:
    """End-to-end scoring: consumer composite plus expert bonus (when present).

    A blank answer is imputed with its question's mean answer (and recorded in
    ``imputed``); each dimension score is 100 * sum over its indices of
    local_weight * mean question score, pooled over the respondents.
    """
    local = _local_weights(responses, instrument, weights)
    dimension_scores = _pooled(instrument, local, _question_means(responses))
    dim_weights = {dim: local[dim] for dim in instrument.dimensions()}
    bonus = (
        score_expert_bonus(responses.expert_bonus, bonus_cap)
        if responses.expert_bonus
        else 0.0
    )
    return composite(
        dimension_scores,
        dim_weights,
        bonus,
        cap=bonus_cap,
        n_respondents=len(responses.consumer),
        imputed=responses.missing_cells(),
    )
