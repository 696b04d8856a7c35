"""Weighted scoring of one piece of software against the instrument.

Consumer answers (0-4) are normalized to [0,1], averaged into index scores,
weighted into 0-100 dimension scores, and combined with the dimension weights
into the core composite. The expert bonus is a separate additive component
with a configurable positive finite cap, reported both raw (0 to 100+cap) and
rescaled back to a 0-100 range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ahp import WeightTable
from .errors import (
    DegenerateDataError,
    IncompleteWeightsError,
    InvalidInputError,
)
from .model import MISSING, Instrument, ResponseSet, RowMatrix, ordered_sum

DEFAULT_BONUS_CAP = 10.0
_TOL = 1e-9


@dataclass(frozen=True)
class ConsumerScores:
    """Dimension/index scores (0-100) per respondent and pooled.

    ``per_respondent`` reads each respondent's dimension scores, as a dict,
    from one respondents x dimensions matrix when it is looked up.
    """

    per_respondent: Mapping[str, Mapping[str, float]]
    pooled_dimensions: Mapping[str, float]
    pooled_indices: Mapping[str, float]
    imputed: tuple[tuple[str, str], ...]  # (respondent_id, question_id)


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
    imputed: tuple[tuple[str, str], ...]


def _local_weights(weights: WeightTable | Mapping[str, float]) -> Mapping[str, float]:
    return weights.local_weights if isinstance(weights, WeightTable) else weights


def score_consumer(
    responses: ResponseSet,
    instrument: Instrument,
    weights: WeightTable | Mapping[str, float],
) -> ConsumerScores:
    """Score every respondent and pool the results.

    A missing answer is imputed with the mean of that question's present
    answers (and recorded in ``imputed``); a dimension score is
    100 * sum over its indices of local_weight * mean question score.

    The work is column-wise on the respondents x questions answer matrix,
    in the float order of a per-respondent loop, so results are bit-for-bit
    those of that loop: a question mean is an integer sum divided by a count;
    an index score adds its question columns left to right, then divides; a
    dimension starts at 0.0 and adds local weight x index score per index;
    sums over respondents add in respondent order, as ``ordered_sum`` does
    (``ndarray.sum`` adds pairwise and would move the last bit).
    """
    if not responses.consumer:
        raise InvalidInputError("no respondents to score")
    local = _local_weights(weights)
    for dim in instrument.dimensions():
        if dim not in local:
            raise IncompleteWeightsError(f"no local weight for dimension {dim}")
        for idx in instrument.indices_of_dimension(dim):
            if idx not in local:
                raise IncompleteWeightsError(f"no local weight for index {idx}")

    question_ids = responses.question_ids
    answers = np.ascontiguousarray(responses.consumer.matrix.T)  # one row per question
    blank = answers == MISSING
    n_blank = np.count_nonzero(blank, axis=1)
    counts = (len(responses.consumer) - n_blank).tolist()
    sums = (answers.sum(axis=1, dtype=np.int64) - MISSING * n_blank).tolist()
    for qid, count in zip(question_ids, counts):
        if not count:
            raise DegenerateDataError(f"question {qid} has no answers at all; cannot impute")

    # Normalized answers per question, blanks imputed with the question mean.
    means = np.array([s / c for s, c in zip(sums, counts)])
    max_of = {q.id: q.max_value for q in instrument.questions}
    maxima = np.array([float(max_of[qid]) for qid in question_ids])
    normalized = np.where(blank, means[:, None], answers)
    normalized /= maxima[:, None]
    norm = dict(zip(question_ids, normalized))
    del answers, blank  # 4 MB at 100k respondents, freed before the index sums peak

    index_scores: dict[str, np.ndarray] = {}
    dim_scores: dict[str, np.ndarray] = {}
    for dim in instrument.dimensions():
        acc = 0.0
        for idx in instrument.indices_of_dimension(dim):
            qids = instrument.questions_of(idx)
            index_scores[idx] = sum(norm[q] for q in qids) / len(qids)
            acc = acc + local[idx] * index_scores[idx]
        dim_scores[dim] = 100.0 * acc

    def total(scores: np.ndarray) -> float:
        return float(np.add.accumulate(scores)[-1])  # in order, as ordered_sum

    n = len(responses.consumer)
    dims = tuple(dim_scores)
    return ConsumerScores(
        per_respondent=RowMatrix(responses.consumer.ids,
                                 np.column_stack(list(dim_scores.values())),
                                 lambda row: dict(zip(dims, row))),
        pooled_dimensions={dim: total(s) / n for dim, s in dim_scores.items()},
        pooled_indices={idx: 100.0 * total(index_scores[idx]) / n for idx, _ in instrument.indices},
        imputed=responses.missing_cells(),
    )


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
    imputed: tuple[tuple[str, str], ...] = (),
) -> ScoreCard:
    """Combine dimension scores and the bonus into the final scorecard."""
    missing = [d for d in core if d not in dim_weights]
    if missing:
        raise IncompleteWeightsError(f"no weight for dimension(s) {', '.join(sorted(missing))}")
    extra = [d for d in dim_weights if d not in core]
    if extra:
        raise InvalidInputError(f"weights given for unknown dimension(s) {', '.join(sorted(extra))}")
    if not all(map(math.isfinite, (*core.values(), *dim_weights.values()))):
        raise InvalidInputError("dimension scores and weights must be finite numbers")
    total_w = ordered_sum(dim_weights.values())
    if abs(total_w - 1.0) > _TOL:
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
        imputed=imputed,
    )


def score_software(
    responses: ResponseSet,
    instrument: Instrument,
    weights: WeightTable | Mapping[str, float],
    *,
    bonus_cap: float = DEFAULT_BONUS_CAP,
) -> ScoreCard:
    """End-to-end scoring: consumer composite plus expert bonus (when present)."""
    consumer = score_consumer(responses, instrument, weights)
    local = _local_weights(weights)
    dim_weights = {dim: local[dim] for dim in instrument.dimensions()}
    bonus = (
        score_expert_bonus(responses.expert_bonus, bonus_cap)
        if responses.expert_bonus
        else 0.0
    )
    return composite(
        consumer.pooled_dimensions,
        dim_weights,
        bonus,
        cap=bonus_cap,
        n_respondents=len(responses.consumer),
        imputed=consumer.imputed,
    )


def question_proportional_weights(instrument: Instrument) -> dict[str, float]:
    """Local weights that give every question the same influence on the composite.

    Each dimension's weight is its share of the questionnaire's questions and
    each index's local weight is its share of the dimension's questions, so
    the composite reduces to the plain mean of all normalized question scores
    (times 100). This is the neutral "no expert weighting" configuration.
    """
    total = len(instrument.questions)
    if total == 0:
        raise InvalidInputError("instrument has no questions")
    out: dict[str, float] = {}
    for dim in instrument.dimensions():
        indices = instrument.indices_of_dimension(dim)
        dim_total = sum(len(instrument.questions_of(idx)) for idx in indices)
        out[dim] = dim_total / total
        for idx in indices:
            out[idx] = len(instrument.questions_of(idx)) / dim_total
    return out
