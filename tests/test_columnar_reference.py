"""Row-by-row references for the column-wise scoring and reliability code.

``reference_score_consumer`` and ``reference_reliability_report`` are the
per-respondent loops that ``score_consumer`` and ``reliability_report`` ran
before consumer answers were stored as one matrix. They reach the answers
only through the ``ResponseSet.consumer`` mapping. The column-wise code keeps
the loops' order of float operations, so the property below demands exact
equality, with no tolerance.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagekit import (
    DegenerateDataError,
    InsufficientDataError,
    Instrument,
    Question,
    ResponseSet,
    StagekitError,
    load_default_instrument,
    reliability_report,
    score_consumer,
)
from stagekit.psychometrics import (
    CITC_FLOOR,
    IndexReliability,
    QuestionReliability,
    ReliabilityTable,
    alpha_if_deleted,
    corrected_item_total,
    cronbach_alpha,
)


def reference_score_consumer(responses, instrument, local):
    """The per-cell scoring loop: column-mean imputation, then index and dimension sums."""
    max_of = {q.id: q.max_value for q in instrument.questions}
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}

    q_mean = {}
    for qid in responses.question_ids:
        present = [row[col_of[qid]] for row in responses.consumer.values()
                   if row[col_of[qid]] is not None]
        if not present:
            raise DegenerateDataError(f"question {qid} has no answers at all; cannot impute")
        q_mean[qid] = sum(present) / len(present)

    imputed = tuple((rid, qid) for rid, row in responses.consumer.items()
                    for qid, value in zip(responses.question_ids, row) if value is None)
    per_respondent = {}
    index_accum = {idx: 0.0 for idx, _ in instrument.indices}
    for rid, row in responses.consumer.items():
        norm = {}
        for qid in responses.question_ids:
            value = row[col_of[qid]]
            if value is None:
                value = q_mean[qid]
            norm[qid] = value / max_of[qid]
        dims = {}
        for dim in instrument.dimensions():
            acc = 0.0
            for idx in instrument.indices_of_dimension(dim):
                qids = instrument.questions_of(idx)
                idx_score = sum(norm[q] for q in qids) / len(qids)
                index_accum[idx] += idx_score
                acc += local[idx] * idx_score
            dims[dim] = 100.0 * acc
        per_respondent[rid] = dims

    n = len(per_respondent)
    pooled_dims = {
        dim: sum(scores[dim] for scores in per_respondent.values()) / n
        for dim in instrument.dimensions()
    }
    pooled_indices = {idx: 100.0 * total / n for idx, total in index_accum.items()}
    return per_respondent, pooled_dims, pooled_indices, imputed


def reference_reliability_report(responses, instrument):
    """Complete respondents picked row by row, then the per-index statistics."""
    complete = tuple(rid for rid, row in responses.consumer.items()
                     if all(v is not None for v in row))
    if len(complete) < 2:
        raise InsufficientDataError(f"need >= 2 complete respondents, got {len(complete)}")
    data = np.asarray([responses.consumer[rid] for rid in complete], dtype=float)
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}

    total_alpha = cronbach_alpha(data)
    index_rows = []
    question_rows = []
    for index_id, qids in instrument.indices:
        sub = data[:, [col_of[q] for q in qids]]
        k = len(qids)
        alpha = note = None
        if k < 2:
            note = "single question; alpha not applicable"
        else:
            try:
                alpha = cronbach_alpha(sub)
            except DegenerateDataError as exc:
                note = str(exc)
        index_rows.append(IndexReliability(index_id=index_id, n_questions=k, alpha=alpha, note=note))
        for j, qid in enumerate(qids):
            citc = q_note = None
            if k < 2:
                q_note = "single question; item-rest correlation not applicable"
            else:
                try:
                    citc = corrected_item_total(sub, j)
                except DegenerateDataError as exc:
                    q_note = str(exc)
            aid = None
            if k >= 3:
                try:
                    aid = alpha_if_deleted(sub, j)
                except DegenerateDataError as exc:
                    q_note = str(exc) if q_note is None else f"{q_note}; {exc}"
            question_rows.append(QuestionReliability(
                question_id=qid, index_id=index_id, citc=citc, alpha_if_deleted=aid,
                flagged=citc is not None and citc < CITC_FLOOR, note=q_note,
            ))
    return ReliabilityTable(
        n_respondents=len(complete),
        n_excluded=len(responses.consumer) - len(complete),
        total_alpha=total_alpha,
        indices=tuple(index_rows),
        questions=tuple(question_rows),
    )


def toy_instrument():
    """Six questions in a 2-, a 1- and a 3-question index over two dimensions."""
    return Instrument(
        name="toy",
        indices=(("d1.a", ("q1", "q2")), ("d1.b", ("q3",)), ("d2.c", ("q4", "q5", "q6"))),
        questions=tuple(Question(id=f"q{i}", text=f"Question {i}") for i in range(1, 7)),
        dimension_of={"d1.a": "d1", "d1.b": "d1", "d2.c": "d2"},
        dimension_names={"d1": "Dim One", "d2": "Dim Two"},
        index_names={"d1.a": "A", "d1.b": "B", "d2.c": "C"},
    )


INSTRUMENTS = (toy_instrument(), load_default_instrument())


@st.composite
def scored_response_sets(draw):
    """(responses, instrument, local weights) with random blanks and weights."""
    instrument = draw(st.sampled_from(INSTRUMENTS))
    qids = instrument.question_ids
    n = draw(st.integers(1, 30))
    top = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=len(qids), max_size=len(qids)),
                         min_size=n, max_size=n))
    blanks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, len(qids) - 1)),
                           max_size=2 * n))
    for r, q in blanks:
        rows[r][q] = None
    ids = draw(st.lists(st.text("abcxyz0123456789", min_size=1, max_size=4),
                        min_size=n, max_size=n, unique=True))
    responses = ResponseSet(question_ids=qids, consumer=dict(zip(ids, map(tuple, rows))))
    weight = st.floats(0.0, 1.0, allow_nan=False)
    local = {key: draw(weight)
             for key in (*instrument.dimensions(), *(idx for idx, _ in instrument.indices))}
    return responses, instrument, local


def _same_outcome(reference, program):
    """Run both; they must raise the same error, or return what the caller compares."""
    try:
        expected = reference()
    except StagekitError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            program()
        return None, None
    return expected, program()


@settings(max_examples=100, deadline=None)
@given(scored_response_sets())
def test_score_consumer_equals_loop_reference(case):
    responses, instrument, local = case
    expected, got = _same_outcome(lambda: reference_score_consumer(responses, instrument, local),
                                  lambda: score_consumer(responses, instrument, local))
    if expected is None:
        return
    per_respondent, pooled_dims, pooled_indices, imputed = expected
    assert dict(got.per_respondent) == per_respondent
    assert list(got.per_respondent) == list(per_respondent)
    assert got.pooled_dimensions == pooled_dims
    assert list(got.pooled_dimensions) == list(pooled_dims)
    assert got.pooled_indices == pooled_indices
    assert list(got.pooled_indices) == list(pooled_indices)
    assert got.imputed == imputed


@settings(max_examples=100, deadline=None)
@given(scored_response_sets())
def test_reliability_report_equals_loop_reference(case):
    responses, instrument, _ = case
    expected, got = _same_outcome(lambda: reference_reliability_report(responses, instrument),
                                  lambda: reliability_report(responses, instrument))
    if expected is not None:
        assert got == expected
