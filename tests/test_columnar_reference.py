"""Row-by-row references for the column-wise scoring, reliability and Delphi code.

``reference_score_consumer`` is the per-respondent scoring loop in float order,
and ``reference_reliability_report`` the loop ``reliability_report`` ran before
consumer answers were stored as one matrix; the Delphi, integer-table,
expert-panel and content-validity references are further down. They reach the answers
only through the ``ResponseSet.consumer`` mapping. ``score_software``'s pooled
dimension scores and reliability are computed from exact integer sums, so their
properties demand each value no farther from the exact value than the loop's is,
plus one unit in the last place; the pooled scores must also be the exact value
correctly rounded (``exact_pooled_scores``).
"""

import csv
import math
import re
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagekit import (
    DegenerateDataError,
    ExpertProfile,
    Familiarity,
    IdentityGroup,
    Impact,
    InsufficientDataError,
    Instrument,
    InvalidInputError,
    JudgmentBasis,
    Question,
    RatingRound,
    ResponseSet,
    SchemaError,
    StagekitError,
    kendalls_w,
    load_default_instrument,
    reliability_report,
    round_consensus,
    score_software,
    validity_report,
)
from stagekit import io as sio
from stagekit.cli import main
from stagekit.consensus import DEFAULT_CA_TABLE, DEFAULT_CS_MAP
from stagekit.io import (
    parse_expert_bonus,
    parse_experts,
    parse_importance,
    parse_ratings,
    parse_responses,
)
from stagekit.model import ordered_sum
from stagekit.psychometrics import (
    CITC_FLOOR,
    ICVI_FLOOR,
    SCVI_FLOOR,
    IndexReliability,
    ItemValidity,
    QuestionReliability,
    ReliabilityTable,
    ValidityTable,
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


def exact_pooled_scores(responses, instrument, local):
    """Pooled dimension scores as Fractions, by brute force.

    Each respondent's blanks are imputed with the exact mean of the question's
    answers, every respondent is scored in exact arithmetic (each local weight
    taken as the exact value of its float) and the scores are averaged.
    """
    max_of = {q.id: q.max_value for q in instrument.questions}
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}
    rows = list(responses.consumer.values())
    q_mean = {}
    for qid, col in col_of.items():
        present = [row[col] for row in rows if row[col] is not None]
        if not present:
            raise DegenerateDataError(f"question {qid} has no answers at all; cannot impute")
        q_mean[qid] = Fraction(sum(present), len(present))
    dim_total = {dim: Fraction(0) for dim in instrument.dimensions()}
    for row in rows:
        norm = {qid: (q_mean[qid] if row[col] is None else Fraction(row[col])) / max_of[qid]
                for qid, col in col_of.items()}
        for dim in instrument.dimensions():
            for idx in instrument.indices_of_dimension(dim):
                qids = instrument.questions_of(idx)
                dim_total[dim] += Fraction(float(local[idx])) * sum(norm[q] for q in qids) / len(qids)
    return {dim: 100 * total / len(rows) for dim, total in dim_total.items()}


def loop_alpha(arr):
    """Alpha from float item and total-score variances, as before the covariance matrix."""
    n, k = arr.shape
    if n < 2:
        raise InsufficientDataError(f"need >= 2 respondents, got {n}")
    if k < 2:
        raise InsufficientDataError(f"need >= 2 items, got {k}")
    item_vars = arr.var(axis=0, ddof=1)
    total_var = arr.sum(axis=1).var(ddof=1)
    if total_var == 0:
        raise DegenerateDataError("total-score variance is zero; alpha is undefined")
    return float(k / (k - 1) * (1.0 - item_vars.sum() / total_var))


def loop_citc(arr, item):
    """Float Pearson correlation of one item with the sum of the others."""
    x = arr[:, item]
    rest = arr.sum(axis=1) - x
    xc = x - x.mean()
    rc = rest - rest.mean()
    denom = float(np.sqrt((xc * xc).sum() * (rc * rc).sum()))
    if denom == 0:
        raise DegenerateDataError("constant item or constant rest-score; correlation is undefined")
    return float((xc * rc).sum() / denom)


def reference_reliability_report(responses, instrument):
    """Complete respondents picked row by row, then the per-index statistics in floats."""
    complete = tuple(rid for rid, row in responses.consumer.items()
                     if all(v is not None for v in row))
    if len(complete) < 2:
        raise InsufficientDataError(f"need >= 2 complete respondents, got {len(complete)}")
    data = np.asarray([responses.consumer[rid] for rid in complete], dtype=float)
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}

    total_alpha = loop_alpha(data)
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
                alpha = loop_alpha(sub)
            except DegenerateDataError as exc:
                note = str(exc)
        index_rows.append(IndexReliability(index_id=index_id, n_questions=k, alpha=alpha, note=note))
        for j, qid in enumerate(qids):
            citc = q_note = None
            if k < 2:
                q_note = "single question; item-rest correlation not applicable"
            else:
                try:
                    citc = loop_citc(sub, j)
                except DegenerateDataError as exc:
                    q_note = str(exc)
            aid = None
            if k >= 3:
                try:
                    aid = loop_alpha(np.delete(sub, j, axis=1))
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


def signed_root(square, sign):
    """sign * sqrt(square) for a Fraction ``square``, rounded toward zero to a multiple of 2**-200."""
    root = Fraction(math.isqrt(square.numerator * square.denominator << 400),
                    square.denominator << 200)
    return root if sign >= 0 else -root


def exact_reliability(responses, instrument):
    """The statistics of ``reliability_report`` by definition, in Fractions, keyed like its rows.

    Keys are "total", ("alpha", index), ("citc", question) and ("aid", question);
    a statistic that is undefined (zero variance) is None. CITC is exact in its
    square and sign (see ``signed_root``).
    """
    rows = [row for row in responses.consumer.values() if None not in row]
    col_of = {qid: i for i, qid in enumerate(responses.question_ids)}

    def co_deviation(xs, ys):
        mx, my = Fraction(sum(xs), len(xs)), Fraction(sum(ys), len(ys))
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys))

    def column(c):
        return [row[c] for row in rows]

    def totals(cols):
        return [sum(row[c] for c in cols) for row in rows]

    def alpha(cols):
        total = co_deviation(totals(cols), totals(cols))
        if total == 0:
            return None
        k = len(cols)
        return Fraction(k, k - 1) * (1 - sum(co_deviation(column(c), column(c)) for c in cols) / total)

    def citc(cols, c):
        rest = totals([d for d in cols if d != c])
        den = co_deviation(column(c), column(c)) * co_deviation(rest, rest)
        if den == 0:
            return None
        cross = co_deviation(column(c), rest)
        return signed_root(cross * cross / den, cross)

    out = {"total": alpha(list(range(len(col_of))))}
    for index_id, qids in instrument.indices:
        cols = [col_of[q] for q in qids]
        if len(cols) >= 2:
            out["alpha", index_id] = alpha(cols)
            for q in qids:
                out["citc", q] = citc(cols, col_of[q])
        if len(cols) >= 3:
            for q in qids:
                out["aid", q] = alpha([c for c in cols if c != col_of[q]])
    return out


def reliability_values(table):
    """The floats of a ReliabilityTable, keyed as in ``exact_reliability``."""
    out = {"total": table.total_alpha}
    out.update({("alpha", row.index_id): row.alpha for row in table.indices if row.n_questions >= 2})
    for row in table.questions:
        k = next(i.n_questions for i in table.indices if i.index_id == row.index_id)
        if k >= 2:
            out["citc", row.question_id] = row.citc
        if k >= 3:
            out["aid", row.question_id] = row.alpha_if_deleted
    return out


def toy_instrument():
    """Six questions in a 2-, a 1- and a 3-question index over two dimensions."""
    return Instrument(
        indices=(("d1.a", ("q1", "q2")), ("d1.b", ("q3",)), ("d2.c", ("q4", "q5", "q6"))),
        questions=tuple(Question(id=f"q{i}", text=f"Question {i}") for i in range(1, 7)),
        dimension_of={"d1.a": "d1", "d1.b": "d1", "d2.c": "d2"},
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
def test_score_software_equals_loop_reference(case):
    responses, instrument, local = case
    *dims, last = instrument.dimensions()
    local = {**local, last: 1.0 - ordered_sum(local[dim] for dim in dims)}  # the composite's weights sum to 1
    expected, card = _same_outcome(lambda: reference_score_consumer(responses, instrument, local),
                                   lambda: score_software(responses, instrument, local))
    if expected is None:
        return
    _, pooled_dims, _, imputed = expected
    assert list(card.dimension_scores) == list(pooled_dims)
    exact = exact_pooled_scores(responses, instrument, local)
    for key, value in card.dimension_scores.items():
        loop_value, true = pooled_dims[key], exact[key]
        assert value == float(true), (key, value, true)
        assert abs(Fraction(value) - true) <= \
            abs(Fraction(loop_value) - true) + Fraction(math.ulp(loop_value)), (key, value, loop_value)
    assert card.imputed == imputed


@st.composite
def answered_response_sets(draw):
    """(responses, instrument, local weights): blanks anywhere but every question answered once
    or more, index weights any finite float up to 1e300 in size, dimension weights summing to 1."""
    instrument = draw(st.sampled_from(INSTRUMENTS))
    qids = instrument.question_ids
    n = draw(st.integers(1, 30))
    answer = st.integers(0, 4)
    rows = draw(st.lists(st.lists(st.one_of(st.none(), answer), min_size=len(qids), max_size=len(qids)),
                         min_size=n, max_size=n))
    for q in range(len(qids)):
        if all(row[q] is None for row in rows):
            rows[draw(st.integers(0, n - 1))][q] = draw(answer)
    responses = ResponseSet(question_ids=qids,
                            consumer={f"r{i}": tuple(row) for i, row in enumerate(rows)})
    local = {idx: draw(st.floats(-1e300, 1e300)) for idx, _ in instrument.indices}
    *dims, last = instrument.dimensions()
    local.update({dim: draw(st.floats(0.0, 1.0)) for dim in dims})
    local[last] = 1.0 - ordered_sum(local[dim] for dim in dims)
    return responses, instrument, local


@settings(max_examples=200, deadline=None)
@given(answered_response_sets())
def test_pooled_scores_are_the_exact_values_correctly_rounded(case):
    responses, instrument, local = case
    exact_dims = exact_pooled_scores(responses, instrument, local)
    card = score_software(responses, instrument, local)
    assert card.dimension_scores == {dim: float(value) for dim, value in exact_dims.items()}
    assert card.composite == ordered_sum(local[dim] * card.dimension_scores[dim] for dim in card.dimension_scores)


def test_a_question_nobody_answered_is_degenerate():
    instrument = toy_instrument()
    responses = ResponseSet(question_ids=instrument.question_ids,
                            consumer={"r1": (4, None, 3, 0, 1, 4), "r2": (2, None, 1, 3, 3, 2)})
    local = {"d1": 0.5, "d2": 0.5, "d1.a": 0.5, "d1.b": 0.5, "d2.c": 1.0}
    with pytest.raises(DegenerateDataError, match="^question q2 has no answers at all; cannot impute$"):
        score_software(responses, instrument, local)


def check_reliability_against_loop(responses, instrument):
    """``reliability_report`` against the float loop and the exact statistics.

    Same error, or the same rows, ids, counts and notes; every value is within
    2 ulp of the exact statistic and no farther from it than the loop's value
    is, plus 1 ulp. ``flagged`` is the loop's, unless the exact CITC lies within
    2 ulp of the floor, where the loop's last bits may fall either side of it.
    """
    expected, got = _same_outcome(lambda: reference_reliability_report(responses, instrument),
                                  lambda: reliability_report(responses, instrument))
    if expected is None:
        return
    exact = exact_reliability(responses, instrument)
    values, loop_values = reliability_values(got), reliability_values(expected)
    assert values.keys() == loop_values.keys() == exact.keys()
    for key, value in values.items():
        loop_value, true = loop_values[key], exact[key]
        assert (value is None) == (loop_value is None) == (true is None), key
        if true is None:
            continue
        error = abs(Fraction(value) - true)
        assert error <= 2 * Fraction(math.ulp(float(true))), (key, value, true)
        assert error <= abs(Fraction(loop_value) - true) + Fraction(math.ulp(loop_value)), \
            (key, value, loop_value)

    def strip(table):
        return replace(table, total_alpha=None,
                       indices=tuple(replace(row, alpha=None) for row in table.indices),
                       questions=tuple(replace(row, citc=None, alpha_if_deleted=None, flagged=None)
                                       for row in table.questions))

    assert strip(got) == strip(expected)
    for row, loop_row in zip(got.questions, expected.questions):
        assert row.flagged == (row.citc is not None and row.citc < CITC_FLOOR)
        true = exact.get(("citc", row.question_id))
        if true is None or abs(true - Fraction(CITC_FLOOR)) > 2 * Fraction(math.ulp(CITC_FLOOR)):
            assert row.flagged == loop_row.flagged, row.question_id


@settings(max_examples=100, deadline=None)
@given(scored_response_sets())
def test_reliability_report_equals_loop_reference(case):
    responses, instrument, _ = case
    check_reliability_against_loop(responses, instrument)


@st.composite
def integer_answer_sets(draw):
    """(complete responses, instrument): 2-12 respondents answering 0-4, some columns constant."""
    instrument = draw(st.sampled_from(INSTRUMENTS))
    qids = instrument.question_ids
    n = draw(st.integers(2, 12))
    columns = [[draw(st.integers(0, 4))] * n if draw(st.booleans())
               else draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)) for _ in qids]
    rows = {f"r{i}": tuple(col[i] for col in columns) for i in range(n)}
    return ResponseSet(question_ids=qids, consumer=rows), instrument


@settings(max_examples=200, deadline=None)
@given(integer_answer_sets())
def test_reliability_report_is_exact_on_integer_answers(case):
    check_reliability_against_loop(*case)


# --- Delphi rounds -----------------------------------------------------------
#
# ``reference_kendalls_w`` is the per-rater midrank loop and
# ``reference_parse_ratings`` the per-cell ratings parser that ran before a
# round was stored as one rater x indicator matrix. Kendall's W is a sum of
# half-integer midranks and integer tie terms, so the blocked computation must
# return the same bits, not merely a close value.


def reference_midranks(row):
    """Within-row ranks 1..n, tied values sharing the mean of their positions."""
    n = row.shape[0]
    order = np.argsort(row, kind="stable")
    ranks = np.empty(n, dtype=float)
    sorted_vals = row[order]
    i = 0
    while i < n:
        j = i + 1
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def reference_tie_term(row_ranks):
    """Sum of t^3 - t over one rater's tie groups (t = group size)."""
    _, counts = np.unique(row_ranks, return_counts=True)
    counts = counts.astype(float)
    return float(np.sum(counts**3 - counts))


def reference_kendalls_w(ratings, correct_ties=True):
    matrix = [list(row) for row in ratings]
    m = len(matrix)
    if m < 2:
        raise InsufficientDataError(f"need >= 2 raters, got {m}")
    n = len(matrix[0])
    if any(len(row) != n for row in matrix):
        raise InvalidInputError("ragged ratings matrix")
    if n < 2:
        raise InsufficientDataError(f"need >= 2 indicators, got {n}")
    arr = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("ratings matrix contains missing or non-finite values")
    rank_rows = np.vstack([reference_midranks(arr[i]) for i in range(m)])
    rank_sums = rank_rows.sum(axis=0)
    s = float(np.sum((rank_sums - m * (n + 1) / 2.0) ** 2))
    denom = m * m * (n**3 - n)
    if correct_ties:
        denom -= m * sum(reference_tie_term(rank_rows[i]) for i in range(m))
    if denom == 0:
        raise DegenerateDataError("every rater tied all indicators; W is undefined")
    return 12.0 * s / denom


def _same_w(rows, correct_ties):
    """kendalls_w on ``rows`` (any accepted form) returns the reference's bits or error."""
    expected, got = _same_outcome(lambda: reference_kendalls_w(rows, correct_ties),
                                  lambda: kendalls_w(rows, correct_ties=correct_ties))
    if expected is not None:
        assert type(got) is float
        assert got == expected


@st.composite
def int_rating_matrices(draw):
    """Small-range integer matrices: ties everywhere, some rows tied throughout."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(2, 9))
    top = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(1, top), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for r in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        rows[r] = [rows[r][0]] * n
    return rows


@settings(max_examples=150, deadline=None)
@given(int_rating_matrices(), st.booleans())
def test_kendalls_w_int_equals_loop_reference(rows, correct_ties):
    _same_w(rows, correct_ties)
    _same_w(np.array(rows, dtype=np.int8), correct_ties)


FLOAT_VALUES = (-2.5, -0.0, 0.0, 0.1, 1.0, 1.0 + 2**-52, 3.75, 1e300)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), st.integers(2, 8), st.booleans(), st.data())
def test_kendalls_w_float_equals_loop_reference(m, n, correct_ties, data):
    cell = st.one_of(st.sampled_from(FLOAT_VALUES),
                     st.floats(allow_nan=False, allow_infinity=False))
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    _same_w(rows, correct_ties)
    _same_w(np.array(rows, dtype=float), correct_ties)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from((1023, 1024, 1025, 2047, 2048, 2049, 3000)), st.integers(2, 30),
       st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_kendalls_w_around_block_size_equals_loop_reference(m, n, top, seed, correct_ties):
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, top + 1, size=(m, n))
    rows[rng.integers(0, m, size=m // 10)] = top  # rows tied throughout
    _same_w(rows.tolist(), correct_ties)
    _same_w(rows.astype(np.int8), correct_ties)


@pytest.mark.parametrize("rows", [
    [[3, 3, 3], [4, 4, 4]],
    np.full((1500, 4), 2, dtype=np.int8),
    [[1, 2, 3]],
    [[1], [2]],
    [[1, 2, 3], [1, 2]],
    [[1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]],
    [[1.0, float("inf"), 3.0], [1.0, 2.0, 3.0]],
])
def test_kendalls_w_errors_equal_loop_reference(rows):
    for correct_ties in (True, False):
        _same_w(rows, correct_ties)


# ``kendalls_w`` ranks an integer matrix whose values span at most n by counting
# and sorts any other; both must give the reference's bits wherever the values
# are exact as floats (as the reference ranks them), and otherwise the bits of
# the same ranks over x - min, whatever the dtype and however near its limits.

W_DTYPES = (np.uint8, np.int8, np.int16, np.int64, np.uint64)
W_OFFSETS = ("dtype min", "dtype max", "zero", "negative")


@st.composite
def int_matrices_near_limits(draw, dtype, offset):
    """(matrix, min, span): integers of ``dtype`` from min to min + span - 1, some rows tied.

    ``offset`` puts the values at the dtype's minimum or maximum, at zero or
    around it (clipped to what the dtype holds); the span is at most n (ranked
    by counting) or more (sorted).
    """
    info = np.iinfo(dtype)
    m = draw(st.sampled_from((2, 7, 1023, 1024, 1025, 2049)))
    n = draw(st.integers(2, 12))
    span = draw(st.integers(1, n) if draw(st.booleans()) else
                st.integers(n + 1, min(4 * n, int(info.max) - int(info.min))))
    lo = {"dtype min": int(info.min), "dtype max": int(info.max) - span + 1, "zero": 0,
          "negative": -span // 2 - 3}[offset]
    lo = min(max(lo, int(info.min)), int(info.max) - span + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(0, span, size=(m, n))
    offsets[rng.permutation(m)[:draw(st.sampled_from((0, 1, m // 3, m)))]] = rng.integers(0, span)  # tied rows
    return np.array(offsets.astype(object) + lo, dtype=dtype), lo, span


@pytest.mark.parametrize("offset", W_OFFSETS)
@pytest.mark.parametrize("dtype", W_DTYPES)
@settings(max_examples=6, deadline=None)
@given(data=st.data(), correct_ties=st.booleans())
def test_kendalls_w_counting_and_sorting_near_dtype_limits(dtype, offset, data, correct_ties):
    x, lo, span = data.draw(int_matrices_near_limits(np.dtype(dtype), offset))
    shifted = np.array(x.astype(object) - lo, dtype=np.uint64)  # the same ranks, from 0
    if max(abs(lo), abs(lo + span - 1)) <= 2**53:  # each value is exact as a float
        _same_w(x, correct_ties)
    expected, got = _same_outcome(lambda: kendalls_w(shifted, correct_ties=correct_ties),
                                  lambda: kendalls_w(x, correct_ties=correct_ties))
    if expected is not None:
        assert got == expected
    _same_w(shifted.astype(np.int64), correct_ties)


def test_kendalls_w_counts_a_full_int8_range():
    """Span 256 fits n = 256 columns, but x - min overflows int8: it must be read as unsigned."""
    rows = np.array([np.roll(np.arange(-128, 128), k) for k in range(3)], dtype=np.int8)
    rows[2] = rows[2][::-1]
    for correct_ties in (True, False):
        _same_w(rows, correct_ties)


def reference_parse_ratings(path, scale_max=5):
    """The per-cell loop over a ratings file: (ratings, non_respondents), or its error."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if any(map(str.strip, row))]
    indicator_ids = tuple(header[1:])

    def cell(row, i):
        return row[i].strip() if i < len(row) else ""

    ratings = {}
    non_respondents = []
    for row in rows:
        expert_id = cell(row, 0)
        if not expert_id:
            raise SchemaError(f"{path}: row with empty expert id")
        if expert_id in ratings or expert_id in non_respondents:
            raise SchemaError(f"{path}: duplicate expert row {expert_id!r}")
        if len(row) > len(header):
            raise SchemaError(f"{path}: row {expert_id!r} has {len(row)} cells for {len(header)} columns")
        cells = [cell(row, i + 1) for i in range(len(indicator_ids))]
        if any(c == "" for c in cells):
            non_respondents.append(expert_id)
            continue
        values = []
        for indicator_id, raw in zip(indicator_ids, cells):
            try:
                value = int(raw)
            except ValueError:
                raise SchemaError(
                    f"{path}: cell ({expert_id}, {indicator_id}): {raw!r} is not an integer"
                ) from None
            if not 1 <= value <= scale_max:
                raise SchemaError(
                    f"{path}: cell ({expert_id}, {indicator_id}): rating {value} "
                    f"outside [1, {scale_max}]"
                )
            values.append(value)
        ratings[expert_id] = tuple(values)
    return ratings, tuple(non_respondents)


RATING_CELLS = ("1", "2", "3", "4", "5", " 4 ", "\t2", "05", "+3", "", " ", "x", "0", "6",
                "-1", "1.0", "127", "128", "200", "201")


@st.composite
def ratings_files(draw):
    """Text of a ratings file: repeated ids, blanks, garbage, short and long rows."""
    n = draw(st.integers(1, 5))
    lines = ["expert_id," + ",".join(f"i{j}" for j in range(n))]
    for _ in range(draw(st.integers(0, 25))):
        expert_id = draw(st.sampled_from(("e1", "e2", " e3", "e4 ", "e5", "e6", "e7", "")))
        width = draw(st.integers(max(0, n - 1), n + 1))
        cells = draw(st.lists(st.sampled_from(RATING_CELLS), min_size=width, max_size=width))
        if draw(st.integers(0, 3)):  # most rows carry only valid ratings
            cells = [c if c.strip() and c.strip().isdigit() and 1 <= int(c) <= 5 else "4"
                     for c in cells]
        lines.append(",".join([expert_id, *cells]))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(ratings_files(), st.sampled_from((1, 5, 127, 200)))
def test_parse_ratings_equals_loop_reference(tmp_path_factory, text, scale_max):
    path = tmp_path_factory.mktemp("ratings") / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = _same_outcome(lambda: reference_parse_ratings(path, scale_max),
                                  lambda: parse_ratings(path, scale_max=scale_max))
    if expected is None:
        return
    ratings, non_respondents = expected
    assert tuple(got.ratings) == tuple(ratings)
    assert dict(got.ratings) == ratings
    assert all(type(row) is tuple for row in got.ratings.values())
    assert got.non_respondents == non_respondents
    assert got.ratings.matrix.tolist() == [list(row) for row in ratings.values()]
    assert got.distributed == len(ratings) + len(non_respondents)


# --- Integer tables -------------------------------------------------------------
#
# ``reference_parse_responses`` is the per-cell loop that read consumer answers
# before they streamed into one matrix, and ``reference_rating_rows`` the
# per-cell loop behind the importance and expert bonus parsers. Each parser
# must return the same ids, rows and error text as its reference.


def _reference_table(path):
    """The stripped header and the non-blank rows of a CSV file."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        return header, [row for row in reader if any(map(str.strip, row))]


def _reference_cell(row, i):
    return row[i].strip() if i < len(row) else ""


def reference_parse_responses(path, instrument):
    """Respondent id -> answers in the instrument's question order (None for a blank)."""
    header, rows = _reference_table(path)
    consumer = {}
    for row in rows:
        rid = _reference_cell(row, 0)
        if not rid:
            raise SchemaError(f"{path}: row with empty respondent id")
        if rid in consumer:
            raise SchemaError(f"{path}: duplicate respondent id {rid!r}")
        if len(row) > len(header):
            raise SchemaError(f"{path}: row {rid!r} has {len(row)} cells for {len(header)} columns")
        values = []
        for q in instrument.questions:
            raw = _reference_cell(row, header.index(q.id))
            if not raw:
                values.append(None)
                continue
            try:
                value = int(raw)
            except ValueError:
                raise SchemaError(f"{path}: cell ({rid}, {q.id}): {raw!r} is not an integer") from None
            lo, hi = max(q.min_value, 0), min(q.max_value, 4)
            if not lo <= value <= hi:
                raise SchemaError(f"{path}: cell ({rid}, {q.id}): answer {value} outside [{lo}, {hi}]")
            values.append(value)
        consumer[rid] = tuple(values)
    return consumer


def reference_rating_rows(path, header, rows, kind, columns, lo, hi):
    """Row id -> integer ratings in [lo, hi], read from the (column id, cell index) pairs."""
    out = {}
    for row in rows:
        row_id = _reference_cell(row, 0)
        if not row_id:
            raise SchemaError(f"{path}: row with empty {kind} id")
        if row_id in out:
            raise SchemaError(f"{path}: duplicate {kind} row {row_id!r}")
        if len(row) > len(header):
            raise SchemaError(f"{path}: row {row_id!r} has {len(row)} cells for {len(header)} columns")
        values = []
        for column, i in columns:
            raw = _reference_cell(row, i)
            try:
                value = int(raw)
            except ValueError:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): {raw!r} is not an integer") from None
            if not lo <= value <= hi:
                raise SchemaError(f"{path}: cell ({row_id}, {column}): rating {value} outside [{lo}, {hi}]")
            values.append(value)
        out[row_id] = tuple(values)
    return out


def reference_parse_importance(path):
    header, rows = _reference_table(path)
    item_ids = tuple(header[1:])
    matrix = reference_rating_rows(path, header, rows, "rater",
                                   list(zip(item_ids, range(1, len(header)))), 1, 7)
    return item_ids, list(matrix.values())


def reference_parse_expert_bonus(path, bonus_ids):
    header, rows = _reference_table(path)
    return reference_rating_rows(path, header, rows, "expert",
                                 [(b, header.index(b)) for b in bonus_ids], 0, 4)


INT_CELLS = ("0", "1", "2", "3", "4", "5", "7", "8", " 3 ", "\t2", "+3", "03", "-1", "-0",
             "", " ", "x", "2.0", "1e0", "127", "128", "300")
ROW_IDS = ("r1", "r2", " r3", "r4 ", "r5", "r6", "r7", "", " ")


@st.composite
def int_table_files(draw, id_column, columns, valid):
    """Text of an integer table: blanks, spellings, garbage, short and long rows, bad ids.

    Each file has its own rate of messy choices, so some files hold only
    distinct ids, full rows and cells from ``valid``, and parse.
    """
    n = len(columns)
    rate = draw(st.sampled_from((0, 20, 5, 2)))

    def messy():
        return rate and draw(st.integers(1, rate)) == 1

    lines = [",".join([id_column, *columns])]
    for k in range(draw(st.integers(0, 25))):
        row_id = draw(st.sampled_from(ROW_IDS if messy() else (f"r{k}", f" r{k} ")))
        width = draw(st.integers(0, n + 2)) if messy() else n
        cells = [draw(st.sampled_from(INT_CELLS if messy() else valid)) for _ in range(width)]
        lines.append(",".join([row_id, *cells]))
    return "\n".join(lines) + "\n"


def ranged_instrument():
    """Four questions whose ranges differ, one of them wider than the 0..4 matrix."""
    questions = (Question(id="q1", text="Q1"), Question(id="q2", text="Q2", max_value=2),
                 Question(id="q3", text="Q3", min_value=1, max_value=3),
                 Question(id="q4", text="Q4", min_value=-2, max_value=9))
    return Instrument(indices=(("d.a", ("q1", "q2")), ("d.b", ("q3", "q4"))),
                      questions=questions, dimension_of={"d.a": "d", "d.b": "d"})


@st.composite
def responses_files(draw):
    """(file text, instrument): question columns in a shuffled order."""
    instrument = draw(st.sampled_from((ranged_instrument(), *INSTRUMENTS)))
    columns = draw(st.permutations(instrument.question_ids))
    text = draw(int_table_files("respondent_id", columns, ("1", "2", " 2 ", "+1", "02", "")))
    return text, instrument


@settings(max_examples=200, deadline=None)
@given(responses_files())
def test_parse_responses_equals_loop_reference(tmp_path_factory, case):
    text, instrument = case
    path = tmp_path_factory.mktemp("responses") / "responses.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = _same_outcome(lambda: reference_parse_responses(path, instrument),
                                  lambda: parse_responses(path, instrument))
    if expected is None:
        return
    assert got.question_ids == instrument.question_ids
    assert got.respondents == tuple(expected)
    assert dict(got.consumer) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: int_table_files("rater_id", [f"i{j}" for j in range(n)], ("1", "5", "7", " 6", "+4"))))
def test_parse_importance_equals_loop_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("importance") / "importance.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = _same_outcome(lambda: reference_parse_importance(path),
                                  lambda: parse_importance(path))
    if expected is None:
        return
    item_ids, rows = got
    assert item_ids == expected[0]
    assert [tuple(r) for r in rows.tolist()] == expected[1]
    assert rows.dtype == np.int8 and not rows.flags.writeable


@st.composite
def bonus_files(draw):
    """(file text, bonus ids): the file's columns in an order of their own."""
    bonus_ids = tuple(f"b{j}" for j in range(draw(st.integers(1, 4))))
    columns = draw(st.permutations(bonus_ids))
    return draw(int_table_files("expert_id", columns, ("0", "2", "4", "03", " 1 "))), bonus_ids


@settings(max_examples=200, deadline=None)
@given(bonus_files())
def test_parse_expert_bonus_equals_loop_reference(tmp_path_factory, case):
    text, bonus_ids = case
    path = tmp_path_factory.mktemp("bonus") / "bonus.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = _same_outcome(lambda: reference_parse_expert_bonus(path, bonus_ids),
                                  lambda: parse_expert_bonus(path, bonus_ids))
    if expected is None:
        return
    assert got == expected
    assert tuple(got) == tuple(expected)
    assert all(type(v) is int for row in got.values() for v in row)


# --- Plain files -----------------------------------------------------------------
#
# ``io._plain_table`` reads an integer table from the file's bytes when the
# file is plain (ASCII, unquoted, one-digit or enum-value cells) and returns
# None otherwise. Whatever it returns must be exactly what the csv loop of
# ``_int_table`` returns for the same file: the same ids in the same order, and
# a matrix of the same values, dtype and read-only flag.

PLAIN_BOUNDS = ((1, 5), (0, 4), (1, 3), (-2, 9), (1, 7), Impact, Familiarity, IdentityGroup)
# Tokens an enum cell may hold that are not its values: a prefix, an extension, the wrong
# case, another enum's value, and one longer than every value.
ENUM_NEAR_MISSES = ("", "larg", "larger", "LARGE", "large", "familiar", "other", "x" * 29)
LONG_ID_STEMS = ("", "abcdefgh", "abcdefghijklmnop")
FILE_DEVIATIONS = ("bom", "crlf", "no final newline", "blank line", "header space", "cr after header",
                   "every field quoted", "text fields quoted", "blank after each comma", "quoted and padded")
# A cell (the row id or another) rewritten from its text.
CELL_DEVIATIONS = {"quote": '"{}"', "space": " {}", "tab": "{}\t", "control": "{}\x0c",
                   "non-ascii": "{}\u00e9", "two digits": "{}3"}
PLAIN_DEVIATIONS = (*FILE_DEVIATIONS, *CELL_DEVIATIONS, "short row", "long row", "moved comma",
                    "empty id", "repeated id")


@st.composite
def plain_table_cases(draw, deviation_pool=PLAIN_DEVIATIONS):
    """(file bytes, src, bounds, blank, key): a plain table, or one a few steps away from plain.

    Cells are mostly digits in range or enum values; a file's own rate of messy
    cells adds blanks, out-of-range digits, garbage and enum near misses, inside
    blank rows too.
    """
    n = draw(st.integers(1, 5))
    blank = draw(st.sampled_from((None, "cell", "row")))
    key = draw(st.integers(0, n))
    src = draw(st.permutations([i for i in range(n + 1) if i != key]))
    bounds = [draw(st.sampled_from(PLAIN_BOUNDS)) for _ in range(n)]
    if draw(st.integers(0, 9)) == 0:
        bounds[0] = (1, 200)  # an int64 matrix
    bound_at = dict(zip(src, bounds))
    rate = draw(st.sampled_from((0, 0, 60, 15, 4)))
    # One-character ids, digits first, let a row that lost a cell line up with one that gained one.
    # Ids of up to 24 bytes share their first one or two 8-byte words, or are prefixes of each other.
    ids = draw(st.sampled_from(([f"r{k}" for k in range(30)], list("0123456789abcdefghijklmnopqrst"),
                                "long")))
    if ids == "long":
        ids = [draw(st.sampled_from(LONG_ID_STEMS)) + f"{k:0{draw(st.integers(1, 8))}d}" for k in range(30)]

    def messy():
        return rate and draw(st.integers(1, rate)) == 1

    rows = []
    for k in range(draw(st.integers(0, 30))):
        row = []
        for i in range(n + 1):
            if i == key:
                row.append(ids[k])
            elif isinstance(bound_at[i], tuple):
                lo, hi = bound_at[i]
                row.append(draw(st.sampled_from(("", "0", "9", "x", "-"))) if messy()
                           else str(draw(st.integers(max(lo, 0), min(hi, 9)))))
            else:
                row.append(draw(st.sampled_from(ENUM_NEAR_MISSES if messy() else
                                                [e.value for e in bound_at[i]])))
        rows.append(row)
    header = [f"c{i}" for i in range(n + 1)]
    deviations = draw(st.lists(st.sampled_from(deviation_pool), max_size=2))
    for deviation in deviations:
        if deviation in FILE_DEVIATIONS or not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if key >= min(len(row), len(rows[i - 1])):  # a row shortened by an earlier step
            continue
        cell = key if draw(st.booleans()) else draw(st.integers(0, len(row) - 1))
        if deviation == "short row":
            row.pop()
        elif deviation == "long row":
            row.append("1")
        elif deviation == "moved comma":  # one row a cell short, the next a cell long
            row.pop()
            rows[min(i + 1, len(rows) - 1)].append("1")
        elif deviation == "empty id":
            row[key] = ""
        elif deviation == "repeated id":  # an earlier row's, or the last row's
            source = rows[draw(st.integers(-1, i - 1))]
            if key < len(source):
                row[key] = source[key]
        else:
            row[cell] = CELL_DEVIATIONS[deviation].format(row[cell])
    if "header space" in deviations:
        header[0] = " " + header[0]
    # Spreadsheet exports: every field quoted, every field but the numbers (R's write.csv), a blank
    # after each comma, or both.
    quote = {"every field quoted", "quoted and padded"} & set(deviations)
    text = "text fields quoted" in deviations
    comma = ", " if {"blank after each comma", "quoted and padded"} & set(deviations) else ","
    lines = [comma.join(f'"{c}"' if quote or text and not c.isdigit() else c for c in row)
             for row in [header, *rows]]
    if "cr after header" in deviations and rows:  # csv also ends a row at a lone CR
        lines[:2] = [lines[0] + "\r" + lines[1]]
    if "blank line" in deviations:  # one to three: after the header, between rows or last
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\r\n" if "crlf" in deviations else "\n"
    text = end.join(lines) + end
    if "no final newline" in deviations:
        text = text[:-len(end)]
    if "bom" in deviations:
        text = "\ufeff" + text
    return text.encode("utf-8"), src, bounds, blank, key


def _streamed_int_table(path, src, bounds, blank, key):
    """``_int_table`` read through its csv loop alone."""
    with patch.object(sio, "_plain_table", return_value=None), sio._csv_rows(path) as (header, rows):
        return sio._int_table(path, header, rows, "table row", [f"v{i}" for i in src],
                              src, bounds, "value", blank, key)


@settings(max_examples=400, deadline=None)
@given(plain_table_cases())
def test_plain_table_is_none_or_the_streamed_int_table(tmp_path_factory, case):
    data, src, bounds, blank, key = case
    path = tmp_path_factory.mktemp("plain") / "table.csv"
    path.write_bytes(data)
    with sio._csv_rows(path) as (header, _):
        plain = sio._plain_table(path, header, src, bounds, blank, key)
    if plain is None:
        return
    row_of, matrix = _streamed_int_table(path, src, bounds, blank, key)
    assert plain[0] == tuple(row_of)
    assert plain[1].dtype == matrix.dtype and plain[1].shape == matrix.shape
    assert np.array_equal(plain[1], matrix)
    assert not plain[1].flags.writeable and not matrix.flags.writeable


@settings(max_examples=200, deadline=None)
@given(plain_table_cases((*PLAIN_DEVIATIONS, *["repeated id"] * len(PLAIN_DEVIATIONS))), st.integers(1, 12),
       st.integers(1, 64))
def test_plain_table_over_small_blocks_is_none_or_the_streamed_int_table(tmp_path_factory, case, block_cells, piece):
    """The same with a few cells to a block and a few bytes to a piece, so that a file spans many pieces
    (a line longer than a piece too), and ids repeated more often: often in a later block or piece."""
    data, src, bounds, blank, key = case
    path = tmp_path_factory.mktemp("plain") / "table.csv"
    path.write_bytes(data)
    with patch.object(sio, "_PLAIN_BLOCK_CELLS", block_cells), patch.object(sio, "_PLAIN_PIECE_BYTES", piece), \
            sio._csv_rows(path) as (header, _):
        plain = sio._plain_table(path, header, src, bounds, blank, key)
    if plain is None:
        return
    ids, matrix = _streamed_int_table(path, src, bounds, blank, key)
    assert plain[0] == ids
    assert plain[1].dtype == matrix.dtype and np.array_equal(plain[1], matrix)


def _padded_words(block, start, length, words):
    """``io._words`` as it was: the 8 bytes from each offset of the whole block copied with 8 * words zeros after."""
    padded = np.concatenate([block, np.zeros(8 * words, np.uint8)])
    word_at = np.ndarray((padded.size - 7,), np.uint64, padded, strides=(1,))
    return np.stack([word_at[start + 8 * j] & sio._FIRST_BYTES[np.clip(length - 8 * j, 0, 8)]
                     for j in range(words)])


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=40), st.integers(0, 3), st.integers(1, 3), st.data())
def test_words_read_in_place_are_the_padded_copy_words(raw, lead, words, data):
    """Strings anywhere in the block, one ending on its last byte; blocks shorter than 8 * words, and empty."""
    block = np.frombuffer(b"\xff" * lead + raw, np.uint8)[lead:]  # a view into a larger buffer, as the parse's
    strings = data.draw(st.lists(st.integers(0, block.size).flatmap(
        lambda at: st.tuples(st.just(at), st.integers(0, block.size - at))), max_size=8))
    tail = data.draw(st.integers(0, block.size))
    strings.append((block.size - tail, tail))  # ends on the block's last byte (empty at its end)
    start, length = (np.array(column, np.intp) for column in zip(*strings))
    got = sio._words(block, start, length, words)
    expected = _padded_words(block, start, length, words)
    assert got.dtype == expected.dtype and got.shape == expected.shape == (words, len(strings))
    assert np.array_equal(got, expected)
    none = np.zeros(0, np.intp)
    assert np.array_equal(sio._words(block, none, none, words), _padded_words(block, none, none, words))


def test_clean_table_exported_is_plain_unless_quoted_and_padded(tmp_path, capsys):
    """The bundled responses with every field quoted, every field but the numbers, or a blank after each
    comma take the byte path; quoted and padded, the csv loop reads the header cells as ' "q1"', and the
    run exits 2 naming them."""
    data = Path(sio.__file__).parent / "data" / "responses.csv"
    with open(data, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    qids = rows[0][1:]

    def export(name, comma, quote):  # quote "all" fields, the "text" ones (not numbers), or none
        path = tmp_path / name
        path.write_text("".join(comma.join(f'"{c}"' if quote == "all" or quote == "text" and not c.isdigit()
                                           else c for c in row) + "\n" for row in rows), encoding="utf-8")
        return path

    args = (list(range(1, 22)), [(0, 4)] * 21, "cell", 0)
    for path in (export("quoted.csv", ",", "all"), export("text.csv", ",", "text"), export("padded.csv", ", ", "")):
        with sio._csv_rows(path) as (header, _):
            plain = sio._plain_table(path, header, *args)
        ids, matrix = _streamed_int_table(path, *args)
        assert plain is not None and plain[0] == ids and np.array_equal(plain[1], matrix)
    path = export("both.csv", ", ", "all")
    assert main(["reliability", "--responses", str(path), "--out", str(tmp_path / "out.json")]) == 2
    missing, unknown = ", ".join(qids), ", ".join(f'"{q}"' for q in qids)
    assert capsys.readouterr().err == f"error: {path}: missing column(s) {missing}; unknown column(s) {unknown}\n"
    assert not (tmp_path / "out.json").exists()


# --- Expert panel and content validity -------------------------------------------
#
# ``reference_parse_experts`` is the per-cell loop that read one ExpertProfile
# per row of an experts file, ``reference_authority`` the per-profile Ca/Cs
# loops that ``round_consensus`` ran over the responding experts, and
# ``reference_validity_report`` the per-cell check and per-column statistics
# of ``validity_report``. Ca adds each expert's four lookups in JudgmentBasis
# order and the panel's values with builtin ``sum``, so the code-matrix
# computation must return the same bits and the same error text.

BASIS_COLUMNS = ("basis_theory", "basis_practice", "basis_peer", "basis_intuition")


def reference_parse_experts(path):
    """One ExpertProfile per row, the cells read in basis, group, familiarity order."""
    header, rows = _reference_table(path)
    col = {c: header.index(c) for c in header}
    profiles = []
    seen = set()
    for row in rows:
        expert_id = _reference_cell(row, col["id"])
        if not expert_id:
            raise SchemaError(f"{path}: row with empty expert id")
        if expert_id in seen:
            raise SchemaError(f"{path}: duplicate expert id {expert_id!r}")
        if len(row) > len(header):
            raise SchemaError(f"{path}: row {expert_id!r} has {len(row)} cells for {len(header)} columns")
        seen.add(expert_id)

        def value(column, enum_cls):
            raw = _reference_cell(row, col[column])
            try:
                return enum_cls(raw)
            except ValueError:
                valid = ", ".join(e.value for e in enum_cls)
                raise SchemaError(f"{path}: row {expert_id!r}, column {column!r}: "
                                  f"{raw!r} is not one of: {valid}") from None

        basis = {b: value(column, Impact) for column, b in zip(BASIS_COLUMNS, JudgmentBasis)}
        profiles.append(ExpertProfile(
            id=expert_id,
            identity_group=value("group", IdentityGroup),
            familiarity=value("familiarity", Familiarity),
            judgment_basis=basis,
        ))
    return tuple(profiles)


def reference_authority(rnd, profiles, ca_table, cs_map):
    """(Ca, Cs, Cr) of the round's responding experts, looked up profile by profile."""
    by_id = {p.id: p for p in profiles}
    missing = [eid for eid in rnd.ratings if eid not in by_id]
    if missing:
        raise InvalidInputError(
            f"round {rnd.round_no}: no profile for responding expert(s) {', '.join(missing)}"
        )
    respondents = [by_id[eid] for eid in rnd.ratings]
    for basis in JudgmentBasis:
        row = ca_table.get(basis)
        if row is None:
            raise InvalidInputError(f"judgment table missing basis {basis.value!r}")
        for impact in Impact:
            if impact not in row:
                raise InvalidInputError(
                    f"judgment table missing impact {impact.value!r} for basis {basis.value!r}"
                )
    per_expert = [sum(ca_table[basis][impact] for basis, impact in p.judgment_basis.items())
                  for p in respondents]
    ca = sum(per_expert) / len(per_expert)
    for level in Familiarity:
        if level not in cs_map:
            raise InvalidInputError(f"familiarity map missing level {level.value!r}")
    values = [cs_map[p.familiarity] for p in respondents]
    cs = sum(values) / len(values)
    for label, v in (("ca", ca), ("cs", cs)):
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{label} {v!r} outside [0, 1]")
    return ca, cs, (ca + cs) / 2.0


def reference_validity_report(item_ids, ratings, relevance_floor):
    """Rows checked for length, then each item's column checked cell by cell and summarised."""
    ids = tuple(item_ids)
    if not ids:
        raise InvalidInputError("no items given")
    rows = [tuple(row) for row in ratings]
    if not rows:
        raise InvalidInputError("need at least one rater")
    for row in rows:
        if len(row) != len(ids):
            raise InvalidInputError(f"rater row has {len(row)} ratings for {len(ids)} items")
    items = []
    for j, item_id in enumerate(ids):
        column = [row[j] for row in rows]
        for rater, r in enumerate(column, start=1):
            r = r.item() if isinstance(r, np.number) else r  # a numpy number is named by its Python value
            if isinstance(r, bool) or not isinstance(r, int) or not 1 <= r <= 7:
                raise InvalidInputError(
                    f"item {item_id}, rater {rater}: importance rating {r!r} outside 1..7")
        cvi = sum(1 for r in column if r >= relevance_floor) / len(column)
        items.append(ItemValidity(item_id=item_id, importance_mean=float(np.mean(column)),
                                  i_cvi=cvi, passes=cvi >= ICVI_FLOOR))
    scale = float(sum(it.i_cvi for it in items)) / len(items)
    return ValidityTable(n_raters=len(rows), relevance_floor=relevance_floor, items=tuple(items),
                         s_cvi=scale, s_cvi_passes=scale >= SCVI_FLOOR)


def _enum_cells(enum_cls):
    """Valid values, padded ones, and values that are not one of the enum's."""
    values = tuple(e.value for e in enum_cls)
    return values, values + tuple(f" {v}" for v in values[:2]) + (
        f"{values[0]}\t", values[0].upper(), "", " ", "x", "large", "familiar", "other")


EXPERT_COLUMNS = (("group", IdentityGroup), ("familiarity", Familiarity),
                  *((c, Impact) for c in BASIS_COLUMNS))
EXPERT_IDS = ("e1", "e2", " e3", "e4 ", "e5", "")


@st.composite
def experts_files(draw):
    """Text of an experts file: shuffled columns, padded and bad cells, short rows, bad ids."""
    columns = draw(st.permutations(("id", *(c for c, _ in EXPERT_COLUMNS))))
    cells_of = dict(EXPERT_COLUMNS)
    rate = draw(st.sampled_from((0, 20, 5, 2)))

    def messy():
        return rate and draw(st.integers(1, rate)) == 1

    lines = [",".join(columns)]
    for k in range(draw(st.integers(0, 20))):
        cells = []
        for column in columns:
            if column == "id":
                cells.append(draw(st.sampled_from(EXPERT_IDS if messy() else (f"e{k}", f" e{k} "))))
            else:
                valid, any_cell = _enum_cells(cells_of[column])
                cells.append(draw(st.sampled_from(any_cell if messy() else valid)))
        if messy():
            cells = cells[:draw(st.integers(1, len(cells)))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(experts_files())
def test_parse_experts_equals_loop_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("experts") / "experts.csv"
    path.write_text(text, encoding="utf-8")
    expected, got = _same_outcome(lambda: reference_parse_experts(path),
                                  lambda: parse_experts(path))
    if expected is None:
        return
    assert len(got) == len(expected)
    assert tuple(got) == expected
    assert [p.id for p in got] == [p.id for p in expected]
    assert all(list(p.judgment_basis) == list(JudgmentBasis) for p in got)


AUTHORITY_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1 / 3, 0.15, 0.05)

# Characters of the expert ids drawn: a file of such ids is read from its bytes, its ids kept as words.
EXPERT_ID_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"


def parsed_round(round_no, expert_ids, non_respondents, key_last, blank_at):
    """``expert_ids`` rating (1, 2), a cell blank for ``non_respondents``, written as a ratings file and parsed."""
    lines = [["a", "b", "expert_id"] if key_last else ["expert_id", "a", "b"]]
    for eid in expert_ids:
        cells = ["1", "2"]
        if eid in non_respondents:
            cells[blank_at] = ""
        lines.append([*cells, eid] if key_last else [eid, *cells])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ratings.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        return parse_ratings(path, round_no=round_no)


@st.composite
def authority_cases(draw):
    """(round, profiles, ca_table, cs_map): parsed or hand-built panels and rounds, custom lookups."""
    n = draw(st.integers(2, 12))
    expert_id = st.integers(1, 20).flatmap(lambda size: st.text(EXPERT_ID_CHARS, min_size=size, max_size=size))
    ids = draw(st.lists(expert_id, min_size=n, max_size=n, unique=True))
    rows = [[draw(st.sampled_from(tuple(Impact))) for _ in JudgmentBasis]
            + [draw(st.sampled_from(tuple(IdentityGroup))), draw(st.sampled_from(tuple(Familiarity)))]
            for _ in ids]
    if draw(st.booleans()):
        profiles = []
        for expert_id, row in zip(ids, rows):
            bases = draw(st.permutations(tuple(JudgmentBasis)))
            profiles.append(ExpertProfile(
                id=expert_id, identity_group=row[4], familiarity=row[5],
                judgment_basis={b: row[list(JudgmentBasis).index(b)] for b in bases}))
        profiles = draw(st.permutations(profiles))
    else:
        lines = ["familiarity,id,basis_peer,group,basis_theory,basis_intuition,basis_practice"]
        for expert_id, row in zip(ids, rows):
            lines.append(",".join([row[5].value, expert_id, row[2].value, row[4].value,
                                   row[0].value, row[3].value, row[1].value]))
        profiles = ("\n".join(lines) + "\n",)  # parsed by the test

    respondents = draw(st.lists(st.sampled_from(ids + ["ghost"] * draw(st.integers(0, 1))),
                                min_size=2, max_size=n, unique=True))
    round_no = draw(st.integers(1, 3))
    if draw(st.booleans()):  # a ratings file, its key column first or last, unlike the experts file's
        rest = [eid for eid in ids if eid not in respondents]
        non_respondents = draw(st.lists(st.sampled_from(rest), min_size=1, unique=True) if rest else st.just([]))
        rnd = parsed_round(round_no, draw(st.permutations(respondents + non_respondents)), non_respondents,
                           draw(st.booleans()), draw(st.integers(0, 1)))
    else:
        rnd = RatingRound(round_no=round_no, scale_max=5,
                          distributed=len(respondents), indicator_ids=("a", "b"),
                          ratings={eid: (1, 2) for eid in respondents})

    value = st.one_of(st.sampled_from(AUTHORITY_VALUES), st.floats(0.0, 0.4))
    ca_table = DEFAULT_CA_TABLE
    if draw(st.booleans()):
        ca_table = {b: {i: draw(value) for i in Impact} for b in JudgmentBasis}
        if draw(st.integers(0, 5)) == 0:
            del ca_table[draw(st.sampled_from(tuple(JudgmentBasis)))][draw(st.sampled_from(tuple(Impact)))]
    cs_map = DEFAULT_CS_MAP
    if draw(st.booleans()):
        cs_map = {level: draw(st.one_of(value, st.floats(0.0, 1.2))) for level in Familiarity}
        if draw(st.integers(0, 5)) == 0:
            del cs_map[draw(st.sampled_from(tuple(Familiarity)))]
    return rnd, profiles, ca_table, cs_map


@settings(max_examples=200, deadline=None)
@given(authority_cases())
def test_round_authority_equals_loop_reference(tmp_path_factory, case):
    rnd, profiles, ca_table, cs_map = case
    if isinstance(profiles, tuple):
        path = tmp_path_factory.mktemp("experts") / "experts.csv"
        path.write_text(profiles[0], encoding="utf-8")
        profiles = parse_experts(path)
    expected, got = _same_outcome(
        lambda: reference_authority(rnd, profiles, ca_table, cs_map),
        lambda: round_consensus(rnd, profiles, ca_table=ca_table, cs_map=cs_map))
    if expected is None:
        return
    assert (got.ca, got.cs, got.cr) == expected
    assert all(type(v) is float for v in (got.ca, got.cs, got.cr))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((2, 50, 1000, 3000)))
def test_authority_of_large_panels_equals_loop_reference(tmp_path_factory, seed, n):
    """The demo lookups over panels big enough for float rounding to build up."""
    rng = np.random.default_rng(seed)
    lines = ["id,group,familiarity," + ",".join(BASIS_COLUMNS)]
    for i in range(n):
        lines.append(",".join([f"e{i}", rng.choice([g.value for g in IdentityGroup]),
                               rng.choice([f.value for f in Familiarity]),
                               *rng.choice([m.value for m in Impact], size=4)]))
    path = tmp_path_factory.mktemp("experts") / "experts.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    profiles = parse_experts(path)
    ids = [f"e{i}" for i in rng.permutation(n)[:max(2, n - n // 7)].tolist()]
    rnd = RatingRound(round_no=1, scale_max=5, distributed=n, indicator_ids=("a", "b"),
                      ratings={eid: (1, 2) for eid in ids})
    got = round_consensus(rnd, profiles)
    assert (got.ca, got.cs, got.cr) == reference_authority(rnd, profiles, DEFAULT_CA_TABLE,
                                                           DEFAULT_CS_MAP)


IMPORTANCE_CELLS = (1, 2, 4, 5, 6, 7, 0, 8, -1, True, False, np.bool_(True), np.int32(6),
                    np.int64(9), np.uint8(3), 7.0)


@st.composite
def importance_inputs(draw):
    """(item ids, ratings, relevance floor): lists, integer ndarrays, bad and ragged cells."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(0, 12))
    item_ids = [f"i{j}" for j in range(k)]
    floor = draw(st.sampled_from((5, 1, 7, 8, 4.5)))
    if draw(st.booleans()):
        dtype = draw(st.sampled_from((np.int8, np.int16, np.int64, np.uint8)))
        top = 9 if draw(st.integers(0, 3)) == 0 else 7
        low = 0 if draw(st.integers(0, 3)) == 0 else 1
        cells = draw(st.lists(st.integers(low, top), min_size=n * k, max_size=n * k))
        width = k if draw(st.integers(0, 5)) else k + 1
        ratings = np.array(cells + [7] * (n * (width - k)), dtype=dtype).reshape(n, width)
        return item_ids, ratings, floor
    rate = draw(st.sampled_from((0, 10, 3)))

    def messy():
        return rate and draw(st.integers(1, rate)) == 1

    rows = []
    for _ in range(n):
        width = draw(st.integers(max(0, k - 1), k + 1)) if messy() else k
        rows.append([draw(st.sampled_from(IMPORTANCE_CELLS if messy() else (1, 3, 5, 6, 7)))
                     for _ in range(width)])
    return item_ids, draw(st.sampled_from((rows, [tuple(r) for r in rows]))), floor


@settings(max_examples=300, deadline=None)
@given(importance_inputs())
def test_validity_report_equals_loop_reference(case):
    item_ids, ratings, floor = case
    with patch("stagekit.psychometrics.RELEVANCE_FLOOR", floor):
        expected, got = _same_outcome(
            lambda: reference_validity_report(item_ids, ratings, floor),
            lambda: validity_report(item_ids, ratings))
    if expected is None:
        return
    assert got == expected
    assert all(type(it.importance_mean) is float and type(it.i_cvi) is float for it in got.items)
    assert type(got.s_cvi) is float
