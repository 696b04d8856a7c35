import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    citc_oracle,
    cronbach_alpha_oracle,
    pearson_oracle,
    two_item_matrix_with_corr,
)
from stagekit import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
    Instrument,
    Question,
    ResponseSet,
    alpha_if_deleted,
    corrected_item_total,
    cronbach_alpha,
    i_cvi,
    load_default_instrument,
    reliability_report,
    s_cvi,
    validity_report,
)
from stagekit import psychometrics
from stagekit.model import MISSING, RowMatrix
from stagekit.psychometrics import CITC_FLOOR


def random_scores(rng, n, k):
    """Correlated integer response matrix on the 0-4 scale."""
    ability = rng.normal(0, 1, size=n)
    raw = 2.0 + ability[:, None] + rng.normal(0, 0.8, size=(n, k))
    return np.clip(np.rint(raw), 0, 4)


class TestCronbachAlpha:
    def test_identical_columns_give_one(self):
        col = np.array([0.0, 1, 3, 4, 2, 1, 0, 4])
        arr = np.column_stack([col, col, col])
        assert cronbach_alpha(arr) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_two_item_closed_form(self, r):
        # Sample correlation pinned at r by construction; equal variances,
        # so alpha collapses to the two-item form 2r / (1 + r).
        arr = two_item_matrix_with_corr(r, blocks=6)
        assert cronbach_alpha(arr) == pytest.approx(2 * r / (1 + r), abs=1e-9)

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, 10))
            arr = random_scores(rng, n, k)
            if arr.sum(axis=1).var(ddof=1) == 0:
                continue
            assert cronbach_alpha(arr) == pytest.approx(
                cronbach_alpha_oracle(arr), abs=1e-10
            )

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_matrix_oracle_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 5, size=(n, k)).astype(float)
        if arr.sum(axis=1).var(ddof=1) == 0:
            with pytest.raises(DegenerateDataError):
                cronbach_alpha(arr)
            return
        assert cronbach_alpha(arr) == pytest.approx(cronbach_alpha_oracle(arr), abs=1e-10)

    def test_location_and_scale_invariance(self):
        rng = np.random.default_rng(103)
        arr = random_scores(rng, 30, 5)
        base = cronbach_alpha(arr)
        assert cronbach_alpha(3.7 * arr + 11.0) == pytest.approx(base, abs=1e-12)

    def test_negative_alpha_reported_as_is(self):
        # Items in opposition produce a negative alpha; it must come through.
        x = np.array([0.0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        arr = np.column_stack([x, 4 - x + np.arange(10) % 2])
        alpha = cronbach_alpha(arr)
        assert alpha < 0
        assert alpha == pytest.approx(cronbach_alpha_oracle(arr), abs=1e-10)

    def test_zero_total_variance_degenerate(self):
        arr = np.array([[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateDataError):
            cronbach_alpha(arr)

    def test_single_item_rejected(self):
        with pytest.raises(InsufficientDataError):
            cronbach_alpha([[1.0], [2.0]])

    def test_single_respondent_rejected(self):
        with pytest.raises(InsufficientDataError):
            cronbach_alpha([[1.0, 2.0]])

    def test_missing_values_rejected(self):
        with pytest.raises(InvalidInputError):
            cronbach_alpha([[1.0, np.nan], [2.0, 3.0]])


class TestCorrectedItemTotal:
    def test_two_identical_items(self):
        col = np.array([0.0, 1, 3, 4, 2])
        assert corrected_item_total(np.column_stack([col, col]), 0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(30):
            arr = random_scores(rng, 25, 4)
            for item in range(4):
                rest = arr.sum(axis=1) - arr[:, item]
                if arr[:, item].std() == 0 or rest.std() == 0:
                    continue
                assert corrected_item_total(arr, item) == pytest.approx(
                    citc_oracle(arr, item), abs=1e-12
                )

    def test_near_zero_for_independent_item(self):
        rng = np.random.default_rng(109)
        n = 5000
        signal = rng.normal(0, 1, size=(n, 3)).cumsum(axis=1)
        noise = rng.normal(0, 1, size=n)
        arr = np.column_stack([signal, noise])
        citc = corrected_item_total(arr, 3)
        assert citc == pytest.approx(
            pearson_oracle(noise, signal.sum(axis=1)), abs=1e-12
        )
        assert abs(citc) < 0.1

    def test_affine_invariance(self):
        rng = np.random.default_rng(113)
        arr = random_scores(rng, 40, 5)
        base = corrected_item_total(arr, 2)
        assert corrected_item_total(arr * 2.5 + 1.0, 2) == pytest.approx(base, abs=1e-12)

    def test_constant_item_degenerate(self):
        arr = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 0.0]])
        with pytest.raises(DegenerateDataError):
            corrected_item_total(arr, 0)

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidInputError):
            corrected_item_total([[1.0, 2.0], [3.0, 4.0]], 2)


class TestAlphaIfDeleted:
    def test_equals_alpha_of_submatrix(self):
        rng = np.random.default_rng(127)
        arr = random_scores(rng, 30, 5)
        for item in range(5):
            expected = cronbach_alpha(np.delete(arr, item, axis=1))
            assert alpha_if_deleted(arr, item) == expected

    def test_dropping_noise_item_raises_alpha(self):
        rng = np.random.default_rng(131)
        ability = rng.normal(0, 1, size=200)
        coherent = ability[:, None] + rng.normal(0, 0.3, size=(200, 4))
        noise = rng.normal(0, 2.0, size=200)
        arr = np.column_stack([coherent, noise])
        assert alpha_if_deleted(arr, 4) > cronbach_alpha(arr)

    def test_two_items_rejected(self):
        with pytest.raises(InsufficientDataError):
            alpha_if_deleted([[1.0, 2.0], [2.0, 1.0], [0.0, 3.0]], 0)


class TestContentValidity:
    def test_unanimous_relevance(self):
        assert i_cvi([7, 6, 5, 7, 5]) == 1.0

    def test_seventeen_of_twenty(self):
        ratings = [7] * 10 + [6] * 4 + [5] * 3 + [4, 3, 2]
        assert i_cvi(ratings) == 0.85

    def test_none_relevant(self):
        assert i_cvi([1, 2, 3, 4]) == 0.0

    def test_custom_floor(self):
        assert i_cvi([4, 4, 7, 7], relevance_floor=4) == 1.0

    def test_numpy_integers_accepted(self):
        ratings = np.array([7, 6, 5, 4], dtype=np.int64)
        assert i_cvi(list(ratings)) == 0.75

    def test_monotone_in_ratings(self):
        rng = np.random.default_rng(137)
        for _ in range(100):
            ratings = rng.integers(1, 8, size=10).tolist()
            base = i_cvi(ratings)
            j = int(rng.integers(0, 10))
            raised = list(ratings)
            raised[j] = min(7, raised[j] + 1)
            assert i_cvi(raised) >= base

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            i_cvi([7, 8])
        with pytest.raises(InvalidInputError):
            i_cvi([0, 7])
        with pytest.raises(InvalidInputError):
            i_cvi([])
        with pytest.raises(InvalidInputError):
            i_cvi([6.5, 7])

    def test_scale_level_mean(self):
        values = [1.0, 1.0, 0.85, 0.92, 1.0, 1.0, 0.89, 0.84,
                  1.0, 1.0, 0.85, 0.85, 1.0, 0.85, 0.85, 1.0]
        assert s_cvi(values) == pytest.approx(0.93125, abs=1e-9)

    def test_scale_level_bounds(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            values = rng.uniform(0, 1, size=int(rng.integers(1, 20))).tolist()
            s = s_cvi(values)
            assert min(values) - 1e-12 <= s <= max(values) + 1e-12

    def test_scale_level_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            s_cvi([0.5, 1.2])
        with pytest.raises(InvalidInputError):
            s_cvi([])


def toy_instrument():
    questions = tuple(Question(id=f"q{i}", text=f"Question {i}") for i in range(1, 6))
    return Instrument(
        indices=(("d1.a", ("q1", "q2", "q3")), ("d1.b", ("q4", "q5"))),
        questions=questions,
        dimension_of={"d1.a": "d1", "d1.b": "d1"},
    )


def toy_responses(arr, question_ids=("q1", "q2", "q3", "q4", "q5")):
    return ResponseSet(
        question_ids=tuple(question_ids),
        consumer={f"r{i}": tuple(int(v) for v in row) for i, row in enumerate(arr)},
    )


class TestReliabilityReport:
    def test_totals_and_structure(self):
        rng = np.random.default_rng(149)
        arr = random_scores(rng, 30, 5).astype(int)
        table = reliability_report(toy_responses(arr), toy_instrument())
        assert table.n_respondents == 30
        assert table.n_excluded == 0
        assert table.total_alpha == pytest.approx(
            cronbach_alpha_oracle(arr.astype(float)), abs=1e-10
        )
        assert [ir.index_id for ir in table.indices] == ["d1.a", "d1.b"]
        assert [qr.question_id for qr in table.questions] == ["q1", "q2", "q3", "q4", "q5"]

    def test_per_index_statistics(self):
        rng = np.random.default_rng(151)
        arr = random_scores(rng, 40, 5).astype(int)
        table = reliability_report(toy_responses(arr), toy_instrument())
        sub_a = arr[:, :3].astype(float)
        sub_b = arr[:, 3:].astype(float)
        by_index = {ir.index_id: ir for ir in table.indices}
        assert by_index["d1.a"].alpha == pytest.approx(
            cronbach_alpha_oracle(sub_a), abs=1e-10
        )
        assert by_index["d1.b"].alpha == pytest.approx(
            cronbach_alpha_oracle(sub_b), abs=1e-10
        )
        by_q = {qr.question_id: qr for qr in table.questions}
        # CITC pairs a question with the rest of its own index.
        assert by_q["q1"].citc == pytest.approx(citc_oracle(sub_a, 0), abs=1e-12)
        assert by_q["q4"].citc == pytest.approx(citc_oracle(sub_b, 0), abs=1e-12)
        # alpha-if-deleted only exists inside the 3-question index.
        assert by_q["q1"].alpha_if_deleted == pytest.approx(
            cronbach_alpha_oracle(sub_a[:, 1:]), abs=1e-10
        )
        assert by_q["q4"].alpha_if_deleted is None
        assert by_q["q5"].alpha_if_deleted is None

    def test_flagging_threshold(self):
        rng = np.random.default_rng(157)
        coherent = random_scores(rng, 120, 4).astype(int)
        noise = rng.integers(0, 5, size=120)
        arr = np.column_stack([coherent, noise])
        table = reliability_report(toy_responses(arr), toy_instrument())
        for qr in table.questions:
            assert qr.flagged == (qr.citc is not None and qr.citc < CITC_FLOOR)

    def test_incomplete_respondents_excluded(self):
        rng = np.random.default_rng(163)
        arr = random_scores(rng, 12, 5).astype(int)
        responses_dict = {f"r{i}": tuple(int(v) for v in row) for i, row in enumerate(arr)}
        responses_dict["r_partial"] = (1, None, 2, 3, 4)
        rs = ResponseSet(question_ids=("q1", "q2", "q3", "q4", "q5"), consumer=responses_dict)
        table = reliability_report(rs, toy_instrument())
        assert table.n_respondents == 12
        assert table.n_excluded == 1
        complete_only = reliability_report(toy_responses(arr), toy_instrument())
        assert table.total_alpha == complete_only.total_alpha

    def test_column_mismatch_rejected(self):
        rng = np.random.default_rng(167)
        arr = random_scores(rng, 10, 5).astype(int)
        rs = toy_responses(arr, question_ids=("q1", "q2", "q3", "q4", "qX"))
        with pytest.raises(InvalidInputError):
            reliability_report(rs, toy_instrument())

    def test_too_few_complete_respondents_rejected(self):
        rs = ResponseSet(
            question_ids=("q1", "q2", "q3", "q4", "q5"),
            consumer={"r0": (1, 2, 3, 4, 0), "r1": (1, None, 3, 4, 0)},
        )
        with pytest.raises(InsufficientDataError):
            reliability_report(rs, toy_instrument())

    def test_degenerate_index_noted_not_fatal(self):
        # Index d1.b is constant for everyone; its alpha is undefined but the
        # table still reports the rest.
        rng = np.random.default_rng(173)
        coherent = random_scores(rng, 20, 3).astype(int)
        const = np.full((20, 2), 2, dtype=int)
        arr = np.column_stack([coherent, const])
        table = reliability_report(toy_responses(arr), toy_instrument())
        by_index = {ir.index_id: ir for ir in table.indices}
        assert by_index["d1.b"].alpha is None
        assert by_index["d1.b"].note is not None
        assert by_index["d1.a"].alpha is not None

    def test_default_instrument_shape(self):
        instrument = load_default_instrument()
        rng = np.random.default_rng(179)
        arr = random_scores(rng, 30, 21).astype(int)
        rs = ResponseSet(question_ids=instrument.question_ids,
                         consumer={f"r{i}": tuple(int(v) for v in row) for i, row in enumerate(arr)})
        table = reliability_report(rs, instrument)
        assert len(table.indices) == 8
        assert len(table.questions) == 21
        two_q = [ir for ir in table.indices if ir.n_questions == 2]
        assert len(two_q) == 4
        for qr in table.questions:
            if len(instrument.questions_of(qr.index_id)) == 2:
                assert qr.alpha_if_deleted is None

    def test_memory_of_a_large_panel(self):
        """A 100k x 21 panel, about 1% blank: its blanks are found, and its complete rows made float, a block at a time."""
        instrument = load_default_instrument()
        rng = np.random.default_rng(26)
        matrix = rng.integers(0, 5, size=(100_000, 21), dtype=np.int8)
        matrix[rng.random(matrix.shape) < 0.01] = MISSING
        rs = ResponseSet(question_ids=instrument.question_ids,
                         consumer=RowMatrix([f"r{i}" for i in range(len(matrix))], matrix))
        tracemalloc.start()
        try:
            table = reliability_report(rs, instrument)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 75_000 < table.n_respondents < 85_000
        assert peak <= 2 * 2**20  # the matrix's blank mask alone is 2 MiB, its complete rows' float64 copy 13 MiB


class TestBlockedGram:
    """``_co_deviations`` sums XᵀX over blocks of ``_GRAM_ROWS`` rows, here a few rows each."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 1), st.integers(1, 6),
           st.sampled_from([np.int8, np.int64, np.float64]), st.data())
    def test_equals_one_exact_int64_product(self, block_rows, blocks, offset, k, dtype, data):
        n = max(2, blocks * block_rows + offset)  # a row short of, on or a row past a block boundary
        cells = data.draw(st.lists(st.integers(-100, 100), min_size=n * k, max_size=n * k))
        arr = np.array(cells, dtype).reshape(n, k)
        x = arr.astype(np.int64)
        sums = x.sum(axis=0)
        expected = (n * (x.T @ x) - np.outer(sums, sums)).tolist()
        with patch.object(psychometrics, "_GRAM_ROWS", block_rows):
            got = psychometrics._co_deviations(arr)
        assert got == expected
        assert all(type(v) is int for row in got for v in row)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 12), st.integers(1, 4), st.sampled_from([np.int64, np.float64]),
           st.data())
    def test_blocks_past_float32_products_sum_as_float64(self, block_rows, n, k, dtype, data):
        """Cells of up to ±3000 in blocks of 2-4 rows: a block's products may pass 2**24, so float32 is not taken."""
        cells = data.draw(st.lists(st.integers(-3000, 3000), min_size=n * k, max_size=n * k))
        cells[data.draw(st.integers(0, n * k - 1))] = data.draw(st.sampled_from([-3000, 3000]))
        arr = np.array(cells, dtype).reshape(n, k)
        assert block_rows * 3000**2 >= 2**24
        x = arr.astype(np.int64)
        sums = x.sum(axis=0)
        with patch.object(psychometrics, "_GRAM_ROWS", block_rows):
            assert psychometrics._co_deviations(arr) == (n * (x.T @ x) - np.outer(sums, sums)).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 16), st.integers(1, 4), st.data())
    def test_kept_rows_equal_their_copy(self, block_rows, n, k, data):
        """Summing only the kept rows of each block gives the Gram of those rows copied out."""
        arr = np.array(data.draw(st.lists(st.integers(-1, 4), min_size=n * k, max_size=n * k)), np.int8).reshape(n, k)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        with patch.object(psychometrics, "_GRAM_ROWS", block_rows):
            if keep.sum() < 2:
                with pytest.raises(InsufficientDataError):
                    psychometrics._co_deviations(arr, keep)
                return
            assert psychometrics._co_deviations(arr, keep) == psychometrics._co_deviations(arr[keep])


class TestValidityReport:
    def test_all_relevant(self):
        table = validity_report(["a", "b"], [[7, 6], [5, 7], [6, 6]])
        assert all(item.i_cvi == 1.0 for item in table.items)
        assert table.s_cvi == 1.0
        assert table.s_cvi_passes

    def test_thirteen_rater_column(self):
        ratings = [7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6, 4, 4]
        rows = [[r] for r in ratings]
        table = validity_report(["audio"], rows)
        item = table.items[0]
        assert item.importance_mean == pytest.approx(79 / 13, abs=1e-12)
        assert f"{item.importance_mean:.2f}" == "6.08"
        assert item.i_cvi == pytest.approx(11 / 13, abs=1e-12)
        assert f"{item.i_cvi:.2f}" == "0.85"
        assert item.passes

    def test_failing_item_flagged_but_scale_can_pass(self):
        # One item at 0.75 fails the item floor while the scale average holds.
        rows = []
        for i in range(20):
            row = [7, 7, 7, 7, 7 if i < 15 else 3]
            rows.append(row)
        table = validity_report(["a", "b", "c", "d", "e"], rows)
        weak = table.items[-1]
        assert weak.i_cvi == 0.75
        assert not weak.passes
        assert table.s_cvi == pytest.approx((4 + 0.75) / 5, abs=1e-12)
        assert table.s_cvi_passes

    def test_mean_and_cvi_use_same_column(self):
        rng = np.random.default_rng(181)
        rows = rng.integers(1, 8, size=(9, 4)).tolist()
        table = validity_report(["a", "b", "c", "d"], rows)
        for j, item in enumerate(table.items):
            column = [rows[i][j] for i in range(9)]
            assert item.importance_mean == pytest.approx(np.mean(column), abs=1e-12)
            assert item.i_cvi == pytest.approx(
                sum(1 for v in column if v >= 5) / 9, abs=1e-12
            )

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            validity_report(["a", "b"], [[7, 6], [5]])

    def test_no_raters_rejected(self):
        with pytest.raises(InvalidInputError):
            validity_report(["a"], [])

    @pytest.mark.parametrize("ids, ratings", [
        (["a", "a"], [[5, 6]]),
        (["b", "a", "b"], np.array([[5, 6, 7]], dtype=np.int8)),
    ], ids=["rows", "int-matrix"])
    def test_repeated_item_id_rejected(self, ids, ratings):
        with pytest.raises(InvalidInputError) as exc:
            validity_report(ids, ratings)
        assert str(exc.value) == f"item {ids[-1]!r} given twice"

    def test_out_of_range_rating_rejected(self):
        with pytest.raises(InvalidInputError):
            validity_report(["a"], [[8]])

    @pytest.mark.parametrize("flag", [True, np.bool_(True), False])
    def test_bool_rating_rejected_with_its_cell(self, flag):
        with pytest.raises(InvalidInputError,
                           match=rf"^item b, rater 2: importance rating {flag!r} outside 1\.\.7$"):
            validity_report(["a", "b"], [[7, 7], [7, flag]])
        with pytest.raises(InvalidInputError, match="rater 1: importance rating"):
            i_cvi([flag, 7])

    def test_numpy_integer_ratings_accepted(self):
        rows = np.array([[7, 4], [6, 5]], dtype=np.int32).tolist()
        numpy_rows = [list(row) for row in np.array([[7, 4], [6, 5]], dtype=np.int32)]
        assert validity_report(["a", "b"], numpy_rows) == validity_report(["a", "b"], rows)
