import math
import re

import numpy as np
import pytest

from stagekit import (
    DegenerateDataError,
    IncompleteWeightsError,
    Instrument,
    InvalidInputError,
    Question,
    ResponseSet,
    composite,
    load_default_instrument,
    question_proportional_weights,
    score_consumer,
    score_expert_bonus,
    score_software,
)


def two_dim_instrument():
    questions = tuple(Question(id=f"q{i}", text=f"Question {i}") for i in range(1, 7))
    return Instrument(
        indices=(
            ("d1.a", ("q1", "q2")),
            ("d1.b", ("q3",)),
            ("d2.c", ("q4", "q5", "q6")),
        ),
        questions=questions,
        dimension_of={"d1.a": "d1", "d1.b": "d1", "d2.c": "d2"},
    )


WEIGHTS = {"d1": 0.6, "d2": 0.4, "d1.a": 0.7, "d1.b": 0.3, "d2.c": 1.0}


def make_responses(rows, bonus=None):
    rs = ResponseSet(
        question_ids=("q1", "q2", "q3", "q4", "q5", "q6"),
        consumer=rows,
    )
    if bonus:
        rs = rs.with_bonus(("b1", "b2"), bonus)
    return rs


class TestScoreConsumer:
    def test_hand_computed_case(self):
        # Worked by hand: r1 normalizes to (1, .5, .75, 0, .25, 1):
        #   index A = .75, B = .75, C = 5/12; d1 = 75, d2 = 125/3.
        # r2 normalizes to (.5, .5, .25, .75, .75, .5):
        #   index A = .5, B = .25, C = 2/3; d1 = 42.5, d2 = 200/3.
        rows = {
            "r1": (4, 2, 3, 0, 1, 4),
            "r2": (2, 2, 1, 3, 3, 2),
        }
        scores = score_consumer(make_responses(rows), two_dim_instrument(), WEIGHTS)
        assert scores.per_respondent["r1"]["d1"] == pytest.approx(75.0, abs=1e-12)
        assert scores.per_respondent["r1"]["d2"] == pytest.approx(125 / 3, abs=1e-12)
        assert scores.per_respondent["r2"]["d1"] == pytest.approx(42.5, abs=1e-12)
        assert scores.per_respondent["r2"]["d2"] == pytest.approx(200 / 3, abs=1e-12)
        assert scores.pooled_dimensions["d1"] == pytest.approx(58.75, abs=1e-12)
        assert scores.pooled_dimensions["d2"] == pytest.approx(325 / 6, abs=1e-12)
        assert scores.pooled_indices["d1.a"] == pytest.approx(62.5, abs=1e-12)
        assert scores.pooled_indices["d1.b"] == pytest.approx(50.0, abs=1e-12)
        assert scores.pooled_indices["d2.c"] == pytest.approx(1300 / 24, abs=1e-12)
        assert scores.imputed == ()

    def test_saturation_and_floor(self):
        top = make_responses({"r1": (4,) * 6})
        bottom = make_responses({"r1": (0,) * 6})
        instrument = two_dim_instrument()
        assert score_consumer(top, instrument, WEIGHTS).pooled_dimensions["d1"] == pytest.approx(100.0, abs=1e-9)
        assert score_consumer(bottom, instrument, WEIGHTS).pooled_dimensions["d2"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_answer_imputed_with_question_mean(self):
        rows = {
            "r1": (4, 2, 3, 0, 1, 4),
            "r2": (2, 2, 1, 3, 3, 2),
            "r3": (3, None, 2, 1, 0, 4),
        }
        scores = score_consumer(make_responses(rows), two_dim_instrument(), WEIGHTS)
        assert scores.imputed == (("r3", "q2"),)
        # q2's present answers are 2 and 2, so r3's gap is filled with 2:
        # index A = (.75 + .5) / 2 = .625, B = .5, d1 = 100*(.7*.625 + .3*.5)
        assert scores.per_respondent["r3"]["d1"] == pytest.approx(58.75, abs=1e-12)

    def test_unanswered_question_everywhere_degenerate(self):
        rows = {
            "r1": (4, None, 3, 0, 1, 4),
            "r2": (2, None, 1, 3, 3, 2),
        }
        with pytest.raises(DegenerateDataError):
            score_consumer(make_responses(rows), two_dim_instrument(), WEIGHTS)

    def test_missing_weight_rejected(self):
        partial = {k: v for k, v in WEIGHTS.items() if k != "d1.b"}
        with pytest.raises(IncompleteWeightsError):
            score_consumer(
                make_responses({"r1": (4,) * 6}), two_dim_instrument(), partial
            )

    def test_no_respondents_rejected(self):
        with pytest.raises(InvalidInputError):
            score_consumer(make_responses({}), two_dim_instrument(), WEIGHTS)

    def test_respondent_permutation_invariance(self):
        rows = {
            "r1": (4, 2, 3, 0, 1, 4),
            "r2": (2, 2, 1, 3, 3, 2),
            "r3": (1, 1, 4, 2, 0, 3),
        }
        reordered = {k: rows[k] for k in ("r3", "r1", "r2")}
        a = score_consumer(make_responses(rows), two_dim_instrument(), WEIGHTS)
        b = score_consumer(make_responses(reordered), two_dim_instrument(), WEIGHTS)
        for dim in ("d1", "d2"):
            assert a.pooled_dimensions[dim] == pytest.approx(
                b.pooled_dimensions[dim], abs=1e-12
            )


class TestExpertBonus:
    def test_full_marks_hit_cap(self):
        assert score_expert_bonus({"e1": (4, 4)}, cap=10.0) == pytest.approx(10.0)

    def test_zero_marks(self):
        assert score_expert_bonus({"e1": (0, 0), "e2": (0, 0)}) == 0.0

    def test_reported_example(self):
        bonus = {"e1": (4, 2), "e2": (3, 3)}
        assert score_expert_bonus(bonus, cap=10.0) == pytest.approx(7.5, abs=1e-12)

    def test_list_rows_accepted(self):
        assert score_expert_bonus([[4, 2], [3, 3]], cap=10.0) == pytest.approx(7.5)

    def test_cap_scales_linearly(self):
        bonus = {"e1": (2, 2)}
        assert score_expert_bonus(bonus, cap=5.0) == pytest.approx(2.5, abs=1e-12)
        assert score_expert_bonus(bonus, cap=20.0) == pytest.approx(10.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            score_expert_bonus({})

    def test_bool_and_out_of_range_ratings_name_the_cell(self):
        with pytest.raises(InvalidInputError, match=r"expert e2, bonus rating 2: True"):
            score_expert_bonus({"e1": (4, 2), "e2": (3, True)})
        with pytest.raises(InvalidInputError, match=r"expert 2, bonus rating 1: 5"):
            score_expert_bonus([[4, 2], [5, 3]])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            score_expert_bonus({"e1": (5, 0)})

    def test_bad_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            score_expert_bonus({"e1": (4, 4)}, cap=0.0)


class TestComposite:
    def test_uniform_weights(self):
        card = composite(
            {"a": 60.0, "b": 90.0, "c": 90.0},
            {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3},
            bonus=0.0,
        )
        assert card.composite == pytest.approx(80.0, abs=1e-12)
        assert card.final == pytest.approx(80.0, abs=1e-12)

    def test_degenerate_single_dimension_weight(self):
        card = composite({"a": 60.0, "b": 90.0}, {"a": 1.0, "b": 0.0}, bonus=0.0)
        assert card.composite == pytest.approx(60.0, abs=1e-12)

    def test_ceiling_with_full_bonus(self):
        card = composite(
            {"a": 100.0, "b": 100.0}, {"a": 0.5, "b": 0.5}, bonus=10.0, cap=10.0
        )
        assert card.final == pytest.approx(110.0, abs=1e-12)
        assert card.final_rescaled == pytest.approx(100.0, abs=1e-12)

    def test_rescaling_formula(self):
        card = composite({"a": 50.0}, {"a": 1.0}, bonus=5.0, cap=10.0)
        assert card.final == pytest.approx(55.0, abs=1e-12)
        assert card.final_rescaled == pytest.approx(55.0 / 110.0 * 100.0, abs=1e-12)

    def test_weight_sum_enforced(self):
        with pytest.raises(InvalidInputError):
            composite({"a": 50.0, "b": 50.0}, {"a": 0.5, "b": 0.6}, bonus=0.0)

    def test_missing_dimension_weight_rejected(self):
        with pytest.raises(IncompleteWeightsError):
            composite({"a": 50.0, "b": 50.0}, {"a": 1.0}, bonus=0.0)

    def test_unknown_dimension_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            composite({"a": 50.0}, {"a": 0.5, "zz": 0.5}, bonus=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_score_or_weight_rejected(self, value):
        message = "^dimension scores and weights must be finite numbers$"
        with pytest.raises(InvalidInputError, match=message):
            composite({"d": value}, {"d": 1.0}, 0.0)
        with pytest.raises(InvalidInputError, match=message):
            composite({"d": 50.0, "e": 50.0}, {"d": value, "e": 0.5}, 0.0)

    def test_bonus_outside_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            composite({"a": 50.0}, {"a": 1.0}, bonus=10.5, cap=10.0)
        with pytest.raises(InvalidInputError):
            composite({"a": 50.0}, {"a": 1.0}, bonus=-0.5, cap=10.0)


@pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
def test_bonus_cap_must_be_positive_and_finite(cap):
    message = re.escape(f"bonus cap must be a positive finite number, got {cap!r}")
    with pytest.raises(InvalidInputError, match=message):
        score_expert_bonus({"e1": (4, 4)}, cap=cap)
    with pytest.raises(InvalidInputError, match=message):
        composite({"a": 50.0}, {"a": 1.0}, bonus=0.0, cap=cap)

class TestScoreSoftware:
    def test_end_to_end_with_bonus(self):
        rows = {
            "r1": (4, 2, 3, 0, 1, 4),
            "r2": (2, 2, 1, 3, 3, 2),
        }
        bonus = {"e1": (4, 2), "e2": (3, 3)}
        card = score_software(
            make_responses(rows, bonus), two_dim_instrument(), WEIGHTS
        )
        expected_core = 0.6 * 58.75 + 0.4 * 325 / 6
        assert card.composite == pytest.approx(expected_core, abs=1e-12)
        assert card.bonus == pytest.approx(7.5, abs=1e-12)
        assert card.final == pytest.approx(expected_core + 7.5, abs=1e-12)
        assert card.final_rescaled == pytest.approx(
            (expected_core + 7.5) / 110 * 100, abs=1e-12
        )
        assert card.n_respondents == 2

    def test_without_bonus_rows(self):
        rows = {"r1": (4, 2, 3, 0, 1, 4), "r2": (2, 2, 1, 3, 3, 2)}
        card = score_software(make_responses(rows), two_dim_instrument(), WEIGHTS)
        assert card.bonus == 0.0
        assert card.final == card.composite

    def test_single_answer_increase_never_lowers_scores(self):
        rng = np.random.default_rng(191)
        instrument = two_dim_instrument()
        for _ in range(200):
            rows = {
                f"r{i}": tuple(int(v) for v in rng.integers(0, 5, size=6))
                for i in range(4)
            }
            rid = f"r{int(rng.integers(0, 4))}"
            j = int(rng.integers(0, 6))
            if rows[rid][j] == 4:
                continue
            bumped = dict(rows)
            row = list(bumped[rid])
            row[j] += 1
            bumped[rid] = tuple(row)
            before = score_software(make_responses(rows), instrument, WEIGHTS)
            after = score_software(make_responses(bumped), instrument, WEIGHTS)
            for dim in before.dimension_scores:
                assert after.dimension_scores[dim] >= before.dimension_scores[dim] - 1e-12
            assert after.composite >= before.composite - 1e-12
            assert after.final >= before.final - 1e-12

    def test_final_range_property(self):
        rng = np.random.default_rng(193)
        instrument = two_dim_instrument()
        for _ in range(50):
            rows = {
                f"r{i}": tuple(int(v) for v in rng.integers(0, 5, size=6))
                for i in range(3)
            }
            bonus = {"e1": tuple(int(v) for v in rng.integers(0, 5, size=2))}
            card = score_software(make_responses(rows, bonus), instrument, WEIGHTS)
            assert -1e-9 <= card.final <= 110 + 1e-9
            assert -1e-9 <= card.final_rescaled <= 100 + 1e-9


class TestLocalWeightTypes:
    """Every local weight is read as a finite real number before any arithmetic."""

    ROWS = {"r1": (4, 2, 3, 0, 1, 4), "r2": (2, None, 1, 3, 3, 2)}

    @pytest.mark.parametrize("node", ["d1", "d1.b"])
    @pytest.mark.parametrize("value", ["0.5", True, None, 1j, b"1", [0.5]])
    def test_non_real_weight_names_its_node(self, node, value):
        weights = {**WEIGHTS, node: value}
        message = f"^node {re.escape(node)}: local weight {re.escape(repr(value))} is not a real number$"
        for score in (score_consumer, score_software):
            with pytest.raises(InvalidInputError, match=message):
                score(make_responses(self.ROWS), two_dim_instrument(), weights)

    @pytest.mark.parametrize("node", ["d1", "d1.b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan), 10**400])
    def test_non_finite_weight_keeps_the_finite_message(self, node, value):
        weights = {**WEIGHTS, node: value}
        for score in (score_consumer, score_software):
            with pytest.raises(InvalidInputError, match="^dimension scores and weights must be finite numbers$"):
                score(make_responses(self.ROWS), two_dim_instrument(), weights)

    def test_dimension_score_past_the_float_range_is_not_finite(self):
        weights = {**WEIGHTS, "d1.b": 1e308}
        with pytest.raises(InvalidInputError, match="^dimension scores and weights must be finite numbers$"):
            score_software(make_responses(self.ROWS), two_dim_instrument(), weights)

    @pytest.mark.parametrize("kind", [np.float32, np.float64, float])
    def test_numpy_and_int_weights_score_as_their_float_value(self, kind):
        weights = {key: kind(value) for key, value in {**WEIGHTS, "d1": 0.5, "d2": 0.5}.items()}
        weights["d2.c"] = 1  # an int
        as_floats = {key: float(value) for key, value in weights.items()}
        expected = score_software(make_responses(self.ROWS), two_dim_instrument(), as_floats)
        card = score_software(make_responses(self.ROWS), two_dim_instrument(), weights)
        assert card == expected
        assert all(type(w) is float for w in card.dimension_weights.values())


class TestQuestionProportionalWeights:
    def test_collapses_to_plain_mean(self):
        # With count-proportional weights the composite must equal 100 times
        # the overall mean of normalized answers, for any response pattern.
        instrument = load_default_instrument()
        weights = question_proportional_weights(instrument)
        rng = np.random.default_rng(197)
        for _ in range(20):
            rows = {
                f"r{i}": tuple(int(v) for v in rng.integers(0, 5, size=21))
                for i in range(5)
            }
            rs = ResponseSet(question_ids=instrument.question_ids, consumer=rows)
            card = score_software(rs, instrument, weights)
            flat = np.asarray([rows[r] for r in rows], dtype=float) / 4.0
            assert card.composite == pytest.approx(100.0 * flat.mean(), abs=1e-12)

    def test_weights_are_count_shares(self):
        instrument = load_default_instrument()
        weights = question_proportional_weights(instrument)
        for dim in instrument.dimensions():
            indices = instrument.indices_of_dimension(dim)
            dim_count = sum(len(instrument.questions_of(i)) for i in indices)
            assert weights[dim] == pytest.approx(dim_count / 21, abs=1e-15)
            for idx in indices:
                assert weights[idx] == pytest.approx(
                    len(instrument.questions_of(idx)) / dim_count, abs=1e-15
                )

    def test_sibling_sums_are_one(self):
        instrument = load_default_instrument()
        weights = question_proportional_weights(instrument)
        assert sum(weights[d] for d in instrument.dimensions()) == pytest.approx(1.0, abs=1e-12)
        for dim in instrument.dimensions():
            total = sum(weights[i] for i in instrument.indices_of_dimension(dim))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_balanced_instrument_equal_weights_identity(self):
        # When every dimension holds the same number of questions, the
        # proportional weights degenerate to equal sibling weights.
        questions = tuple(Question(id=f"q{i}", text=f"Q{i}") for i in range(1, 9))
        balanced = Instrument(
            indices=(
                ("d1.a", ("q1", "q2")),
                ("d1.b", ("q3", "q4")),
                ("d2.c", ("q5", "q6")),
                ("d2.d", ("q7", "q8")),
            ),
            questions=questions,
            dimension_of={"d1.a": "d1", "d1.b": "d1", "d2.c": "d2", "d2.d": "d2"},
        )
        weights = question_proportional_weights(balanced)
        assert weights == {
            "d1": 0.5, "d2": 0.5, "d1.a": 0.5, "d1.b": 0.5, "d2.c": 0.5, "d2.d": 0.5,
        }
