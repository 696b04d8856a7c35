import re

import numpy as np
import pytest

from stagekit import (
    IndicatorNode,
    IndicatorTree,
    Instrument,
    InvalidInputError,
    Level,
    Question,
    RatingRound,
    ResponseSet,
    default_tree,
    demo_weighted_tree,
    load_default_instrument,
    validate_tree,
)
from stagekit.model import ExpertPanel, RowMatrix


def node(node_id, level, parent=None, weight=None, bonus=False):
    return IndicatorNode(
        id=node_id,
        name=node_id.upper(),
        level=level,
        parent_id=parent,
        local_weight=weight,
        bonus=bonus,
    )


class TestIndicatorNode:
    def test_weight_range_enforced(self):
        with pytest.raises(InvalidInputError):
            node("d", Level.DIMENSION, weight=1.5)
        with pytest.raises(InvalidInputError):
            IndicatorNode(id="d", name="D", level=Level.DIMENSION, global_weight=-0.1)

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidInputError):
            node("", Level.DIMENSION)


class TestIndicatorTree:
    def test_nodes_sorted_by_id(self):
        tree = IndicatorTree(nodes=(
            node("z", Level.DIMENSION),
            node("a", Level.DIMENSION),
        ))
        assert [n.id for n in tree.nodes] == ["a", "z"]

    def test_lookup_and_children(self):
        tree = IndicatorTree(nodes=(
            node("d", Level.DIMENSION),
            node("d.x", Level.INDEX, parent="d"),
            node("d.y", Level.INDEX, parent="d"),
        ))
        assert tree.node("d.x").parent_id == "d"
        assert tree.node("missing") is None
        assert "d.y" in tree
        assert [n.id for n in tree.children("d")] == ["d.x", "d.y"]
        assert [n.id for n in tree.leaves()] == ["d.x", "d.y"]

    def test_sibling_groups_root_first(self):
        tree = IndicatorTree(nodes=(
            node("d", Level.DIMENSION),
            node("d.x", Level.INDEX, parent="d"),
        ))
        groups = tree.sibling_groups()
        assert groups[0][0] is None
        assert [n.id for n in groups[0][1]] == ["d"]
        assert groups[1][0] == "d"


class TestValidateTree:
    def test_default_tree_is_valid(self):
        assert validate_tree(default_tree()) == []
        assert validate_tree(demo_weighted_tree()) == []

    def test_empty_tree_is_valid(self):
        assert validate_tree(IndicatorTree(nodes=())) == []

    def test_dimension_with_parent_flagged(self):
        tree = IndicatorTree(nodes=(
            node("a", Level.DIMENSION),
            IndicatorNode(id="b", name="B", level=Level.DIMENSION, parent_id="a"),
        ))
        problems = validate_tree(tree)
        assert len(problems) == 1
        assert "must have no parent" in problems[0]

    def test_orphan_index_flagged(self):
        tree = IndicatorTree(nodes=(node("x", Level.INDEX),))
        problems = validate_tree(tree)
        assert any("has no parent" in p for p in problems)

    def test_missing_parent_flagged(self):
        tree = IndicatorTree(nodes=(node("x", Level.INDEX, parent="ghost"),))
        problems = validate_tree(tree)
        assert any("does not exist" in p for p in problems)

    def test_level_skip_flagged(self):
        tree = IndicatorTree(nodes=(
            node("d", Level.DIMENSION),
            node("d.i", Level.ITEM, parent="d"),
        ))
        problems = validate_tree(tree)
        assert any("item parent must be a index" in p for p in problems)

    def test_bonus_purity_both_directions(self):
        mixed_a = IndicatorTree(nodes=(
            node("d", Level.DIMENSION),
            node("d.x", Level.INDEX, parent="d", bonus=True),
        ))
        assert any("bonus node inside a non-bonus" in p for p in validate_tree(mixed_a))
        mixed_b = IndicatorTree(nodes=(
            node("d", Level.DIMENSION, bonus=True),
            node("d.x", Level.INDEX, parent="d"),
        ))
        assert any("non-bonus node inside a bonus" in p for p in validate_tree(mixed_b))

    def test_sibling_weight_sum_checked_when_complete(self):
        bad = IndicatorTree(nodes=(
            node("a", Level.DIMENSION, weight=0.7),
            node("b", Level.DIMENSION, weight=0.7),
        ))
        assert any("sum to" in p for p in validate_tree(bad))
        # Unweighted groups are not judged.
        open_tree = IndicatorTree(nodes=(
            node("a", Level.DIMENSION, weight=0.7),
            node("b", Level.DIMENSION),
        ))
        assert validate_tree(open_tree) == []

    def test_bonus_weights_not_normalized(self):
        tree = IndicatorTree(nodes=(
            node("a", Level.DIMENSION, weight=1.0),
            node("x", Level.DIMENSION, weight=0.9, bonus=True),
            node("y", Level.DIMENSION, weight=0.9, bonus=True),
        ))
        assert validate_tree(tree) == []


class TestRatingRound:
    def test_row_length_enforced(self):
        with pytest.raises(InvalidInputError):
            RatingRound(
                round_no=1, scale_max=5, distributed=2,
                indicator_ids=("a", "b"), ratings={"e1": (5,)},
            )

    def test_value_range_enforced(self):
        with pytest.raises(InvalidInputError):
            RatingRound(
                round_no=1, scale_max=5, distributed=2,
                indicator_ids=("a",), ratings={"e1": (6,)},
            )
        with pytest.raises(InvalidInputError):
            RatingRound(
                round_no=1, scale_max=5, distributed=2,
                indicator_ids=("a",), ratings={"e1": (0,)},
            )

    def test_distributed_lower_bound(self):
        with pytest.raises(InvalidInputError):
            RatingRound(
                round_no=1, scale_max=5, distributed=1,
                indicator_ids=("a",), ratings={"e1": (5,), "e2": (4,)},
            )

    def test_duplicate_indicator_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            RatingRound(
                round_no=1, scale_max=5, distributed=1,
                indicator_ids=("a", "a"), ratings={"e1": (5, 4)},
            )

    def test_bool_rating_rejected(self):
        with pytest.raises(InvalidInputError, match=r"expert e, indicator b: rating True"):
            RatingRound(
                round_no=1, scale_max=5, distributed=1,
                indicator_ids=("a", "b"), ratings={"e": (3, True)},
            )

    def test_column_and_matrix(self):
        rnd = RatingRound(
            round_no=2, scale_max=5, distributed=3,
            indicator_ids=("a", "b"),
            ratings={"e1": (5, 4), "e2": (3, 2)},
            non_respondents=("e3",),
        )
        assert rnd.returned == 2
        assert rnd.ratings.matrix[:, 1].tolist() == [4, 2]
        assert rnd.ratings.matrix.tolist() == [[5, 4], [3, 2]]


class TestInstrument:
    def test_default_shape(self):
        instrument = load_default_instrument()
        assert len(instrument.questions) == 21
        assert len(instrument.indices) == 8
        assert len(instrument.dimensions()) == 3
        counts = [len(qids) for _, qids in instrument.indices]
        assert sorted(counts) == [2, 2, 2, 2, 3, 3, 3, 4]
        assert len(instrument.bonus_indicators) == 2

    def test_every_question_has_exactly_one_index(self):
        instrument = load_default_instrument()
        seen = {}
        for index_id, qids in instrument.indices:
            for qid in qids:
                assert qid not in seen
                seen[qid] = index_id
        assert set(seen) == set(instrument.question_ids)

    def test_dimension_grouping(self):
        instrument = load_default_instrument()
        for dim in instrument.dimensions():
            for idx in instrument.indices_of_dimension(dim):
                assert instrument.dimension_of[idx] == dim

    def test_duplicate_question_assignment_rejected(self):
        questions = (Question(id="q1", text="Q1"), Question(id="q2", text="Q2"))
        with pytest.raises(InvalidInputError):
            Instrument(
                indices=(("i1", ("q1", "q2")), ("i2", ("q2",))),
                questions=questions,
                dimension_of={"i1": "d", "i2": "d"},
            )

    def test_unassigned_question_rejected(self):
        questions = (Question(id="q1", text="Q1"), Question(id="q2", text="Q2"))
        with pytest.raises(InvalidInputError):
            Instrument(
                indices=(("i1", ("q1",)),),
                questions=questions,
                dimension_of={"i1": "d"},
            )

    def test_unknown_question_reference_rejected(self):
        questions = (Question(id="q1", text="Q1"),)
        with pytest.raises(InvalidInputError):
            Instrument(
                indices=(("i1", ("q1", "ghost")),),
                questions=questions,
                dimension_of={"i1": "d"},
            )

    def test_instrument_matches_default_tree(self):
        # The questionnaire's indices/dimensions mirror the indicator tree.
        instrument = load_default_instrument()
        tree = default_tree()
        assert len(tree) == 27  # 3 dimensions + 8 indices + 16 items
        for idx, _ in instrument.indices:
            assert idx in tree
            assert tree.node(idx).level == Level.INDEX
            assert tree.node(idx).parent_id == instrument.dimension_of[idx]
        # Supplementary indicators sit beside the tree, not inside it.
        for bid, _ in instrument.bonus_indicators:
            assert bid not in tree


class TestResponseSet:
    def test_missing_cells_tracked(self):
        rs = ResponseSet(
            question_ids=("q1", "q2"),
            consumer={"r1": (4, None), "r2": (3, 2)},
        )
        assert rs.respondents == ("r1", "r2")
        assert rs.complete_mask.tolist() == [False, True]
        assert rs.missing_cells() == (("r1", "q2"),)

    def test_value_range_enforced(self):
        with pytest.raises(InvalidInputError):
            ResponseSet(question_ids=("q1",), consumer={"r1": (5,)})
        with pytest.raises(InvalidInputError):
            ResponseSet(question_ids=("q1",), consumer={"r1": (-1,)})

    def test_row_length_enforced(self):
        with pytest.raises(InvalidInputError):
            ResponseSet(question_ids=("q1", "q2"), consumer={"r1": (4,)})

    def test_bonus_rows_disallow_missing(self):
        with pytest.raises(InvalidInputError):
            ResponseSet(
                question_ids=("q1",),
                consumer={"r1": (4,)},
                bonus_ids=("b1",),
                expert_bonus={"e1": (None,)},
            )

    def test_bool_answer_rejected(self):
        with pytest.raises(InvalidInputError, match=r"respondent r, question q2: answer True"):
            ResponseSet(question_ids=("q1", "q2"), consumer={"r": (1, True)})
        with pytest.raises(InvalidInputError, match=r"expert e, bonus indicator b1: rating False"):
            ResponseSet(question_ids=("q1",), consumer={"r": (1,)},
                        bonus_ids=("b1",), expert_bonus={"e": (False,)})

    def test_first_bad_cell_reported(self):
        with pytest.raises(InvalidInputError, match=r"respondent r2, question q1: answer 2.5"):
            ResponseSet(question_ids=("q1", "q2"),
                        consumer={"r1": (1, None), "r2": (2.5, 9), "r3": (7, 1)})

    def test_consumer_reads_as_a_mapping_of_rows(self):
        rows = {"r1": (4, None), "r2": (0, 3)}
        rs = ResponseSet(question_ids=("q1", "q2"), consumer=rows)
        assert len(rs.consumer) == 2
        assert rs.consumer["r1"] == (4, None)
        assert list(rs.consumer.items()) == list(rows.items())
        assert {**rs.consumer} == rows
        assert rs.consumer == rows
        assert "r3" not in rs.consumer
        assert rs.consumer.matrix.tolist() == [[4, -1], [0, 3]]
        with pytest.raises(ValueError):
            rs.consumer.matrix[0, 0] = 1

    def test_matrix_is_shared_not_rebuilt(self):
        rs = ResponseSet(question_ids=("q1",), consumer={"r1": (4,)})
        assert ResponseSet(question_ids=("q1",), consumer=rs.consumer).consumer is rs.consumer
        assert rs.with_bonus(("b1",), {"e1": (2,)}).consumer is rs.consumer

    def test_with_bonus_round_trip(self):
        rs = ResponseSet(question_ids=("q1",), consumer={"r1": (4,)})
        rs2 = rs.with_bonus(("b1", "b2"), {"e1": (4, 2)})
        assert rs2.bonus_ids == ("b1", "b2")
        assert rs2.expert_bonus["e1"] == (4, 2)
        assert rs2.consumer == rs.consumer


def row_matrix(rows, dtype=np.int8):
    return RowMatrix({f"r{i}": i for i in range(len(rows))}, np.array(rows, dtype=dtype))


class TestMatrixHandedIn:
    """A RowMatrix handed in is checked by one vectorised test; its first bad cell is reported."""

    @pytest.mark.parametrize("rows, scale_max, dtype, message", [
        ([[5, 4, 3]], 5, np.int8, "matrix has 3 columns, expected 2"),
        ([[5, 4], [3, 9], [6, 1]], 5, np.int8, "expert r1, indicator b: rating 9 outside [1, 5]"),
        ([[5, 0]], 5, np.int8, "expert r0, indicator b: rating 0 outside [1, 5]"),
        ([[200, 201]], 200, np.int64, "expert r0, indicator b: rating 201 outside [1, 200]"),
    ], ids=["width", "above", "below", "int64"])
    def test_rating_round(self, rows, scale_max, dtype, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            RatingRound(round_no=1, scale_max=scale_max, distributed=3, indicator_ids=("a", "b"),
                        ratings=row_matrix(rows, dtype))

    @pytest.mark.parametrize("consumer, bonus, message", [
        ([[4]], [[0]], "matrix has 1 columns, expected 2"),
        ([[4, -1], [5, 0]], [[0]], "respondent r1, question q1: answer 5 outside [0, 4]"),
        ([[4, -2]], [[0]], "respondent r0, question q2: answer -2 outside [0, 4]"),
        ([[4, 0]], [[0], [-1]], "expert r1, bonus indicator b1: rating -1 outside [0, 4]"),
        ([[4, 0]], [[0, 1]], "matrix has 2 columns, expected 1"),
    ], ids=["consumer-width", "answer-above", "answer-below-missing", "bonus-missing", "bonus-width"])
    def test_response_set(self, consumer, bonus, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            ResponseSet(question_ids=("q1", "q2"), consumer=row_matrix(consumer),
                        bonus_ids=("b1",), expert_bonus=row_matrix(bonus))

    def test_repeated_row_id_fails_on_first_lookup(self):
        rows = RowMatrix(("a", "b", "a"), np.array([[1], [2], [3]], np.int8))
        with pytest.raises(InvalidInputError, match="^repeated row id 'a'$"):
            rows["b"]
        panel = ExpertPanel(("e1", "e2", "e2"), np.zeros((3, len(ExpertPanel.ENUMS)), np.int8))
        with pytest.raises(InvalidInputError, match="^repeated row id 'e2'$"):
            panel.row_of
