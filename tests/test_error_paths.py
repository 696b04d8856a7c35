"""Error branches that no other test reaches, and numpy scalars handed to library calls.

Each case builds the smallest input that takes one refusal branch and checks
its error class and its whole message.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import stagekit
from stagekit import ahp
from stagekit.ahp import PairwiseMatrix, compose_global, consistency_ratio, principal_weights
from stagekit.consensus import DEFAULT_CA_TABLE, judgment_coefficient, kendalls_w
from stagekit.errors import (
    ConvergenceError,
    IncompleteWeightsError,
    InsufficientDataError,
    InvalidInputError,
    SchemaError,
)
from stagekit.instrument import DEMO_LOCAL_WEIGHTS, load_default_instrument
from stagekit.io import parse_indicators, parse_pairwise, parse_responses
from stagekit.model import (
    ExpertPanel,
    ExpertProfile,
    Familiarity,
    IdentityGroup,
    Impact,
    IndicatorNode,
    IndicatorTree,
    Instrument,
    JudgmentBasis,
    Level,
    Question,
    RowMatrix,
    validate_tree,
)
from stagekit.psychometrics import (
    alpha_if_deleted,
    corrected_item_total,
    cronbach_alpha,
    i_cvi,
    s_cvi,
    validity_report,
)
from stagekit.scoring import score_expert_bonus, score_software

DATA = Path(stagekit.__file__).parent / "data"


def profile(basis) -> ExpertProfile:
    return ExpertProfile(id="e1", identity_group=IdentityGroup.OTHER, familiarity=Familiarity.FAMILIAR,
                         judgment_basis=basis)


class TestAhp:
    def test_power_iteration_that_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(ahp, "POWER_MAX_ITER", 1)
        matrix = PairwiseMatrix(ids=("a", "b", "c"), entries=((1, 3, 5), (1 / 3, 1, 2), (1 / 5, 1 / 2, 1)))
        with pytest.raises(ConvergenceError, match=r"^power iteration did not converge within 1 iterations$"):
            principal_weights(matrix)

    @pytest.mark.parametrize("n", [1, 0])
    def test_consistency_ratio_below_order_2(self, n):
        with pytest.raises(InvalidInputError, match=rf"^matrix order must be >= 2, got {n}$"):
            consistency_ratio(3.0, n)

    def test_core_node_under_a_bonus_ancestor(self):
        tree = IndicatorTree(nodes=(
            IndicatorNode("D1", "core", Level.DIMENSION, local_weight=1.0),
            IndicatorNode("B", "bonus", Level.DIMENSION, bonus=True),
            IndicatorNode("I1", "core under bonus", Level.INDEX, parent_id="B", local_weight=1.0),
        ))
        with pytest.raises(IncompleteWeightsError, match=r"^node B has no local weight$"):
            compose_global(tree)

    def test_core_node_under_a_missing_parent(self):
        tree = IndicatorTree(nodes=(
            IndicatorNode("d", "core", Level.DIMENSION, local_weight=1.0),
            IndicatorNode("d.i", "orphan", Level.INDEX, parent_id="x", local_weight=1.0),
        ))
        with pytest.raises(InvalidInputError, match=r"^node d\.i: parent 'x' does not exist$"):
            compose_global(tree)


class TestConsensus:
    def test_judgment_table_missing_a_basis(self):
        table = {b: row for b, row in DEFAULT_CA_TABLE.items() if b is not JudgmentBasis.PEER_REFERENCE}
        basis = dict.fromkeys(JudgmentBasis, Impact.LARGE)
        with pytest.raises(InvalidInputError, match=r"^judgment table missing basis 'peer_reference'$"):
            judgment_coefficient([profile(basis)], table)

    def test_kendalls_w_of_a_3d_input(self):
        with pytest.raises(InvalidInputError, match=r"^ragged ratings matrix$"):
            kendalls_w(np.ones((3, 2, 2)))


class TestFiles:
    def test_indicator_row_with_empty_id(self, tmp_path):
        path = tmp_path / "indicators.csv"
        path.write_text("id,name,level,parent_id,bonus\nD1,Dim,dimension,,false\n,Nameless,index,D1,false\n")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: row with empty id$"):
            parse_indicators(path)

    def test_pairwise_header_without_indicator_columns(self, tmp_path):
        path = tmp_path / "pairwise.csv"
        path.write_text("id\n")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: no indicator columns$"):
            parse_pairwise(path)


class TestModel:
    def test_duplicate_node_id(self):
        node = IndicatorNode("D1", "Dim", Level.DIMENSION)
        assert validate_tree(IndicatorTree(nodes=(node, node)))[0] == "duplicate node id 'D1'"

    def test_expert_profile_with_missing_and_unknown_bases(self):
        basis = {JudgmentBasis.THEORETICAL_ANALYSIS: Impact.LARGE, JudgmentBasis.INTUITION: Impact.SMALL,
                 "hunch": Impact.SMALL}
        with pytest.raises(InvalidInputError) as exc:
            profile(basis)
        assert str(exc.value) == ("expert e1: judgment_basis must cover all four bases exactly once "
                                  "(missing bases: practical_experience, peer_reference; unknown bases: hunch)")

    def test_expert_panel_shape_mismatch(self):
        with pytest.raises(InvalidInputError, match=r"^code matrix of shape \(2, 6\) for 1 experts$"):
            ExpertPanel(("e1",), np.zeros((2, 6), np.int8))

    @pytest.mark.parametrize("shape", [(2, 1), (1,)])
    def test_row_matrix_shape_mismatch(self, shape):
        with pytest.raises(InvalidInputError, match=rf"^matrix of shape {re.escape(str(shape))} for 1 row ids$"):
            RowMatrix(("a",), np.zeros(shape, np.int8))

    def test_instrument_index_without_a_dimension(self):
        with pytest.raises(InvalidInputError, match=r"^index I1: no dimension assigned$"):
            Instrument(indices=(("I1", ("q1",)),), questions=(Question("q1", "?"),), dimension_of={})

    def test_instrument_with_duplicate_question_ids(self):
        with pytest.raises(InvalidInputError, match=r"^duplicate question ids$"):
            Instrument(indices=(("I1", ("q1",)),), questions=(Question("q1", "?"), Question("q1", "!")),
                       dimension_of={"I1": "D1"})

    def test_questions_of_an_unknown_index(self):
        with pytest.raises(InvalidInputError, match=r"^unknown index 'I9'$"):
            load_default_instrument().questions_of("I9")


class TestPsychometrics:
    @pytest.mark.parametrize("scores", [np.ones(3), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
    def test_cronbach_alpha_of_a_non_2d_input(self, scores):
        with pytest.raises(InvalidInputError, match=rf"^scores must be a 2-D respondent x item matrix, "
                                                    rf"got shape {re.escape(str(scores.shape))}$"):
            cronbach_alpha(scores)

    def test_corrected_item_total_on_one_column(self):
        with pytest.raises(InsufficientDataError, match=r"^need >= 2 items for an item-rest correlation$"):
            corrected_item_total(np.ones((3, 1)), 0)

    @pytest.mark.parametrize("item", [3, -1])
    def test_alpha_if_deleted_with_an_item_out_of_range(self, item):
        with pytest.raises(InvalidInputError, match=rf"^item index {item} outside 0..2$"):
            alpha_if_deleted(np.ones((3, 3)), item)


class TestScoring:
    def test_score_software_without_a_dimension_weight(self):
        instrument = load_default_instrument()
        weights = dict(DEMO_LOCAL_WEIGHTS)
        dimension = instrument.dimensions()[-1]
        del weights[dimension]
        with pytest.raises(IncompleteWeightsError, match=rf"^no local weight for dimension {dimension}$"):
            score_software(parse_responses(DATA / "responses.csv", instrument), instrument, weights)


class TestNumpyScalars:
    """A numpy number handed to a library call is read, and named in errors, as its Python value."""

    def test_validity_names_a_bad_ndarray_cell_as_rows_do(self):
        message = r"^item b, rater 1: importance rating 9 outside 1\.\.7$"
        for ratings in (np.array([[1, 9], [2, 3]], np.int8), [[1, 9], [2, 3]]):
            with pytest.raises(InvalidInputError, match=message):
                validity_report(["a", "b"], ratings)

    @pytest.mark.parametrize("value, shown", [(np.int64(9), "9"), (np.float64(1.5), "1.5")])
    def test_i_cvi_names_the_plain_value(self, value, shown):
        with pytest.raises(InvalidInputError, match=rf"^rater 2: importance rating {shown} outside 1\.\.7$"):
            i_cvi([5, value])

    def test_s_cvi_names_the_plain_value(self):
        with pytest.raises(InvalidInputError, match=r"^I-CVI 1\.5 outside \[0, 1\]$"):
            s_cvi([0.5, np.float64(1.5)])

    def test_expert_bonus_accepts_numpy_integers(self):
        assert score_expert_bonus({"e1": np.array([1, 3])}) == score_expert_bonus({"e1": [1, 3]})
        with pytest.raises(InvalidInputError, match=r"^expert e1, bonus rating 2: 9 outside \[0, 4\]$"):
            score_expert_bonus({"e1": np.array([1, 9])})

    def test_expert_bonus_refuses_a_numpy_bool(self):
        with pytest.raises(InvalidInputError, match=r"^expert e1, bonus rating 1: np\.True_ outside \[0, 4\]$"):
            score_expert_bonus({"e1": np.array([True])})
