import csv
import importlib.util
import json
import os
import sys
import tracemalloc
from enum import Enum
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagekit import io as sio
from stagekit.model import MISSING, RowIds, RowMatrix
from stagekit import (
    ExpertPanel,
    Familiarity,
    IdentityGroup,
    Impact,
    IndicatorNode,
    IndicatorTree,
    InvalidInputError,
    JudgmentBasis,
    Level,
    RatingRound,
    SchemaError,
    StagekitError,
    default_tree,
    demo_weighted_tree,
    load_default_instrument,
    question_proportional_weights,
    render_json,
    render_markdown,
    round_consensus,
    run_pipeline,
    score_consumer,
)
from stagekit.io import (
    emit_indicators,
    emit_round_form,
    parse_expert_bonus,
    parse_experts,
    parse_importance,
    parse_indicators,
    parse_pairwise,
    parse_ratings,
    parse_responses,
)

DATA = Path(sio.__file__).parent / "data"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIndicatorsRoundTrip:
    def test_unweighted_round_trip(self, tmp_path):
        tree = default_tree()
        out = tmp_path / "indicators.csv"
        emit_indicators(tree, out)
        back = parse_indicators(out)
        assert [n.id for n in back.nodes] == [n.id for n in tree.nodes]
        for a, b in zip(tree.nodes, back.nodes):
            assert (a.name, a.level, a.parent_id, a.bonus) == (b.name, b.level, b.parent_id, b.bonus)
            assert b.local_weight is None and b.global_weight is None
        # No weights anywhere, so the weight columns are omitted.
        assert "local_weight" not in out.read_text(encoding="utf-8").splitlines()[0]

    def test_weighted_round_trip_exact(self, tmp_path):
        tree = demo_weighted_tree()
        out = tmp_path / "indicators.csv"
        emit_indicators(tree, out)
        back = parse_indicators(out)
        for a in tree.nodes:
            b = back.node(a.id)
            # repr-based emission makes float round-trips exact
            assert b.local_weight == a.local_weight
            assert b.global_weight == a.global_weight

    def test_unwritable_target_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot write"):
            emit_indicators(default_tree(), tmp_path / "nodir" / "tree.csv")
        assert list(tmp_path.iterdir()) == []

    def test_emission_is_deterministic(self, tmp_path):
        tree = demo_weighted_tree()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_indicators(tree, p1)
        emit_indicators(tree, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_missing_column_rejected(self, tmp_path):
        p = write(tmp_path / "ind.csv", "id,name,level,parent_id\na,A,dimension,\n")
        with pytest.raises(SchemaError) as err:
            parse_indicators(p)
        assert str(p) in str(err.value)
        assert "bonus" in str(err.value)

    def test_unknown_column_rejected(self, tmp_path):
        p = write(
            tmp_path / "ind.csv",
            "id,name,level,parent_id,bonus,color\na,A,dimension,,false,red\n",
        )
        with pytest.raises(SchemaError):
            parse_indicators(p)

    def test_bad_level_names_row(self, tmp_path):
        p = write(
            tmp_path / "ind.csv",
            "id,name,level,parent_id,bonus\na,A,galaxy,,false\n",
        )
        with pytest.raises(SchemaError) as err:
            parse_indicators(p)
        assert "'a'" in str(err.value)
        assert "galaxy" in str(err.value)

    def test_bad_bonus_flag_rejected(self, tmp_path):
        p = write(
            tmp_path / "ind.csv",
            "id,name,level,parent_id,bonus\na,A,dimension,,maybe\n",
        )
        with pytest.raises(SchemaError):
            parse_indicators(p)

    def test_structural_problems_rejected(self, tmp_path):
        p = write(
            tmp_path / "ind.csv",
            "id,name,level,parent_id,bonus\nx,X,index,ghost,false\n",
        )
        with pytest.raises(SchemaError) as err:
            parse_indicators(p)
        assert "ghost" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path / "ind.csv", "")
        with pytest.raises(SchemaError) as err:
            parse_indicators(p)
        assert "header" in str(err.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_indicators(tmp_path / "nope.csv")


EXPERTS_CSV = (
    "id,group,familiarity,basis_theory,basis_practice,basis_peer,basis_intuition\n"
    "e1,technology_rnd,very_familiar,large,large,small,small\n"
    "e2,other,moderate,medium,large,small,medium\n"
)


class TestParseExperts:
    def test_valid_file(self, tmp_path):
        p = write(tmp_path / "experts.csv", EXPERTS_CSV)
        profiles = parse_experts(p)
        assert [pr.id for pr in profiles] == ["e1", "e2"]
        assert profiles[0].identity_group == IdentityGroup.TECHNOLOGY_RND
        assert profiles[0].familiarity == Familiarity.VERY_FAMILIAR
        assert profiles[1].judgment_basis[JudgmentBasis.PRACTICAL_EXPERIENCE] == Impact.LARGE

    def test_panel_holds_codes_and_builds_profiles(self, tmp_path):
        p = write(tmp_path / "experts.csv", EXPERTS_CSV)
        panel = parse_experts(p)
        assert isinstance(panel, ExpertPanel)
        assert panel.row_of == {"e1": 0, "e2": 1}
        # bases in JudgmentBasis order, then group, then familiarity; each its enum position
        assert panel.codes.tolist() == [[0, 0, 2, 2, 1, 0], [1, 0, 2, 1, 4, 2]]
        assert panel.codes.dtype == "int8" and not panel.codes.flags.writeable
        assert panel[-1] == panel[1:][0] == panel[1]
        assert ExpertPanel.of(panel) is panel
        assert ExpertPanel.of(list(panel)).codes.tolist() == panel.codes.tolist()

    def test_bad_enum_lists_choices(self, tmp_path):
        p = write(
            tmp_path / "experts.csv",
            EXPERTS_CSV.replace("very_familiar", "expert"),
        )
        with pytest.raises(SchemaError) as err:
            parse_experts(p)
        assert "very_familiar" in str(err.value)  # the valid choices are listed

    def test_duplicate_expert_rejected(self, tmp_path):
        p = write(tmp_path / "experts.csv", EXPERTS_CSV + "e1,other,moderate,small,small,small,small\n")
        with pytest.raises(SchemaError):
            parse_experts(p)


class TestParseRatings:
    def test_valid_matrix(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b,c\ne1,5,4,3\ne2,4,4,5\n")
        rnd = parse_ratings(p)
        assert rnd.indicator_ids == ("a", "b", "c")
        assert rnd.ratings["e1"] == (5, 4, 3)
        assert rnd.returned == 2
        assert rnd.distributed == 2
        assert rnd.round_no == 1

    def test_round_no_inferred_from_filename(self, tmp_path):
        p = write(tmp_path / "ratings_round3.csv", "expert_id,a\ne1,5\ne2,4\n")
        assert parse_ratings(p).round_no == 3
        p2 = write(tmp_path / "Round-2.csv", "expert_id,a\ne1,5\ne2,4\n")
        assert parse_ratings(p2).round_no == 2

    def test_explicit_round_no_wins(self, tmp_path):
        p = write(tmp_path / "ratings_round3.csv", "expert_id,a\ne1,5\ne2,4\n")
        assert parse_ratings(p, round_no=7).round_no == 7

    def test_blank_cell_marks_non_respondent(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b\ne1,5,4\ne2,,3\ne3,4,4\n")
        rnd = parse_ratings(p)
        assert rnd.non_respondents == ("e2",)
        assert set(rnd.ratings) == {"e1", "e3"}
        # Non-respondents count toward the distributed default.
        assert rnd.distributed == 3
        assert rnd.returned == 2

    def test_explicit_distributed(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a\ne1,5\ne2,4\n")
        assert parse_ratings(p, distributed=30).distributed == 30

    def test_bad_integer_names_cell(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b\ne1,5,x\n")
        with pytest.raises(SchemaError) as err:
            parse_ratings(p)
        assert "(e1, b)" in str(err.value)

    def test_out_of_scale_names_cell(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a\ne1,9\ne2,4\n")
        with pytest.raises(SchemaError) as err:
            parse_ratings(p, scale_max=5)
        assert "(e1, a)" in str(err.value)
        assert "[1, 5]" in str(err.value)

    def test_duplicate_expert_rejected(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a\ne1,5\ne1,4\n")
        with pytest.raises(SchemaError):
            parse_ratings(p)

    def test_duplicate_indicator_column_rejected(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,a\ne1,5,4\n")
        with pytest.raises(SchemaError):
            parse_ratings(p)

    def test_wrong_first_column_rejected(self, tmp_path):
        p = write(tmp_path / "r.csv", "who,a\ne1,5\n")
        with pytest.raises(SchemaError):
            parse_ratings(p)

    @pytest.mark.parametrize("body, message", [
        ("e1,5,4\ne2,4,9\ne3,x,4\n", "cell (e2, b): rating 9 outside [1, 5]"),
        ("e1,5,4\ne2,4,x\ne3,9,4\n", "cell (e2, b): 'x' is not an integer"),
        ("e1,5,4\ne2,x,9\n", "cell (e2, a): 'x' is not an integer"),
        ("e1,5,4\ne2,0,x\n", "cell (e2, a): rating 0 outside [1, 5]"),
    ], ids=["range-before-garbage", "garbage-before-range", "garbage-first-in-row",
            "range-first-in-row"])
    def test_first_bad_cell_in_file_order_is_named(self, tmp_path, body, message):
        p = write(tmp_path / "r.csv", "expert_id,a,b\n" + body)
        with pytest.raises(SchemaError) as err:
            parse_ratings(p)
        assert str(err.value) == f"{p}: {message}"

    def test_blank_cell_outranks_garbage_in_the_same_row(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b,c\ne1,5,4,3\ne2,x,,99\ne3,4,4,4\n")
        rnd = parse_ratings(p)
        assert rnd.non_respondents == ("e2",)
        assert list(rnd.ratings) == ["e1", "e3"]

    def test_short_rows_are_non_respondents(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b\ne1,5,4\ne2,4\ne3\ne4,3,3\n")
        rnd = parse_ratings(p)
        assert rnd.non_respondents == ("e2", "e3")
        assert dict(rnd.ratings) == {"e1": (5, 4), "e4": (3, 3)}

    def test_whitespace_around_cells_and_ids_is_stripped(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id, a ,b\n e1 , 5 ,\t4\ne2,4 , 3\ne3, ,4\n")
        rnd = parse_ratings(p)
        assert rnd.indicator_ids == ("a", "b")
        assert dict(rnd.ratings) == {"e1": (5, 4), "e2": (4, 3)}
        assert rnd.non_respondents == ("e3",)

    @pytest.mark.parametrize("body", ["e1,,4\ne1,5,4\n", "e1,5,4\ne1,,4\n", "e1,,\ne1,,4\n"],
                             ids=["blank-then-full", "full-then-blank", "blank-then-blank"])
    def test_id_repeated_across_blank_and_full_rows_rejected(self, tmp_path, body):
        p = write(tmp_path / "r.csv", "expert_id,a,b\n" + body)
        with pytest.raises(SchemaError, match=r"duplicate expert row 'e1'"):
            parse_ratings(p)

    def test_scale_above_127_round_trips(self, tmp_path):
        p = write(tmp_path / "r.csv", "expert_id,a,b\ne1,150,200\ne2,1,128\n")
        rnd = parse_ratings(p, scale_max=200)
        assert rnd.ratings["e1"] == (150, 200)
        assert rnd.ratings.matrix.tolist() == [[150, 200], [1, 128]]
        with pytest.raises(SchemaError, match=r"cell \(e1, b\): rating 200 outside \[1, 199\]"):
            parse_ratings(p, scale_max=199)

    def test_scale_beyond_int64_rejected(self, tmp_path):
        p = write(tmp_path / "r.csv", f"expert_id,a\ne1,{2**65}\ne2,4\n")
        with pytest.raises(InvalidInputError, match=rf"scale_max {2**70} is too large"):
            parse_ratings(p, scale_max=2**70)
        with pytest.raises(InvalidInputError, match=rf"scale_max {2**70} is too large"):
            RatingRound(round_no=1, scale_max=2**70, distributed=1, indicator_ids=("a",),
                        ratings={"e1": (4,)})


class TestParseResponses:
    def test_column_order_normalized(self, tmp_path):
        instrument = load_default_instrument()
        qids = list(instrument.question_ids)
        reordered = list(reversed(qids))
        header = "respondent_id," + ",".join(reordered)
        row = "r1," + ",".join(str((i + 1) % 5) for i in range(len(reordered)))
        p = write(tmp_path / "resp.csv", header + "\n" + row + "\n")
        rs = parse_responses(p, instrument)
        assert rs.question_ids == instrument.question_ids
        by_file = dict(zip(reordered, ((i + 1) % 5 for i in range(len(reordered)))))
        assert rs.consumer["r1"] == tuple(by_file[q] for q in qids)

    def test_blank_cells_become_missing(self, tmp_path):
        instrument = load_default_instrument()
        qids = instrument.question_ids
        header = "respondent_id," + ",".join(qids)
        cells = ["2"] * len(qids)
        cells[4] = ""
        p = write(tmp_path / "resp.csv", header + "\nr1," + ",".join(cells) + "\n")
        rs = parse_responses(p, instrument)
        assert rs.missing_cells() == (("r1", qids[4]),)

    def test_missing_question_column_rejected(self, tmp_path):
        instrument = load_default_instrument()
        qids = list(instrument.question_ids)[:-1]
        header = "respondent_id," + ",".join(qids)
        p = write(tmp_path / "resp.csv", header + "\nr1," + ",".join(["2"] * len(qids)) + "\n")
        with pytest.raises(SchemaError) as err:
            parse_responses(p, instrument)
        assert str(err.value) == f"{p}: missing column(s) q21"

    def test_out_of_range_answer_names_cell(self, tmp_path):
        instrument = load_default_instrument()
        qids = instrument.question_ids
        header = "respondent_id," + ",".join(qids)
        cells = ["2"] * len(qids)
        cells[0] = "7"
        p = write(tmp_path / "resp.csv", header + "\nr1," + ",".join(cells) + "\n")
        with pytest.raises(SchemaError) as err:
            parse_responses(p, instrument)
        assert f"(r1, {qids[0]})" in str(err.value)


class TestParseResponsesCells:
    """Cell conversion: every spelling is judged on its own, in file order."""

    @staticmethod
    def parse(tmp_path, rows):
        qids = load_default_instrument().question_ids
        lines = ["respondent_id," + ",".join(qids)] + [",".join(r) for r in rows]
        p = write(tmp_path / "resp.csv", "\n".join(lines) + "\n")
        return parse_responses(p, load_default_instrument())

    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path):
        qids = load_default_instrument().question_ids
        rows = [[f"r{i}"] + ["2"] * len(qids) for i in range(500)]
        rows[300][3] = "x"  # q3, and later in the same row q7
        rows[300][7] = "9"
        rows[450][1] = "7"
        with pytest.raises(SchemaError) as err:
            self.parse(tmp_path, rows)
        assert "cell (r300, q3): 'x' is not an integer" in str(err.value)
        rows[300][3] = "2"
        with pytest.raises(SchemaError) as err:
            self.parse(tmp_path, rows)
        assert "cell (r300, q7): answer 9 outside [0, 4]" in str(err.value)

    @pytest.mark.parametrize("raw", [" 3 ", "+3", "03", "3"])
    def test_integer_spellings_accepted(self, tmp_path, raw):
        rs = self.parse(tmp_path, [["r1", raw] + ["1"] * 20, ["r2", "3"] + [raw] * 20])
        assert rs.consumer["r1"] == (3,) + (1,) * 20
        assert rs.consumer["r2"] == (3,) * 21

    @pytest.mark.parametrize("raw, message", [
        ("5", "answer 5 outside [0, 4]"),
        ("-1", "answer -1 outside [0, 4]"),
        ("2.0", "'2.0' is not an integer"),
        ("two", "'two' is not an integer"),
        ("1e0", "'1e0' is not an integer"),
    ])
    def test_bad_cells_rejected(self, tmp_path, raw, message):
        with pytest.raises(SchemaError) as err:
            self.parse(tmp_path, [["r1"] + ["1"] * 21, ["r2"] + ["1"] * 20 + [raw]])
        assert f"cell (r2, q21): {message}" in str(err.value)

    def test_short_row_reads_as_missing(self, tmp_path):
        rs = self.parse(tmp_path, [["r1", "4", "3"], ["r2"] + ["1"] * 21])
        assert rs.consumer["r1"] == (4, 3) + (None,) * 19
        assert rs.missing_cells()[:2] == (("r1", "q3"), ("r1", "q4"))
        assert len(rs.missing_cells()) == 19

    def test_blank_rows_skipped(self, tmp_path):
        rs = self.parse(tmp_path, [["r1"] + ["1"] * 21, [""] * 22, ["  ", " "], [""],
                                   ["r2"] + ["2"] * 21])
        assert rs.respondents == ("r1", "r2")

    def test_duplicate_respondent_rejected(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            self.parse(tmp_path, [["r1"] + ["1"] * 21, ["r2"] + ["1"] * 21,
                                  ["r1"] + ["2"] * 21])
        assert "duplicate respondent id 'r1'" in str(err.value)


class TestParseExpertBonus:
    def test_valid(self, tmp_path):
        p = write(tmp_path / "bonus.csv", "expert_id,b1,b2\ne1,4,2\ne2,3,3\n")
        rows = parse_expert_bonus(p, ("b1", "b2"))
        assert rows == {"e1": (4, 2), "e2": (3, 3)}

    def test_out_of_range(self, tmp_path):
        p = write(tmp_path / "bonus.csv", "expert_id,b1\ne1,5\n")
        with pytest.raises(SchemaError) as err:
            parse_expert_bonus(p, ("b1",))
        assert "(e1, b1)" in str(err.value)


class TestParseImportance:
    def test_valid(self, tmp_path):
        p = write(tmp_path / "imp.csv", "rater_id,a,b\nr1,7,5\nr2,6,4\n")
        item_ids, rows = parse_importance(p)
        assert item_ids == ("a", "b")
        assert [tuple(r) for r in rows.tolist()] == [(7, 5), (6, 4)]
        assert rows.dtype == "int8" and not rows.flags.writeable

    def test_out_of_scale_names_cell(self, tmp_path):
        p = write(tmp_path / "imp.csv", "rater_id,a\nr1,8\n")
        with pytest.raises(SchemaError) as err:
            parse_importance(p)
        assert "(r1, a)" in str(err.value)
        assert "[1, 7]" in str(err.value)

    def test_duplicate_rater_rejected(self, tmp_path):
        p = write(tmp_path / "imp.csv", "rater_id,a\nr1,7\nr1,6\n")
        with pytest.raises(SchemaError):
            parse_importance(p)


def read_experts(path):
    panel = parse_experts(path)
    return panel.row_of, panel.codes.tolist()


def read_importance(path):
    item_ids, matrix = parse_importance(path)
    return item_ids, matrix.tolist()


# Each table reader: its demo file, its id column, and its result as comparable values.
HEADER_READERS = {
    "indicators": ("indicators.csv", "id", parse_indicators),
    "experts": ("experts.csv", "id", read_experts),
    "ratings": ("ratings_round1.csv", "expert_id", parse_ratings),
    "responses": ("responses.csv", "respondent_id", lambda p: parse_responses(p, load_default_instrument())),
    "importance": ("importance.csv", "rater_id", read_importance),
    "expert bonus": ("expert_bonus.csv", "expert_id",
                     lambda p: parse_expert_bonus(p, load_default_instrument().bonus_ids)),
}
# Ratings and importance read every named column but the id column, so none is unknown to them.
OPEN_READERS = ("ratings", "importance")
HEADER_CASES = ("missing", "unknown", "duplicated", "all three", "unnamed")


class TestHeaderRule:
    """Every table's header holds its id column and expected columns once each, in any order."""

    @staticmethod
    def columns(name):
        with open(DATA / name, encoding="utf-8", newline="") as fh:
            return [list(column) for column in zip(*csv.reader(fh))]

    @staticmethod
    def write_columns(path, columns):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(zip(*columns))
        return path

    @pytest.mark.parametrize("reader, case", [(r, c) for r in HEADER_READERS for c in HEADER_CASES
                                              if not (r in OPEN_READERS and c == "unknown")])
    def test_every_problem_named_on_one_line(self, tmp_path, reader, case):
        name, key, parse = HEADER_READERS[reader]
        columns = self.columns(name)
        last = columns[-1][0]
        problems = []
        if case in ("missing", "all three"):
            columns = [c for c in columns if c[0] != key]
            problems.append(f"missing column(s) {key}")
        if case in ("unknown", "all three"):
            columns.append(["color"] + ["1"] * (len(columns[0]) - 1))
            if reader not in OPEN_READERS:
                problems.append("unknown column(s) color")
        if case in ("duplicated", "all three"):
            columns.append(columns[-2] if case == "all three" else columns[-1])
            problems.append(f"duplicated column(s) {last}")
        if case == "unnamed":  # a blank header cell, as a trailing comma leaves it
            columns.append([""] * len(columns[0]))
            problems.append("unknown column(s) ''")
        path = self.write_columns(tmp_path / name, columns)
        with pytest.raises(SchemaError) as err:
            parse(path)
        assert str(err.value) == f"{path}: " + "; ".join(problems)

    @pytest.mark.parametrize("reader", HEADER_READERS)
    def test_id_column_found_by_name(self, tmp_path, reader):
        name, key, parse = HEADER_READERS[reader]
        columns = self.columns(name)
        assert columns[0][0] == key
        path = self.write_columns(tmp_path / name, columns[1:2] + columns[:1] + columns[2:])
        assert path.read_text(encoding="utf-8") != (DATA / name).read_text(encoding="utf-8")
        assert parse(path) == parse(DATA / name)


# The benchmark's input generator, loaded from bench/ as test_bench_hooks.py loads spans.py.
_GEN_SPEC = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(gen)


def plain_calls(parse, *args, **kwargs):
    """The parser's result (or error) and what each of its ``_plain_table`` calls returned."""
    returned, plain_table = [], sio._plain_table

    def spy(*spy_args):
        returned.append(plain_table(*spy_args))
        return returned[-1]

    with patch.object(sio, "_plain_table", spy):
        try:
            return parse(*args, **kwargs), returned
        except StagekitError as exc:
            return exc, returned


def streamed(parse, *args, **kwargs):
    """The parser's result with every file read by the csv loop."""
    with patch.object(sio, "_plain_table", return_value=None):
        return parse(*args, **kwargs)


class TestPlainTables:
    """Files written like the benchmark's take the byte-level path; any step away from plain does not."""

    @pytest.fixture(scope="class")
    def bench_files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        gen.gen_survey(np.random.default_rng(7), out, 5000)  # a few blocks of rows
        gen.gen_delphi(np.random.default_rng(7), out, 3000)
        return out

    @pytest.mark.parametrize("name", ["ratings_round1.csv", "ratings_round2.csv", "ratings_round3.csv"])
    def test_bench_ratings_are_plain(self, bench_files, name):
        rnd, returned = plain_calls(parse_ratings, bench_files / name)
        assert len(returned) == 1 and returned[0] is not None
        expected = streamed(parse_ratings, bench_files / name)
        assert rnd.non_respondents == expected.non_respondents
        assert list(rnd.ratings.row_of.items()) == list(expected.ratings.row_of.items())
        assert np.array_equal(rnd.ratings.matrix, expected.ratings.matrix)

    def test_bench_responses_are_plain(self, bench_files):
        instrument = load_default_instrument()
        got, returned = plain_calls(parse_responses, bench_files / "responses.csv", instrument)
        assert len(returned) == 1 and returned[0] is not None
        expected = streamed(parse_responses, bench_files / "responses.csv", instrument)
        assert list(got.consumer.row_of.items()) == list(expected.consumer.row_of.items())
        assert np.array_equal(got.consumer.matrix, expected.consumer.matrix)

    @pytest.mark.parametrize("edit", [lambda data: data[:-1], lambda data: data + b"\n"],
                             ids=["without its final newline", "with a blank line appended"])
    def test_bench_responses_read_plain_however_they_end(self, bench_files, tmp_path, edit):
        p = tmp_path / "responses.csv"
        p.write_bytes(edit((bench_files / "responses.csv").read_bytes()))
        instrument = load_default_instrument()
        got, returned = plain_calls(parse_responses, p, instrument)
        assert len(returned) == 1 and returned[0] is not None
        expected = streamed(parse_responses, bench_files / "responses.csv", instrument)
        assert got.consumer.ids == expected.consumer.ids
        assert np.array_equal(got.consumer.matrix, expected.consumer.matrix)

    def test_bench_importance_is_plain(self, bench_files):
        (ids, matrix), returned = plain_calls(parse_importance, bench_files / "importance.csv")
        assert len(returned) == 1 and returned[0] is not None
        assert np.array_equal(matrix, streamed(parse_importance, bench_files / "importance.csv")[1])

    def test_bench_experts_are_plain(self, bench_files):
        panel, returned = plain_calls(parse_experts, bench_files / "experts.csv")
        assert len(returned) == 1 and returned[0] is not None
        expected = streamed(parse_experts, bench_files / "experts.csv")
        assert list(panel.row_of.items()) == list(expected.row_of.items())
        assert np.array_equal(panel.codes, expected.codes)

    def test_experts_over_several_blocks(self, tmp_path):
        """Three blocks of rows; a bad cell in the last one still declines, and the csv loop names it."""
        rng = np.random.default_rng(3)
        rows = [[f"e{k}", *(list(e)[rng.integers(len(e))].value for e in ExpertPanel.ENUMS)]
                for k in range(9000)]
        header = ",".join(["id", *sio._PANEL_COLUMNS])
        p = write(tmp_path / "experts.csv", "\n".join([header, *map(",".join, rows)]) + "\n")
        panel, returned = plain_calls(parse_experts, p)
        assert returned[0] is not None and len(panel) == 9000
        expected = streamed(parse_experts, p)
        assert list(panel.row_of.items()) == list(expected.row_of.items())
        assert np.array_equal(panel.codes, expected.codes)
        rows[8999][1] = "larg"
        write(p, "\n".join([header, *map(",".join, rows)]) + "\n")
        err, returned = plain_calls(parse_experts, p)
        assert returned == [None]
        assert str(err) == f"{p}: row 'e8999', column 'basis_theory': 'larg' is not one of: {self.IMPACTS}"

    EXPERTS = ("id,group,familiarity,basis_theory,basis_practice,basis_peer,basis_intuition\n"
               "e1,other,familiar,large,medium,small,large\n"
               "e2,technology_rnd,moderate,small,small,medium,large\n")
    IMPACTS = "large, medium, small"

    # Each declines, and the csv loop gives its one-line message; where a file has two bad
    # cells, it names the first in file order.
    EXPERTS_NOT_PLAIN = {
        "unknown value": (EXPERTS.replace("moderate", "middling"),
                          "row 'e2', column 'familiarity': 'middling' is not one of: very_familiar, "
                          "familiar, moderate, unfamiliar, very_unfamiliar"),
        "blank enum cell": (EXPERTS.replace(",medium,small", ",,small"),
                            f"row 'e1', column 'basis_practice': '' is not one of: {IMPACTS}"),
        "quoted value": (EXPERTS.replace("small,medium", '"smal",medium'),
                         f"row 'e2', column 'basis_practice': 'smal' is not one of: {IMPACTS}"),
        "capitalised value": (EXPERTS.replace("e1,other,familiar,large", "e1,other,familiar,Large"),
                              f"row 'e1', column 'basis_theory': 'Large' is not one of: {IMPACTS}"),
        "two bad cells": (EXPERTS.replace(",medium,small", ",larger,small").replace("moderate", "x"),
                          f"row 'e1', column 'basis_practice': 'larger' is not one of: {IMPACTS}"),
    }

    @pytest.mark.parametrize("text, message", EXPERTS_NOT_PLAIN.values(), ids=EXPERTS_NOT_PLAIN.keys())
    def test_bad_expert_cells_decline_with_the_csv_message(self, tmp_path, text, message):
        p = write(tmp_path / "experts.csv", text)
        err, returned = plain_calls(parse_experts, p)
        assert returned == [None]
        assert isinstance(err, SchemaError) and str(err) == f"{p}: {message}"

    def test_quoted_expert_value_reads_plain_to_the_same_panel(self, tmp_path):
        p = write(tmp_path / "experts.csv", self.EXPERTS.replace(",large\n", ',"large"\n'))
        panel, returned = plain_calls(parse_experts, p)
        assert returned[0] is not None
        expected = streamed(parse_experts, p)
        assert panel.ids == expected.ids and panel.codes.dtype == expected.codes.dtype
        assert np.array_equal(panel.codes, expected.codes) and not panel.codes.flags.writeable
        assert np.array_equal(panel.codes, parse_experts(write(tmp_path / "plain.csv", self.EXPERTS)).codes)

    def test_enum_cell_past_a_whole_word_declines(self, tmp_path):
        """A value of 8 bytes fills its word: a cell that starts with it and goes on is told apart by length."""
        word = Enum("Word", {"FULL": "abcdefgh", "SHORT": "b"}, type=str)
        p = write(tmp_path / "t.csv", "id,w\nr1,abcdefgh\nr2,b\n")
        assert sio._plain_table(p, ["id", "w"], [1], [word], None)[1].tolist() == [[0], [1]]
        write(p, "id,w\nr1,abcdefghi\nr2,b\n")
        assert sio._plain_table(p, ["id", "w"], [1], [word], None) is None

    def test_bonus_is_plain(self, tmp_path):
        p = write(tmp_path / "bonus.csv", "expert_id,b2,b1\ne1,4,0\ne2,1,3\n")
        got, returned = plain_calls(parse_expert_bonus, p, ("b1", "b2"))
        assert returned[0] is not None and got == {"e1": (0, 4), "e2": (3, 1)}

    def test_question_with_an_empty_range_declines_with_the_csv_message(self, tmp_path):
        """A column whose range is empty admits no answer: the byte path declines, and both
        paths name the first answer in the csv loop's words. ``Question`` refuses such a range,
        so the table is read with the bound itself."""
        p = write(tmp_path / "responses.csv", "respondent_id,q1,q2\nr1,3,4\nr2,0,0\n")
        args = (p, "respondent_id", {"q1": (0, 4), "q2": (5, 4)}, "respondent id", "answer", "cell")
        err, returned = plain_calls(sio._read_table, *args)
        assert returned == [None]
        message = f"{p}: cell (r1, q2): answer 4 outside [5, 4]"
        assert isinstance(err, SchemaError) and str(err) == message
        with pytest.raises(SchemaError) as streamed_err:
            streamed(sio._read_table, *args)
        assert str(streamed_err.value) == message

    RATINGS = "expert_id,a,b\ne1,1,2\ne2,3,4\n"

    PLAIN = {
        "lf": RATINGS,
        "crlf": RATINGS.replace("\n", "\r\n"),
        "bom": "\ufeff" + RATINGS,
        "blank rows not range-checked": "expert_id,a,b\ne1,1,2\ne2,,9\ne3,0,\n",
        "no rows": "expert_id,a,b\n",
        "no final newline": RATINGS[:-1],
        "no final newline after crlf": RATINGS.replace("\n", "\r\n")[:-2],
        "blank line": RATINGS.replace("\ne2", "\n\ne2"),
        "blank lines after the header and at the end": RATINGS.replace("b\n", "b\n\n\n") + "\n\n",
        "blank crlf line and no final newline": RATINGS.replace("\n", "\r\n").replace("\r\ne2", "\r\n\r\ne2")[:-2],
    }
    NOT_PLAIN = {
        "lone cr after header": RATINGS.replace("\n", "\r", 1),
        "cr before crlf": RATINGS.replace("\n", "\r\r\n"),
        "lone cr ending the file": RATINGS[:-1] + "\r",
        "tab": RATINGS.replace(",1,", ",1\t,"),
        "control byte": RATINGS.replace("e1", "e1\x0c"),
        "not ascii": RATINGS.replace("e1", "\u00e91"),
        "short row": RATINGS.replace("e1,1,2", "e1,1"),
        "long row": RATINGS.replace("e1,1,2", "e1,1,2,3"),
        "comma moved to the next row": "expert_id,a,b\n1,2\n3,4,5,1\n",
        "line of commas": RATINGS.replace("\ne2", "\n,,\ne2"),
        "two digits": RATINGS.replace(",1,", ",01,"),
        "out of range": RATINGS.replace(",1,", ",6,"),
        "not a digit in a blank row": RATINGS.replace(",1,2", ",x,"),
        "empty id": RATINGS.replace("e1", ""),
        "repeated id": RATINGS.replace("e2", "e1"),
        "id past the csv field limit": RATINGS.replace("e1", "e" * 131_073),
        "quoted and padded": RATINGS.replace("\ne1,1,2", '\n"e1", "1", "2"'),
        "blank after a closing quote": RATINGS.replace(",1,", ',"1" ,'),
        "escaped quote": RATINGS.replace("e1", '"e""1"'),
        "separator inside quotes": RATINGS.replace("e1,1,2", '"e1,1",2'),  # a short row: e1,1 and blanks
        "quote inside an unquoted cell": RATINGS.replace("e1", 'e"1'),
    }
    # Spreadsheet exports: a quote pair around a whole cell, and blanks beside a separator or line end.
    EXPORTS = {
        "quoted cell": RATINGS.replace("e1", '"e1"'),
        "space": RATINGS.replace(",1,", ", 1,"),
        "line of blanks": RATINGS.replace("\ne2", "\n  \ne2"),
        "every field quoted": "".join(",".join(f'"{c}"' for c in line.split(",")) + "\r\n"
                                      for line in RATINGS.splitlines()),
        "blank after each comma": RATINGS.replace(",", ", "),
        "runs of blanks around each comma": RATINGS.replace(",", "   ,  "),
        "blank before each id": RATINGS.replace("\ne", "\n e"),
        "blank before each line end": RATINGS.replace("\n", " \n"),
        "quoted blanks in a blank row": RATINGS.replace("e2,3,4", 'e2,"  ",""'),
    }

    @pytest.mark.parametrize("text", PLAIN.values(), ids=PLAIN.keys())
    def test_plain_ratings(self, tmp_path, text):
        p = tmp_path / "ratings.csv"
        p.write_bytes(text.encode("utf-8"))
        rnd, returned = plain_calls(parse_ratings, p)
        assert returned[0] is not None
        expected = streamed(parse_ratings, p)
        assert (rnd.ratings.ids, rnd.non_respondents) == (expected.ratings.ids, expected.non_respondents)
        assert np.array_equal(rnd.ratings.matrix, expected.ratings.matrix)

    @pytest.mark.parametrize("text", NOT_PLAIN.values(), ids=NOT_PLAIN.keys())
    def test_any_step_from_plain_declines(self, tmp_path, text):
        p = tmp_path / "ratings.csv"
        p.write_bytes(text.encode("utf-8"))
        _, returned = plain_calls(parse_ratings, p)
        assert returned == [None]

    @pytest.mark.parametrize("text", EXPORTS.values(), ids=EXPORTS.keys())
    def test_exports_read_plain(self, tmp_path, text):
        """The byte path returns what the csv loop returns: the ids, and the matrix, its dtype and flag."""
        p = tmp_path / "ratings.csv"
        p.write_bytes(text.encode("utf-8"))
        with sio._csv_rows(p) as (header, rows):
            plain = sio._plain_table(p, header, [1, 2], [(1, 5)] * 2, "row")
            with patch.object(sio, "_plain_table", return_value=None):
                ids, matrix = sio._int_table(p, header, rows, "expert row", ["a", "b"], [1, 2], [(1, 5)] * 2,
                                             "rating", "row")
        assert plain is not None and plain[0] == ids
        assert plain[1].dtype == matrix.dtype and np.array_equal(plain[1], matrix)
        assert not plain[1].flags.writeable and not matrix.flags.writeable

    @pytest.mark.parametrize("text", EXPORTS.values(), ids=EXPORTS.keys())
    def test_exports_read_plain_a_line_at_a_time(self, tmp_path, text):
        """An export is made plain in pieces of whole lines: with one line a piece, the same result."""
        p = tmp_path / "ratings.csv"
        p.write_bytes(text.encode("utf-8"))
        with sio._csv_rows(p) as (header, _):
            whole = sio._plain_table(p, header, [1, 2], [(1, 5)] * 2, "row")
            with patch.object(sio, "_PLAIN_BLOCK_CELLS", 1):
                pieces = sio._plain_table(p, header, [1, 2], [(1, 5)] * 2, "row")
        assert pieces is not None and pieces[0] == whole[0] and np.array_equal(pieces[1], whole[1])

    def test_export_in_pieces_keeps_its_memory_near_the_plain_file(self, tmp_path):
        """Quote and blank masks are built a piece at a time, not over the whole file."""
        rows = [f"r{k:06d}," + ",".join(str((k + j) % 5) for j in range(21)) for k in range(20_000)]
        header = ["respondent_id", *(f"q{j}" for j in range(1, 22))]
        peaks = []
        for quote in ("", '"'):
            p = write(tmp_path / "responses.csv", "".join(
                ",".join(f"{quote}{c}{quote}" for c in line.split(",")) + "\n" for line in [",".join(header), *rows]))
            tracemalloc.start()
            assert sio._plain_table(p, header, list(range(1, 22)), [(0, 4)] * 21, "cell") is not None
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_plain_file_keeps_its_memory_near_its_size(self, tmp_path):
        """Beyond the ids and matrix it returns, a plain file's parse holds about one copy of its bytes."""
        rows = [f"r{k:06d}," + ",".join("" if (k + j) % 97 == 0 else str((k + j) % 5) for j in range(21))
                for k in range(20_000)]
        header = ["respondent_id", *(f"q{j}" for j in range(1, 22))]
        p = write(tmp_path / "responses.csv", "".join(f"{line}\n" for line in [",".join(header), *rows]))
        tracemalloc.start()
        try:
            ids, matrix = sio._plain_table(p, header, list(range(1, 22)), [(0, 4)] * 21, "cell")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ids) == 20_000 and (matrix == MISSING).any()
        result = matrix.nbytes + sys.getsizeof(ids) + sum(map(sys.getsizeof, ids))
        assert peak - result <= 1.5 * p.stat().st_size

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_once_in_full(self):
        rows = "".join(f"e{i},{1 + i % 5},{1 + i % 3}\n" for i in range(2000))  # past one read buffer
        read_end, write_end = os.pipe()
        os.write(write_end, f"expert_id,a,b\n{rows}".encode())
        os.close(write_end)
        try:
            rnd, returned = plain_calls(parse_ratings, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert returned == [None]
        assert len(rnd.ratings) == 2000

    def test_wide_scale_declines(self, tmp_path):
        p = write(tmp_path / "ratings.csv", self.RATINGS)
        _, returned = plain_calls(parse_ratings, p, scale_max=200)  # an int64 matrix
        assert returned == [None]

    def test_blank_in_a_file_without_blanks_declines(self, tmp_path):
        p = write(tmp_path / "imp.csv", "rater_id,a,b\nr1,7,\n")
        err, returned = plain_calls(parse_importance, p)
        assert returned == [None]
        assert "'' is not an integer" in str(err)

    @staticmethod
    def write_ratings(path, ids):
        """A ratings file of 25 indicators, ``ids`` its rows: 961 rows to a plain block."""
        header = ",".join(["expert_id", *(f"i{j}" for j in range(25))])
        return write(path, "\n".join([header, *(f"{i},{','.join('12345'[(k + j) % 5] for j in range(25))}"
                                              for k, i in enumerate(ids))]) + "\n")

    def test_repeat_in_a_later_block_declines_with_the_csv_message(self, tmp_path):
        """Row 1's id again in the third block: each block alone holds distinct ids."""
        step = sio._PLAIN_BLOCK_CELLS // 26
        ids = [f"e{k:04d}" for k in range(3 * step)]
        p = self.write_ratings(tmp_path / "ratings.csv", ids)
        rnd, returned = plain_calls(parse_ratings, p)
        assert returned[0] is not None and rnd.ratings.ids == tuple(ids)
        ids[2 * step + 5] = ids[1]
        self.write_ratings(p, ids)
        err, returned = plain_calls(parse_ratings, p)
        assert returned == [None]
        assert isinstance(err, SchemaError) and str(err) == f"{p}: duplicate expert row 'e0001'"

    # Ids of 9 to 24 bytes whose first 8 (or 16) bytes are the same, one a prefix of another.
    LONG_IDS = ("panelist-a", "panelist-b", "panelist-a1", "panelist-0001-north", "panelist-0001-south",
                "panelist-0001-north-02", "panelist-0001-north-03", "panelist-0001-north-003x")

    def test_ids_sharing_a_first_word_are_told_apart(self, tmp_path):
        assert {len(i) for i in self.LONG_IDS} >= {10, 11, 19, 22, 24}
        p = self.write_ratings(tmp_path / "ratings.csv", self.LONG_IDS)
        rnd, returned = plain_calls(parse_ratings, p)
        assert returned[0] is not None
        assert rnd.ratings.ids == self.LONG_IDS == streamed(parse_ratings, p).ratings.ids

    @pytest.mark.parametrize("copy", [0, 3, 5, 7])
    def test_equal_long_ids_decline_with_the_csv_message(self, tmp_path, copy):
        ids = list(self.LONG_IDS) + [self.LONG_IDS[copy]]
        p = self.write_ratings(tmp_path / "ratings.csv", ids)
        err, returned = plain_calls(parse_ratings, p)
        assert returned == [None]
        assert str(err) == f"{p}: duplicate expert row {self.LONG_IDS[copy]!r}"

    @pytest.mark.parametrize("size", [36, 200])
    def test_long_ids_alike_read_plain(self, tmp_path, size):
        """Ids all of one length take the byte path, however long; a repeat still declines."""
        ids = [f"{k:0{size}d}" for k in range(50)]  # alike but for their last bytes
        p = self.write_ratings(tmp_path / "ratings.csv", ids)
        rnd, returned = plain_calls(parse_ratings, p)
        assert returned[0] is not None
        assert rnd.ratings.ids == tuple(ids) == streamed(parse_ratings, p).ratings.ids
        ids[40] = ids[3]
        self.write_ratings(p, ids)
        err, returned = plain_calls(parse_ratings, p)
        assert returned == [None] and str(err) == f"{p}: duplicate expert row {ids[3]!r}"

    def test_an_id_far_longer_than_most_declines(self, tmp_path):
        """Every id takes the longest id's words; words that would outgrow the file take the csv loop."""
        longest = "x" * 300
        p = write(tmp_path / "ratings.csv", f"expert_id,a\n{longest},1\ne2,2\ne3,3\n")
        rnd, returned = plain_calls(parse_ratings, p)
        assert returned == [None] and rnd.ratings.ids == (longest, "e2", "e3")

    def test_id_past_the_csv_field_limit_declines(self, tmp_path):
        p = write(tmp_path / "ratings.csv", f"expert_id,a\n{'x' * 65},1\n{'y' * 65},2\n")
        limit = csv.field_size_limit(64)
        try:
            err, returned = plain_calls(parse_ratings, p)
        finally:
            csv.field_size_limit(limit)
        assert returned == [None] and "field larger than field limit (64)" in str(err)

    def test_padded_field_past_the_csv_field_limit_declines(self, tmp_path):
        """A cell of one digit and many blanks is still a field past the limit for the csv loop."""
        p = write(tmp_path / "ratings.csv", f"expert_id,a\ne1,{' ' * 70}1\ne2,2\n")
        limit = csv.field_size_limit(64)
        try:
            err, returned = plain_calls(parse_ratings, p)
        finally:
            csv.field_size_limit(limit)
        assert returned == [None] and "field larger than field limit (64)" in str(err)

    def test_columns_sharing_a_mix_are_compared_word_by_word(self):
        """Two distinct columns whose mixed words are equal stay distinct; a true repeat does not."""
        a, b, x = 0x3130, 0x3230, 0x61
        keys = np.array([[a, b, 7], [x, x ^ (a * int(sio._MIX) % 2**64) ^ (b * int(sio._MIX) % 2**64), 8]],
                        np.uint64)
        mixed = keys[0] * sio._MIX ^ keys[1]
        assert mixed[0] == mixed[1]
        assert sio._distinct(keys)
        assert not sio._distinct(np.concatenate([keys, keys[:, :1]], axis=1))
        assert sio._distinct(keys[:1, :0]) and not sio._distinct(np.array([[5, 6, 5]], np.uint64))

    def test_header_only_reads_no_ids_and_no_rows(self, tmp_path):
        p = write(tmp_path / "ratings.csv", "expert_id,a,b\n")
        ids, matrix = sio._plain_table(p, ["expert_id", "a", "b"], [1, 2], [(1, 5)] * 2, "row")
        assert ids == () and matrix.shape == (0, 2) and matrix.dtype == np.int8
        assert not matrix.flags.writeable

    # Bytes an id of a plain file may hold: '!'..'~' but the separator and the quote.
    ID_BYTES = "".join(chr(c) for c in range(0x21, 0x7F) if chr(c) not in ',"')

    @settings(max_examples=150, deadline=None)
    @given(ids=st.lists(st.text(ID_BYTES, min_size=1, max_size=24), max_size=40, unique=True),
           key_last=st.booleans(), block_cells=st.integers(1, 40), data=st.data())
    def test_plain_ids_read_as_the_csv_loops_tuple(self, tmp_path_factory, ids, key_last, block_cells, data):
        """Ids of 1-24 bytes (1-3 words), over blocks of a few rows, each ended by ',' or, last in its row, LF.

        Twelve digit columns keep every row longer than its id's words past the first, so the byte
        path takes each file; indexing, slicing and ``take`` decode no more than they give.
        """
        key, header = 12 if key_last else 0, [f"c{j}" for j in range(12)]
        header.insert(key, "id")
        digits = ",".join(str(1 + j % 5) for j in range(12))
        p = tmp_path_factory.mktemp("ids") / "ratings.csv"
        p.write_text("".join(f"{line}\n" for line in [",".join(header),
                     *(f"{digits},{i}" if key_last else f"{i},{digits}" for i in ids)]), encoding="ascii")
        src, bounds = [j for j in range(13) if j != key], [(1, 5)] * 12
        with sio._csv_rows(p) as (_, rows), patch.object(sio, "_PLAIN_BLOCK_CELLS", block_cells):
            got, matrix = sio._plain_table(p, header, src, bounds, None, key)
            with patch.object(sio, "_plain_table", return_value=None):
                expected, _ = sio._int_table(p, header, rows, "expert row", header[1:], src, bounds,
                                             "rating", None, key)
        assert isinstance(got, RowIds) and type(expected) is tuple and expected == tuple(ids)
        assert len(got) == len(expected)
        if ids:
            i = data.draw(st.integers(-len(ids), len(ids) - 1), label="index")
            assert got[i] == expected[i]
        cut = data.draw(st.slices(len(ids)), label="slice")
        assert got[cut] == expected[cut]
        rows = data.draw(st.lists(st.integers(0, len(ids) - 1), max_size=12) if ids else st.just([]), label="rows")
        assert got.take(np.array(rows, np.intp)) == tuple(expected[r] for r in rows)
        assert "_ids" not in vars(got)  # nothing so far read every id
        assert list(RowMatrix(got, matrix).row_of.items()) == list(RowMatrix(expected, matrix).row_of.items())
        assert list(got) == list(expected)
        assert got == expected and expected == got and got == got[:] and got != expected + ("x",)

    def test_survey_run_decodes_only_the_imputed_respondents(self, tmp_path):
        """A run and both renders of a survey read plain decode each render's imputed ids and no other."""
        gen.generate("survey-100k", 7, tmp_path, respondents=3000)
        decoded, take = [], RowIds.take

        def spy(ids, rows):
            out = take(ids, rows)
            decoded.append((len(ids), len(out)))
            return out

        with patch.object(RowIds, "take", spy):
            bundle = run_pipeline(tmp_path / "demo_config.json")
            text, markdown = render_json(bundle), render_markdown(bundle)
        pairs = bundle.score.imputed
        assert isinstance(pairs.row_ids, RowIds) and "_ids" not in vars(pairs.row_ids)
        assert [n for size, n in decoded if size == 3000] == [len(pairs)] * 2
        with open(tmp_path / "responses.csv", encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        at = [header.index(q) for q in load_default_instrument().question_ids]
        blanks = [[row[0], header[i]] for row in rows for i in at if not row[i].strip()]
        assert len(blanks) > 20
        assert json.loads(text)["score"]["imputed"] == blanks
        assert f"Imputed answers: ({'), ('.join(map(', '.join, blanks))})" in markdown.splitlines()

    def test_delphi_rounds_decode_only_their_non_respondents(self, tmp_path):
        """Reading a panel and three rounds plain and joining each round to the panel decode only the blank rows."""
        gen.generate("delphi-10k", 7, tmp_path, experts=3000)
        calls, decoded, take = [], [], RowIds.take

        def spy(ids, rows):
            out = take(ids, rows)
            calls.append(rows)
            decoded.extend(out)
            return out

        with patch.object(RowIds, "take", spy):
            panel = parse_experts(tmp_path / "experts.csv")
            rounds = [parse_ratings(tmp_path / f"ratings_round{n}.csv") for n in (1, 2, 3)]
            joined = [round_consensus(rnd, panel) for rnd in rounds]
        assert not any(isinstance(rows, slice) for rows in calls)
        assert isinstance(panel.ids, RowIds) and all(isinstance(rnd.ratings.ids, RowIds) for rnd in rounds)
        non_respondents = [eid for rnd in rounds for eid in rnd.non_respondents]
        assert decoded == non_respondents and len(non_respondents) == 600
        by_dict = [round_consensus(rnd, tuple(panel)) for rnd in rounds]  # ExpertProfile objects: row_of's join
        assert [(c.ca, c.cs, c.cr) for c in joined] == [(c.ca, c.cs, c.cr) for c in by_dict]

    def test_row_numbers_built_on_first_lookup(self, bench_files):
        """Parsing and scoring a survey never looks an id up, so no id -> row dict is built."""
        instrument = load_default_instrument()
        responses = parse_responses(bench_files / "responses.csv", instrument)
        scores = score_consumer(responses, instrument, question_proportional_weights(instrument))
        consumer = responses.consumer
        assert "row_of" not in vars(consumer) and "row_of" not in vars(scores.per_respondent)
        assert len(consumer[consumer.ids[-1]]) == 21 and "row_of" in vars(consumer)
        assert list(consumer.row_of.items()) == [(i, n) for n, i in enumerate(consumer.ids)]
        assert len(consumer.ids) == 5000


class TestParsePairwise:
    def test_fractions_accepted(self, tmp_path):
        p = write(tmp_path / "pw.csv", ",a,b\na,1,3\nb,1/3,1\n")
        m = parse_pairwise(p)
        assert m.ids == ("a", "b")
        assert m.entries[1][0] == pytest.approx(1 / 3, abs=1e-15)

    def test_non_reciprocal_rejected(self, tmp_path):
        p = write(tmp_path / "pw.csv", ",a,b\na,1,3\nb,0.5,1\n")
        with pytest.raises(SchemaError) as err:
            parse_pairwise(p)
        assert "reciprocal" in str(err.value)

    def test_row_order_must_mirror_header(self, tmp_path):
        p = write(tmp_path / "pw.csv", ",a,b\nb,1,3\na,1/3,1\n")
        with pytest.raises(SchemaError) as err:
            parse_pairwise(p)
        assert "mirror" in str(err.value)

    def test_wrong_row_count_rejected(self, tmp_path):
        p = write(tmp_path / "pw.csv", ",a,b\na,1,3\n")
        with pytest.raises(SchemaError):
            parse_pairwise(p)

    def test_bad_number_names_cell(self, tmp_path):
        p = write(tmp_path / "pw.csv", ",a,b\na,1,x\nb,1/3,1\n")
        with pytest.raises(SchemaError) as err:
            parse_pairwise(p)
        assert "(a, b)" in str(err.value)


class TestEmitRoundForm:
    def consensus(self):
        rnd = RatingRound(
            round_no=1, scale_max=5, distributed=3,
            indicator_ids=("b", "a", "c"),
            ratings={"e1": (5, 4, 3), "e2": (4, 4, 5), "e3": (5, 5, 4)},
        )
        return round_consensus(rnd)

    def test_form_contents(self, tmp_path):
        out = tmp_path / "form.csv"
        emit_round_form(self.consensus(), ["a", "b"], 2, out, names={"a": "Alpha"})
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "indicator_id,name,prev_mean,rating"
        # Sorted by id; names fall back to the id; means printed at 4 dp.
        assert lines[1] == "a,Alpha,4.3333,"
        assert lines[2] == "b,b,4.6667,"
        assert len(lines) == 3

    def test_byte_deterministic(self, tmp_path):
        rc = self.consensus()
        p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        emit_round_form(rc, ["a", "b", "c"], 2, p1)
        emit_round_form(rc, ["a", "b", "c"], 2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_one_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            emit_round_form(self.consensus(), ["a"], 1, tmp_path / "f.csv")

    def test_empty_retained_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            emit_round_form(self.consensus(), [], 2, tmp_path / "f.csv")

    def test_unknown_indicator_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            emit_round_form(self.consensus(), ["a", "zz"], 2, tmp_path / "f.csv")

    def test_repeated_indicator_rejected(self, tmp_path):
        out = tmp_path / "f.csv"
        with pytest.raises(InvalidInputError, match=r"^retained indicator\(s\) listed twice: a$"):
            emit_round_form(self.consensus(), ["a", "b", "a"], 2, out)
        assert not out.exists()
