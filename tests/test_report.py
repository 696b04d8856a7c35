import json
import os
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stagekit
from stagekit import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
    Instrument,
    Question,
    RatingRound,
    ReportBundle,
    ResponseSet,
    RoundSection,
    SchemaError,
    ScreeningThresholds,
    WeightsSection,
    bundle_to_obj,
    composite,
    derive_thresholds,
    load_default_instrument,
    display,
    emit_report,
    reliability_report,
    render_json,
    render_markdown,
    round_consensus,
    run_pipeline,
    score_software,
    screen_indicators,
    validity_report,
    weight_tree,
)
from stagekit.ahp import PairwiseMatrix
from stagekit.cli import main
from stagekit.io import parse_responses
from stagekit.model import CellPairs, IndicatorNode, IndicatorTree, Level
from stagekit.report import bundle_from_obj, display_places, render_markdown_obj, write_output

DATA = Path(stagekit.__file__).parent / "data"


class TestDisplay:
    def test_coefficient_places(self):
        assert display(0.884) == "0.8840"
        assert display(0.8461) == "0.8461"
        assert display(1.0) == "1.0000"

    def test_score_places(self):
        assert display(0.93125, 2) == "0.93"
        assert display(80.0, 2) == "80.00"

    def test_half_even_on_representable_ties(self):
        # Dyadic fractions are exact in binary, so these are true ties.
        assert display(0.125, 2) == "0.12"
        assert display(0.375, 2) == "0.38"
        assert display(2.5, 0) == "2"
        assert display(3.5, 0) == "4"

    def test_authority_mean_display(self):
        # (0.8864 + 0.8651) / 2 = 0.87575; the nearest double sits a hair
        # above the tie, and a true decimal tie would round half-even to the
        # even neighbour anyway, so 4-dp display is 0.8758 (the source table
        # prints 0.8757, a truncation artifact).
        assert display((0.8864 + 0.8651) / 2) == "0.8758"


def toy_instrument():
    questions = tuple(Question(id=f"q{i}", text=f"Question {i}") for i in range(1, 5))
    return Instrument(
        indices=(("d1.a", ("q1", "q2")), ("d2.b", ("q3", "q4"))),
        questions=questions,
        dimension_of={"d1.a": "d1", "d2.b": "d2"},
    )


def toy_tree():
    return IndicatorTree(nodes=(
        IndicatorNode(id="d1", name="One", level=Level.DIMENSION),
        IndicatorNode(id="d2", name="Two", level=Level.DIMENSION),
        IndicatorNode(id="d1.a", name="A", level=Level.INDEX, parent_id="d1"),
        IndicatorNode(id="d2.b", name="B", level=Level.INDEX, parent_id="d2"),
    ))


def full_bundle():
    rnd = RatingRound(
        round_no=1, scale_max=5, distributed=4,
        indicator_ids=("a", "b", "c"),
        ratings={"e1": (5, 4, 2), "e2": (5, 3, 2), "e3": (4, 5, 3)},
    )
    consensus = round_consensus(rnd)
    screening = screen_indicators(
        consensus.stats,
        ScreeningThresholds(mean_floor=3.0, fsf_floor=0.0, cv_ceiling=0.3),
    )

    pairwise = {None: PairwiseMatrix(ids=("d1", "d2"), entries=((1.0, 3.0), (1 / 3, 1.0)))}
    importance = {"d1.a": 5.0, "d2.b": 6.0}
    tree, consistency = weight_tree(toy_tree(), pairwise=pairwise, importance=importance)

    instrument = toy_instrument()
    responses = ResponseSet(
        question_ids=instrument.question_ids,
        consumer={
            "r1": (4, 3, 2, 1),
            "r2": (3, 3, 2, 2),
            "r3": (4, 2, 1, 2),
        },
    ).with_bonus(("b1",), {"e1": (3,)})
    reliability = reliability_report(responses, instrument)
    validity = validity_report(["a", "b"], [[7, 6], [6, 4], [7, 5]])
    score = score_software(responses, instrument, {n.id: n.local_weight for n in tree.nodes if not n.bonus})
    return ReportBundle(
        rounds=(RoundSection(consensus=consensus, screening=screening),),
        weights=WeightsSection(method="combined", tree=tree, consistency=consistency),
        reliability=reliability,
        validity=validity,
        score=score,
    )


def walk_numeric_fields(node, path=""):
    """Yield every {value, display} pair in the report object."""
    if isinstance(node, dict):
        if set(node) == {"value", "display"}:
            yield path, node
            return
        for key, child in node.items():
            yield from walk_numeric_fields(child, f"{path}.{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from walk_numeric_fields(child, f"{path}[{i}]")


class TestBundleObject:
    def test_fixed_section_order(self):
        obj = bundle_to_obj(ReportBundle())
        assert list(obj) == ["rounds", "weights", "reliability", "validity", "score"]
        assert obj["rounds"] == []
        assert obj["weights"] is None

    def test_every_number_carries_value_and_display(self):
        obj = bundle_to_obj(full_bundle())
        pairs = list(walk_numeric_fields(obj))
        assert len(pairs) > 40
        for path, pair in pairs:
            places = len(pair["display"].split(".")[1])
            assert places in (2, 4), path
            assert pair["display"] == format(pair["value"], f".{places}f"), path

    def test_precision_parameters_respected(self):
        obj = bundle_to_obj(full_bundle(), coeff_places=6)
        rnd = obj["rounds"][0]
        assert len(rnd["positivity"]["display"].split(".")[1]) == 6
        assert len(obj["score"]["composite"]["display"].split(".")[1]) == 2  # scores keep SCORE_PLACES

    def test_records_written_by_declared_type(self):
        bundle = full_bundle()
        consensus = bundle.rounds[0].consensus
        thresholds = ScreeningThresholds(mean_floor=3, fsf_floor=0, cv_ceiling=1)  # ints
        section = RoundSection(consensus, screen_indicators(consensus.stats, thresholds))
        obj = bundle_to_obj(ReportBundle(rounds=(section,), reliability=bundle.reliability))
        written = obj["rounds"][0]["screening"]["thresholds"]["mean_floor"]
        assert written == {"value": 3.0, "display": "3.0000"} and type(written["value"]) is float
        rel = obj["reliability"]
        assert list(rel) == ["n_respondents", "n_excluded", "total_alpha", "indices", "questions"]
        assert (rel["n_respondents"], rel["n_excluded"]) == (3, 0)
        assert list(rel["questions"][0]) == ["question_id", "index_id", "citc", "alpha_if_deleted",
                                             "flagged", "note"]

    def test_screening_shape(self):
        obj = bundle_to_obj(full_bundle())
        scr = obj["rounds"][0]["screening"]
        assert set(scr["retained"]) | set(scr["dropped"]) == {"a", "b", "c"}
        assert set(scr["reasons"]) == set(scr["dropped"])

    def test_empty_screening_keeps_shape(self):
        rnd = RatingRound(
            round_no=1, scale_max=5, distributed=2,
            indicator_ids=("a", "b"),
            ratings={"e1": (5, 4), "e2": (4, 5)},
        )
        consensus = round_consensus(rnd)
        screening = screen_indicators(
            consensus.stats, ScreeningThresholds(mean_floor=0.0, fsf_floor=0.0, cv_ceiling=9.0)
        )
        obj = bundle_to_obj(ReportBundle(rounds=(RoundSection(consensus, screening),)))
        scr = obj["rounds"][0]["screening"]
        assert scr["dropped"] == []
        assert scr["reasons"] == {}
        assert scr["retained"] == ["a", "b"]

    def test_round_without_screening(self):
        rnd = RatingRound(
            round_no=2, scale_max=5, distributed=2,
            indicator_ids=("a", "b"),
            ratings={"e1": (5, 4), "e2": (4, 5)},
        )
        obj = bundle_to_obj(ReportBundle(rounds=(RoundSection(round_consensus(rnd)),)))
        assert obj["rounds"][0]["screening"] is None
        assert obj["rounds"][0]["authority"]["ca"] is None

    def test_bonus_nodes_left_out_of_weights(self):
        nodes = list(toy_tree().nodes) + [
            IndicatorNode(id="xtra", name="Extra", level=Level.DIMENSION, bonus=True)
        ]
        importance = {"d1": 5.0, "d2": 5.0, "d1.a": 5.0, "d2.b": 5.0}
        tree, consistency = weight_tree(IndicatorTree(nodes=tuple(nodes)), importance=importance)
        obj = bundle_to_obj(ReportBundle(
            weights=WeightsSection(method="scoring", tree=tree, consistency=consistency)
        ))
        assert all(n["id"] != "xtra" for n in obj["weights"]["nodes"])


class TestRenderJson:
    def test_round_trips_through_json(self):
        bundle = full_bundle()
        text = render_json(bundle)
        assert text.endswith("\n")
        assert json.loads(text) == bundle_to_obj(bundle)

    def test_deterministic(self):
        bundle = full_bundle()
        assert render_json(bundle) == render_json(bundle)

    def test_authority_pair_example(self):
        # A Cr of exactly (0.8864 + 0.8651) / 2 serializes with both the full
        # value and its 4-dp display.
        obj = bundle_to_obj(full_bundle())
        cr = {"value": (0.8864 + 0.8651) / 2, "display": "0.8758"}
        assert cr["value"] == 0.87575
        assert display(cr["value"]) == cr["display"]


def json_oracle(value) -> str:
    """The text ``render_json`` must write: json's own indent=2 encoder, and a final LF."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


# Strings with quotes, backslashes, control characters, non-ASCII, a line separator and lone surrogates.
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028é\ud800\udfff'),
               max_size=6)
QUESTION_IDS = load_default_instrument().question_ids


def reported(tmp_path, text: str, fmt: str) -> str:
    """What ``stagekit report`` writes of the bundle ``text``, in ``fmt``."""
    bundle, out = tmp_path / "bundle.json", tmp_path / f"report.{fmt}"
    bundle.write_text(text, encoding="utf-8")
    assert main(["report", "--bundle", str(bundle), "--format", fmt, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestJsonText:
    """A bundle's JSON is json's own indent=2 text, and `report` of it writes the same bytes back."""

    @pytest.mark.parametrize("places", range(18))
    def test_full_bundle_at_every_precision(self, tmp_path, places):
        bundle = full_bundle()
        text = render_json(bundle, coeff_places=places)
        assert text == json_oracle(bundle_to_obj(bundle, coeff_places=places))
        assert display_places(json.loads(text)) == places
        assert reported(tmp_path, text, "json") == text
        assert reported(tmp_path, text, "markdown") == render_markdown(bundle, coeff_places=places)


@st.composite
def imputed_bundles(draw, question_ids=TEXT):
    """A score bundle whose imputed pairs are the blanks of 0-12 respondents x 0-6 questions, ids escaped."""
    k = draw(st.integers(0, 6))
    qids = tuple(draw(st.lists(question_ids, min_size=k, max_size=k, unique=True)))
    ids = draw(st.lists(TEXT, max_size=12, unique=True))
    rows = [tuple(draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=k, max_size=k))) for _ in ids]
    cells = ResponseSet(question_ids=qids, consumer=dict(zip(ids, rows))).missing_cells()
    return ReportBundle(score=composite({"d": 50.0}, {"d": 1.0}, 0.0, n_respondents=max(1, len(ids)),
                                        imputed=cells))


def assert_pairs_written_as_lists(bundle):
    """The renderers' pair writer gives the bytes of the pairs written as ``[rid, qid]`` lists."""
    pairs = tuple(bundle.score.imputed)
    obj = bundle_to_obj(bundle)
    assert obj["score"]["imputed"] == [[rid, qid] for rid, qid in pairs]
    text = render_json(bundle)
    assert text == json_oracle(obj)
    markdown = render_markdown(bundle)
    line = "Imputed answers: " + ", ".join(f"({rid}, {qid})" for rid, qid in pairs)
    assert markdown.endswith(f"\n{line}\n") == bool(pairs)  # the score's last line


class TestImputedColumns:
    """Imputed pairs are written from their index codes, to the bytes of the list of pairs."""

    @settings(max_examples=200, deadline=None)
    @given(imputed_bundles())
    def test_same_bytes_as_the_list_of_pairs(self, bundle):
        assert isinstance(bundle.score.imputed, CellPairs)
        assert_pairs_written_as_lists(bundle)

    @settings(max_examples=100, deadline=None)
    @given(imputed_bundles(st.sampled_from(QUESTION_IDS)), st.data())
    def test_read_back_and_written_again_to_the_same_bytes(self, bundle, data):
        """What ``report`` does: the bundle read back, rendered at its displays' places.

        Also of a file listing the pairs in any order: read back, their row codes follow
        the file's order of first use, and they are written in the file's order."""
        text = render_json(bundle)
        obj = json.loads(text)
        again = bundle_from_obj(obj)
        assert again.score.imputed == bundle.score.imputed
        assert render_json(again, coeff_places=display_places(obj)) == text
        assert render_markdown(again, coeff_places=display_places(obj)) == render_markdown(bundle)
        obj["score"]["imputed"] = data.draw(st.permutations(obj["score"]["imputed"]))
        shuffled = bundle_from_obj(obj)
        assert shuffled.score.imputed == obj["score"]["imputed"]
        assert render_json(shuffled, coeff_places=display_places(obj)) == json_oracle(obj)
        line = "Imputed answers: " + ", ".join(f"({rid}, {qid})" for rid, qid in obj["score"]["imputed"])
        assert render_markdown(shuffled).endswith(f"\n{line}\n") == bool(obj["score"]["imputed"])

    def test_ids_read_by_the_csv_loop(self, tmp_path):
        """Quoted ids holding a quote, a backslash, a tab and non-ASCII, scored; the byte path declines such a file."""
        path = tmp_path / "responses.csv"
        header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 22))
        ids = ['"a""b"', '"c\\d"', '"e\tf"', '"é😀"']
        path.write_text("\n".join([header, *(f"{rid}," + ",".join(["1"] * 21) for rid in ids),
                                   '"a""b2",' + ",".join(["", "2"] * 10 + [""])]) + "\n", encoding="utf-8")
        instrument = load_default_instrument()
        responses = parse_responses(path, instrument)
        assert responses.respondents == ('a"b', "c\\d", "e\tf", "é😀", 'a"b2')
        weights = stagekit.question_proportional_weights(instrument)
        bundle = ReportBundle(score=score_software(responses, instrument, weights))
        assert bundle.score.imputed == tuple(('a"b2', f"q{j}") for j in range(1, 22, 2))
        assert_pairs_written_as_lists(bundle)
        assert bundle_from_obj(json.loads(render_json(bundle))).score.imputed == bundle.score.imputed

    def test_rows_read_from_a_file_take_the_same_writer(self, tmp_path):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        assert obj["score"]["imputed"] == [["r26", "q7"]]
        obj["score"]["imputed"] = [["r1", "q2"], ["r1", "q3"], ["é\"", "q21"]]
        assert reported(tmp_path, json_oracle(obj), "json") == json_oracle(obj)
        assert "Imputed answers: (r1, q2), (r1, q3), (é\", q21)" in reported(tmp_path, json_oracle(obj), "markdown")


class TestRenderMarkdown:
    def test_markdown_shows_exactly_the_json_displays(self):
        bundle = full_bundle()
        obj = bundle_to_obj(bundle)
        text = render_markdown(bundle)
        for path, pair in walk_numeric_fields(obj):
            if "bonus_cap" in path:
                continue
            assert pair["display"] in text, f"{path} missing from markdown"

    def test_markdown_from_obj_equals_markdown_from_bundle(self):
        bundle = full_bundle()
        assert render_markdown_obj(bundle_to_obj(bundle)) == render_markdown(bundle)

    def test_deterministic(self):
        bundle = full_bundle()
        assert render_markdown(bundle) == render_markdown(bundle)

    def test_sections_render(self):
        text = render_markdown(full_bundle())
        for heading in ("## Round 1", "### Screening", "## Weights (method: combined)",
                        "## Reliability", "## Content validity", "## Score"):
            assert heading in text

    def test_empty_bundle_renders_header_only(self):
        text = render_markdown(ReportBundle())
        assert text == "# Evaluation report\n"


class TestEmitReport:
    def test_dispatch(self):
        bundle = full_bundle()
        assert emit_report(bundle, "json") == render_json(bundle)
        assert emit_report(bundle, "markdown") == render_markdown(bundle)

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError):
            emit_report(ReportBundle(), "pdf")

    def test_write_output_exact_bytes(self, tmp_path):
        out = tmp_path / "report.json"
        write_output("line1\nline2\n", out)
        assert out.read_bytes() == b"line1\nline2\n"

    def test_write_output_replaces_the_file_only_once_complete(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):  # fails after "partial" is written
            write_output("partial" * 10_000 + "\udc80", out)
        assert out.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        write_output("new\n", out)
        assert out.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_write_output_through_a_symlink_and_to_a_device(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old\n", encoding="utf-8")
        (tmp_path / "link.json").symlink_to(out)
        write_output("new\n", tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert out.read_text(encoding="utf-8") == "new\n"
        write_output("dropped\n", os.devnull)
        assert not Path(os.devnull).is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]

    def test_unwritable_output_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match=r"nodir/x\.json: cannot write \(No such file or directory\)"):
            write_output("x\n", tmp_path / "nodir" / "x.json")
        with pytest.raises(SchemaError, match="cannot write"):
            write_output("x\n", tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestBundleFromObj:
    def demo_round_stats_obj(self):
        from stagekit.io import parse_experts, parse_ratings

        rnd = parse_ratings(DATA / "ratings_round1.csv")
        consensus = round_consensus(rnd, parse_experts(DATA / "experts.csv"))
        return json.loads(render_json(ReportBundle(rounds=(RoundSection(consensus=consensus),))))

    def test_round_trip_of_demo_pipeline_bundle(self):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        assert obj["weights"] is not None and len(obj["rounds"]) == 3
        assert bundle_to_obj(bundle_from_obj(obj)) == obj

    def test_round_trip_of_round_stats_bundle(self):
        obj = self.demo_round_stats_obj()
        assert bundle_to_obj(bundle_from_obj(obj)) == obj

    def test_round_trip_of_full_bundle_at_other_precision(self):
        obj = bundle_to_obj(full_bundle(), coeff_places=6)
        assert bundle_to_obj(bundle_from_obj(obj), coeff_places=6) == obj

    @pytest.mark.parametrize("places", [4, 6])
    @pytest.mark.parametrize("make", [lambda: run_pipeline(DATA / "demo_config.json"), full_bundle],
                             ids=["demo", "full"])
    def test_every_section_round_trips(self, make, places):
        obj = json.loads(render_json(make(), coeff_places=places))
        assert all(obj[key] for key in ("rounds", "weights", "reliability", "validity", "score"))
        assert bundle_to_obj(bundle_from_obj(obj), coeff_places=places) == obj

    def test_weight_table_read_back(self):
        original = full_bundle().weights
        section = bundle_from_obj(bundle_to_obj(full_bundle())).weights
        assert section.tree == original.tree
        assert section.consistency == original.consistency

    @pytest.mark.parametrize("obj", [
        [],
        {"rounds": [{"round_no": 1}]},
        {"rounds": "r"},
        {"weights": {"method": "ahp", "nodes": [{"id": "x"}], "consistency": []}},
    ])
    def test_malformed_bundle_is_schema_error(self, obj):
        with pytest.raises(SchemaError, match=r"^b\.json: not a stagekit bundle"):
            bundle_from_obj(obj, "b.json")

    @pytest.mark.parametrize("path", [("rounds", 0, "indicators"), ("weights", "nodes"),
                                      ("score", "dimensions")], ids=["round", "weights", "score"])
    def test_repeated_id_rejected(self, path):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        entries = obj
        for key in path:
            entries = entries[key]
        entries[1]["id"] = entries[0]["id"]
        with pytest.raises(SchemaError) as exc:
            bundle_from_obj(obj, "b.json")
        assert str(exc.value) == (f"b.json: not a stagekit bundle (bad or missing field {path[-1]}: "
                                  f"id {entries[0]['id']!r} listed twice)")

    @pytest.mark.parametrize("path, key, name", [
        (("rounds",), "round_no", "rounds"),
        (("weights", "consistency"), "group", "consistency"),
        (("reliability", "indices"), "index_id", "indices"),
        (("reliability", "questions"), "question_id", "questions"),
        (("validity", "items"), "item_id", "items"),
    ], ids=["round", "consistency", "index", "question", "item"])
    def test_repeated_row_rejected(self, path, key, name):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        rows = obj
        for part in path:
            rows = rows[part]
        rows[1][key] = rows[0][key]
        with pytest.raises(SchemaError) as exc:
            bundle_from_obj(obj, "b.json")
        assert str(exc.value) == (f"b.json: not a stagekit bundle (bad or missing field {name}: "
                                  f"id {rows[0][key]!r} listed twice)")

    @pytest.mark.parametrize("field, index, source", [("retained", 1, "retained"),
                                                      ("retained", 0, "dropped"),
                                                      ("dropped", 1, "dropped")],
                             ids=["retained-twice", "retained-and-dropped", "dropped-twice"])
    def test_screened_id_listed_once(self, field, index, source):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        screening = obj["rounds"][0]["screening"]
        repeated = screening[source][0]
        screening[field][index] = repeated
        with pytest.raises(SchemaError) as exc:
            bundle_from_obj(obj, "b.json")
        assert str(exc.value) == ("b.json: not a stagekit bundle (bad or missing field "
                                  f"retained/dropped: id {repeated!r} listed twice)")


    def test_screening_read_back_is_screen_indicators_of_the_round(self):
        """The reader screens each round itself, from the statistics and thresholds it read."""
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        with patch("stagekit.report.screen_indicators", wraps=screen_indicators) as screen:
            rounds = bundle_from_obj(obj).rounds
        screened = [s for s in rounds if s.screening is not None]
        assert screen.call_count == len(screened) == 1
        for s in screened:
            assert s.screening == screen_indicators(s.consensus.stats, s.screening.thresholds)
    def test_imputed_pairs_read_back_as_columns(self):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        obj["score"]["imputed"] = [["r9", "q2"], ["r1", "q21"], ["r9", "q1"]]
        imputed = bundle_from_obj(obj).score.imputed
        assert isinstance(imputed, CellPairs) and imputed == obj["score"]["imputed"]
        assert imputed.row_ids == ("r9", "r1") and imputed.column_ids == load_default_instrument().question_ids

    @pytest.mark.parametrize("imputed, message", [
        ([["r1", "q99"]], "imputed: 'q99' is not a question of the instrument"),
        ([["r1", "q2"], ["r2", "q2"], ["r1", "q2"]], "imputed: id ('r1', 'q2') listed twice"),
        ([["r1", "q2", "q3"]], "too many values to unpack (expected 2)"),
    ], ids=["unknown-question", "pair-twice", "not-a-pair"])
    def test_impossible_imputed_pairs_rejected(self, imputed, message):
        obj = json.loads(render_json(run_pipeline(DATA / "demo_config.json")))
        obj["score"]["imputed"] = imputed
        with pytest.raises(SchemaError) as exc:
            bundle_from_obj(obj, "b.json")
        assert str(exc.value) == f"b.json: not a stagekit bundle (bad or missing field {message})"

    def test_non_number_value_rejected(self):
        obj = self.demo_round_stats_obj()
        obj["rounds"][0]["kendall_w"]["value"] = "0.5"
        with pytest.raises(SchemaError, match="not a number"):
            bundle_from_obj(obj)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 8).flatmap(lambda m: st.lists(
        st.lists(st.integers(1, 5), min_size=m, max_size=m), min_size=3, max_size=8)))
    def test_round_trip_property(self, rows):
        rnd = RatingRound(
            round_no=2, scale_max=5, distributed=len(rows) + 1,
            indicator_ids=tuple(f"i{j}" for j in range(len(rows[0]))),
            ratings={f"e{k}": tuple(row) for k, row in enumerate(rows)},
        )
        try:
            consensus = round_consensus(rnd)
            section = RoundSection(consensus=consensus, screening=screen_indicators(
                consensus.stats, derive_thresholds(consensus.stats)))
        except (DegenerateDataError, InsufficientDataError):
            assume(False)
        obj = json.loads(render_json(ReportBundle(rounds=(section,))))
        assert bundle_to_obj(bundle_from_obj(obj)) == obj
