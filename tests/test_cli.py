import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import stagekit
from stagekit import composite, render_json
from stagekit.cli import main
from stagekit.report import bundle_from_obj

DATA = Path(stagekit.__file__).parent / "data"


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert err == ""
    return json.loads(out)


@pytest.fixture
def stats1(tmp_path, capsys):
    """round-stats bundle for demo round 1, written to disk."""
    path = tmp_path / "stats1.json"
    rc, out, err = run(
        capsys, "round-stats",
        "--ratings", DATA / "ratings_round1.csv",
        "--experts", DATA / "experts.csv",
        "--out", path,
    )
    assert rc == 0, err
    return path


class TestRoundStats:
    def test_emits_parseable_bundle(self, capsys):
        obj = run_json(
            capsys, "round-stats",
            "--ratings", DATA / "ratings_round1.csv",
            "--experts", DATA / "experts.csv",
        )
        rnd = obj["rounds"][0]
        assert rnd["round_no"] == 1
        assert rnd["scale_max"] == 5
        assert 0.0 < rnd["positivity"]["value"] <= 1.0
        assert rnd["authority"]["cr"]["value"] == pytest.approx(
            (rnd["authority"]["ca"]["value"] + rnd["authority"]["cs"]["value"]) / 2
        )
        assert len(rnd["indicators"]) == 20
        assert rnd["screening"] is None

    @pytest.mark.parametrize("flag, value, message", [
        ("--distributed", "3", "25 responding experts exceed 3 distributed questionnaires"),
        ("--round-no", "0", "round_no must be positive, got 0"),
    ], ids=["distributed-below-returned", "round-no-0"])
    def test_round_arguments_checked(self, capsys, flag, value, message):
        ratings = DATA / "ratings_round1.csv"
        rc, out, err = run(capsys, "round-stats", "--ratings", ratings, flag, value)
        assert (rc, out, err) == (2, "", f"error: {ratings}: {message}\n")

    def test_without_experts_authority_is_null(self, capsys):
        obj = run_json(capsys, "round-stats", "--ratings", DATA / "ratings_round2.csv")
        authority = obj["rounds"][0]["authority"]
        assert authority == {"ca": None, "cs": None, "cr": None}

    def test_round_number_inferred_from_filename(self, capsys):
        obj = run_json(capsys, "round-stats", "--ratings", DATA / "ratings_round3.csv")
        assert obj["rounds"][0]["round_no"] == 3

    def test_markdown_format(self, capsys):
        rc, out, err = run(
            capsys, "round-stats",
            "--ratings", DATA / "ratings_round1.csv",
            "--format", "markdown",
        )
        assert rc == 0
        assert out.startswith("# Evaluation report\n")
        assert "## Round 1" in out

    def test_out_writes_file_and_stdout_stays_quiet(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        rc, out, err = run(
            capsys, "round-stats", "--ratings", DATA / "ratings_round1.csv", "--out", path,
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["rounds"]

    def test_precision_flag(self, capsys):
        obj = run_json(
            capsys, "round-stats",
            "--ratings", DATA / "ratings_round1.csv",
            "--precision", "6",
        )
        display = obj["rounds"][0]["positivity"]["display"]
        assert len(display.split(".")[1]) == 6

    @pytest.mark.parametrize("places", ["-3", "18"])
    def test_precision_out_of_range_exits_2(self, capsys, places):
        rc, out, err = run(capsys, "pipeline", "--config", DATA / "demo_config.json",
                           "--precision", places)
        assert rc == 2
        assert out == ""
        assert err == f"error: --precision must be between 0 and 17, got {places}\n"

    def test_precision_bounds_accepted(self, capsys):
        for places in ("0", "17"):
            obj = run_json(capsys, "round-stats", "--ratings", DATA / "ratings_round1.csv",
                           "--precision", places)
            display = obj["rounds"][0]["positivity"]["display"]
            assert len(display.partition(".")[2]) == int(places)

    def test_out_of_scale_rating_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("expert_id,a,b\ne1,9,3\ne2,4,3\n", encoding="utf-8")
        rc, out, err = run(capsys, "round-stats", "--ratings", bad)
        assert rc == 2
        assert err.startswith("error: ")

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run(capsys, "round-stats", "--ratings", "no_such.csv")
        assert rc == 2
        assert "no_such.csv" in err

    def test_degenerate_ratings_exit_3(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("expert_id,a,b,c\ne1,3,3,3\ne2,3,3,3\n", encoding="utf-8")
        rc, _, err = run(capsys, "round-stats", "--ratings", flat)
        assert rc == 3
        assert err.startswith("error: ")


class TestUnreadableInput:
    """A file that cannot be read as UTF-8 text exits 2 with one line naming it."""

    @pytest.fixture(params=["directory", "not-utf8"])
    def unreadable(self, request, tmp_path):
        if request.param == "directory":
            path = tmp_path / "inputs.csv"
            path.mkdir()
        else:  # the bad byte lies beyond the first read, so it surfaces while rows stream
            path = tmp_path / "latin1.csv"
            rows = "".join(f"e{i},5,4\n" for i in range(3000)).encode()
            path.write_bytes(b"expert_id,a,b\n" + rows + b"e\xff,4,3\n")
        return path

    @pytest.mark.parametrize("argv", [
        ["round-stats", "--ratings"],
        ["screen", "--stats"],
        ["pipeline", "--config"],
    ])
    def test_exits_2_with_one_line(self, argv, unreadable, capsys):
        rc, out, err = run(capsys, *argv, unreadable)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {unreadable}: ")
        assert err.count("\n") == 1

    def test_field_over_the_csv_limit_exits_2_with_one_line(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("expert_id,a,b\ne1," + "4" * 131_073 + ",3\n", encoding="utf-8")
        rc, out, err = run(capsys, "round-stats", "--ratings", big)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {big}: not a readable CSV file (field larger than field limit")
        assert err.count("\n") == 1

    def test_quoted_id_spanning_lines_is_named_on_one_line(self, tmp_path, capsys):
        bonus = tmp_path / "bonus.csv"
        bonus.write_text('expert_id,compliance,sociability\ne1,4,3\n"e2,3,3\ne3,2,1\n', encoding="utf-8")
        rc, out, err = run(capsys, "score", "--responses", DATA / "responses.csv", "--bonus", bonus,
                           "--weights", DATA / "no_such_weights.json")
        assert rc == 2
        assert err == f"error: {bonus}: cell (e2,3,3\\ne3,2,1, compliance): '' is not an integer\n"


class TestLongRow:
    """A row with one cell more than its header exits 2 with one line naming it and writes nothing."""

    @pytest.mark.parametrize("name, argv", [
        ("ratings_round1.csv", ["round-stats", "--ratings", "{file}"]),
        ("experts.csv", ["round-stats", "--ratings", "{data}/ratings_round1.csv", "--experts", "{file}"]),
        ("responses.csv", ["reliability", "--responses", "{file}"]),
        ("importance.csv", ["validity", "--importance", "{file}"]),
        ("expert_bonus.csv", ["score", "--responses", "{data}/responses.csv", "--bonus", "{file}",
                              "--weights", "{weights}"]),
        ("indicators.csv", ["weights", "--tree", "{file}", "--importance", "{stats2}"]),
        ("pairwise_ux.csv", ["weights", "--tree", "{data}/indicators.csv",
                             "--pairwise", "{data}/pairwise_dimensions.csv,{file}", "--method", "ahp"]),
    ], ids=["ratings", "experts", "responses", "importance", "expert-bonus", "indicators", "pairwise"])
    def test_exits_2_with_one_line(self, name, argv, stats2, weights_bundle, tmp_path, capsys):
        with open(DATA / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1].append("1")
        file = tmp_path / name
        with open(file, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        target = tmp_path / "out"
        argv = [a.format(file=file, data=DATA, weights=weights_bundle, stats2=stats2) for a in argv]
        rc, out, err = run(capsys, *argv, "--out", target)
        assert (rc, out) == (2, "")
        row_id, width = rows[1][0], len(rows[0])
        assert err == f"error: {file}: row {row_id!r} has {width + 1} cells for {width} columns\n"
        assert not target.exists()


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with one line naming it and leaves no file behind."""

    @pytest.fixture(params=["missing directory", "directory"])
    def target(self, request, tmp_path):
        if request.param == "directory":
            (tmp_path / "out").mkdir()
            return tmp_path / "out"
        return tmp_path / "nodir" / "x.json"

    @pytest.mark.parametrize("argv", [
        ["validity", "--importance", DATA / "importance.csv"],
        ["round-stats", "--ratings", DATA / "ratings_round1.csv", "--format", "markdown"],
        ["form", "--stats", "{stats1}", "--retained", "ux.availability.function_learnability",
         "--round", "2"],
    ], ids=["validity", "round-stats", "form"])
    def test_exits_2_with_one_line(self, argv, target, stats1, tmp_path, capsys):
        before = sorted(tmp_path.rglob("*"))
        argv = [str(a).format(stats1=stats1) for a in argv]
        rc, out, err = run(capsys, *argv, "--out", target)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: {target}: cannot write (")
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before  # neither an output nor a temporary file


class TestScreen:
    def test_derived_thresholds_on_demo_round(self, stats1, capsys):
        obj = run_json(capsys, "screen", "--stats", stats1)
        scr = obj["rounds"][0]["screening"]
        assert len(scr["retained"]) == 16
        assert len(scr["dropped"]) == 4
        assert all(item.startswith("cand.") for item in scr["dropped"])
        for reasons in scr["reasons"].values():
            assert reasons and set(reasons) <= {"mean", "fsf", "cv"}

    def test_explicit_thresholds_file(self, stats1, tmp_path, capsys):
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(
            json.dumps({"mean_floor": 0.0, "fsf_floor": 0.0, "cv_ceiling": 99.0}),
            encoding="utf-8",
        )
        obj = run_json(capsys, "screen", "--stats", stats1, "--thresholds", thresholds)
        scr = obj["rounds"][0]["screening"]
        assert scr["dropped"] == []
        assert len(scr["retained"]) == 20

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]],
                             ids=["bool", "string", "null", "list"])
    def test_non_number_threshold_exits_2(self, stats1, tmp_path, capsys, value):
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text(json.dumps({"mean_floor": 1, "fsf_floor": value, "cv_ceiling": 1}),
                              encoding="utf-8")
        rc, out, err = run(capsys, "screen", "--stats", stats1, "--thresholds", thresholds)
        assert rc == 2
        assert out == ""
        assert err == f"error: {thresholds}: fsf_floor: expected a number, got {value!r}\n"

    def test_threshold_too_large_for_a_float_exits_2(self, stats1, tmp_path, capsys):
        thresholds = tmp_path / "thresholds.json"
        thresholds.write_text('{"mean_floor": 1, "fsf_floor": 0.1, "cv_ceiling": 1' + "0" * 400 + "}",
                              encoding="utf-8")
        rc, out, err = run(capsys, "screen", "--stats", stats1, "--thresholds", thresholds)
        assert rc == 2
        assert err == f"error: {thresholds}: thresholds must be finite numbers\n"

    def test_non_bundle_input_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("{}", encoding="utf-8")
        rc, _, err = run(capsys, "screen", "--stats", junk)
        assert rc == 2
        assert err == f"error: {junk}: not a stagekit bundle (bad or missing field 'rounds')\n"

    def test_repeated_indicator_id_exits_2(self, stats1, capsys):
        obj = json.loads(stats1.read_text(encoding="utf-8"))
        indicators = obj["rounds"][0]["indicators"]
        indicators[1]["id"] = indicators[0]["id"]
        stats1.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "screen", "--stats", stats1)
        assert (rc, out) == (2, "")
        assert err == (f"error: {stats1}: not a stagekit bundle (bad or missing field indicators: "
                       f"id {indicators[0]['id']!r} listed twice)\n")

    def test_bundle_without_rounds_exits_2(self, weights_bundle, capsys):
        rc, out, err = run(capsys, "screen", "--stats", weights_bundle)
        assert (rc, out) == (2, "")
        assert err == f"error: {weights_bundle}: bundle contains no rounds\n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("{not json", encoding="utf-8")
        rc, _, err = run(capsys, "screen", "--stats", junk)
        assert rc == 2


@pytest.fixture
def stats2(tmp_path, capsys):
    path = tmp_path / "stats2.json"
    rc, _, err = run(
        capsys, "round-stats", "--ratings", DATA / "ratings_round2.csv", "--out", path,
    )
    assert rc == 0, err
    return path


@pytest.fixture
def weights_bundle(tmp_path, stats2, capsys):
    path = tmp_path / "weights.json"
    rc, _, err = run(
        capsys, "weights",
        "--tree", DATA / "indicators.csv",
        "--pairwise", f"{DATA / 'pairwise_dimensions.csv'},{DATA / 'pairwise_ux.csv'}",
        "--importance", stats2,
        "--method", "combined",
        "--out", path,
    )
    assert rc == 0, err
    return path


class TestWeights:
    def test_combined_method_bundle(self, weights_bundle):
        obj = json.loads(weights_bundle.read_text(encoding="utf-8"))
        section = obj["weights"]
        assert section["method"] == "combined"
        leaves = [n for n in section["nodes"] if n["level"] == "item"]
        total = sum(n["global_weight"]["value"] for n in leaves)
        assert total == pytest.approx(1.0, abs=1e-9)
        groups = {row["group"] for row in section["consistency"]}
        assert groups == {"root", "ux"}
        assert all(row["acceptable"] for row in section["consistency"])

    def test_scoring_method_needs_no_matrices(self, stats2, capsys):
        obj = run_json(
            capsys, "weights",
            "--tree", DATA / "indicators.csv",
            "--importance", stats2,
            "--method", "scoring",
        )
        assert obj["weights"]["consistency"] == []

    def test_ahp_method_without_matrices_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "weights",
            "--tree", DATA / "indicators.csv",
            "--method", "ahp",
        )
        assert rc == 2

    def test_matrix_with_foreign_id_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "pairwise.csv"
        matrix.write_text(",ghost,spook\nghost,1,2\nspook,0.5,1\n", encoding="utf-8")
        rc, _, err = run(
            capsys, "weights",
            "--tree", DATA / "indicators.csv",
            "--pairwise", matrix,
        )
        assert rc == 2
        assert "ghost" in err

    @pytest.mark.parametrize("name, label", [
        ("pairwise_dimensions.csv", "the dimension group"),
        ("pairwise_ux.csv", "children of ux"),
    ])
    def test_two_matrices_for_one_group_exit_2(self, name, label, capsys):
        rc, _, err = run(
            capsys, "weights",
            "--tree", DATA / "indicators.csv",
            "--pairwise", f"{DATA / name},{DATA / name}",
        )
        assert rc == 2
        assert err == f"error: two pairwise matrices given for {label}\n"

    def test_matrix_spanning_two_groups_exits_2(self, tmp_path, capsys):
        matrix = tmp_path / "pairwise.csv"
        matrix.write_text("id,ux,ux.availability\nux,1,2\nux.availability,1/2,1\n", encoding="utf-8")
        rc, out, err = run(capsys, "weights", "--tree", DATA / "indicators.csv", "--pairwise", matrix)
        assert (rc, out, err) == (2, "", f"error: {matrix}: matrix ids span multiple sibling groups\n")

    @pytest.mark.parametrize("text, message", [
        ("id,name,level,parent_id,bonus,bonus\npq,PQ,dimension,,false,false\n",
         "duplicated column(s) bonus"),
        ("id,name,level,parent_id,bonus\npq,PQ,dimension,,false\npq.x,X,index,pq,true\n",
         "invalid indicator tree: node pq.x: bonus node inside a non-bonus (core) subtree"),
        ("id,name,level,parent_id,bonus,local_weight\npq,PQ,dimension,,false,heavy\n",
         "row 'pq': local_weight 'heavy' is not a number"),
        ("id,name,level,parent_id,bonus,local_weight\npq,PQ,dimension,,false,1.5\n",
         "node pq: local_weight 1.5 outside [0, 1]"),
    ], ids=["duplicated-column", "bonus-true-in-core", "weight-not-a-number", "weight-above-1"])
    def test_bad_tree_exits_2(self, tmp_path, capsys, text, message):
        tree = tmp_path / "tree.csv"
        tree.write_text(text, encoding="utf-8")
        rc, out, err = run(capsys, "weights", "--tree", tree)
        assert (rc, out, err) == (2, "", f"error: {tree}: {message}\n")


class TestReliability:
    def test_demo_responses(self, capsys):
        obj = run_json(capsys, "reliability", "--responses", DATA / "responses.csv")
        rel = obj["reliability"]
        assert rel["n_respondents"] >= 2
        assert 0.0 < rel["total_alpha"]["value"] <= 1.0
        assert len(rel["indices"]) == 8
        assert len(rel["questions"]) == 21

    def test_duplicated_question_column_is_named(self, tmp_path, capsys):
        lines = (DATA / "responses.csv").read_text(encoding="utf-8").splitlines()
        dup = tmp_path / "responses.csv"
        dup.write_text("\n".join(f"{line},{line.split(',')[1]}" for line in lines) + "\n",
                       encoding="utf-8")
        rc, out, err = run(capsys, "reliability", "--responses", dup)
        assert rc == 2
        assert err == f"error: {dup}: duplicated column(s) q1\n"

    def test_unknown_instrument_exits_2(self, capsys):
        # only the bundled instrument exists: no option
        rc, out, err = run(capsys, "reliability", "--responses", DATA / "responses.csv",
                           "--instrument", "other")
        assert (rc, out, err) == (2, "", "error: stagekit: unrecognized arguments: --instrument other\n")


class TestValidity:
    def test_demo_importance(self, capsys):
        obj = run_json(capsys, "validity", "--importance", DATA / "importance.csv")
        val = obj["validity"]
        assert len(val["items"]) == 16
        assert 0.0 <= val["s_cvi"]["value"] <= 1.0
        for item in val["items"]:
            assert item["passes"] == (item["i_cvi"]["value"] >= 0.78)

    def test_column_not_an_item_exits_2(self, tmp_path, capsys):
        importance, out = tmp_path / "importance.csv", tmp_path / "validity.json"
        text = (DATA / "importance.csv").read_text(encoding="utf-8")
        importance.write_text(text.replace("function_learnability", "no_such_item", 1), encoding="utf-8")
        rc, stdout, err = run(capsys, "validity", "--importance", importance, "--out", out)
        assert (rc, stdout) == (2, "")
        assert err == "error: importance column 'ux.availability.no_such_item' is not an item of the instrument\n"
        assert not out.exists()

    def test_some_of_the_items_accepted(self, tmp_path, capsys):
        importance = tmp_path / "importance.csv"
        importance.write_text("rater_id,sp.ethics.service,pq.security.system_stability\nv01,7,4\nv02,6,5\n",
                              encoding="utf-8")
        obj = run_json(capsys, "validity", "--importance", importance)
        assert [i["item_id"] for i in obj["validity"]["items"]] == ["sp.ethics.service",
                                                                    "pq.security.system_stability"]


class TestScore:
    def test_score_with_bonus(self, weights_bundle, capsys):
        obj = run_json(
            capsys, "score",
            "--responses", DATA / "responses.csv",
            "--bonus", DATA / "expert_bonus.csv",
            "--weights", weights_bundle,
        )
        card = obj["score"]
        assert card["bonus_cap"] == 10.0
        composite = card["composite"]["value"]
        bonus = card["bonus"]["value"]
        assert card["final"]["value"] == pytest.approx(composite + bonus)
        assert card["final_rescaled"]["value"] == pytest.approx(
            (composite + bonus) / 110 * 100
        )
        assert len(card["dimensions"]) == 3

    def test_score_without_bonus(self, weights_bundle, capsys):
        obj = run_json(
            capsys, "score",
            "--responses", DATA / "responses.csv",
            "--weights", weights_bundle,
        )
        card = obj["score"]
        assert card["bonus"]["value"] == 0.0
        assert card["final"]["value"] == pytest.approx(card["composite"]["value"])

    def test_bonus_cap_flag(self, weights_bundle, capsys):
        obj = run_json(
            capsys, "score",
            "--responses", DATA / "responses.csv",
            "--bonus", DATA / "expert_bonus.csv",
            "--weights", weights_bundle,
            "--bonus-cap", "20",
        )
        assert obj["score"]["bonus_cap"] == 20.0

    @pytest.mark.parametrize("bonus", [False, True], ids=["no-bonus", "bonus"])
    @pytest.mark.parametrize("cap", ["inf", "1e309", "nan"])
    def test_bonus_cap_not_positive_finite_exits_2(self, weights_bundle, tmp_path, capsys, cap, bonus):
        out = tmp_path / "score.json"
        rc, stdout, err = run(
            capsys, "score",
            "--responses", DATA / "responses.csv",
            *(["--bonus", DATA / "expert_bonus.csv"] if bonus else []),
            "--weights", weights_bundle,
            "--bonus-cap", cap,
            "--out", out,
        )
        assert (rc, stdout) == (2, "")
        assert err == f"error: bonus cap must be a positive finite number, got {float(cap)!r}\n"
        assert not out.exists()

    def test_question_nobody_answered_exits_3(self, weights_bundle, tmp_path, capsys):
        with open(DATA / "responses.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("q5")
        for row in rows[1:]:
            row[column] = ""
        responses = tmp_path / "responses.csv"
        with open(responses, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        out = tmp_path / "score.json"
        rc, stdout, err = run(capsys, "score", "--responses", responses,
                              "--weights", weights_bundle, "--out", out)
        assert (rc, stdout) == (3, "")
        assert err == "error: question q5 has no answers at all; cannot impute\n"
        assert not out.exists()

    def test_index_under_another_dimension_exits_2(self, tmp_path, stats2, capsys):
        tree = tmp_path / "indicators.csv"
        tree.write_text((DATA / "indicators.csv").read_text(encoding="utf-8").replace(
            "pq.innovation,Innovation,index,pq,", "pq.innovation,Innovation,index,sp,"), encoding="utf-8")
        weights = tmp_path / "weights.json"
        rc, _, err = run(
            capsys, "weights", "--tree", tree,
            "--pairwise", f"{DATA / 'pairwise_dimensions.csv'},{DATA / 'pairwise_ux.csv'}",
            "--importance", stats2, "--out", weights,
        )
        assert rc == 0, err
        out = tmp_path / "score.json"
        rc, stdout, err = run(capsys, "score", "--responses", DATA / "responses.csv",
                              "--weights", weights, "--out", out)
        assert (rc, stdout) == (2, "")
        assert err == ("error: index pq.innovation is under sp in the weights tree "
                       "but under pq in the instrument\n")
        assert not out.exists()

    def test_weights_bundle_without_weights_exits_2(self, stats1, capsys):
        rc, _, err = run(
            capsys, "score",
            "--responses", DATA / "responses.csv",
            "--weights", stats1,
        )
        assert rc == 2
        assert "no weights section" in err


class TestForm:
    def test_form_from_screen_output(self, stats1, tmp_path, capsys):
        screen_path = tmp_path / "screen.json"
        rc, _, err = run(capsys, "screen", "--stats", stats1, "--out", screen_path)
        assert rc == 0
        form_path = tmp_path / "round2_form.csv"
        rc, _, err = run(
            capsys, "form",
            "--stats", stats1,
            "--screen", screen_path,
            "--round", "2",
            "--names", DATA / "indicators.csv",
            "--out", form_path,
        )
        assert rc == 0, err
        lines = form_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "indicator_id,name,prev_mean,rating"
        assert len(lines) == 1 + 16

    def test_form_from_explicit_retained(self, stats1, tmp_path, capsys):
        form_path = tmp_path / "form.csv"
        rc, _, err = run(
            capsys, "form",
            "--stats", stats1,
            "--retained", "ux.availability.function_learnability,pq.security.system_stability",
            "--round", "2",
            "--out", form_path,
        )
        assert rc == 0, err
        lines = form_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_unknown_retained_id_exits_2(self, stats1, tmp_path, capsys):
        rc, _, err = run(
            capsys, "form",
            "--stats", stats1,
            "--retained", "not.an.indicator",
            "--round", "2",
            "--out", tmp_path / "form.csv",
        )
        assert rc == 2

    def test_repeated_retained_id_exits_2(self, stats1, tmp_path, capsys):
        form = tmp_path / "form.csv"
        rc, out, err = run(capsys, "form", "--stats", stats1, "--retained", "ux.availability,ux.availability",
                           "--round", "2", "--out", form)
        assert (rc, out, err) == (2, "", "error: retained indicator(s) listed twice: ux.availability\n")
        assert not form.exists()

    def test_screen_bundle_without_screening_exits_2(self, stats1, tmp_path, capsys):
        form = tmp_path / "form.csv"
        rc, out, err = run(capsys, "form", "--stats", stats1, "--screen", stats1, "--round", "2",
                           "--out", form)
        assert (rc, out, err) == (2, "", f"error: {stats1}: bundle has no screening section\n")
        assert not form.exists()


def _move(source, target, reason=None):
    """An edit of a screening: its first ``source`` id moved to the end of ``target``, with ``reason`` if dropped."""
    def edit(scr):
        moved = scr[source].pop(0)
        scr[target].append(moved)
        if reason is None:
            del scr["reasons"][moved]
        else:
            scr["reasons"][moved] = reason
    return edit


def _set_reason(scr):
    scr["reasons"][scr["dropped"][0]] = ["cv"]  # failing the mean and full-score floors, not the CV ceiling


def _pass_all(scr):
    """Thresholds every indicator meets, so none of the file's dropped verdicts holds."""
    scr["thresholds"] = {"mean_floor": {"value": 1.0, "display": "1.0000"},
                         "fsf_floor": {"value": 0.0, "display": "0.0000"},
                         "cv_ceiling": {"value": 9.0, "display": "9.0000"}}


class TestScreeningDerived:
    """A screened round's verdicts are derived from its statistics and thresholds, never taken as written."""

    @pytest.mark.parametrize("edit, where", [
        (_move("dropped", "retained"), "rounds[0].screening.retained: not the value the writer writes"),
        (_move("retained", "dropped", ["mean"]), "rounds[0].screening.retained: not the value the writer writes"),
        (_set_reason, "rounds[0].screening.reasons[{dropped!r}]: not the value the writer writes"),
        (_pass_all, "rounds[0].screening.retained: not the value the writer writes"),
    ], ids=["dropped-id-retained", "retained-id-dropped", "other-reason", "thresholds"])
    def test_edited_screening_exits_2(self, stats1, tmp_path, capsys, edit, where):
        """Each edit, first cand.mascot_branding (below the mean and full-score floors) listed as retained,
        is refused by every reader, `form --screen` among them, which then writes no form."""
        screened = tmp_path / "screened.json"
        assert run(capsys, "screen", "--stats", stats1, "--out", screened)[0] == 0
        obj = json.loads(screened.read_text(encoding="utf-8"))
        scr = obj["rounds"][0]["screening"]
        assert scr["dropped"][0] == "cand.mascot_branding" and scr["reasons"][scr["dropped"][0]] == ["mean", "fsf"]
        where = where.format(dropped=scr["dropped"][0])
        edit(scr)
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        out_path = tmp_path / "out.json"
        err = f"error: {bundle}: not a stagekit bundle ({where})\n"
        for argv in (["report", "--bundle", bundle, "--out", out_path],
                     ["screen", "--stats", bundle, "--out", out_path],
                     ["form", "--stats", stats1, "--screen", bundle, "--round", "2", "--out", out_path]):
            assert run(capsys, *argv) == (2, "", err)
            assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["--ratings", DATA / "ratings_round1.csv", "--experts", DATA / "experts.csv", "--round-no", "2"],
        ["--ratings", DATA / "ratings_round1.csv", "--round-no", "1"],
        ["--ratings", DATA / "ratings_round2.csv", "--experts", DATA / "experts.csv", "--round-no", "1"],
    ], ids=["round-no", "without-authority", "other-ratings"])
    def test_screen_of_another_round_exits_2(self, stats1, tmp_path, capsys, argv):
        other, screened, form = tmp_path / "other.json", tmp_path / "screened.json", tmp_path / "form.csv"
        assert run(capsys, "round-stats", *argv, "--out", other)[0] == 0
        assert run(capsys, "screen", "--stats", other, "--out", screened)[0] == 0
        rc, out, err = run(capsys, "form", "--stats", stats1, "--screen", screened, "--round", "2", "--out", form)
        assert (rc, out, err) == (2, "", f"error: {screened}: screens another round than {stats1}\n")
        assert not form.exists()

    def test_form_of_a_screened_stats_bundle_carries_its_retained_ids(self, stats1, tmp_path, capsys):
        screened, form = tmp_path / "screened.json", tmp_path / "form.csv"
        assert run(capsys, "screen", "--stats", stats1, "--out", screened)[0] == 0
        assert run(capsys, "form", "--stats", screened, "--screen", screened, "--round", "2", "--out", form)[0] == 0
        retained = json.loads(screened.read_text(encoding="utf-8"))["rounds"][0]["screening"]["retained"]
        with open(form, encoding="utf-8", newline="") as fh:
            assert [row["indicator_id"] for row in csv.DictReader(fh)] == sorted(retained)


@pytest.fixture
def pipeline_bundle(tmp_path, capsys):
    """The three-round demo pipeline bundle, written to disk."""
    path = tmp_path / "pipeline.json"
    rc, _, err = run(capsys, "pipeline", "--config", DATA / "demo_config.json", "--out", path)
    assert rc == 0, err
    return path


class TestSingleRoundInput:
    @pytest.mark.parametrize("argv", [
        ["screen", "--stats", "{bundle}"],
        ["form", "--stats", "{bundle}", "--retained", "ux.availability",
         "--round", "2", "--out", "{tmp}/form.csv"],
        ["form", "--stats", "{stats1}", "--screen", "{bundle}",
         "--round", "2", "--out", "{tmp}/form.csv"],
        ["weights", "--tree", "{data}/indicators.csv", "--importance", "{bundle}",
         "--method", "scoring"],
    ], ids=["screen", "form-stats", "form-screen", "weights-importance"])
    def test_multi_round_bundle_exits_2(self, argv, pipeline_bundle, stats1, tmp_path, capsys):
        args = [a.format(bundle=pipeline_bundle, stats1=stats1, tmp=tmp_path, data=DATA)
                for a in argv]
        rc, out, err = run(capsys, *args)
        assert rc == 2
        assert out == ""
        assert err == (f"error: {pipeline_bundle}: bundle holds 3 rounds; give a single-round "
                       "bundle (output of `stagekit round-stats` or `screen`)\n")
        assert not (tmp_path / "form.csv").exists()

    def test_screen_of_screen_output_is_accepted(self, stats1, tmp_path, capsys):
        screened = tmp_path / "screened.json"
        assert run(capsys, "screen", "--stats", stats1, "--out", screened)[0] == 0
        again = run_json(capsys, "screen", "--stats", screened)
        assert again == json.loads(screened.read_text(encoding="utf-8"))


class TestReport:
    def test_rerender_to_markdown(self, stats1, capsys):
        rc, out, err = run(capsys, "report", "--bundle", stats1, "--format", "markdown")
        assert rc == 0
        assert "## Round 1" in out

    def test_json_rerender_is_identity(self, stats1, capsys):
        rc, out, _ = run(capsys, "report", "--bundle", stats1)
        assert rc == 0
        assert out == stats1.read_text(encoding="utf-8")

    @pytest.mark.parametrize("drop, key", [(None, "rounds"), ("distributed", "distributed")],
                             ids=["empty-object", "round-without-distributed"])
    def test_incomplete_bundle_to_markdown_exits_2(self, stats1, tmp_path, capsys, drop, key):
        bundle = tmp_path / "incomplete.json"
        obj = {}
        if drop:
            obj = json.loads(stats1.read_text(encoding="utf-8"))
            del obj["rounds"][0][drop]
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        out_path = tmp_path / "report.md"
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", "markdown",
                           "--out", out_path)
        assert rc == 2
        assert out == ""
        assert err == f"error: {bundle}: not a stagekit bundle (bad or missing field '{key}')\n"
        assert not out_path.exists()


    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("drop, key", [(None, "rounds"), ("distributed", "distributed")],
                             ids=["empty-object", "round-without-distributed"])
    def test_incomplete_bundle_exits_2_in_every_format(self, stats1, tmp_path, capsys,
                                                       drop, key, fmt):
        bundle = tmp_path / "incomplete.json"
        obj = {}
        if drop:
            obj = json.loads(stats1.read_text(encoding="utf-8"))
            del obj["rounds"][0][drop]
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt)
        assert rc == 2
        assert out == ""
        assert err == f"error: {bundle}: not a stagekit bundle (bad or missing field '{key}')\n"


    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_exits_2(self, stats1, tmp_path, capsys, number):
        text = stats1.read_text(encoding="utf-8")
        bundle = tmp_path / "non_finite.json"
        bundle.write_text(text.replace('"value": ', f'"value": {number}, "was": ', 1), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle)
        assert (rc, out) == (2, "")
        assert err == f"error: {bundle}: not valid JSON ({number} is not a finite number)\n"

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("cap", ["ten", 10 ** 400], ids=["string", "past-float-range"])
    def test_bonus_cap_not_a_float_exits_2(self, pipeline_bundle, tmp_path, capsys, cap, fmt):
        obj = json.loads(pipeline_bundle.read_text(encoding="utf-8"))
        obj["score"]["bonus_cap"] = cap
        bundle = tmp_path / "bad_cap.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {bundle}: not a stagekit bundle (bad or missing field ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("imputed, message", [
        ([["r1", "q99"]], "imputed: 'q99' is not a question of the instrument"),
        ([["r26", "q7"], ["r26", "q7"]], "imputed: id ('r26', 'q7') listed twice"),
    ], ids=["unknown-question", "pair-twice"])
    def test_impossible_imputed_pair_exits_2(self, pipeline_bundle, tmp_path, capsys, imputed, message, fmt):
        obj = json.loads(pipeline_bundle.read_text(encoding="utf-8"))
        obj["score"]["imputed"] = imputed
        bundle = tmp_path / "bad_imputed.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        out_path = tmp_path / "report.out"
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt, "--out", out_path)
        assert (rc, out) == (2, "")
        assert err == f"error: {bundle}: not a stagekit bundle (bad or missing field {message})\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("where", [("rounds", 0, "indicators", 0, "mean"),
                                       ("reliability", "total_alpha")],
                             ids=["rounds", "reliability"])
    def test_non_number_value_exits_2(self, pipeline_bundle, tmp_path, capsys, where, fmt):
        obj = json.loads(pipeline_bundle.read_text(encoding="utf-8"))
        field = obj
        for key in where:
            field = field[key]
        field["value"] = "x"
        bundle = tmp_path / "bad_value.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == (f"error: {bundle}: not a stagekit bundle "
                       "(bad or missing field value 'x' is not a number)\n")


@pytest.fixture
def quick_start_bundles(tmp_path, capsys):
    """The quick start's screened round-1 bundle and its weights bundle, written to disk."""
    screened, weights = tmp_path / "screened.json", tmp_path / "weights.json"
    for argv in (["round-stats", "--ratings", DATA / "ratings_round1.csv", "--experts", DATA / "experts.csv",
                  "--out", tmp_path / "round1.json"],
                 ["screen", "--stats", tmp_path / "round1.json", "--out", screened],
                 ["round-stats", "--ratings", DATA / "ratings_round2.csv", "--out", tmp_path / "round2.json"],
                 ["weights", "--tree", DATA / "indicators.csv",
                  "--pairwise", f"{DATA / 'pairwise_dimensions.csv'},{DATA / 'pairwise_ux.csv'}",
                  "--importance", tmp_path / "round2.json", "--out", weights]):
        assert run(capsys, *argv)[0] == 0
    return {"screen": screened, "score": weights}


THREE_IMPUTED = [["r1", "q2"], ["r2", "q2"], ["r3", "q1"], ["r1", "q3"]]  # three distinct respondents


def _set(key, value):
    def edit(entry):
        entry[key] = value
    return edit


class TestBundleContract:
    """A bundle read back is exactly what the writer writes: `report` and every reader refuse anything else."""

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("reader, path, edit, message", [
        ("screen", (), _set("notes", 1), "a field it does not know"),
        ("score", ("weights",), _set("notes", 1), "a field it does not know"),
        ("screen", ("rounds", 0, "indicators", 0), _set("median", 4.0), "a field it does not know"),
        ("score", ("weights", "nodes", 0, "global_weight"), _set("unit", "%"), "a field it does not know"),
        ("screen", ("rounds", 0, "screening"), lambda scr: scr["reasons"].setdefault(scr["retained"][0], ["mean"]),
         "a field it does not know"),
        ("screen", ("rounds", 0, "positivity"), _set("display", "0.1234"), "a display"),
        ("score", ("weights", "nodes", 3, "local_weight"), _set("display", "0.5"), "a display"),
    ], ids=["top-level", "section", "row", "number-pair", "extra-reason", "display", "display-places"])
    def test_refused_by_report_and_the_reader(self, quick_start_bundles, tmp_path, capsys, reader, path, edit,
                                              message, fmt):
        obj = json.loads(quick_start_bundles[reader].read_text(encoding="utf-8"))
        entry = obj
        for key in path:
            entry = entry[key]
        edit(entry)
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        out_path = tmp_path / "report.out"
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt, "--out", out_path)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {bundle}: not a stagekit bundle (") and message in err
        assert err.count("\n") == 1
        assert not out_path.exists()
        argv = (["screen", "--stats", bundle] if reader == "screen" else
                ["score", "--responses", DATA / "responses.csv", "--weights", bundle])
        assert run(capsys, *argv, "--out", out_path) == (2, "", err)
        assert not out_path.exists()

    @pytest.mark.parametrize("case", ["nodes-reversed", "display", "row-field", "reason-of-a-retained-id"])
    def test_refusal_names_the_first_path_that_differs(self, quick_start_bundles, tmp_path, capsys, case):
        reader = "score" if case in ("nodes-reversed", "row-field") else "screen"
        obj = json.loads(quick_start_bundles[reader].read_text(encoding="utf-8"))
        if case == "nodes-reversed":  # the writer writes nodes by id
            obj["weights"]["nodes"].reverse()
            where = "weights.nodes: a list not in the writer's order"
        elif case == "display":
            obj["rounds"][0]["kendall_w"]["display"] = "9.9999"
            where = "rounds[0].kendall_w: a display that is not its value at 4 decimals"
        elif case == "row-field":
            obj["weights"]["consistency"][1]["unit"] = "%"
            where = "weights.consistency[1].unit: a field it does not know"
        else:  # an indicator id holds dots, so it is named as a key
            screening = obj["rounds"][0]["screening"]
            retained = screening["retained"][0]
            screening["reasons"][retained] = ["mean"]
            where = f"rounds[0].screening.reasons[{retained!r}]: a field it does not know"
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        out_path = tmp_path / "report.out"
        err = f"error: {bundle}: not a stagekit bundle ({where})\n"
        assert run(capsys, "report", "--bundle", bundle, "--out", out_path) == (2, "", err)
        assert not out_path.exists()
        argv = (["screen", "--stats", bundle] if reader == "screen" else
                ["score", "--responses", DATA / "responses.csv", "--weights", bundle])
        assert run(capsys, *argv, "--out", out_path) == (2, "", err)
        assert not out_path.exists()

    def test_keys_in_another_order_written_back_in_the_bundle_order(self, pipeline_bundle, tmp_path, capsys):
        def reversed_keys(value):
            if isinstance(value, dict):
                return {key: reversed_keys(value[key]) for key in reversed(value)}
            return [reversed_keys(v) for v in value] if isinstance(value, list) else value

        text = pipeline_bundle.read_text(encoding="utf-8")
        bundle = tmp_path / "reordered.json"
        bundle.write_text(json.dumps(reversed_keys(json.loads(text)), indent=2), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle)
        assert (rc, out, err) == (0, text, "")

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    @pytest.mark.parametrize("n, imputed, least", [
        (-5, THREE_IMPUTED, 3), (-5, [], 1), (0, [], 1), (2, THREE_IMPUTED, 3), (3, THREE_IMPUTED, None),
    ], ids=["negative", "negative-none-imputed", "zero", "fewer-than-imputed", "as-many-as-imputed"])
    def test_score_counting_too_few_respondents_exits_2(self, pipeline_bundle, tmp_path, capsys, n, imputed,
                                                        least, fmt):
        obj = json.loads(pipeline_bundle.read_text(encoding="utf-8"))
        obj["score"]["n_respondents"] = n
        obj["score"]["imputed"] = imputed
        bundle = tmp_path / "score.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--format", fmt)
        if least is None:
            assert (rc, err) == (0, "")
            assert json.loads(out) == obj if fmt == "json" else f"Respondents: {n}\n" in out
        else:
            assert (rc, out, err) == (2, "", f"error: {bundle}: not a stagekit bundle (bad or missing field "
                                             f"n_respondents: {n} is below {least}, the respondents it must count)\n")

    def test_displays_past_max_precision_exit_2(self, stats1, tmp_path, capsys):
        obj = json.loads(stats1.read_text(encoding="utf-8"))
        positivity = obj["rounds"][0]["positivity"]
        positivity["display"] = format(positivity["value"], ".18f")
        bundle = tmp_path / "long.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(capsys, "report", "--bundle", bundle)
        assert (rc, out, err) == (2, "", f"error: {bundle}: not a stagekit bundle (coefficient displays of "
                                         "18 decimals, more than 17)\n")


def _node(node_id, key, value):
    def edit(obj):
        next(node for node in obj["weights"]["nodes"] if node["id"] == node_id)[key] = value
    return edit


class TestDerivedValues:
    """A bundle's global weights and score totals are derived from its own inputs, never taken as written."""

    @pytest.mark.parametrize("edit, why, weights", [
        (_node("ux.availability", "local_weight", {"value": 0.9, "display": "0.9000"}),
         "bad or missing field nodes: local weights of children of ux sum to 1.44", True),
        (_node("pq.innovation.incentive_mechanism", "global_weight", {"value": 0.5, "display": "0.5000"}),
         "weights.nodes[3].global_weight.value: not the value the writer writes", True),
        (_node("sp.ethics.service", "parent_id", "sp.ethic"),
         "bad or missing field nodes: node sp.ethics.service: parent 'sp.ethic' does not exist; ", True),
        (_node("sp.ethics.service", "local_weight", None),
         "bad or missing field node sp.ethics.service has no local weight", True),
        (lambda obj: obj["score"].update(final={"value": 99.0, "display": "99.00"}),
         "score.final.value: not the value the writer writes", False),
        (lambda obj: obj["score"]["dimensions"][0].update(weight={"value": 0.9, "display": "0.9000"}),
         "bad or missing field dimension weights sum to 1.32", False),
    ], ids=["group-sum", "global-weight", "missing-parent", "null-local-weight", "final", "dimension-weights"])
    def test_edited_demo_bundle_exits_2(self, pipeline_bundle, tmp_path, capsys, edit, why, weights):
        obj = json.loads(pipeline_bundle.read_text(encoding="utf-8"))
        edit(obj)
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(obj), encoding="utf-8")
        out_path = tmp_path / "report.out"
        rc, out, err = run(capsys, "report", "--bundle", bundle, "--out", out_path)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {bundle}: not a stagekit bundle ({why}") and err.count("\n") == 1
        assert not out_path.exists()
        if weights:
            argv = ["score", "--responses", DATA / "responses.csv", "--bonus", DATA / "expert_bonus.csv",
                    "--weights", bundle, "--out", out_path]
            assert run(capsys, *argv) == (2, "", err)
            assert not out_path.exists()

    @pytest.mark.parametrize("edit, dim", [
        (lambda weights: {**weights, "ux": weights["pq"], "pq": weights["ux"]}, "ux"),
        (lambda weights: {("social" if d == "sp" else d): w for d, w in weights.items()}, "social"),
    ], ids=["swapped", "no-such-node"])
    def test_score_dimension_weight_not_the_tree_local_weight_exits_2(self, pipeline_bundle, tmp_path, capsys,
                                                                      edit, dim):
        """A score beside a weights section weighs each dimension by the tree's local weight, read or scored."""
        read = bundle_from_obj(json.loads(pipeline_bundle.read_text(encoding="utf-8")))
        card = read.score
        weights = edit(card.dimension_weights)
        scores = dict(zip(weights, card.dimension_scores.values()))
        edited = composite(scores, weights, card.bonus, cap=card.bonus_cap, n_respondents=card.n_respondents,
                           imputed=card.imputed)  # a score whose own totals hold
        bundle = tmp_path / "edited.json"
        bundle.write_text(render_json(replace(read, score=edited)), encoding="utf-8")
        why = f"score.dimensions: {dim} weighs {weights[dim]!r}, not its local weight in weights.nodes"
        err = f"error: {bundle}: not a stagekit bundle (bad or missing field {why})\n"
        out_path = tmp_path / "out.json"
        for argv in (["report", "--bundle", bundle],
                     ["score", "--responses", DATA / "responses.csv", "--bonus", DATA / "expert_bonus.csv",
                      "--weights", bundle]):
            assert run(capsys, *argv, "--out", out_path) == (2, "", err)
            assert not out_path.exists()


class TestPipelineCommand:
    def test_demo_config_runs_all_sections(self, capsys):
        obj = run_json(capsys, "pipeline", "--config", DATA / "demo_config.json")
        assert len(obj["rounds"]) == 3
        assert obj["rounds"][0]["screening"] is not None
        assert obj["rounds"][1]["screening"] is None
        assert obj["weights"] is not None
        assert obj["reliability"] is not None
        assert obj["validity"] is not None
        assert obj["score"] is not None

    @pytest.mark.parametrize("name, old, new, message", [
        ("ratings_round2.csv", ",ux.availability,", ",ux.availabilityy,",
         "weights: importance means for children of ux miss ux.availability"),
        ("importance.csv", "function_learnability", "no_such_item",
         "validity: importance column 'ux.availability.no_such_item' is not an item of the instrument"),
    ], ids=["importance-round-column-renamed", "importance-column-renamed"])
    def test_renamed_reference_exits_2(self, tmp_path, capsys, name, old, new, message):
        for src in DATA.iterdir():
            shutil.copyfile(src, tmp_path / src.name)
        text = (DATA / name).read_text(encoding="utf-8")
        (tmp_path / name).write_text(text.replace(old, new, 1), encoding="utf-8")
        out = tmp_path / "bundle.json"
        rc, stdout, err = run(capsys, "pipeline", "--config", tmp_path / "demo_config.json", "--out", out)
        assert (rc, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_stage_label_in_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reliability": {}}), encoding="utf-8")
        rc, _, err = run(capsys, "pipeline", "--config", config)
        assert rc == 2
        assert "reliability" in err
        assert "missing input" in err


class TestEmptyValue:
    """A file option given the empty value exits 2 naming it; it never reads as the option left out."""

    @pytest.mark.parametrize("argv", [
        ["round-stats", "--ratings", DATA / "ratings_round1.csv", "--experts", ""],
        ["round-stats", "--ratings", DATA / "ratings_round1.csv", "--out", ""],
        ["screen", "--stats", "STATS", "--thresholds", ""],
        ["weights", "--tree", DATA / "indicators.csv", "--method", "scoring", "--importance", ""],
        ["weights", "--tree", DATA / "indicators.csv", "--pairwise", f"{DATA / 'pairwise_dimensions.csv'},"],
        ["reliability", "--responses", ""],
        ["validity", "--importance", ""],
        ["score", "--responses", DATA / "responses.csv", "--weights", "STATS", "--bonus", ""],
        ["form", "--stats", "STATS", "--screen", "", "--round", "2", "--out", "FORM"],
        ["form", "--stats", "STATS", "--retained", "i1", "--round", "2", "--out", ""],
        ["report", "--bundle", ""],
        ["pipeline", "--config", ""],
    ], ids=["experts", "out", "thresholds", "importance-bundle", "pairwise-trailing-comma", "responses",
            "importance-csv", "bonus", "screen", "form-out", "bundle", "config"])
    def test_exits_2_naming_the_option(self, stats1, tmp_path, capsys, argv):
        argv = [{"STATS": stats1, "FORM": tmp_path / "form.csv"}.get(a, a) for a in argv]
        option = argv[argv.index("") - 1] if "" in argv else "--pairwise"
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: stagekit {argv[0]}: argument {option}: expected a file path, got ''\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stats1.json"]

    @pytest.mark.parametrize("value", ["ux.availability,,pq.security", "ux.availability,", ",ux.availability",
                                       " , ux.availability", " , "])
    def test_retained_empty_entry_exits_2_naming_the_option(self, stats1, tmp_path, capsys, value):
        form = tmp_path / "form.csv"
        rc, out, err = run(capsys, "form", "--stats", stats1, "--retained", value, "--round", "2", "--out", form)
        assert (rc, out) == (2, "")
        assert err == (f"error: stagekit form: argument --retained: expected comma-separated ids, "
                       f"got an empty one in {value!r}\n")
        assert not form.exists()

    def test_retained_without_ids_is_no_retained_indicators(self, stats1, tmp_path, capsys):
        rc, out, err = run(capsys, "form", "--stats", stats1, "--retained", "", "--round", "2",
                           "--out", tmp_path / "form.csv")
        assert (rc, out) == (2, "")
        assert err == "error: no retained indicators; a round with no indicators is meaningless\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_scale_max_below_1_is_named(self, capsys, value):
        rc, out, err = run(capsys, "round-stats", "--ratings", DATA / "ratings_round1.csv", "--scale-max", value)
        assert (rc, out, err) == (2, "", f"error: scale_max must be positive, got {value}\n")


class TestArgparseSurface:
    """A usage error is one ``error:`` line with exit code 2, like any other input error."""

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate"], "stagekit: argument command: invalid choice: 'frobnicate'"),
        ([], "stagekit: the following arguments are required: command"),
        (["validity", "--importance", DATA / "importance.csv", "--precision", "3"],
         "stagekit: unrecognized arguments: --precision 3"),
        (["validity"], "stagekit validity: the following arguments are required: --importance"),
        (["validity", "--importance", DATA / "importance.csv", "--format", "html"],
         "stagekit validity: argument --format: invalid choice: 'html'"),
        (["round-stats", "--ratings", DATA / "ratings_round1.csv", "--scale-max", "five"],
         "stagekit round-stats: argument --scale-max: invalid int value: 'five'"),
    ], ids=["unknown-subcommand", "no-subcommand", "unknown-option", "missing-required",
            "bad-format-choice", "non-integer-scale-max"])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    def test_help_is_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validity", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: stagekit validity [-h] --importance")
