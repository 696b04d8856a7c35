import json
import os
import types
from functools import cached_property
from pathlib import Path

import pytest

import stagekit
from stagekit import (
    DEFAULT_CA_TABLE,
    DEFAULT_CS_MAP,
    DegenerateDataError,
    PipelineStageError,
    SchemaError,
    render_json,
    run_pipeline,
)
from stagekit.model import RowMatrix
from stagekit.pipeline import load_config

DATA = Path(stagekit.__file__).parent / "data"
DEMO_CONFIG = DATA / "demo_config.json"


class TestDemoRun:
    def test_all_declared_sections_present(self):
        bundle = run_pipeline(DEMO_CONFIG)
        assert len(bundle.rounds) == 3
        assert bundle.rounds[0].screening is not None
        assert bundle.rounds[1].screening is None
        assert bundle.weights is not None
        assert bundle.reliability is not None
        assert bundle.validity is not None
        assert bundle.score is not None

    def test_one_run_scans_the_responses_for_blanks_once(self, monkeypatch):
        """Reliability and score (with its bonus ratings) share one scan of the answer matrix."""
        scanned = []
        scan = vars(RowMatrix)["blank_cells"].func

        def counted(matrix):
            scanned.append(matrix)
            return scan(matrix)

        counting = cached_property(counted)
        counting.__set_name__(RowMatrix, "blank_cells")
        monkeypatch.setattr(RowMatrix, "blank_cells", counting)
        bundle = run_pipeline(DEMO_CONFIG)
        assert bundle.reliability is not None and bundle.score is not None
        assert bundle.score.bonus > 0
        assert len(scanned) == 1

    def test_byte_identical_across_runs(self):
        first = render_json(run_pipeline(DEMO_CONFIG))
        second = render_json(run_pipeline(DEMO_CONFIG))
        assert first == second

    def test_round_numbers_inferred_from_filenames(self):
        bundle = run_pipeline(DEMO_CONFIG)
        assert [r.consensus.round_no for r in bundle.rounds] == [1, 2, 3]

    def test_score_uses_weights_stage(self):
        bundle = run_pipeline(DEMO_CONFIG)
        weights = {
            n.id: n.local_weight
            for n in bundle.weights.tree.nodes
            if n.local_weight is not None
        }
        from stagekit import score_software
        from stagekit.instrument import load_default_instrument
        from stagekit.io import parse_expert_bonus, parse_responses

        instrument = load_default_instrument()
        responses = parse_responses(DATA / "responses.csv", instrument)
        bonus = parse_expert_bonus(DATA / "expert_bonus.csv", instrument.bonus_ids)
        responses = responses.with_bonus(instrument.bonus_ids, bonus)
        card = score_software(responses, instrument, weights, bonus_cap=10)
        assert card.final == pytest.approx(bundle.score.final, abs=1e-12)


    def test_shared_responses_file_parsed_once(self, monkeypatch):
        from stagekit import io as sio

        calls = []
        original = sio.parse_responses

        def counting(path, instrument):
            calls.append(Path(path).name)
            return original(path, instrument)

        monkeypatch.setattr(sio, "parse_responses", counting)
        bundle = run_pipeline(DEMO_CONFIG)
        assert calls == ["responses.csv"]
        assert bundle.reliability is not None and bundle.score is not None


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from stagekit import *", namespace)
    modules = [name for name, value in namespace.items()
               if not name.startswith("__") and isinstance(value, types.ModuleType)]
    assert modules == []
    assert "run_pipeline" in namespace and "ResponseSet" in namespace


class TestPathResolution:
    def test_paths_resolve_against_config_directory(self, tmp_path, monkeypatch):
        nest = tmp_path / "nested" / "deeper"
        nest.mkdir(parents=True)
        (nest / "ratings_round1.csv").write_text(
            "expert_id,a,b\ne1,5,4\ne2,4,5\ne3,5,3\n", encoding="utf-8"
        )
        config = nest / "config.json"
        config.write_text(
            json.dumps({"rounds": [{"ratings": "ratings_round1.csv"}]}),
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)  # cwd has no ratings file
        bundle = run_pipeline(Path("nested") / "deeper" / "config.json")
        assert bundle.rounds[0].consensus.returned == 3

    def test_relative_config_path_itself_resolves_from_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA)
        bundle = run_pipeline("demo_config.json")
        assert bundle.score is not None


class TestConfigValidation:
    def test_missing_config_file(self):
        with pytest.raises(SchemaError, match="not found"):
            run_pipeline("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{, nope", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_config(path)

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SchemaError, match="JSON object"):
            load_config(path)

    def test_unknown_instrument_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"instrument": "bespoke"}), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"^config: unknown key 'instrument' \(expected one of: "):
            run_pipeline(path)

    @pytest.mark.parametrize("text", ['{"scale_max": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
                             ids=["integer-past-digit-limit", "nesting-past-recursion-limit"])
    def test_json_past_the_parser_limits(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            run_pipeline(path)

    def test_bad_ca_table_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"ca_table": {"telepathy": {"large": 0.5}}}), encoding="utf-8"
        )
        with pytest.raises(SchemaError, match="ca_table"):
            run_pipeline(path)

    def test_bad_cs_map_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cs_map": {"psychic": 1.0}}), encoding="utf-8")
        with pytest.raises(SchemaError, match="cs_map"):
            run_pipeline(path)

    @pytest.mark.parametrize("keys", [("scale_max",), ("ca_table",), ("cs_map",), ("weights", "method"),
                                      ("score", "bonus_cap"), ("rounds", 0, "thresholds")],
                             ids=lambda keys: ".".join(map(str, keys)))
    def test_null_optional_value_reads_as_absent(self, tmp_path, keys):
        # the demo config gives the defaults or leaves the key out
        bundle = run_pipeline(demo_config_copy(tmp_path, set_key(*keys, value=None)))
        assert bundle == run_pipeline(DEMO_CONFIG)

    def test_null_stage_is_not_run(self, tmp_path):
        nulls = {"weights": None, "reliability": None, "score": None}
        bundle = run_pipeline(demo_config_copy(tmp_path, lambda config: config.update(nulls)))
        assert (bundle.weights, bundle.reliability, bundle.score) == (None, None, None)
        assert bundle.validity == run_pipeline(DEMO_CONFIG).validity


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestStageErrors:
    def test_reliability_missing_input_is_stage_labeled(self, tmp_path):
        path = write_config(tmp_path, {"reliability": {}})
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "reliability"
        assert str(exc.value) == "reliability: missing input: responses"
        assert exc.value.exit_code == 2

    def test_round_stats_failure_keeps_cause_exit_code(self, tmp_path):
        (tmp_path / "flat.csv").write_text(
            "expert_id,a,b,c\ne1,3,3,3\ne2,3,3,3\n", encoding="utf-8"
        )
        path = write_config(tmp_path, {"rounds": [{"ratings": "flat.csv"}]})
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "round-stats"
        assert isinstance(exc.value.cause, DegenerateDataError)
        assert exc.value.exit_code == 3

    def test_score_without_weights_stage(self, tmp_path):
        path = write_config(
            tmp_path, {"score": {"responses": os.path.relpath(DATA / "responses.csv", tmp_path)}}
        )
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "score"
        assert "weights" in str(exc.value)

    def test_importance_round_must_exist(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "indicators": os.path.relpath(DATA / "indicators.csv", tmp_path),
                "weights": {"method": "scoring", "importance_round": 9},
            },
        )
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "weights"
        assert "round 9" in str(exc.value)

    def test_weights_requires_indicators_input(self, tmp_path):
        path = write_config(tmp_path, {"weights": {"method": "scoring"}})
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "weights"
        assert "indicators" in str(exc.value)


class TestPairwiseGroups:
    def test_misspelled_group_exits_2_with_one_weights_line(self, tmp_path, capsys):
        from stagekit.cli import main

        config = demo_config_copy(tmp_path, rename_key("weights", "pairwise", "ux", to="uxx"))
        out_path = tmp_path / "bundle.json"
        rc = main(["pipeline", "--config", str(config), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == ("error: weights: pairwise matrix for children of uxx: "
                                "no such sibling group in the indicator tree\n")
        assert not out_path.exists()


def move_innovation_to_sp(tmp_path):
    tree = tmp_path / "indicators.csv"
    tree.write_text(tree.read_text(encoding="utf-8").replace(
        "pq.innovation,Innovation,index,pq,", "pq.innovation,Innovation,index,sp,"), encoding="utf-8")


def add_an_index_to_pq(tmp_path):
    """pq gains an index the instrument lacks, rated in the importance round like pq.security."""
    tree = tmp_path / "indicators.csv"
    tree.write_text(tree.read_text(encoding="utf-8") + "pq.extra,Extra,index,pq,false\n", encoding="utf-8")
    ratings = tmp_path / "ratings_round2.csv"
    rows = [line.split(",") for line in ratings.read_text(encoding="utf-8").splitlines()]
    j = rows[0].index("pq.security")
    ratings.write_text("".join(",".join(row + ["pq.extra" if i == 0 else row[j]]) + "\n"
                               for i, row in enumerate(rows)), encoding="utf-8")


class TestScoreTreeMatchesInstrument:
    @pytest.mark.parametrize("edit, message", [
        (move_innovation_to_sp,
         "index pq.innovation is under sp in the weights tree but under pq in the instrument"),
        (add_an_index_to_pq,
         "node pq.extra is under pq in the weights tree but is not an index of the instrument"),
    ], ids=["index-moved", "index-added"])
    def test_exits_2_with_one_score_line(self, tmp_path, capsys, edit, message):
        from stagekit.cli import main

        config = demo_config_copy(tmp_path, lambda config: None)
        edit(tmp_path)
        out_path = tmp_path / "bundle.json"
        rc = main(["pipeline", "--config", str(config), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", f"error: score: {message}\n")
        assert not out_path.exists()


class TestRoundOptions:
    def test_explicit_round_thresholds(self, tmp_path):
        (tmp_path / "r1.csv").write_text(
            "expert_id,a,b\ne1,5,2\ne2,4,3\ne3,5,2\n", encoding="utf-8"
        )
        path = write_config(
            tmp_path,
            {
                "rounds": [
                    {
                        "ratings": "r1.csv",
                        "screen": True,
                        "thresholds": {
                            "mean_floor": 4.0,
                            "fsf_floor": 0.0,
                            "cv_ceiling": 99.0,
                        },
                    }
                ]
            },
        )
        bundle = run_pipeline(path)
        screening = bundle.rounds[0].screening
        assert screening.retained == ("a",)
        assert screening.dropped == ("b",)

    def test_per_round_scale_max(self, tmp_path):
        (tmp_path / "r1.csv").write_text(
            "expert_id,a,b\ne1,7,2\ne2,6,3\n", encoding="utf-8"
        )
        path = write_config(
            tmp_path,
            {"scale_max": 5, "rounds": [{"ratings": "r1.csv", "scale_max": 7}]},
        )
        bundle = run_pipeline(path)
        assert bundle.rounds[0].consensus.scale_max == 7

    def test_explicit_distributed_count(self, tmp_path):
        (tmp_path / "r1.csv").write_text(
            "expert_id,a,b\ne1,5,4\ne2,4,5\n", encoding="utf-8"
        )
        path = write_config(
            tmp_path,
            {"rounds": [{"ratings": "r1.csv", "distributed": 10, "round_no": 4}]},
        )
        consensus = run_pipeline(path).rounds[0].consensus
        assert consensus.distributed == 10
        assert consensus.positivity == pytest.approx(0.2)
        assert consensus.round_no == 4


def demo_config_copy(tmp_path, change):
    """The demo data copied to tmp_path, its config edited in place by ``change``."""
    for src in DATA.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    config = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    change(config)
    return write_config(tmp_path, config)


def set_key(*keys, value):
    def change(config):
        node = config
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return change


def rename_key(*keys, to):
    def change(config):
        node = config
        for key in keys[:-1]:
            node = node[key]
        node[to] = node.pop(keys[-1])
    return change


# The default authority tables as config JSON, with one value replaced.
def ca_table_with(value):
    table = {b.value: {i.value: v for i, v in row.items()} for b, row in DEFAULT_CA_TABLE.items()}
    table["intuition"]["small"] = value
    return table


def cs_map_with(value):
    return {**{f.value: v for f, v in DEFAULT_CS_MAP.items()}, "very_familiar": value}


# Given values that are no file path: none reads as the key left out.
EMPTY_VALUES = (0, False, [], {}, "")


class TestConfigTypeErrors:
    """A mistyped config exits 2 with one line naming the key, never a traceback."""

    @pytest.mark.parametrize("change, message", [
        (set_key("rounds", value="foo"), "config rounds: expected a list of JSON objects"),
        (set_key("rounds", value=["r1.csv"]), "config rounds: expected a list of JSON objects"),
        (set_key("scale_max", value="x"), "config scale_max: expected an integer, got 'x'"),
        (set_key("rounds", 0, "thresholds", value={"mean_floor": 1, "cv_ceiling": 1}),
         "screen: config thresholds: expected mean_floor/fsf_floor/cv_ceiling ('fsf_floor')"),
        (set_key("rounds", 0, "thresholds", value=[1, 2, 3]),
         "screen: config thresholds: expected mean_floor/fsf_floor/cv_ceiling"),
        (set_key("rounds", 1, "round_no", value="2"),
         "round-stats: config round_no: expected an integer, got '2'"),
        (set_key("rounds", 0, "ratings", value=7),
         "round-stats: config ratings: expected a file path, got 7"),
        (set_key("rounds", 0, "ratings", value="a\u0000b.csv"),
         "round-stats: config ratings: expected a file path, got 'a\\x00b.csv'"),
        (set_key("indicators", value="a\u0000b.csv"),
         "weights: config indicators: expected a file path, got 'a\\x00b.csv'"),
        (set_key("weights", value="combined"), "config weights: expected a JSON object"),
        (set_key("weights", "method", value=["ahp"]),
         "weights: unknown weighting method ['ahp']"),
        (set_key("weights", "pairwise", value=["pairwise_ux.csv"]),
         "weights: config pairwise: expected a JSON object"),
        (set_key("weights", "importance_round", value=True),
         "weights: config importance_round: expected an integer, got True"),
        (set_key("score", "bonus_cap", value="x"),
         "score: config bonus_cap: expected a number, got 'x'"),
        (set_key("reliability", value=["responses.csv"]),
         "config reliability: expected a JSON object"),
        (set_key("ca_table", value="x"), "config ca_table:"),
        (set_key("cs_map", value={"familiar": None}), "config cs_map:"),
        (rename_key("reliability", to="reliabilty"), "config: unknown key 'reliabilty' "),
        (rename_key("rounds", 0, "screen", to="screan"), "config rounds: unknown key 'screan' "),
        (rename_key("weights", "importance_round", to="importance"),
         "config weights: unknown key 'importance' "),
        (set_key("reliability", "bonus", value="expert_bonus.csv"),
         "config reliability: unknown key 'bonus' "),
        (set_key("validity", "responses", value="responses.csv"),
         "config validity: unknown key 'responses' "),
        (rename_key("score", "bonus_cap", to="cap"), "config score: unknown key 'cap' "),
        (set_key("cs_map", value=cs_map_with(True)),
         "config cs_map: very_familiar: expected a number, got True"),
        (set_key("cs_map", value=cs_map_with("1.0")),
         "config cs_map: very_familiar: expected a number, got '1.0'"),
        (set_key("ca_table", value=ca_table_with(False)),
         "config ca_table: intuition.small: expected a number, got False"),
        (set_key("cs_map", value=cs_map_with(10 ** 400)),
         "config cs_map: very_familiar: expected a finite number, got 1000"),
        (set_key("score", "bonus_cap", value=10 ** 400),
         "score: config bonus_cap: expected a finite number, got 1000"),
        (set_key("rounds", 0, "screen", value="no"), "config screen: expected true or false, got 'no'"),
        (set_key("rounds", 1, "screen", value=1), "config screen: expected true or false, got 1"),
        *((set_key("experts", value=v), f"round-stats: config experts: expected a file path, got {v!r}")
          for v in EMPTY_VALUES),
        *((set_key("score", "bonus", value=v), f"score: config bonus: expected a file path, got {v!r}")
          for v in EMPTY_VALUES),
        (set_key("indicators", value=0), "weights: config indicators: expected a file path, got 0"),
        (set_key("reliability", "responses", value=""),
         "reliability: config responses: expected a file path, got ''"),
        (set_key("scale_max", value=0), "round-stats: scale_max must be positive, got 0"),
        (set_key("rounds", 2, "scale_max", value=-5), "round-stats: scale_max must be positive, got -5"),
    ], ids=["rounds-str", "rounds-of-str", "scale_max-str", "thresholds-missing-key",
            "thresholds-list", "round_no-str", "ratings-int", "ratings-nul", "indicators-nul",
            "weights-str", "weights-method-list", "pairwise-list",
            "importance_round-bool", "bonus_cap-str", "reliability-list", "ca_table-str",
            "cs_map-null", "top-level-typo", "round-typo", "weights-typo",
            "reliability-unknown", "validity-unknown", "score-typo", "cs_map-bool",
            "cs_map-str", "ca_table-bool", "cs_map-overflow", "bonus_cap-overflow",
            "screen-str", "screen-int",
            *(f"experts-{v!r}" for v in EMPTY_VALUES), *(f"bonus-{v!r}" for v in EMPTY_VALUES),
            "indicators-0", "responses-empty", "scale_max-0", "round-scale_max-negative"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, change, message):
        from stagekit.cli import main

        config = demo_config_copy(tmp_path, change)
        out_path = tmp_path / "bundle.json"
        rc = main(["pipeline", "--config", str(config), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert not out_path.exists()


class TestConfigThresholdTypes:
    """A threshold that is not a JSON number (a bool, a string) exits 2 with one line."""

    @pytest.mark.parametrize("key, value", [("fsf_floor", True), ("mean_floor", "4")],
                             ids=["bool", "string"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, key, value):
        from stagekit.cli import main

        thresholds = {"mean_floor": 1, "fsf_floor": 0.1, "cv_ceiling": 1, key: value}
        config = demo_config_copy(tmp_path, set_key("rounds", 0, "thresholds", value=thresholds))
        out_path = tmp_path / "bundle.json"
        rc = main(["pipeline", "--config", str(config), "--out", str(out_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (f"error: screen: config thresholds: {key}: "
                                f"expected a number, got {value!r}\n")
        assert not out_path.exists()


class TestDuplicateRoundNumbers:
    def test_two_rounds_with_one_number_rejected(self, tmp_path):
        path = demo_config_copy(tmp_path, set_key("rounds", 2, "round_no", value=2))
        with pytest.raises(PipelineStageError) as exc:
            run_pipeline(path)
        assert exc.value.stage == "round-stats"
        assert exc.value.exit_code == 2
        assert str(exc.value) == ("round-stats: config rounds: two rounds numbered 2; "
                                  "give each its own round_no")

    def test_distinct_numbers_still_accepted(self, tmp_path):
        path = demo_config_copy(tmp_path, set_key("rounds", 2, "round_no", value=4))
        bundle = run_pipeline(path)
        assert [r.consensus.round_no for r in bundle.rounds] == [1, 2, 4]
