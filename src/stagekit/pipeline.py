"""Stage wiring and declarative end-to-end orchestration.

A stage that needs wiring beyond one library call (screening, weights,
validity, score) is a ``*_stage`` function here, from parsed inputs (and the
earlier section it builds on) to its bundle section; round stats and
reliability are one call each to their library function. A CLI subcommand
makes one such call; :func:`run_pipeline` runs every stage a JSON config file
declares, in a fixed order (round stats → screening → weights → reliability →
validity → score), and a failure surfaces as a stage-labeled error. Paths are
resolved relative to the config file; environment variables are never consulted.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import io as sio
from .ahp import PairwiseMatrix, weight_tree
from .consensus import (
    DEFAULT_CA_TABLE,
    DEFAULT_CS_MAP,
    derive_thresholds,
    round_consensus,
    screen_indicators,
)
from .errors import InvalidInputError, PipelineStageError, SchemaError, StagekitError
from .instrument import ITEMS, load_default_instrument
from .model import (
    Familiarity,
    Impact,
    IndicatorTree,
    Instrument,
    JudgmentBasis,
    ResponseSet,
    ScreeningThresholds,
)
from .psychometrics import ValidityTable, reliability_report, validity_report
from .report import ROOT_GROUP, ReportBundle, RoundSection, WeightsSection
from .scoring import DEFAULT_BONUS_CAP, ScoreCard, score_software


def screen_stage(section: RoundSection, thresholds: ScreeningThresholds | None = None) -> RoundSection:
    """The round with its indicators screened; thresholds default to ones derived from it."""
    stats = section.consensus.stats
    if thresholds is None:
        thresholds = derive_thresholds(stats)
    return replace(section, screening=screen_indicators(stats, thresholds))


def weights_stage(tree: IndicatorTree, pairwise: Mapping[str | None, PairwiseMatrix],
                  importance: RoundSection | None, method: str) -> WeightsSection:
    """Local and global weights; ``importance`` is the round whose means score the indicators."""
    means = {i: s.mean for i, s in importance.consensus.stats.items()} if importance else {}
    return WeightsSection(method, *weight_tree(tree, pairwise=pairwise, importance=means, method=method))


def validity_stage(item_ids: Sequence[str], ratings: Sequence[Sequence[int]]) -> ValidityTable:
    """Content validity of the bundled instrument's items (any subset); another column is an error."""
    known = {item_id for item_id, _, _ in ITEMS}
    for item_id in item_ids:
        if item_id not in known:
            raise InvalidInputError(f"importance column {item_id!r} is not an item of the instrument")
    return validity_report(item_ids, ratings)


def score_stage(responses: ResponseSet, instrument: Instrument, weights: WeightsSection | None,
                bonus: Mapping[str, Sequence[int]] | None = None,
                bonus_cap: float = DEFAULT_BONUS_CAP) -> ScoreCard:
    """Score the software with the weights tree's local weights, adding expert bonus ratings if given.

    Scoring groups the indices by the instrument's dimensions, so a weights tree
    that holds an index under another parent, or a node the instrument does not
    know under a dimension, is an error: either would take weight from the
    dimension's indices unseen.
    """
    if weights is None:
        raise InvalidInputError("missing input: weights (the score stage needs the weights stage)")
    dimensions = set(instrument.dimension_of.values())
    for node in weights.tree.nodes:
        dimension_id = instrument.dimension_of.get(node.id)
        if dimension_id is not None and node.parent_id != dimension_id:
            raise InvalidInputError(f"index {node.id} is under {node.parent_id} in the weights tree "
                                    f"but under {dimension_id} in the instrument")
        if dimension_id is None and node.parent_id in dimensions:
            raise InvalidInputError(f"node {node.id} is under {node.parent_id} in the weights tree "
                                    "but is not an index of the instrument")
    if bonus is not None:
        responses = responses.with_bonus(instrument.bonus_ids, bonus)
    local = {node.id: node.local_weight for node in weights.tree.nodes if not node.bonus}
    return score_software(responses, instrument, local, bonus_cap=bonus_cap)


def read_thresholds(obj: Any, source: str | Path) -> ScreeningThresholds:
    """Screening thresholds from a JSON object with mean_floor/fsf_floor/cv_ceiling numbers."""
    try:
        values = {key: obj[key] for key in ("mean_floor", "fsf_floor", "cv_ceiling")}
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{source}: expected mean_floor/fsf_floor/cv_ceiling ({exc})") from None
    for key, value in values.items():
        if type(value) not in (int, float):  # a bool is not a threshold
            raise SchemaError(f"{source}: {key}: expected a number, got {value!r}")
    try:
        return ScreeningThresholds(**{key: float(value) for key, value in values.items()})
    except OverflowError:
        raise SchemaError(f"{source}: thresholds must be finite numbers") from None


# The keys each config object may hold. Any other key is a schema error, so that a
# misspelled one cannot drop its stage or setting unseen; pairwise group names are free.
# A key whose value is null reads as absent.
_KEYS = {
    "config": ("scale_max", "indicators", "experts", "ca_table", "cs_map", "rounds",
               "weights", "reliability", "validity", "score"),
    "rounds": ("ratings", "screen", "thresholds", "round_no", "distributed", "scale_max"),
    "weights": ("method", "pairwise", "importance_round"),
    "reliability": ("responses",),
    "validity": ("importance",),
    "score": ("responses", "bonus", "bonus_cap"),
}


def _known_keys(obj: dict[str, Any], name: str) -> dict[str, Any]:
    """The config object ``name`` without its null values, once it holds only keys defined for it."""
    for key in obj:
        if key not in _KEYS[name]:
            where = "config" if name == "config" else f"config {name}"
            raise SchemaError(f"{where}: unknown key {key!r} (expected one of: {', '.join(_KEYS[name])})")
    return {key: value for key, value in obj.items() if value is not None}


def load_config(path: str | Path) -> dict[str, Any]:
    config = sio.read_json(path)
    if not isinstance(config, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return _known_keys(config, "config")


def _section(config: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """An optional config object (absent reads as empty), its keys checked where defined."""
    value = config.get(key, {})
    if not isinstance(value, dict):
        raise SchemaError(f"config {key}: expected a JSON object")
    return _known_keys(value, key) if key in _KEYS else value


def _integer(section: Mapping[str, Any], key: str, default: int | None = None) -> int | None:
    """An optional integer (absent reads as ``default``)."""
    value = section.get(key)
    if value is None:
        return default
    if type(value) is not int:
        raise SchemaError(f"config {key}: expected an integer, got {value!r}")
    return value


def _number(value: Any, key: str) -> float:
    """A config value that must be a JSON number, as a finite float (a bool is not a number)."""
    if type(value) not in (int, float):
        raise SchemaError(f"config {key}: expected a number, got {value!r}")
    with suppress(OverflowError):
        if math.isfinite(value):
            return float(value)
    raise SchemaError(f"config {key}: expected a finite number, got {value!r}")


def _parse_ca_table(raw: Mapping[str, Mapping[str, float]]):
    try:
        return {
            JudgmentBasis(basis): {Impact(impact): _number(v, f"ca_table: {basis}.{impact}")
                                   for impact, v in row.items()}
            for basis, row in raw.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"config ca_table: {exc}") from None


def _parse_cs_map(raw: Mapping[str, float]):
    try:
        return {Familiarity(level): _number(v, f"cs_map: {level}") for level, v in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"config cs_map: {exc}") from None


@contextmanager
def _stage(name: str):
    """Re-raise library errors with the stage label."""
    try:
        yield
    except StagekitError as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(config_path: str | Path) -> ReportBundle:
    """Execute every stage the config declares and return the report bundle."""
    config_path = Path(config_path)
    config = load_config(config_path)
    base = config_path.parent

    def path(section: Mapping[str, Any], key: str) -> Path:
        value = section.get(key)
        if value is None:
            raise InvalidInputError(f"missing input: {key}")
        if not isinstance(value, str) or not value or "\0" in value:  # open() raises ValueError on a NUL
            raise SchemaError(f"config {key}: expected a file path, got {value!r}")
        return base / value

    scale_max = _integer(config, "scale_max", 5)
    ca_table = _parse_ca_table(config["ca_table"]) if "ca_table" in config else DEFAULT_CA_TABLE
    cs_map = _parse_cs_map(config["cs_map"]) if "cs_map" in config else DEFAULT_CS_MAP
    entries = config.get("rounds", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SchemaError("config rounds: expected a list of JSON objects")
    entries = [_known_keys(entry, "rounds") for entry in entries]
    for entry in entries:
        screen = entry.get("screen")
        if screen is not None and type(screen) is not bool:
            raise SchemaError(f"config screen: expected true or false, got {screen!r}")
    specs = {key: _section(config, key) for key in ("weights", "reliability", "validity", "score")
             if key in config}
    instrument = load_default_instrument()

    profiles = None
    if "experts" in config:
        with _stage("round-stats"):
            profiles = sio.parse_experts(path(config, "experts"))

    rounds: dict[int, RoundSection] = {}
    for entry in entries:
        with _stage("round-stats"):
            rnd = sio.parse_ratings(
                path(entry, "ratings"),
                scale_max=_integer(entry, "scale_max", scale_max),
                round_no=_integer(entry, "round_no"),
                distributed=_integer(entry, "distributed"),
            )
            if rnd.round_no in rounds:
                raise SchemaError(f"config rounds: two rounds numbered {rnd.round_no}; "
                                  "give each its own round_no")
            section = RoundSection(consensus=round_consensus(rnd, profiles,
                                                             ca_table=ca_table, cs_map=cs_map))
        if entry.get("screen"):
            with _stage("screen"):
                thresholds = entry.get("thresholds")
                if thresholds is not None:
                    thresholds = read_thresholds(thresholds, "config thresholds")
                section = screen_stage(section, thresholds)
        rounds[rnd.round_no] = section

    weights = None
    if "weights" in specs:
        spec = specs["weights"]
        with _stage("weights"):
            tree = sio.parse_indicators(path(config, "indicators"))
            pairwise_spec = _section(spec, "pairwise")
            pairwise = {
                None if group == ROOT_GROUP else group: sio.parse_pairwise(path(pairwise_spec, group))
                for group in pairwise_spec
            }
            importance_round = _integer(spec, "importance_round")
            importance = rounds.get(importance_round)
            if importance_round is not None and importance is None:
                raise InvalidInputError(f"missing input: round {importance_round} "
                                        "(importance_round refers to a round not in the config)")
            weights = weights_stage(tree, pairwise, importance, spec.get("method", "combined"))

    parsed_responses: dict[Path, ResponseSet] = {}

    def responses_at(section: Mapping[str, Any]) -> ResponseSet:
        """Each responses file is parsed once, even when two stages name it."""
        responses_path = path(section, "responses")
        if responses_path not in parsed_responses:
            parsed_responses[responses_path] = sio.parse_responses(responses_path, instrument)
        return parsed_responses[responses_path]

    reliability = None
    if "reliability" in specs:
        with _stage("reliability"):
            reliability = reliability_report(responses_at(specs["reliability"]), instrument)

    validity = None
    if "validity" in specs:
        with _stage("validity"):
            validity = validity_stage(*sio.parse_importance(path(specs["validity"], "importance")))

    score = None
    if "score" in specs:
        section = specs["score"]
        with _stage("score"):
            responses = responses_at(section)
            bonus = (sio.parse_expert_bonus(path(section, "bonus"), instrument.bonus_ids)
                     if "bonus" in section else None)
            bonus_cap = _number(section.get("bonus_cap", DEFAULT_BONUS_CAP), "bonus_cap")
            score = score_stage(responses, instrument, weights, bonus, bonus_cap)

    return ReportBundle(
        rounds=tuple(rounds.values()),
        weights=weights,
        reliability=reliability,
        validity=validity,
        score=score,
    )
