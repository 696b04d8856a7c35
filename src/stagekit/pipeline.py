"""Declarative end-to-end orchestration.

A single JSON config file lists the inputs for each stage; stages run in a
fixed order (round stats → screening → weights → reliability → validity →
score) and a failure surfaces as a stage-labeled error. Paths are resolved
relative to the config file; environment variables are never consulted.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Mapping

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
from .instrument import load_default_instrument
from .model import (
    Familiarity,
    Impact,
    JudgmentBasis,
    ResponseSet,
    ScreeningThresholds,
)
from .psychometrics import reliability_report, validity_report
from .report import ReportBundle, RoundSection, WeightsSection
from .scoring import DEFAULT_BONUS_CAP, score_software

ROOT_GROUP_KEY = "root"  # config alias for the dimension-level sibling group


def load_config(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return config


def _parse_ca_table(raw: Mapping[str, Mapping[str, float]]):
    try:
        return {
            JudgmentBasis(basis): {Impact(impact): float(v) for impact, v in row.items()}
            for basis, row in raw.items()
        }
    except ValueError as exc:
        raise SchemaError(f"config ca_table: {exc}") from None


def _parse_cs_map(raw: Mapping[str, float]):
    try:
        return {Familiarity(level): float(v) for level, v in raw.items()}
    except ValueError as exc:
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

    def resolve(rel: str) -> Path:
        return base / rel

    def require(section: Mapping[str, Any], key: str) -> str:
        value = section.get(key)
        if not value:
            raise InvalidInputError(f"missing input: {key}")
        return value

    scale_max = int(config.get("scale_max", 5))
    ca_table = _parse_ca_table(config["ca_table"]) if "ca_table" in config else DEFAULT_CA_TABLE
    cs_map = _parse_cs_map(config["cs_map"]) if "cs_map" in config else DEFAULT_CS_MAP

    profiles = None
    if config.get("experts"):
        with _stage("round-stats"):
            profiles = sio.parse_experts(resolve(config["experts"]))

    rounds: list[RoundSection] = []
    consensus_by_no = {}
    for entry in config.get("rounds", ()):
        with _stage("round-stats"):
            rnd = sio.parse_ratings(
                resolve(require(entry, "ratings")),
                scale_max=int(entry.get("scale_max", scale_max)),
                round_no=entry.get("round_no"),
                distributed=entry.get("distributed"),
            )
            consensus = round_consensus(rnd, profiles, ca_table=ca_table, cs_map=cs_map)
        screening = None
        if entry.get("screen"):
            with _stage("screen"):
                if "thresholds" in entry:
                    t = entry["thresholds"]
                    thresholds = ScreeningThresholds(
                        mean_floor=float(t["mean_floor"]),
                        fsf_floor=float(t["fsf_floor"]),
                        cv_ceiling=float(t["cv_ceiling"]),
                    )
                else:
                    thresholds = derive_thresholds(consensus.stats)
                screening = screen_indicators(consensus.stats, thresholds)
        rounds.append(RoundSection(consensus=consensus, screening=screening))
        consensus_by_no[consensus.round_no] = consensus

    weights_section = None
    if "weights" in config:
        spec = config["weights"] or {}
        with _stage("weights"):
            tree = sio.parse_indicators(resolve(require(config, "indicators")))
            pairwise: dict[str | None, PairwiseMatrix] = {}
            for group, rel in (spec.get("pairwise") or {}).items():
                key = None if group == ROOT_GROUP_KEY else group
                pairwise[key] = sio.parse_pairwise(resolve(rel))
            importance: dict[str, float] = {}
            if "importance_round" in spec:
                source = consensus_by_no.get(int(spec["importance_round"]))
                if source is None:
                    raise InvalidInputError(
                        f"missing input: round {spec['importance_round']} "
                        "(importance_round refers to a round not in the config)"
                    )
                importance = {i: s.mean for i, s in source.stats.items()}
            method = spec.get("method", "combined")
            weighted_tree, table = weight_tree(
                tree, pairwise=pairwise, importance=importance, method=method
            )
            weights_section = WeightsSection(method=method, tree=weighted_tree, table=table)

    if str(config.get("instrument", "default")) != "default":
        raise SchemaError(f'{config_path}: only the bundled default instrument is supported ("default")')
    instrument = load_default_instrument()
    parsed_responses: dict[Path, ResponseSet] = {}

    def responses_at(section: Mapping[str, Any]) -> ResponseSet:
        """Each responses file is parsed once, even when two stages name it."""
        path = resolve(require(section, "responses"))
        if path not in parsed_responses:
            parsed_responses[path] = sio.parse_responses(path, instrument)
        return parsed_responses[path]

    reliability = None
    if "reliability" in config:
        section = config["reliability"] or {}
        with _stage("reliability"):
            reliability = reliability_report(responses_at(section), instrument)

    validity = None
    if "validity" in config:
        section = config["validity"] or {}
        with _stage("validity"):
            item_ids, matrix = sio.parse_importance(resolve(require(section, "importance")))
            validity = validity_report(item_ids, matrix)

    score = None
    if "score" in config:
        section = config["score"] or {}
        with _stage("score"):
            responses = responses_at(section)
            if section.get("bonus"):
                bonus = sio.parse_expert_bonus(resolve(section["bonus"]), instrument.bonus_ids)
                responses = responses.with_bonus(instrument.bonus_ids, bonus)
            if weights_section is None:
                raise InvalidInputError(
                    "missing input: weights (the score stage needs the weights stage)"
                )
            score = score_software(
                responses,
                instrument,
                weights_section.table,
                bonus_cap=float(section.get("bonus_cap", DEFAULT_BONUS_CAP)),
            )

    return ReportBundle(
        rounds=tuple(rounds),
        weights=weights_section,
        reliability=reliability,
        validity=validity,
        score=score,
    )
