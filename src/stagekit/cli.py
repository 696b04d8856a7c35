"""Command-line interface.

Subcommands mirror the pipeline stages (round-stats, screen, weights,
reliability, validity, score, form, report) plus the all-in-one `pipeline`.
Each analysis subcommand writes a report bundle (JSON by default, markdown on
request) to --out or stdout. Exit codes: 0 success, 2 schema/validation
error, 3 numeric or degenerate-data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Mapping

from . import io as sio
from .ahp import PairwiseMatrix, weight_tree
from .consensus import (
    IndicatorStats,
    RoundConsensus,
    derive_thresholds,
    round_consensus,
    screen_indicators,
)
from .errors import InvalidInputError, SchemaError, StagekitError
from .instrument import load_default_instrument
from .model import IndicatorTree, ScreeningThresholds
from .pipeline import run_pipeline
from .psychometrics import reliability_report, validity_report
from .report import (
    ReportBundle,
    RoundSection,
    WeightsSection,
    emit_report,
    render_markdown_obj,
    write_output,
)
from .scoring import DEFAULT_BONUS_CAP, score_software


MAX_PRECISION = 17  # display decimals beyond this only print representation noise


def precision(text: str) -> int:
    """--precision value: an integer 0..MAX_PRECISION (a non-integer is argparse's error)."""
    places = int(text)
    if not 0 <= places <= MAX_PRECISION:
        raise InvalidInputError(f"--precision must be between 0 and {MAX_PRECISION}, got {places}")
    return places


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "markdown"), default="json",
                        help="output format (default: json)")
    parser.add_argument("--precision", type=precision, default=4, metavar="N",
                        help=f"display decimals for coefficients, 0..{MAX_PRECISION} (default: 4)")


def _emit(bundle: ReportBundle, args: argparse.Namespace) -> None:
    text = emit_report(bundle, args.format, coeff_places=args.precision)
    if args.out:
        write_output(text, args.out)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> Any:
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"{p}: file not found")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{p}: not valid JSON ({exc})") from None


def _consensus_from_obj(path: str, obj: Mapping[str, Any]) -> RoundConsensus:
    """Rebuild one round's statistics from a previously emitted bundle."""
    rounds = obj.get("rounds") or []
    if not rounds:
        raise SchemaError(f"{path}: bundle contains no rounds")
    rnd = rounds[0]
    try:
        authority = rnd["authority"]

        def value(field):
            return None if field is None else field["value"]

        return RoundConsensus(
            round_no=rnd["round_no"],
            scale_max=rnd["scale_max"],
            distributed=rnd["distributed"],
            returned=rnd["returned"],
            positivity=rnd["positivity"]["value"],
            ca=value(authority["ca"]),
            cs=value(authority["cs"]),
            cr=value(authority["cr"]),
            kendall_w=rnd["kendall_w"]["value"],
            stats={
                s["id"]: IndicatorStats(
                    mean=s["mean"]["value"],
                    sd=s["sd"]["value"],
                    cv=s["cv"]["value"],
                    full_score_freq=s["full_score_freq"]["value"],
                )
                for s in rnd["indicators"]
            },
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{path}: not a round-stats bundle (missing {exc})") from None


def _cmd_round_stats(args) -> None:
    profiles = sio.parse_experts(args.experts) if args.experts else None
    rnd = sio.parse_ratings(
        args.ratings,
        scale_max=args.scale_max,
        round_no=args.round_no,
        distributed=args.distributed,
    )
    consensus = round_consensus(rnd, profiles)
    _emit(ReportBundle(rounds=(RoundSection(consensus=consensus),)), args)


def _thresholds_from_file(path: str) -> ScreeningThresholds:
    obj = _load_json(path)
    try:
        return ScreeningThresholds(
            mean_floor=float(obj["mean_floor"]),
            fsf_floor=float(obj["fsf_floor"]),
            cv_ceiling=float(obj["cv_ceiling"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: expected mean_floor/fsf_floor/cv_ceiling ({exc})") from None


def _cmd_screen(args) -> None:
    consensus = _consensus_from_obj(args.stats, _load_json(args.stats))
    thresholds = (
        _thresholds_from_file(args.thresholds)
        if args.thresholds
        else derive_thresholds(consensus.stats)
    )
    screening = screen_indicators(consensus.stats, thresholds)
    _emit(ReportBundle(rounds=(RoundSection(consensus=consensus, screening=screening),)), args)


def _matrix_group(tree: IndicatorTree, matrix: PairwiseMatrix, path: str) -> str | None:
    """Which sibling group a matrix belongs to, inferred from its ids."""
    parents = set()
    for node_id in matrix.ids:
        node = tree.node(node_id)
        if node is None:
            raise InvalidInputError(f"{path}: id {node_id!r} is not in the indicator tree")
        parents.add(node.parent_id)
    if len(parents) != 1:
        raise InvalidInputError(f"{path}: matrix ids span multiple sibling groups")
    return parents.pop()


def _cmd_weights(args) -> None:
    tree = sio.parse_indicators(args.tree)
    pairwise: dict[str | None, PairwiseMatrix] = {}
    for path in (args.pairwise.split(",") if args.pairwise else []):
        path = path.strip()
        if not path:
            continue
        matrix = sio.parse_pairwise(path)
        group = _matrix_group(tree, matrix, path)
        if group in pairwise:
            label = "the dimension group" if group is None else f"children of {group}"
            raise InvalidInputError(f"two pairwise matrices given for {label}")
        pairwise[group] = matrix
    importance: dict[str, float] = {}
    if args.importance:
        consensus = _consensus_from_obj(args.importance, _load_json(args.importance))
        importance = {i: s.mean for i, s in consensus.stats.items()}
    weighted, table = weight_tree(
        tree, pairwise=pairwise, importance=importance, method=args.method
    )
    _emit(ReportBundle(weights=WeightsSection(method=args.method, tree=weighted, table=table)), args)


def _cmd_reliability(args) -> None:
    instrument = _default_instrument_only(args.instrument)
    responses = sio.parse_responses(args.responses, instrument)
    _emit(ReportBundle(reliability=reliability_report(responses, instrument)), args)


def _cmd_validity(args) -> None:
    item_ids, matrix = sio.parse_importance(args.importance)
    _emit(ReportBundle(validity=validity_report(item_ids, matrix)), args)


def _weights_from_bundle(path: str) -> dict[str, float]:
    obj = _load_json(path)
    nodes = ((obj.get("weights") or {}).get("nodes")) if isinstance(obj, dict) else None
    if not nodes:
        raise SchemaError(f"{path}: no weights section (expected output of `stagekit weights`)")
    out = {}
    for node in nodes:
        lw = node.get("local_weight")
        if lw is not None:
            out[node["id"]] = lw["value"]
    return out


def _default_instrument_only(name: str):
    if name != "default":
        raise InvalidInputError("only the bundled default instrument is supported")
    return load_default_instrument()


def _cmd_score(args) -> None:
    instrument = _default_instrument_only(args.instrument)
    responses = sio.parse_responses(args.responses, instrument)
    if args.bonus:
        bonus = sio.parse_expert_bonus(args.bonus, instrument.bonus_ids)
        responses = responses.with_bonus(instrument.bonus_ids, bonus)
    weights = _weights_from_bundle(args.weights)
    card = score_software(responses, instrument, weights, bonus_cap=args.bonus_cap)
    _emit(ReportBundle(score=card), args)


def _cmd_form(args) -> None:
    consensus = _consensus_from_obj(args.stats, _load_json(args.stats))
    if args.retained:
        retained = [i.strip() for i in args.retained.split(",") if i.strip()]
    else:
        obj = _load_json(args.screen)
        rounds = obj.get("rounds") or []
        screening = rounds[0].get("screening") if rounds else None
        if not screening:
            raise SchemaError(f"{args.screen}: bundle has no screening section")
        retained = screening["retained"]
    names = {}
    if args.names:
        names = {n.id: n.name for n in sio.parse_indicators(args.names).nodes}
    sio.emit_round_form(consensus, retained, args.round, args.out, names=names)


def _cmd_report(args) -> None:
    obj = _load_json(args.bundle)
    if args.format == "markdown":
        text = render_markdown_obj(obj)
    else:
        text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        write_output(text, args.out)
    else:
        sys.stdout.write(text)


def _cmd_pipeline(args) -> None:
    _emit(run_pipeline(args.config), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagekit",
        description="Delphi consensus, AHP weighting, reliability/validity, and "
                    "weighted scoring for the STAGE age-appropriateness instrument.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("round-stats", help="consensus statistics for one Delphi round")
    p.add_argument("--ratings", required=True, help="ratings CSV (expert_id + indicator columns)")
    p.add_argument("--experts", help="expert profiles CSV (enables Ca/Cs/Cr)")
    p.add_argument("--scale-max", type=int, default=5)
    p.add_argument("--round-no", type=int)
    p.add_argument("--distributed", type=int,
                   help="questionnaires distributed (default: rows in the ratings file)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_round_stats)

    p = sub.add_parser("screen", help="apply retention thresholds to a round's indicators")
    p.add_argument("--stats", required=True, help="round-stats JSON output")
    p.add_argument("--thresholds", help="JSON with mean_floor/fsf_floor/cv_ceiling "
                                        "(default: derived from the round itself)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("weights", help="derive indicator weights")
    p.add_argument("--tree", required=True, help="indicators CSV")
    p.add_argument("--pairwise", help="comma-separated pairwise matrix CSVs "
                                      "(each matrix's ids identify its sibling group)")
    p.add_argument("--importance", help="round-stats JSON supplying importance means")
    p.add_argument("--method", choices=("ahp", "scoring", "combined"), default="combined")
    _add_output_args(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("reliability", help="Cronbach's alpha / item-total analysis")
    p.add_argument("--responses", required=True, help="consumer responses CSV")
    p.add_argument("--instrument", default="default")
    _add_output_args(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("validity", help="content validity (I-CVI / S-CVI)")
    p.add_argument("--importance", required=True, help="rater x item importance CSV (1-7)")
    _add_output_args(p)
    p.set_defaults(func=_cmd_validity)

    p = sub.add_parser("score", help="score software from responses and weights")
    p.add_argument("--responses", required=True, help="consumer responses CSV")
    p.add_argument("--bonus", help="expert bonus ratings CSV")
    p.add_argument("--weights", required=True, help="weights JSON (output of `stagekit weights`)")
    p.add_argument("--bonus-cap", type=float, default=DEFAULT_BONUS_CAP)
    p.add_argument("--instrument", default="default")
    _add_output_args(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("form", help="emit the next round's consultation form")
    p.add_argument("--stats", required=True, help="previous round's round-stats JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--retained", help="comma-separated indicator ids to carry forward")
    group.add_argument("--screen", help="screen JSON output; its retained list is used")
    p.add_argument("--round", type=int, required=True, help="number of the round being prepared")
    p.add_argument("--names", help="indicators CSV supplying display names")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_form)

    p = sub.add_parser("report", help="re-render an emitted bundle (e.g. to markdown)")
    p.add_argument("--bundle", required=True, help="bundle JSON produced by another subcommand")
    _add_output_args(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="run every stage a config file declares")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    _add_output_args(p)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except StagekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
