"""Command-line interface.

Subcommands mirror the pipeline stages (round-stats, screen, weights,
reliability, validity, score, form, report) plus the all-in-one `pipeline`.
Each analysis subcommand reads its arguments, makes the same library or
:mod:`stagekit.pipeline` stage call that a config run makes, and writes a
report bundle (JSON by default, markdown on request) to --out or stdout. Every
bundle read back is read by :func:`report.bundle_from_obj` alone, the writer's
exact inverse; `report` renders the bundle it read, at the precision its
displays show. One read by `--stats`, `--screen` or `--importance` must hold
exactly one round. A file option is left out only by not giving it: an empty value is an
error. Exit codes: 0 success, 2 schema/validation error, 3 numeric or
degenerate-data error, each with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import io as sio
from .ahp import METHOD_SOURCES, PairwiseMatrix
from .consensus import round_consensus
from .errors import InvalidInputError, SchemaError, StagekitError
from .instrument import load_default_instrument
from .model import IndicatorTree, group_label
from .pipeline import read_thresholds, run_pipeline, score_stage, screen_stage, validity_stage, weights_stage
from .psychometrics import reliability_report
from .report import (
    MAX_PRECISION,
    ReportBundle,
    RoundSection,
    bundle_from_obj,
    display_places,
    emit_report,
    write_output,
)
from .scoring import DEFAULT_BONUS_CAP


def precision(text: str) -> int:
    """--precision value: an integer 0..MAX_PRECISION (a non-integer is argparse's error)."""
    places = int(text)
    if not 0 <= places <= MAX_PRECISION:
        raise InvalidInputError(f"--precision must be between 0 and {MAX_PRECISION}, got {places}")
    return places


def _path(text: str) -> str:
    """A file option's value; an empty one is an error, never read as the option left out."""
    if not text or "\0" in text:  # open() raises ValueError on a NUL
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return text


def _paths(text: str) -> list[str]:
    """Comma-separated file paths, each stripped."""
    return [_path(p.strip()) for p in text.split(",")]


def _ids(text: str) -> list[str]:
    """Comma-separated ids, each stripped; a blank value holds none, and an empty id among others is an error."""
    ids = [i.strip() for i in text.split(",")] if text.strip() else []
    if "" in ids:
        raise argparse.ArgumentTypeError(f"expected comma-separated ids, got an empty one in {text!r}")
    return ids


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is a schema error: one line, exit code 2
        raise SchemaError(f"{self.prog}: {message}")


def _add_output_args(parser: argparse.ArgumentParser, coefficients: bool) -> None:
    parser.add_argument("--out", type=_path, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "markdown"), default="json",
                        help="output format (default: json)")
    if coefficients:
        parser.add_argument("--precision", type=precision, default=4, metavar="N",
                            help=f"display decimals for coefficients, 0..{MAX_PRECISION} (default: 4)")


def _write(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        write_output(text, args.out)
    else:
        sys.stdout.write(text)


def _emit(bundle: ReportBundle, args: argparse.Namespace) -> None:
    _write(emit_report(bundle, args.format, coeff_places=args.precision), args)


def _single_round(path: str) -> RoundSection:
    """The one round of a round-stats or screen bundle."""
    rounds = bundle_from_obj(sio.read_json(path), path).rounds
    if not rounds:
        raise SchemaError(f"{path}: bundle contains no rounds")
    if len(rounds) > 1:
        raise SchemaError(f"{path}: bundle holds {len(rounds)} rounds; "
                          "give a single-round bundle (output of `stagekit round-stats` or `screen`)")
    return rounds[0]


def _cmd_round_stats(args) -> None:
    profiles = sio.parse_experts(args.experts) if args.experts is not None else None
    rnd = sio.parse_ratings(args.ratings, scale_max=args.scale_max, round_no=args.round_no,
                            distributed=args.distributed)
    _emit(ReportBundle(rounds=(RoundSection(consensus=round_consensus(rnd, profiles)),)), args)


def _cmd_screen(args) -> None:
    section = _single_round(args.stats)
    path = args.thresholds
    thresholds = read_thresholds(sio.read_json(path), path) if path is not None else None
    _emit(ReportBundle(rounds=(screen_stage(section, thresholds),)), args)


def _matrix_group(tree: IndicatorTree, matrix: PairwiseMatrix, path: str) -> str | None:
    """Which sibling group a matrix belongs to, inferred from its ids."""
    for node_id in matrix.ids:
        if node_id not in tree:
            raise InvalidInputError(f"{path}: id {node_id!r} is not in the indicator tree")
    parents = {tree.node(node_id).parent_id for node_id in matrix.ids}
    if len(parents) != 1:
        raise InvalidInputError(f"{path}: matrix ids span multiple sibling groups")
    return parents.pop()


def _cmd_weights(args) -> None:
    tree = sio.parse_indicators(args.tree)
    pairwise: dict[str | None, PairwiseMatrix] = {}
    for path in args.pairwise or ():
        matrix = sio.parse_pairwise(path)
        group = _matrix_group(tree, matrix, path)
        if group in pairwise:
            raise InvalidInputError(f"two pairwise matrices given for {group_label(group)}")
        pairwise[group] = matrix
    importance = _single_round(args.importance) if args.importance is not None else None
    _emit(ReportBundle(weights=weights_stage(tree, pairwise, importance, args.method)), args)


def _cmd_reliability(args) -> None:
    instrument = load_default_instrument()
    responses = sio.parse_responses(args.responses, instrument)
    _emit(ReportBundle(reliability=reliability_report(responses, instrument)), args)


def _cmd_validity(args) -> None:
    bundle = ReportBundle(validity=validity_stage(*sio.parse_importance(args.importance)))
    _write(emit_report(bundle, args.format), args)  # the validity section holds no coefficients


def _cmd_score(args) -> None:
    instrument = load_default_instrument()
    responses = sio.parse_responses(args.responses, instrument)
    bonus = sio.parse_expert_bonus(args.bonus, instrument.bonus_ids) if args.bonus is not None else None
    weights = bundle_from_obj(sio.read_json(args.weights), args.weights).weights
    if weights is None:
        raise SchemaError(f"{args.weights}: no weights section (expected output of `stagekit weights`)")
    _emit(ReportBundle(score=score_stage(responses, instrument, weights, bonus, args.bonus_cap)), args)


def _cmd_form(args) -> None:
    consensus = _single_round(args.stats).consensus
    if args.retained is not None:
        retained = args.retained
    else:
        screened = _single_round(args.screen)
        if screened.screening is None:
            raise SchemaError(f"{args.screen}: bundle has no screening section")
        if screened.consensus != consensus:  # a form carries the verdicts of the round whose means it writes
            raise SchemaError(f"{args.screen}: screens another round than {args.stats}")
        retained = screened.screening.retained
    names = {}
    if args.names is not None:
        names = {n.id: n.name for n in sio.parse_indicators(args.names).nodes}
    sio.emit_round_form(consensus, retained, args.round, args.out, names=names)


def _cmd_report(args) -> None:
    obj = sio.read_json(args.bundle)
    bundle = bundle_from_obj(obj, args.bundle)
    _write(emit_report(bundle, args.format, coeff_places=display_places(obj)), args)


def _cmd_pipeline(args) -> None:
    _emit(run_pipeline(args.config), args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stagekit",
        description="Delphi consensus, AHP weighting, reliability/validity, and "
                    "weighted scoring for the STAGE age-appropriateness instrument. "
                    "A file option given an empty value is an error, not an option left out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("round-stats", _cmd_round_stats, "consensus statistics for one Delphi round")
    p.add_argument("--ratings", required=True, type=_path, help="ratings CSV (expert_id + indicator columns)")
    p.add_argument("--experts", type=_path, help="expert profiles CSV (enables Ca/Cs/Cr)")
    p.add_argument("--scale-max", type=int, default=5)
    p.add_argument("--round-no", type=int)
    p.add_argument("--distributed", type=int,
                   help="questionnaires distributed (default: rows in the ratings file)")

    p = command("screen", _cmd_screen, "apply retention thresholds to a round's indicators")
    p.add_argument("--stats", required=True, type=_path, help="round-stats JSON output")
    p.add_argument("--thresholds", type=_path, help="JSON with mean_floor/fsf_floor/cv_ceiling "
                                        "(default: derived from the round itself)")

    p = command("weights", _cmd_weights, "derive indicator weights")
    p.add_argument("--tree", required=True, type=_path, help="indicators CSV")
    p.add_argument("--pairwise", type=_paths, help="comma-separated pairwise matrix CSVs "
                                      "(each matrix's ids identify its sibling group)")
    p.add_argument("--importance", type=_path, help="round-stats JSON supplying importance means")
    p.add_argument("--method", choices=tuple(METHOD_SOURCES), default="combined")

    p = command("reliability", _cmd_reliability, "Cronbach's alpha / item-total analysis")
    p.add_argument("--responses", required=True, type=_path, help="consumer responses CSV")

    p = command("validity", _cmd_validity, "content validity (I-CVI / S-CVI)")
    p.add_argument("--importance", required=True, type=_path, help="rater x item importance CSV (1-7)")

    p = command("score", _cmd_score, "score software from responses and weights")
    p.add_argument("--responses", required=True, type=_path, help="consumer responses CSV")
    p.add_argument("--bonus", type=_path, help="expert bonus ratings CSV")
    p.add_argument("--weights", required=True, type=_path, help="weights JSON (output of `stagekit weights`)")
    p.add_argument("--bonus-cap", type=float, default=DEFAULT_BONUS_CAP)

    p = command("form", _cmd_form, "emit the next round's consultation form")
    p.add_argument("--stats", required=True, type=_path, help="previous round's round-stats JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--retained", type=_ids, help="comma-separated indicator ids to carry forward")
    group.add_argument("--screen", type=_path, help="screen JSON of the --stats round; its retained list is used")
    p.add_argument("--round", type=int, required=True, help="number of the round being prepared")
    p.add_argument("--names", type=_path, help="indicators CSV supplying display names")
    p.add_argument("--out", required=True, type=_path, help="output CSV path")

    p = command("report", _cmd_report, "re-render an emitted bundle (e.g. to markdown)")
    p.add_argument("--bundle", required=True, type=_path, help="bundle JSON produced by another subcommand")

    p = command("pipeline", _cmd_pipeline, "run every stage a config file declares")
    p.add_argument("--config", required=True, type=_path, help="pipeline config JSON")

    for name, p in sub.choices.items():
        if name != "form":  # form writes a CSV, not a report bundle
            # report renders at the precision of the displays it reads; validity has only CVI places
            _add_output_args(p, coefficients=name not in ("report", "validity"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except StagekitError as exc:
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # a quoted CSV cell may span lines
        print(f"error: {message}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
