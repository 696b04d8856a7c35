"""Deterministic report serialization.

Every numeric field is emitted as a {"value", "display"} pair: the value at full precision, the
display rounded half-even at a fixed number of decimals (4 for coefficients/weights, 2 for CVI and
scores). Markdown output renders the same display strings as the JSON, so the two formats can never
disagree; neither contains timestamps, locales, or other run-dependent bytes.
JSON text is ``json.dumps(obj, indent=2, ensure_ascii=False)`` and a final LF, save that the imputed
pairs, the last value, are joined from the blank scan's index codes (:func:`_pair_texts`).

Writer (:func:`_fields`) and reader (:func:`_read`) share one rule: a field's declared type
makes it a number pair, a null or a plain value. Only regrouped or renamed entries are written
by hand: a round's ``authority``, ``indicators`` ids and ``screening``, a node's ``level``, a
consistency row's ``group``, and the score's ``dimensions``, ``imputed`` and ``bonus_cap``.
The reader takes no derived value as written: it derives a round's screening verdicts (``screen_indicators``),
each global weight (``compose_global``) and the score's totals (``composite``) from the file's inputs.
It is the writer's exact inverse: it takes a file only if the bundle it read, written
again at the precision of its displays, is the file's JSON value, so every reader of a bundle
refuses a field it does not know, a display that is not its value's and a list out of the
writer's order, naming the first path where the file differs.
Every markdown table is one :func:`_md_table` call, each of its cells rendered by :func:`_cell`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from .ahp import GroupConsistency, compose_global
from .consensus import IndicatorStats, RoundConsensus, ScreeningResult, screen_indicators
from .errors import InvalidInputError, SchemaError
from .io import replacing
from .instrument import load_default_instrument
from .model import CellPairs, IndicatorNode, IndicatorTree, Level, ScreeningThresholds, ids_at, validate_tree
from .psychometrics import ReliabilityTable, ValidityTable
from .scoring import ScoreCard, composite

COEFF_PLACES = 4
SCORE_PLACES = 2
MAX_PRECISION = 17  # coefficient display decimals beyond this only print representation noise
ROOT_GROUP = "root"  # label of the dimension-level sibling group


def display(value: float, places: int = COEFF_PLACES) -> str:
    """Fixed-point display string; ties resolve half-even on the binary float."""
    return format(value, f".{places}f")


def _num(value: float | None, places: int) -> dict[str, Any] | None:
    return None if value is None else {"value": float(value), "display": display(value, places)}


def _fields(obj, names, places: int) -> dict[str, Any]:
    """The named fields of a result record by their declared types; the inverse of :func:`_read`.

    A field declared ``float`` or ``float | None`` becomes a number pair (None stays
    null), whatever the value's type; a tuple of records becomes a list of records;
    any other value is written as it is.
    """
    kinds = {f.name: f.type for f in fields(obj)}
    out: dict[str, Any] = {}
    for name in names:
        value = getattr(obj, name)
        if kinds[name] in ("float", "float | None"):  # annotations are strings here
            value = _num(value, places)
        elif isinstance(value, tuple):
            value = [_record(row, places) for row in value]
        out[name] = value
    return out


def _record(obj, places: int) -> dict[str, Any]:
    return _fields(obj, [f.name for f in fields(obj)], places)


@dataclass(frozen=True)
class RoundSection:
    consensus: RoundConsensus
    screening: ScreeningResult | None = None


@dataclass(frozen=True)
class WeightsSection:
    method: str
    tree: IndicatorTree  # carrying the derived local/global weights
    consistency: tuple[GroupConsistency, ...]  # of each group weighted from a pairwise matrix


@dataclass(frozen=True)
class ReportBundle:
    """Everything one evaluation produced, ready for serialization."""

    rounds: tuple[RoundSection, ...] = ()
    weights: WeightsSection | None = None
    reliability: ReliabilityTable | None = None
    validity: ValidityTable | None = None
    score: ScoreCard | None = None


def _round_obj(section: RoundSection, places: int) -> dict[str, Any]:
    c, scr = section.consensus, section.screening
    return {
        **_fields(c, ("round_no", "scale_max", "distributed", "returned", "positivity"), places),
        "authority": _fields(c, ("ca", "cs", "cr"), places),
        **_fields(c, ("kendall_w",), places),
        "indicators": [
            {"id": indicator_id, **_record(s, places)}
            for indicator_id, s in c.stats.items()
        ],
        "screening": None if scr is None else {
            "thresholds": _record(scr.thresholds, places),
            "retained": list(scr.retained),
            "dropped": list(scr.dropped),
            "reasons": {i: list(scr.reasons[i]) for i in scr.dropped},
        },
    }


def _weights_obj(section: WeightsSection, places: int) -> dict[str, Any]:
    return {
        "method": section.method,
        "nodes": [
            {
                **_fields(node, ("id", "name"), places),
                "level": node.level.value,
                **_fields(node, ("parent_id", "local_weight", "global_weight"), places),
            }
            for node in section.tree.nodes
            if not node.bonus
        ],
        "consistency": [
            {
                "group": ROOT_GROUP if g.parent_id is None else g.parent_id,
                **_fields(g, ("n", "lambda_max", "ci", "cr", "acceptable"), places),
            }
            for g in section.consistency
        ],
    }


def _score_obj(card: ScoreCard, coeff_places: int) -> dict[str, Any]:
    return {
        **_fields(card, ("n_respondents",), SCORE_PLACES),
        "dimensions": [
            {
                "id": dim,
                "weight": _num(card.dimension_weights[dim], coeff_places),
                "score": _num(card.dimension_scores[dim], SCORE_PLACES),
            }
            for dim in card.dimension_scores
        ],
        **_fields(card, ("composite", "bonus"), SCORE_PLACES),
        "bonus_cap": card.bonus_cap,  # declared float, written as a plain number
        **_fields(card, ("final", "final_rescaled"), SCORE_PLACES),
        "imputed": card.imputed or [],  # the pairs, written from their index codes
    }


def _tree(bundle: ReportBundle, coeff_places: int) -> dict[str, Any]:
    """The bundle as :func:`bundle_to_obj`'s dict, save that the imputed pairs stay a CellPairs."""
    return {
        "rounds": [_round_obj(s, coeff_places) for s in bundle.rounds],
        "weights": None if bundle.weights is None else _weights_obj(bundle.weights, coeff_places),
        "reliability": None if bundle.reliability is None
        else _record(bundle.reliability, coeff_places),
        "validity": None if bundle.validity is None else _record(bundle.validity, SCORE_PLACES),
        "score": None if bundle.score is None else _score_obj(bundle.score, coeff_places),
    }


def bundle_to_obj(bundle: ReportBundle, *, coeff_places: int = COEFF_PLACES) -> dict[str, Any]:
    """The bundle as a JSON-ready dict with a fixed key order; CVI and scores keep SCORE_PLACES.

    Each imputed pair is a ``[rid, qid]`` list here; the renderers write the pairs from their index codes.
    """
    obj = _tree(bundle, coeff_places)
    if obj["score"] is not None:
        obj["score"]["imputed"] = list(map(list, obj["score"]["imputed"]))
    return obj


def _number(value: Any) -> float:
    if type(value) not in (int, float):  # a bool is not a number here
        raise TypeError(f"value {value!r} is not a number")
    return float(value)  # OverflowError past the float range


def _field(name: str, kind: Any, value: Any) -> Any:
    """A field read back by its declared type, the inverse of :func:`_fields`'s rule.

    ``float`` is a number pair (its display a string), ``X | None`` is X or null,
    ``tuple[Row, ...]`` is a list of ``Row`` records whose first field (the row's
    id) does not repeat, and any other type must be the value's exact type (a
    bool is not an int).
    """
    if isinstance(kind, UnionType):  # X | None
        return None if value is None else _field(name, get_args(kind)[0], value)
    if kind is float:
        if type(value["display"]) is not str:
            raise TypeError(f"display {value['display']!r} is not a string")
        return _number(value["value"])
    if get_origin(kind) is tuple:
        cls = get_args(kind)[0]
        rows = (_from_record(cls, row) for row in _field(name, list, value))
        key = fields(cls)[0].name  # a row's id
        return tuple(_keyed(name, ((getattr(row, key), row) for row in rows)).values())
    if type(value) is not kind:
        raise TypeError(f"{name} {value!r} is not {kind.__name__}")
    return value


def _read(cls, obj: Mapping[str, Any], names) -> dict[str, Any]:
    """The named fields of ``cls``, each read from obj by its declared type (see :func:`_fields`)."""
    hints = get_type_hints(cls)
    return {name: _field(name, hints[name], obj[name]) for name in names}


def _from_record(cls, obj: Mapping[str, Any]):
    """The inverse of :func:`_record`: a ``cls`` instance read from obj."""
    return cls(**_read(cls, obj, [f.name for f in fields(cls)]))


def _strs(value: Any) -> tuple[str, ...]:
    return tuple(_field("id", str, v) for v in _field("ids", list, value))


def _keyed(name: str, pairs) -> dict[Any, Any]:
    """The (id, value) pairs of a section list as a dict; an id listed twice is an error."""
    out: dict[Any, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{name}: id {key!r} listed twice")
        out[key] = value
    return out


def _round_from_obj(obj: Mapping[str, Any]) -> RoundSection:
    consensus = RoundConsensus(
        **_read(RoundConsensus, obj, ("round_no", "scale_max", "distributed", "returned",
                                      "positivity", "kendall_w")),
        **_read(RoundConsensus, obj["authority"], ("ca", "cs", "cr")),
        stats=_keyed("indicators", ((_field("id", str, s["id"]), _from_record(IndicatorStats, s))
                                    for s in _field("indicators", list, obj["indicators"]))),
    )
    scr = obj["screening"]
    if scr is not None:  # the verdicts are derived; the write-back refuses lists that are not these
        _keyed("retained/dropped", ((i, None) for i in _strs(scr["retained"]) + _strs(scr["dropped"])))
        scr = screen_indicators(consensus.stats, _from_record(ScreeningThresholds, scr["thresholds"]))
    return RoundSection(consensus=consensus, screening=scr)


def _weights_from_obj(obj: Mapping[str, Any]) -> WeightsSection:
    listed = _keyed("nodes", ((_field("id", str, n["id"]), n) for n in _field("nodes", list, obj["nodes"])))
    groups = _keyed("consistency", ((_field("group", str, g["group"]), g)
                                    for g in _field("consistency", list, obj["consistency"])))
    tree = IndicatorTree(nodes=tuple(IndicatorNode(
        **_read(IndicatorNode, n, ("id", "name", "parent_id", "local_weight")),
        level=Level(n["level"]),
    ) for n in listed.values()))
    problems = validate_tree(tree)
    if problems:
        raise InvalidInputError("nodes: " + "; ".join(problems))
    return WeightsSection(
        method=_field("method", str, obj["method"]),
        tree=compose_global(tree),
        consistency=tuple(GroupConsistency(
            parent_id=None if group == ROOT_GROUP else group,
            **_read(GroupConsistency, g, ("n", "lambda_max", "ci", "cr", "acceptable")),
        ) for group, g in groups.items()),
    )


def _score_from_obj(obj: Mapping[str, Any]) -> ScoreCard:
    dims = _field("dimensions", list, obj["dimensions"])
    card = composite(
        _keyed("dimensions", ((_field("id", str, d["id"]), _field("score", float, d["score"])) for d in dims)),
        {d["id"]: _field("weight", float, d["weight"]) for d in dims},
        **_read(ScoreCard, obj, ("bonus", "n_respondents")),
        cap=_number(obj["bonus_cap"]),  # written as a plain number
        imputed=_imputed_from_obj(obj["imputed"]),
    )
    least = max(1, len(card.imputed.row_ids))  # one respondent at least, and each with an imputed answer
    if card.n_respondents < least:
        raise ValueError(f"n_respondents: {card.n_respondents} is below {least}, the respondents it must count")
    return card


def _imputed_from_obj(value: Any) -> CellPairs:
    """A score's imputed (respondent, question) pairs; each names a question of the instrument, and none twice."""
    pairs = _keyed("imputed", ((pair, None) for pair in map(_strs, _field("imputed", list, value))))
    try:
        return CellPairs.of(pairs, load_default_instrument().question_ids)
    except KeyError as exc:
        raise ValueError(f"imputed: {exc.args[0]!r} is not a question of the instrument") from None


def display_places(obj: Mapping[str, Any]) -> int:
    """The coefficient decimals of a bundle read back: those of its first coefficient display, else COEFF_PLACES.

    That is a round's positivity, else a node's local weight, the total alpha or a dimension weight.
    ``obj`` is taken as read by :func:`bundle_from_obj`.
    """
    weights, rel, score = obj["weights"], obj["reliability"], obj["score"]
    coefficients = chain((r["positivity"] for r in obj["rounds"]),
                         (n["local_weight"] for n in weights["nodes"]) if weights else (),
                         (rel["total_alpha"],) if rel else (),
                         (d["weight"] for d in score["dimensions"]) if score else ())
    first = next((pair["display"] for pair in coefficients if pair is not None), None)
    return COEFF_PLACES if first is None else len(first.partition(".")[2])


def bundle_from_obj(obj: Any, source: str | Path = "bundle") -> ReportBundle:
    """Rebuild an emitted bundle from its JSON dict: the exact inverse of :func:`bundle_to_obj`.

    This is the one check of a bundle read back, whichever subcommand reads it.
    All five sections must be present (null for one not produced), each field
    must hold its declared type (see :func:`_field`), no id may repeat in a list
    (a round number, an indicator, node, consistency group, reliability index or
    question, or validity item; a screened id is either retained or dropped,
    once), each imputed pair must name a question of the instrument, once, and
    a score must count one respondent at least and each imputed one. A weights
    tree must pass :func:`validate_tree`, and a score beside it must weigh each
    dimension by the tree's local weight. A round's screening verdicts are
    derived from its thresholds (:func:`screen_indicators`), global weights and
    score totals from their inputs: none is read. Then the bundle read, written
    again at :func:`display_places` (at most MAX_PRECISION), must be ``obj``:
    no field it does not know, every display its value's, and every list in the
    writer's order. A file that is not is refused at the first path, in the
    writer's order, where the two differ (:func:`_difference`).
    """
    try:
        rounds = _keyed("rounds", ((s.consensus.round_no, s)
                                   for s in map(_round_from_obj, _field("rounds", list, obj["rounds"]))))
        readers = {"weights": _weights_from_obj, "reliability": partial(_from_record, ReliabilityTable),
                   "validity": partial(_from_record, ValidityTable), "score": _score_from_obj}
        sections = {key: None if obj[key] is None else read(obj[key]) for key, read in readers.items()}
        bundle = ReportBundle(tuple(rounds.values()), **sections)
        weights, score = bundle.weights, bundle.score
        for dim, weight in score.dimension_weights.items() if weights and score else ():
            if getattr(weights.tree.node(dim), "local_weight", None) != weight:  # no node, no local weight
                raise ValueError(f"score.dimensions: {dim} weighs {weight!r}, not its local weight in weights.nodes")
    except (KeyError, TypeError, ValueError, OverflowError, InvalidInputError) as exc:
        raise SchemaError(f"{source}: not a stagekit bundle (bad or missing field {exc})") from None
    places = display_places(obj)
    if places > MAX_PRECISION:
        raise SchemaError(f"{source}: not a stagekit bundle (coefficient displays of {places} decimals, "
                          f"more than {MAX_PRECISION})")
    if _tree(bundle, places) != obj:  # a CellPairs equals the list of its pairs
        where = _difference(bundle_to_obj(bundle, coeff_places=places), obj, "", places).removeprefix(".")
        raise SchemaError(f"{source}: not a stagekit bundle ({where})")
    return bundle


def _difference(written: Any, read: Any, path: str, places: int) -> str:
    """The first path, in the writer's order, where the JSON value ``read`` is not ``written``, and why."""
    if isinstance(written, dict) and isinstance(read, dict):
        unknown = [key for key in read if key not in written]
        key = unknown[0] if unknown else next(key for key in written if written[key] != read.get(key))
        at = f"{path}.{key}" if str(key).isidentifier() else f"{path}[{key!r}]"  # an id may hold dots
        if unknown:
            return f"{at}: a field it does not know"
        if key == "display":  # of a number pair, whose value is the writer's
            return f"{path}: a display that is not its value at {places} decimals"
        return _difference(written[key], read.get(key), at, places)
    if isinstance(written, list) and isinstance(read, list) and len(written) == len(read):
        canonical = partial(json.dumps, sort_keys=True)
        if sorted(map(canonical, written)) == sorted(map(canonical, read)):
            return f"{path}: a list not in the writer's order"
        i = next(i for i, (w, r) in enumerate(zip(written, read)) if w != r)
        return _difference(written[i], read[i], f"{path}[{i}]", places)
    return f"{path}: not the value the writer writes"


def _pair_texts(pairs: CellPairs, text, sep: str) -> list[str]:
    """Each pair's text: its row id's ``text``, ``sep``, then its column id's ``text``."""
    tails = [sep + text(c) for c in pairs.column_ids]
    return [text(r) + tails[c] for r, c in zip(ids_at(pairs.row_ids, pairs.rows), pairs.cols.tolist())]


def render_json(bundle: ReportBundle, *, coeff_places: int = COEFF_PLACES) -> str:
    """``json.dumps(bundle_to_obj(bundle), indent=2, ensure_ascii=False)`` and a final LF.

    The imputed pairs, the bundle's last value, are spliced in from their index codes.
    """
    tree = _tree(bundle, coeff_places)
    score = tree["score"]
    if not (score and score["imputed"]):
        return json.dumps(tree, indent=2, ensure_ascii=False) + "\n"
    pairs, score["imputed"] = score["imputed"], []
    head, _, tail = json.dumps(tree, indent=2, ensure_ascii=False).rpartition("[]")
    row = "\n      [\n        "  # a pair's opening; its ids sit two levels inside the score
    texts = _pair_texts(pairs, json.encoder.encode_basestring, ",\n        ")
    return "".join((head, "[", row, ("\n      ]," + row).join(texts), "\n      ]\n    ]", tail, "\n"))


def _cell(value: Any) -> str:
    """A markdown cell: a number pair's display, ``-`` for null, yes/no for a bool, else the text."""
    if isinstance(value, dict):
        return value["display"]
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _md_table(columns: Mapping[str, str], rows) -> list[str]:
    """A table of ``rows`` (dicts): each header in ``columns``, and below it the ``_cell`` of its key."""
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join(" --- " for _ in columns) + "|"]
    lines += ["| " + " | ".join(_cell(row[key]) for key in columns.values()) + " |" for row in rows]
    return lines + [""]  # the blank line that closes the block


def render_markdown_obj(obj: Mapping[str, Any]) -> str:
    """Markdown report rendered from :func:`_tree`'s dict (the JSON's displays), imputed pairs a CellPairs."""
    out: list[str] = ["# Evaluation report", ""]

    for rnd in obj["rounds"]:
        out += [f"## Round {rnd['round_no']}", ""]
        out += _md_table({"Distributed": "distributed", "Returned": "returned", "Positivity": "positivity",
                          "Ca": "ca", "Cs": "cs", "Cr": "cr", "Kendall's W": "kendall_w"},
                         [{**rnd, **rnd["authority"]}])
        out += _md_table({"Indicator": "id", "Mean": "mean", "SD": "sd", "CV": "cv",
                          "Full-score freq": "full_score_freq"}, rnd["indicators"])
        scr = rnd["screening"]
        if scr is not None:
            t = scr["thresholds"]
            out += [
                "### Screening",
                "",
                f"Thresholds: mean ≥ {_cell(t['mean_floor'])}, "
                f"full-score freq ≥ {_cell(t['fsf_floor'])}, "
                f"CV ≤ {_cell(t['cv_ceiling'])}",
                "",
                f"Retained ({len(scr['retained'])}): {', '.join(scr['retained']) or '(none)'}",
                "",
            ]
            if scr["dropped"]:
                out += _md_table({"Dropped": "id", "Failed criteria": "reasons"},
                                 [{"id": i, "reasons": ", ".join(scr["reasons"][i])} for i in scr["dropped"]])
            else:
                out += ["Dropped: (none)", ""]

    w = obj["weights"]
    if w is not None:
        out += [f"## Weights (method: {w['method']})", ""]
        out += _md_table({"Node": "id", "Level": "level", "Local weight": "local_weight",
                          "Global weight": "global_weight"}, w["nodes"])
        if w["consistency"]:
            out += _md_table({"Group": "group", "n": "n", "λmax": "lambda_max", "CI": "ci", "CR": "cr",
                              "Acceptable": "acceptable"}, w["consistency"])

    rel = obj["reliability"]
    if rel is not None:
        out += [
            "## Reliability",
            "",
            f"Complete respondents: {rel['n_respondents']} "
            f"(excluded for missing answers: {rel['n_excluded']})",
            "",
            f"Total-scale Cronbach's α: {_cell(rel['total_alpha'])}",
            "",
        ]
        # A null note and an unflagged question show as empty cells.
        out += _md_table({"Index": "index_id", "Questions": "n_questions", "α": "alpha", "Note": "note"},
                         [{**r, "note": r["note"] or ""} for r in rel["indices"]])
        out += _md_table({"Question": "question_id", "Index": "index_id", "CITC": "citc",
                          "α if deleted": "alpha_if_deleted", "Flagged": "flagged"},
                         [{**q, "flagged": "yes" if q["flagged"] else ""} for q in rel["questions"]])

    val = obj["validity"]
    if val is not None:
        out += [
            "## Content validity",
            "",
            f"Raters: {val['n_raters']} (relevance floor: ≥ {val['relevance_floor']})",
            "",
        ]
        out += _md_table({"Item": "item_id", "Importance mean": "importance_mean", "I-CVI": "i_cvi",
                          "Passes": "passes"}, val["items"])
        out += [
            f"S-CVI: {_cell(val['s_cvi'])} "
            f"({'passes' if val['s_cvi_passes'] else 'fails'})",
            "",
        ]

    score = obj["score"]
    if score is not None:
        out += ["## Score", ""]
        out += _md_table({"Dimension": "id", "Weight": "weight", "Score": "score"}, score["dimensions"])
        out += [
            f"Core composite (0–100): {_cell(score['composite'])}",
            f"Expert bonus (0–{score['bonus_cap']:g}): {_cell(score['bonus'])}",
            f"Final score: {_cell(score['final'])}",
            f"Final rescaled to 0–100: {_cell(score['final_rescaled'])}",
            f"Respondents: {score['n_respondents']}",
        ]
        if score["imputed"]:
            out.append(f"Imputed answers: ({'), ('.join(_pair_texts(score['imputed'], str, ', '))})")
        out.append("")

    return "\n".join(out).rstrip("\n") + "\n"


def render_markdown(bundle: ReportBundle, *, coeff_places: int = COEFF_PLACES) -> str:
    return render_markdown_obj(_tree(bundle, coeff_places))


def emit_report(bundle: ReportBundle, fmt: str = "json", *, coeff_places: int = COEFF_PLACES) -> str:
    """Serialize the bundle; fmt is "json" or "markdown"."""
    if fmt == "json":
        return render_json(bundle, coeff_places=coeff_places)
    if fmt == "markdown":
        return render_markdown(bundle, coeff_places=coeff_places)
    raise InvalidInputError(f"unknown report format {fmt!r}")


def write_output(text: str, path: str | Path) -> None:
    """Write exactly the given text, LF endings, UTF-8, replacing ``path`` only once complete."""
    with replacing(path) as fh:
        fh.write(text)
