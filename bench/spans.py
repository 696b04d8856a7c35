"""In-memory span tracer that wraps stagekit's module attributes from outside.

The traced run replaces each attribute listed in WRAPS with a wrapper that
records a span (name, start, end, parent span, run id, and an optional count
taken from the call), runs the original, and is removed again afterwards.
Nothing under src/ changes. The names are looked up where the callers look
them up: the pipeline calls ``round_consensus`` etc. through its own module
globals, so those are wrapped in ``stagekit.pipeline``; the io parsers are
called as ``sio.parse_*`` and wrapped in ``stagekit.io``.

Guards, so that a later rename cannot silently zero a layer:
  - wrapping a name that no longer exists raises TraceError;
  - ``check_fired`` raises if an expected span never fired in a run;
  - ``check_counts_repeat`` raises if a count differs between traced runs.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path


class TraceError(RuntimeError):
    """The tracer no longer matches the program, or a run did not repeat."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "count")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.count = None

    def as_obj(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "count": self.count}


def _path_arg(args, kwargs, result):
    return Path(args[0] if args else kwargs["path"]).name


def _matrix_cells(args, kwargs, result):
    """Cells a model constructor validated (self is args[0])."""
    obj = args[0]
    if hasattr(obj, "consumer"):
        return (len(obj.consumer) * len(obj.question_ids)
                + len(obj.expert_bonus) * len(obj.bonus_ids))
    return len(obj.ratings) * len(obj.indicator_ids)


IO_PARSERS = ("parse_indicators", "parse_experts", "parse_ratings", "parse_responses",
              "parse_expert_bonus", "parse_importance", "parse_pairwise")

# (module or module:Class, attribute, span name, count taken from the call)
WRAPS = (
    ("stagekit.cli", "main", "cli.main", None),
    ("stagekit.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("stagekit.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("stagekit.pipeline", "round_consensus", "consensus.round_consensus", None),
    ("stagekit.pipeline", "screen_indicators", "consensus.screen_indicators", None),
    ("stagekit.consensus", "indicator_stats", "consensus.indicator_stats", None),
    ("stagekit.consensus", "kendalls_w", "consensus.kendalls_w", None),
    ("stagekit.pipeline", "weight_tree", "ahp.weight_tree", None),
    ("stagekit.pipeline", "reliability_report", "psychometrics.reliability_report",
     lambda a, k, r: r.n_excluded),
    ("stagekit.pipeline", "validity_report", "psychometrics.validity_report", None),
    ("stagekit.pipeline", "score_software", "scoring.score_software",
     lambda a, k, r: len(r.imputed)),
    *(("stagekit.io", name, f"io.{name}", _path_arg) for name in IO_PARSERS),
    ("stagekit.model:RatingRound", "__post_init__", "model.rating_round", _matrix_cells),
    ("stagekit.model:ResponseSet", "__post_init__", "model.response_set", _matrix_cells),
    ("stagekit.report", "render_json", "report.render_json",
     lambda a, k, r: len(r.encode("utf-8"))),
    ("stagekit.report", "render_markdown", "report.render_markdown", None),
    ("stagekit.report", "render_markdown_obj", "report.render_markdown_obj", None),
)

ALL_SPANS = tuple(dict.fromkeys(name for _, _, name, _ in WRAPS))


def expected_spans(workload: str) -> tuple[str, ...]:
    """Span names that must fire in every traced run of the workload.

    demo-cli runs ``cli.main`` with ``--format json``, which renders no
    markdown; the scaled workloads call the pipeline and both renderers
    directly, without the CLI.
    """
    if workload == "demo-cli":
        skip = {"report.render_markdown", "report.render_markdown_obj"}
    else:
        skip = {"cli.main"}
    return tuple(n for n in ALL_SPANS if n not in skip)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Install with ``with tracer.installed(run_id):``; spans accumulate in ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = None
        self._wrappers = []
        for target, attr, name, count in WRAPS:
            owner = _resolve(target)
            original = vars(owner).get(attr)
            if not callable(original):
                raise TraceError(f"{target}.{attr} no longer exists; the span {name!r} "
                                 "cannot be recorded")
            self._wrappers.append((owner, attr, original, self._wrap(original, name, count)))

    def _wrap(self, original, name, count):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self._run)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every name for the duration of one run, then put the originals back."""
        self._run = run_id
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._wrappers):
                setattr(owner, attr, original)
            self._run = None

    def dump(self) -> list[dict]:
        return [s.as_obj(i) for i, s in enumerate(self.spans)]


def spans_by_run(spans: list[Span]) -> dict:
    """Run id -> [(span index, span)] of that run."""
    runs = defaultdict(list)
    for i, s in enumerate(spans):
        runs[s.run].append((i, s))
    return runs


def run_layers(mine: list[tuple[int, Span]], cells_by_file: dict[str, int]) -> dict:
    """Per-layer metrics of one traced run, from its (index, span) pairs.

    A span's self time is its duration minus the durations of the spans
    nested directly inside it; a module's self time sums that over the
    module's spans.
    """
    nested = defaultdict(float)
    for _, s in mine:
        if s.parent is not None:
            nested[s.parent] += s.end - s.start
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    counts = defaultdict(list)
    for i, s in mine:
        duration = s.end - s.start
        total[s.name] += duration
        calls[s.name] += 1
        self_time[s.name.split(".")[0]] += duration - nested[i]
        if s.count is not None:
            counts[s.name].append(s.count)

    parsed = [f for name in total if name.startswith("io.") for f in counts[name]]
    return {
        "fired": dict(calls),
        "metrics": {
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_time["cli"],
            "pipeline.run_pipeline_s": total["pipeline.run_pipeline"],
            "pipeline.self_s": self_time["pipeline"],
            "io.parse_responses_s": total["io.parse_responses"],
            "io.parse_ratings_s": total["io.parse_ratings"],
            "io.parse_experts_s": total["io.parse_experts"],
            "io.parse_importance_s": total["io.parse_importance"],
            "io.parse_calls": len(parsed),
            "io.unique_parse_ratio": len(set(parsed)) / len(parsed) if parsed else 0.0,
            "io.self_s": self_time["io"],
            "io.cells_parsed": sum(cells_by_file[f] for f in parsed),
            "model.response_set_s": total["model.response_set"],
            "model.response_set_builds": calls["model.response_set"],
            "model.rating_round_s": total["model.rating_round"],
            "model.cells_validated": sum(counts["model.response_set"])
            + sum(counts["model.rating_round"]),
            "consensus.round_consensus_s": total["consensus.round_consensus"],
            "consensus.indicator_stats_s": total["consensus.indicator_stats"],
            "consensus.kendalls_w_s": total["consensus.kendalls_w"],
            "consensus.screen_s": total["consensus.screen_indicators"],
            "consensus.self_s": self_time["consensus"],
            "ahp.weight_tree_s": total["ahp.weight_tree"],
            "psychometrics.reliability_report_s": total["psychometrics.reliability_report"],
            "psychometrics.excluded_respondents": sum(counts["psychometrics.reliability_report"]),
            "psychometrics.validity_report_s": total["psychometrics.validity_report"],
            "scoring.score_software_s": total["scoring.score_software"],
            "scoring.imputed_cells": sum(counts["scoring.score_software"]),
            "report.render_json_s": total["report.render_json"],
            "report.render_markdown_s": total["report.render_markdown"],
            "report.json_bytes": sum(counts["report.render_json"]),
        },
    }


# Metrics that count work rather than time; they must repeat exactly.
COUNT_METRICS = ("io.parse_calls", "io.unique_parse_ratio", "io.cells_parsed",
                 "model.response_set_builds", "model.cells_validated",
                 "psychometrics.excluded_respondents", "scoring.imputed_cells",
                 "report.json_bytes")


def check_fired(layers: dict, workload: str) -> None:
    missing = [n for n in expected_spans(workload) if not layers["fired"].get(n)]
    if missing:
        raise TraceError(f"span(s) never fired in a {workload} run: {', '.join(missing)}")


def check_counts_repeat(per_run: list[dict]) -> None:
    for name in COUNT_METRICS:
        values = {run["metrics"][name] for run in per_run}
        if len(values) != 1:
            raise TraceError(f"count {name} differs between traced runs: {sorted(values)}")
    fired = {tuple(sorted(run["fired"].items())) for run in per_run}
    if len(fired) != 1:
        raise TraceError("traced runs fired different spans")


def median_layers(per_run: list[dict]) -> dict[str, float]:
    names = per_run[0]["metrics"]
    return {n: statistics.median(run["metrics"][n] for run in per_run) for n in names}
