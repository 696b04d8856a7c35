"""stagekit: instrument development and evaluation toolkit.

Delphi round analytics (positivity, authority, Kendall's W, screening), AHP
hierarchical weighting, reliability and content-validity checks, and weighted
scoring of software against the bundled STAGE age-appropriateness instrument.

Every submodule and exported name loads on first use (PEP 562), so
``import stagekit`` imports nothing else, and loading the instrument does not
import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the names it exports; a submodule is itself an attribute.
_EXPORTS = {
    "ahp": ("GroupConsistency", "PairwiseMatrix", "combine_weights", "compose_global",
            "consistency_ratio", "importance_weights", "principal_weights", "weight_tree"),
    "cli": (),
    "consensus": ("DEFAULT_CA_TABLE", "DEFAULT_CS_MAP", "IndicatorStats", "RoundConsensus",
                  "ScreeningResult", "authority_coefficient", "derive_thresholds",
                  "familiarity_coefficient", "indicator_stats", "judgment_coefficient",
                  "kendalls_w", "positivity_coefficient", "round_consensus", "screen_indicators"),
    "errors": ("ConvergenceError", "DegenerateDataError", "IncompleteWeightsError",
               "InsufficientDataError", "InvalidInputError", "PipelineStageError", "SchemaError",
               "StagekitError", "UnsupportedOrderError"),
    "instrument": ("default_tree", "demo_weighted_tree", "load_default_instrument"),
    "io": (),
    "model": ("ExpertPanel", "ExpertProfile", "Familiarity", "IdentityGroup", "Impact",
              "IndicatorNode", "IndicatorTree", "Instrument", "JudgmentBasis", "Level", "Question",
              "RatingRound", "ResponseSet", "ScreeningThresholds", "validate_tree"),
    "pipeline": ("run_pipeline",),
    "psychometrics": ("ReliabilityTable", "ValidityTable", "alpha_if_deleted",
                      "corrected_item_total", "cronbach_alpha", "i_cvi", "reliability_report",
                      "s_cvi", "validity_report"),
    "report": ("ReportBundle", "RoundSection", "WeightsSection", "bundle_to_obj", "display",
               "emit_report", "render_json", "render_markdown"),
    "scoring": ("ScoreCard", "composite", "score_expert_bonus", "score_software"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the submodule that owns ``name`` (or is ``name``) and keep the value here."""
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
