"""stagekit: instrument development and evaluation toolkit.

Delphi round analytics (positivity, authority, Kendall's W, screening), AHP
hierarchical weighting, reliability and content-validity checks, and weighted
scoring of software against the bundled STAGE age-appropriateness instrument.
"""

from .ahp import (
    GroupConsistency,
    PairwiseMatrix,
    WeightTable,
    combine_weights,
    compose_global,
    consistency_ratio,
    importance_weights,
    principal_weights,
    weight_tree,
)
from .consensus import (
    DEFAULT_CA_TABLE,
    DEFAULT_CS_MAP,
    IndicatorStats,
    RoundConsensus,
    ScreeningResult,
    authority_coefficient,
    derive_thresholds,
    familiarity_coefficient,
    indicator_stats,
    judgment_coefficient,
    kendalls_w,
    positivity_coefficient,
    round_consensus,
    screen_indicators,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    IncompleteWeightsError,
    InsufficientDataError,
    InvalidInputError,
    PipelineStageError,
    SchemaError,
    StagekitError,
    UnsupportedOrderError,
)
from .instrument import (
    default_tree,
    demo_weighted_tree,
    load_default_instrument,
)
from .model import (
    ExpertPanel,
    ExpertProfile,
    Familiarity,
    IdentityGroup,
    Impact,
    IndicatorNode,
    IndicatorTree,
    Instrument,
    JudgmentBasis,
    Level,
    Question,
    RatingRound,
    ResponseSet,
    ScreeningThresholds,
    validate_tree,
)
from .pipeline import run_pipeline
from .psychometrics import (
    ReliabilityTable,
    ValidityTable,
    alpha_if_deleted,
    corrected_item_total,
    cronbach_alpha,
    i_cvi,
    reliability_report,
    s_cvi,
    validity_report,
)
from .report import (
    ReportBundle,
    RoundSection,
    WeightsSection,
    bundle_to_obj,
    display,
    emit_report,
    render_json,
    render_markdown,
)
from .scoring import (
    ConsumerScores,
    ScoreCard,
    composite,
    question_proportional_weights,
    score_consumer,
    score_expert_bonus,
    score_software,
)

__version__ = "0.1.0"

__all__ = [
    # ahp
    "GroupConsistency", "PairwiseMatrix", "WeightTable", "combine_weights",
    "compose_global", "consistency_ratio", "importance_weights", "principal_weights",
    "weight_tree",
    # consensus
    "DEFAULT_CA_TABLE", "DEFAULT_CS_MAP", "IndicatorStats", "RoundConsensus",
    "ScreeningResult", "authority_coefficient", "derive_thresholds",
    "familiarity_coefficient", "indicator_stats", "judgment_coefficient", "kendalls_w",
    "positivity_coefficient", "round_consensus", "screen_indicators",
    # errors
    "ConvergenceError", "DegenerateDataError", "IncompleteWeightsError",
    "InsufficientDataError", "InvalidInputError", "PipelineStageError", "SchemaError",
    "StagekitError", "UnsupportedOrderError",
    # instrument
    "default_tree", "demo_weighted_tree", "load_default_instrument",
    # model
    "ExpertPanel", "ExpertProfile", "Familiarity", "IdentityGroup", "Impact", "IndicatorNode",
    "IndicatorTree", "Instrument", "JudgmentBasis", "Level", "Question", "RatingRound",
    "ResponseSet", "ScreeningThresholds", "validate_tree",
    # psychometrics
    "ReliabilityTable", "ValidityTable", "alpha_if_deleted", "corrected_item_total",
    "cronbach_alpha", "i_cvi", "reliability_report", "s_cvi", "validity_report",
    # report
    "ReportBundle", "RoundSection", "WeightsSection", "bundle_to_obj", "display",
    "emit_report", "render_json", "render_markdown",
    # scoring
    "ConsumerScores", "ScoreCard", "composite", "question_proportional_weights",
    "score_consumer", "score_expert_bonus", "score_software",
    # pipeline
    "run_pipeline",
]
