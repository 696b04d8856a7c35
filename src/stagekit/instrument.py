"""The bundled STAGE instrument: default indicator tree, questionnaire, demo weights.

STAGE (Software Technology And Geriatric Evaluation) rates software
age-appropriateness on three dimensions, eight indices, and sixteen items,
surveyed through 21 consumer questions (0-4 agreement scale) plus two
expert-rated bonus indicators. The structures here are constants; call sites
must treat them as read-only (they are frozen dataclasses anyway).
"""

from __future__ import annotations

from dataclasses import replace

from .model import IndicatorNode, IndicatorTree, Instrument, Level, Question

DIMENSIONS: tuple[tuple[str, str], ...] = (
    ("ux", "User Experience"),
    ("pq", "Product Quality"),
    ("sp", "Social Promotion"),
)

INDICES: tuple[tuple[str, str, str], ...] = (
    # (index_id, parent dimension, canonical name)
    ("ux.availability", "ux", "Availability"),
    ("ux.perceptibility", "ux", "Perceptibility"),
    ("ux.cost_consideration", "ux", "Cost consideration"),
    ("ux.service_experience", "ux", "Service experience"),
    ("pq.security", "pq", "Security"),
    ("pq.innovation", "pq", "Innovation"),
    ("sp.ethics", "sp", "Ethics"),
    ("sp.social_integration", "sp", "Social integration"),
)

ITEMS: tuple[tuple[str, str, str], ...] = (
    # (item_id, parent index, name)
    ("ux.availability.function_learnability", "ux.availability", "Function is easy to learn"),
    ("ux.availability.operation_simplicity", "ux.availability", "Easy to operate"),
    ("ux.perceptibility.audio_visual_effect", "ux.perceptibility", "Audio-visual effect"),
    ("ux.perceptibility.interactive_feedback", "ux.perceptibility", "Interactive feedback"),
    ("ux.cost_consideration.direct_cost", "ux.cost_consideration", "Direct cost"),
    ("ux.cost_consideration.indirect_cost", "ux.cost_consideration", "Indirect cost"),
    ("ux.service_experience.needs_and_values", "ux.service_experience", "Needs and values considered"),
    ("ux.service_experience.after_sales_service", "ux.service_experience", "After-sales service"),
    ("pq.security.information_security", "pq.security", "Information security"),
    ("pq.security.system_stability", "pq.security", "System stability"),
    ("pq.innovation.functional_innovation", "pq.innovation", "Functional innovation"),
    ("pq.innovation.incentive_mechanism", "pq.innovation", "Incentive mechanism"),
    ("sp.ethics.service", "sp.ethics", "Service"),
    ("sp.ethics.special_customization", "sp.ethics", "Special customization"),
    ("sp.social_integration.policy_awareness", "sp.social_integration", "Policy awareness"),
    ("sp.social_integration.social_integration", "sp.social_integration", "Social integration"),
)

BONUS_INDICATORS: tuple[tuple[str, str], ...] = (
    ("compliance", "Compliance"),
    ("sociability", "Sociability"),
)

# Question -> index partition: 3/3/2/2/2/2/3/4 across the eight indices.
_QUESTION_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ux.availability", ("q1", "q2", "q3")),
    ("ux.perceptibility", ("q4", "q5", "q6")),
    ("ux.cost_consideration", ("q7", "q8")),
    ("ux.service_experience", ("q9", "q10")),
    ("pq.security", ("q11", "q12")),
    ("pq.innovation", ("q13", "q14")),
    ("sp.ethics", ("q15", "q16", "q17")),
    ("sp.social_integration", ("q18", "q19", "q20", "q21")),
)

_QUESTION_TEXTS: tuple[str, ...] = (
    "I can learn how to use the software's main functions without help from others.",
    "I can find the function I need within a few steps.",
    "Operating the software (tapping, swiping, entering text) feels simple to me.",
    "Text and icons on the screen are large and clear enough for me to read.",
    "Sounds and voice prompts in the software are easy to hear and understand.",
    "The software gives clear feedback (highlights, sounds, messages) when I perform an action.",
    "The direct costs of the software (purchase price, subscription, in-app fees) are acceptable to me.",
    "The indirect costs of using it (data charges, extra equipment, setup time) are acceptable to me.",
    "The software takes my needs and values as an older user into account.",
    "When I need help, customer or after-sales service is easy to reach and solves my problem.",
    "I trust the software to keep my personal information safe.",
    "The software runs stably, without crashes or losing my data.",
    "The software offers new functions that make my daily life easier.",
    "The software encourages me to keep using it, for example with reminders or rewards.",
    "The software treats me respectfully and never pressures me into payments or data sharing.",
    "The software offers accommodations for older users, such as large print or a simplified mode.",
    "I feel the software serves older users fairly, without discrimination.",
    "Using the software helps me stay in touch with family and friends.",
    "Using the software helps me take part in social activities or community life.",
    "Using the software keeps me informed about society and current events.",
    "Using the software makes me feel more confident and included in the digital world.",
)


def default_tree() -> IndicatorTree:
    """The core 3-dimension / 8-index / 16-item hierarchy, without weights."""
    nodes = [IndicatorNode(id=d, name=name, level=Level.DIMENSION) for d, name in DIMENSIONS]
    nodes += [IndicatorNode(id=i, name=name, level=Level.INDEX, parent_id=d)
              for i, d, name in INDICES]
    nodes += [IndicatorNode(id=i, name=name, level=Level.ITEM, parent_id=p)
              for i, p, name in ITEMS]
    return IndicatorTree(nodes=tuple(nodes))


# Synthetic weights for demos and the bundled sample data. These are labeled
# placeholders chosen to be visibly non-uniform; real studies derive weights
# from pairwise comparisons (see the ahp module).
DEMO_LOCAL_WEIGHTS: dict[str, float] = {
    "ux": 0.5, "pq": 0.3, "sp": 0.2,
    "ux.availability": 0.4,
    "ux.perceptibility": 0.3,
    "ux.cost_consideration": 0.15,
    "ux.service_experience": 0.15,
    "pq.security": 0.6,
    "pq.innovation": 0.4,
    "sp.ethics": 0.5,
    "sp.social_integration": 0.5,
    "ux.availability.function_learnability": 0.6,
    "ux.availability.operation_simplicity": 0.4,
    "ux.perceptibility.audio_visual_effect": 0.5,
    "ux.perceptibility.interactive_feedback": 0.5,
    "ux.cost_consideration.direct_cost": 0.5,
    "ux.cost_consideration.indirect_cost": 0.5,
    "ux.service_experience.needs_and_values": 0.55,
    "ux.service_experience.after_sales_service": 0.45,
    "pq.security.information_security": 0.7,
    "pq.security.system_stability": 0.3,
    "pq.innovation.functional_innovation": 0.5,
    "pq.innovation.incentive_mechanism": 0.5,
    "sp.ethics.service": 0.6,
    "sp.ethics.special_customization": 0.4,
    "sp.social_integration.policy_awareness": 0.5,
    "sp.social_integration.social_integration": 0.5,
}


def demo_weighted_tree() -> IndicatorTree:
    """The default tree carrying the synthetic demo weights (local + global)."""
    from .ahp import compose_global  # here, so that loading the instrument loads no numpy

    return compose_global(IndicatorTree(nodes=tuple(
        replace(node, local_weight=DEMO_LOCAL_WEIGHTS[node.id]) for node in default_tree().nodes)))


def load_default_instrument() -> Instrument:
    """The bundled STAGE questionnaire: 21 questions over 8 indices + 2 bonus indicators."""
    questions = tuple(
        Question(id=f"q{i}", text=text) for i, text in enumerate(_QUESTION_TEXTS, start=1)
    )
    return Instrument(
        indices=_QUESTION_GROUPS,
        questions=questions,
        dimension_of={idx: dim for idx, dim, _ in INDICES},
        bonus_indicators=BONUS_INDICATORS,
    )
