"""Indicator weighting: AHP eigenvector weights, consistency checks, expert-scoring
weights, their product combination, and composition down the indicator hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    IncompleteWeightsError,
    InvalidInputError,
    UnsupportedOrderError,
)
from .model import IndicatorNode, IndicatorTree, group_label, ordered_sum, weight_sum_problem

RECIPROCAL_TOL = 1e-9
POWER_TOL = 1e-12
POWER_MAX_ITER = 10_000
MAX_MATRIX_ORDER = 15

# Random consistency index by matrix order (Saaty's table).
RANDOM_INDEX: dict[int, float] = {
    3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45,
}

CR_THRESHOLD = 0.1


@dataclass(frozen=True)
class PairwiseMatrix:
    """A reciprocal pairwise-comparison matrix over sibling indicators."""

    ids: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        ids = tuple(self.ids)
        object.__setattr__(self, "ids", ids)
        n = len(ids)
        if len(set(ids)) != n:
            raise InvalidInputError("pairwise matrix ids must be unique")
        rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidInputError(f"pairwise matrix must be {n}x{n}")
        for i in range(n):
            if abs(rows[i][i] - 1.0) > RECIPROCAL_TOL:
                raise InvalidInputError(f"diagonal entry ({ids[i]},{ids[i]}) must be 1, got {rows[i][i]!r}")
            for j in range(n):
                v = rows[i][j]
                if not (np.isfinite(v) and 1 / 9 - 1e-12 <= v <= 9 + 1e-12):
                    raise InvalidInputError(
                        f"entry ({ids[i]},{ids[j]}) = {v!r} outside [1/9, 9]"
                    )
                if abs(rows[i][j] * rows[j][i] - 1.0) > RECIPROCAL_TOL:
                    raise InvalidInputError(
                        f"entries ({ids[i]},{ids[j]}) and ({ids[j]},{ids[i]}) are not reciprocal"
                    )
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.ids)

    def array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


@dataclass(frozen=True)
class GroupConsistency:
    """Consistency diagnostics for one sibling group's pairwise matrix."""

    parent_id: str | None  # None = the dimension (root) group
    n: int
    lambda_max: float
    ci: float
    cr: float
    acceptable: bool


def principal_weights(matrix: PairwiseMatrix) -> tuple[tuple[float, ...], float]:
    """Normalized principal eigenvector and lambda_max of a pairwise matrix.

    Power iteration on the positive matrix, declared converged when two
    successive normalized iterates differ by less than 1e-12 in max-norm;
    lambda_max is the Rayleigh quotient at the converged vector.
    """
    n = matrix.n
    if n < 2:
        raise InvalidInputError(f"need a matrix of order >= 2, got {n}")
    if n > MAX_MATRIX_ORDER:
        raise UnsupportedOrderError(f"matrix order {n} exceeds supported maximum {MAX_MATRIX_ORDER}")
    a = matrix.array()
    w = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        v = (a * w).sum(axis=1)
        w_next = v / v.sum()
        if float(np.max(np.abs(w_next - w))) < POWER_TOL:
            w = w_next
            break
        w = w_next
    else:
        raise ConvergenceError(
            f"power iteration did not converge within {POWER_MAX_ITER} iterations"
        )
    lambda_max = float(((a * w).sum(axis=1) * w).sum()) / float((w * w).sum())
    return tuple(float(x) for x in w), lambda_max


def consistency_ratio(lambda_max: float, n: int) -> tuple[float, float]:
    """(CI, CR) for a matrix of order n; CR = 0 for n <= 2 by construction."""
    if n < 2:
        raise InvalidInputError(f"matrix order must be >= 2, got {n}")
    if not n - 1e-9 <= lambda_max < math.inf:  # also refuses NaN
        raise InvalidInputError(f"lambda_max {lambda_max!r}: expected a finite number >= matrix order {n}")
    ci = (lambda_max - n) / (n - 1)
    if n <= 2:
        return ci, 0.0
    ri = RANDOM_INDEX.get(n)
    if ri is None:
        raise UnsupportedOrderError(f"no random-index entry for matrix order {n}")
    return ci, ci / ri


def is_acceptable(cr: float) -> bool:
    return cr < CR_THRESHOLD


def importance_weights(means: Sequence[float]) -> tuple[float, ...]:
    """Expert-scoring weights: importance means normalized to sum 1."""
    if not means:
        raise InvalidInputError("no importance means given")
    if not all(0 < m < math.inf for m in means):  # also refuses NaN
        raise InvalidInputError("importance means must all be positive and finite")
    total = float(ordered_sum(means))
    return tuple(float(m) / total for m in means)


def combine_weights(
    w_scoring: Sequence[float], w_ahp: Sequence[float]
) -> tuple[float, ...]:
    """Product combination: c_i = scoring_i * ahp_i, renormalized to sum 1."""
    if len(w_scoring) != len(w_ahp):
        raise InvalidInputError(
            f"weight vectors differ in length: {len(w_scoring)} vs {len(w_ahp)}"
        )
    if not all(0 <= w < math.inf for w in (*w_scoring, *w_ahp)):  # also refuses NaN
        raise InvalidInputError("weights must be non-negative and finite")
    products = [float(a) * float(b) for a, b in zip(w_scoring, w_ahp)]
    total = ordered_sum(products)
    if total == 0:
        raise DegenerateDataError("all pairwise products are zero; combined weights undefined")
    return tuple(p / total for p in products)


def compose_global(tree: IndicatorTree) -> IndicatorTree:
    """The tree with each core node's global weight set: the product of local
    weights along its path from the dimension root.

    Every core (non-bonus) node must carry a local weight and every core
    sibling group must sum to 1; bonus subtrees are ignored entirely.
    """
    local: dict[str, float] = {}
    for node in tree.nodes:
        if node.bonus:
            continue
        if node.local_weight is None:
            raise IncompleteWeightsError(f"node {node.id} has no local weight")
        local[node.id] = node.local_weight

    for parent_id, members in tree.sibling_groups():
        problem = weight_sum_problem(parent_id, [local[n.id] for n in members if not n.bonus])
        if problem:
            raise InvalidInputError(problem)

    global_w: dict[str, float] = {}
    for node in tree.nodes:  # sorted by id; parents may come after children, so recurse
        if node.bonus:
            continue
        global_w[node.id] = _global_of(tree, node, local, global_w)
    return _with_weights(tree, "global_weight", global_w)


def _global_of(
    tree: IndicatorTree,
    node: IndicatorNode,
    local: Mapping[str, float],
    cache: dict[str, float],
) -> float:
    if node.id in cache:
        return cache[node.id]
    if node.id not in local:
        # only reachable on malformed trees (core node under a bonus ancestor)
        raise IncompleteWeightsError(f"node {node.id} has no local weight")
    if node.parent_id is None:
        value = local[node.id]
    elif node.parent_id not in tree:
        raise InvalidInputError(f"node {node.id}: parent {node.parent_id!r} does not exist")
    else:
        value = local[node.id] * _global_of(tree, tree.node(node.parent_id), local, cache)
    cache[node.id] = value
    return value


# The weight sources of each method, keyed by the text its missing-source error names them by.
# A group covered by both takes their product (combine_weights is symmetric).
METHOD_SOURCES: dict[str, tuple[str, ...]] = {
    "ahp": ("pairwise matrix",),
    "scoring": ("importance means",),
    "combined": ("pairwise matrix", "importance means"),
}


def weight_tree(
    tree: IndicatorTree,
    *,
    pairwise: Mapping[str | None, PairwiseMatrix] | None = None,
    importance: Mapping[str, float] | None = None,
    method: str = "combined",
) -> tuple[IndicatorTree, tuple[GroupConsistency, ...]]:
    """The tree with local weights derived for every core sibling group and globals
    composed, and the consistency of each group weighted from a pairwise matrix.

    ``pairwise`` maps a parent node id (None for the dimension group) to that
    group's comparison matrix, whose ids must be the group's core members; a key
    that names no sibling group of the tree is an error. ``importance`` maps node
    ids to their mean importance scores; means for some but not all of a group's
    core members are an error. A group with one core member takes 1.0; any other
    takes those of ``method``'s sources that cover it (see ``METHOD_SOURCES``).
    """
    if type(method) is not str or method not in METHOD_SOURCES:  # a config may hold [] or {}
        raise InvalidInputError(f"unknown weighting method {method!r}")
    sources = METHOD_SOURCES[method]
    pairwise = dict(pairwise or {})
    importance = dict(importance or {})

    assigned: dict[str, float] = {}
    diagnostics: list[GroupConsistency] = []
    for parent_id, members in tree.sibling_groups():
        member_ids = [n.id for n in members if not n.bonus]
        matrix = pairwise.pop(parent_id, None)
        if matrix is not None and set(matrix.ids) != set(member_ids):
            raise InvalidInputError(
                f"pairwise matrix ids {sorted(matrix.ids)} do not match "
                f"{group_label(parent_id)} {sorted(member_ids)}"
            )
        if len(member_ids) < 2:
            assigned.update(dict.fromkeys(member_ids, 1.0))
            continue

        found: dict[str, tuple[float, ...]] = {}  # source -> weights in member order
        if matrix is not None:
            weights, lambda_max = principal_weights(matrix)
            ci, cr = consistency_ratio(lambda_max, matrix.n)
            diagnostics.append(GroupConsistency(
                parent_id=parent_id, n=matrix.n, lambda_max=lambda_max,
                ci=ci, cr=cr, acceptable=is_acceptable(cr),
            ))
            found["pairwise matrix"] = tuple(weights[matrix.ids.index(mid)] for mid in member_ids)
        missing = [mid for mid in member_ids if mid not in importance]
        if missing and len(missing) < len(member_ids):
            raise IncompleteWeightsError(f"importance means for {group_label(parent_id)} "
                                         f"miss {', '.join(missing)}")
        if not missing:
            found["importance means"] = importance_weights([importance[mid] for mid in member_ids])

        chosen = [found[source] for source in sources if source in found]
        if not chosen:
            raise IncompleteWeightsError(f"no {' or '.join(sources)} for {group_label(parent_id)}")
        assigned.update(zip(member_ids, chosen[0] if len(chosen) == 1 else combine_weights(*chosen)))
    if pairwise:
        raise InvalidInputError(f"pairwise matrix for {', '.join(map(group_label, pairwise))}: "
                                "no such sibling group in the indicator tree")

    return compose_global(_with_weights(tree, "local_weight", assigned)), tuple(diagnostics)


def _with_weights(tree: IndicatorTree, field: str, weights: Mapping[str, float]) -> IndicatorTree:
    return IndicatorTree(nodes=tuple(
        replace(node, **{field: weights[node.id]}) if node.id in weights else node
        for node in tree.nodes
    ))
