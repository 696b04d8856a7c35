"""Delphi round analytics: positivity, authority, descriptives, Kendall's W, screening.

The authority lookups (judgment-basis table and familiarity map) default to the
conventional values but are plain data and can be overridden per study. All
functions are pure; display rounding happens only at report serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)
from .model import (
    ExpertPanel,
    ExpertProfile,
    Familiarity,
    Impact,
    JudgmentBasis,
    RatingRound,
    ScreeningThresholds,
)

# Judgment-basis lookup: contribution of each basis to an expert's judgment
# coefficient (Ca) by self-rated impact. The "large" column sums to 1.
DEFAULT_CA_TABLE: dict[JudgmentBasis, dict[Impact, float]] = {
    JudgmentBasis.THEORETICAL_ANALYSIS: {Impact.LARGE: 0.3, Impact.MEDIUM: 0.2, Impact.SMALL: 0.1},
    JudgmentBasis.PRACTICAL_EXPERIENCE: {Impact.LARGE: 0.5, Impact.MEDIUM: 0.4, Impact.SMALL: 0.3},
    JudgmentBasis.PEER_REFERENCE: {Impact.LARGE: 0.1, Impact.MEDIUM: 0.1, Impact.SMALL: 0.1},
    JudgmentBasis.INTUITION: {Impact.LARGE: 0.1, Impact.MEDIUM: 0.1, Impact.SMALL: 0.1},
}

# Familiarity map for the familiarity coefficient (Cs).
DEFAULT_CS_MAP: dict[Familiarity, float] = {
    Familiarity.VERY_FAMILIAR: 1.0,
    Familiarity.FAMILIAR: 0.8,
    Familiarity.MODERATE: 0.6,
    Familiarity.UNFAMILIAR: 0.4,
    Familiarity.VERY_UNFAMILIAR: 0.2,
}


@dataclass(frozen=True)
class IndicatorStats:
    """Descriptive statistics of one indicator's ratings in one round."""

    mean: float
    sd: float
    cv: float
    full_score_freq: float


@dataclass(frozen=True)
class RoundConsensus:
    """Everything computed about one Delphi round."""

    round_no: int
    scale_max: int
    distributed: int
    returned: int
    positivity: float
    ca: float | None
    cs: float | None
    cr: float | None
    kendall_w: float
    stats: Mapping[str, IndicatorStats]


@dataclass(frozen=True)
class ScreeningResult:
    """Verdict of applying retention thresholds to a round's indicators."""

    thresholds: ScreeningThresholds
    retained: tuple[str, ...]
    dropped: tuple[str, ...]
    reasons: Mapping[str, tuple[str, ...]]


def positivity_coefficient(distributed: int, returned: int) -> float:
    """Fraction of distributed questionnaires that came back."""
    if distributed < 1:
        raise InvalidInputError(f"distributed must be >= 1, got {distributed}")
    if not 0 <= returned <= distributed:
        raise InvalidInputError(f"returned {returned} outside [0, {distributed}]")
    return returned / distributed


def _check_ca_table(table: Mapping[JudgmentBasis, Mapping[Impact, float]]) -> None:
    for basis in JudgmentBasis:
        row = table.get(basis)
        if row is None:
            raise InvalidInputError(f"judgment table missing basis {basis.value!r}")
        for impact in Impact:
            if impact not in row:
                raise InvalidInputError(
                    f"judgment table missing impact {impact.value!r} for basis {basis.value!r}"
                )


def judgment_coefficient(
    profiles: Sequence[ExpertProfile],
    table: Mapping[JudgmentBasis, Mapping[Impact, float]] = DEFAULT_CA_TABLE,
) -> float:
    """Panel judgment coefficient Ca: mean over experts of the summed lookups."""
    if not profiles:
        raise InvalidInputError("judgment coefficient needs a non-empty expert panel")
    _check_ca_table(table)
    codes = ExpertPanel.of(profiles).codes
    lookup = np.array([[table[b][i] for i in Impact] for b in JudgmentBasis], dtype=float)
    # Sums in order, as over profiles: 0 + each basis in JudgmentBasis order, then over the
    # experts (``ordered_sum``'s order, which builtin ``sum`` keeps only up to Python 3.11).
    per_expert = sum(lookup[j].take(codes[:, j]) for j in range(len(JudgmentBasis)))
    return float(np.add.accumulate(per_expert)[-1]) / len(codes)


def familiarity_coefficient(
    profiles: Sequence[ExpertProfile],
    mapping: Mapping[Familiarity, float] = DEFAULT_CS_MAP,
) -> float:
    """Panel familiarity coefficient Cs: mean of mapped familiarity levels."""
    if not profiles:
        raise InvalidInputError("familiarity coefficient needs a non-empty expert panel")
    for level in Familiarity:
        if level not in mapping:
            raise InvalidInputError(f"familiarity map missing level {level.value!r}")
    lookup = np.array([mapping[level] for level in Familiarity], dtype=float)
    levels = lookup.take(ExpertPanel.of(profiles).codes[:, -1])
    return float(np.add.accumulate(levels)[-1]) / len(profiles)  # in order, as ordered_sum


def authority_coefficient(ca: float, cs: float) -> float:
    """Authority coefficient Cr = (Ca + Cs) / 2."""
    for label, v in (("ca", ca), ("cs", cs)):
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{label} {v!r} outside [0, 1]")
    return (ca + cs) / 2.0


def indicator_stats(ratings: Sequence[int], scale_max: int) -> IndicatorStats:
    """Mean, sample sd, coefficient of variation, and full-score frequency."""
    if len(ratings) < 2:
        raise InsufficientDataError(f"need >= 2 ratings, got {len(ratings)}")
    arr = np.asarray(ratings, dtype=float)
    if arr.min() < 1 or arr.max() > scale_max:
        raise InvalidInputError(f"ratings outside [1, {scale_max}]")
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    return IndicatorStats(
        mean=mean,
        sd=sd,
        cv=sd / mean,  # mean >= 1 on this domain, never zero
        full_score_freq=float(np.count_nonzero(arr == scale_max)) / len(arr),
    )


W_BLOCK = 1024  # raters ranked at once by kendalls_w, which bounds its temporaries


def _ranks_by_sorting(block: np.ndarray) -> tuple[np.ndarray, int]:
    """Each column's doubled mid-rank sum over the block's rows, and the rows' tie terms.

    A tie group is a run of equal values in a row's stable sort, and its
    members' rank is the mean of its first and last position.
    """
    n = block.shape[1]
    positions = np.arange(n)
    order = np.argsort(block, axis=1, kind="stable")
    ordered = np.take_along_axis(block, order, axis=1)
    starts = np.ones(block.shape, dtype=bool)  # a tie group starts at this position
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=1)
    ends = np.roll(starts, -1, axis=1)[:, ::-1]  # reversed: a tie group ends here
    last = np.minimum.accumulate(np.where(ends, positions[::-1], n), axis=1)[:, ::-1]
    sums = np.bincount(order.ravel(), (first + last + 2).ravel(), minlength=n)
    return sums, int(((last - first + 1) ** 2 - 1).sum())


def _ranks_by_counting(block: np.ndarray, lo: np.integer, span: int) -> tuple[np.ndarray, int]:
    """``_ranks_by_sorting``'s result for integers in lo .. lo + span - 1, from each row's value counts.

    A value that c cells of a row hold, with b cells below it, has the doubled
    mid-rank 2b + c + 1 there, and its tie term is c^3 - c.
    """
    # Each x - lo lies in [0, span), so its bits read as unsigned are exact even where the dtype wraps.
    codes = (block - lo).view(f"u{block.itemsize}").astype(np.intp)
    cells = (np.arange(len(block))[:, None] * span + codes).ravel()
    counts = np.bincount(cells, minlength=len(block) * span)
    below = np.cumsum(counts.reshape(-1, span), axis=1).ravel() - counts
    doubled = 2 * below + counts + 1
    return doubled[cells].reshape(block.shape).sum(axis=0), int((counts ** 3 - counts).sum())


def kendalls_w(ratings: Sequence[Sequence[float]], correct_ties: bool = True) -> float:
    """Kendall's coefficient of concordance over an m-rater x n-indicator matrix.

    Ratings are converted to within-rater mid-ranks first, so any common
    strictly monotone transform of a rater's scores leaves W unchanged.
    With ``correct_ties`` the denominator subtracts m * sum of per-rater
    tie terms, i.e. W = 12S / (m^2 (n^3 - n) - m * sum_i T_i).

    Raters are ranked W_BLOCK rows at a time. An integer matrix whose values
    span at most n is ranked by counting each row's values; any other matrix
    is sorted row by row (as floats unless it is an integer matrix). Doubled
    mid-ranks and tie terms are integers, so every sum is exact whatever the
    blocking and the two give the same bits.
    """
    try:
        arr = np.asarray(ratings)
    except ValueError:  # rows of unequal length
        raise InvalidInputError("ragged ratings matrix") from None
    m = len(arr)
    if m < 2:
        raise InsufficientDataError(f"need >= 2 raters, got {m}")
    if arr.ndim != 2:
        raise InvalidInputError("ragged ratings matrix")
    n = arr.shape[1]
    if n < 2:
        raise InsufficientDataError(f"need >= 2 indicators, got {n}")
    counting = False
    if arr.dtype.kind in "iu":
        lo = arr.min()
        span = int(arr.max()) - int(lo) + 1
        counting = span <= n
    else:
        arr = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("ratings matrix contains missing or non-finite values")

    doubled_rank_sums = np.zeros(n)
    tie_sum = 0
    for start in range(0, m, W_BLOCK):
        block = arr[start:start + W_BLOCK]
        sums, ties = _ranks_by_counting(block, lo, span) if counting else _ranks_by_sorting(block)
        doubled_rank_sums += sums
        tie_sum += ties
    s = float(np.sum((doubled_rank_sums / 2.0 - m * (n + 1) / 2.0) ** 2))

    denom = m * m * (n**3 - n)
    if correct_ties:
        denom -= m * float(tie_sum)
    if denom == 0:
        raise DegenerateDataError("every rater tied all indicators; W is undefined")
    return 12.0 * s / denom


def derive_thresholds(stats: Mapping[str, IndicatorStats]) -> ScreeningThresholds:
    """Retention cutoffs from the round's own across-indicator dispersion.

    mean_floor = mean(means) - 2 sd, fsf_floor = mean(fsf) - 2 sd (clamped
    at 0, since frequencies cannot be negative), cv_ceiling = mean(cv) + 2 sd;
    all sds are sample sds across indicators.
    """
    if len(stats) < 2:
        raise InsufficientDataError(f"need >= 2 indicators to derive thresholds, got {len(stats)}")
    means = np.array([s.mean for s in stats.values()])
    fsfs = np.array([s.full_score_freq for s in stats.values()])
    cvs = np.array([s.cv for s in stats.values()])
    return ScreeningThresholds(
        mean_floor=float(means.mean() - 2.0 * means.std(ddof=1)),
        fsf_floor=max(0.0, float(fsfs.mean() - 2.0 * fsfs.std(ddof=1))),
        cv_ceiling=float(cvs.mean() + 2.0 * cvs.std(ddof=1)),
    )


def screen_indicators(
    stats: Mapping[str, IndicatorStats], thresholds: ScreeningThresholds
) -> ScreeningResult:
    """Retain indicators meeting all three criteria; boundary equality passes."""
    retained: list[str] = []
    dropped: list[str] = []
    reasons: dict[str, tuple[str, ...]] = {}
    for indicator_id, s in stats.items():
        failed = []
        if s.mean < thresholds.mean_floor:
            failed.append("mean")
        if s.full_score_freq < thresholds.fsf_floor:
            failed.append("fsf")
        if s.cv > thresholds.cv_ceiling:
            failed.append("cv")
        if failed:
            dropped.append(indicator_id)
            reasons[indicator_id] = tuple(failed)
        else:
            retained.append(indicator_id)
    return ScreeningResult(
        thresholds=thresholds,
        retained=tuple(retained),
        dropped=tuple(dropped),
        reasons=reasons,
    )


def round_consensus(
    rnd: RatingRound,
    profiles: Sequence[ExpertProfile] | None = None,
    *,
    ca_table: Mapping[JudgmentBasis, Mapping[Impact, float]] = DEFAULT_CA_TABLE,
    cs_map: Mapping[Familiarity, float] = DEFAULT_CS_MAP,
) -> RoundConsensus:
    """All consensus statistics for one round.

    Authority coefficients are computed over the experts who actually
    responded this round, when their profiles (with distinct ids) are supplied;
    positivity uses the round's distributed count. Pass ``profiles=None`` to skip Ca/Cs/Cr.
    """
    if rnd.returned < 2:
        raise InsufficientDataError(
            f"round {rnd.round_no}: need >= 2 responding experts, got {rnd.returned}"
        )
    positivity = positivity_coefficient(rnd.distributed, rnd.returned)

    ca = cs = cr = None
    if profiles is not None:
        panel = ExpertPanel.of(profiles)
        rows = list(map(panel.row_of.get, rnd.ratings.ids))
        if None in rows:
            missing = [eid for eid, row in zip(rnd.ratings.ids, rows) if row is None]
            raise InvalidInputError(
                f"round {rnd.round_no}: no profile for responding expert(s) {', '.join(missing)}"
            )
        respondents = ExpertPanel(rnd.ratings.ids, panel.codes[rows])
        ca = judgment_coefficient(respondents, ca_table)
        cs = familiarity_coefficient(respondents, cs_map)
        cr = authority_coefficient(ca, cs)

    stats = {
        indicator_id: indicator_stats(rnd.ratings.matrix[:, j], rnd.scale_max)
        for j, indicator_id in enumerate(rnd.indicator_ids)
    }
    w = kendalls_w(rnd.ratings.matrix)
    return RoundConsensus(
        round_no=rnd.round_no,
        scale_max=rnd.scale_max,
        distributed=rnd.distributed,
        returned=rnd.returned,
        positivity=positivity,
        ca=ca,
        cs=cs,
        cr=cr,
        kendall_w=w,
        stats=stats,
    )
