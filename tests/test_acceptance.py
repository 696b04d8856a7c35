"""Release acceptance checks.

Ten numbered end-to-end criteria guard the package's numeric claims: fixture
reproduction, property suites over large random samples, and pipeline
determinism. Each check prints one ``[criterion N] PASS`` line on success
(visible under ``pytest -s`` or when this module is run directly):

    python3 tests/test_acceptance.py
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import stagekit
from stagekit import (
    DegenerateDataError,
    IndicatorStats,
    PairwiseMatrix,
    ResponseSet,
    ScreeningThresholds,
    alpha_if_deleted,
    authority_coefficient,
    compose_global,
    consistency_ratio,
    cronbach_alpha,
    demo_weighted_tree,
    derive_thresholds,
    default_tree,
    display,
    i_cvi,
    indicator_stats,
    kendalls_w,
    load_default_instrument,
    positivity_coefficient,
    principal_weights,
    s_cvi,
    score_software,
    screen_indicators,
    weight_tree,
)
from stagekit.cli import main as cli_main

from oracles import (
    cronbach_alpha_oracle,
    geometric_mean_weights,
    kendalls_w_oracle,
    two_item_matrix_with_corr,
)

DATA = Path(stagekit.__file__).parent / "data"

# Item-level content-validity values of the 16 STAGE items (13 raters,
# importance scored 1-7); their mean is the scale-level value.
REFERENCE_ICVI = (
    1.00, 1.00,  # function learnability, operation simplicity
    0.85, 0.92,  # audio-visual effect, interactive feedback
    1.00, 1.00,  # direct cost, indirect cost
    0.89, 0.84,  # needs and values, after-sales service
    1.00, 1.00,  # information security, system stability
    0.85, 0.85,  # functional innovation, incentive mechanism
    1.00, 0.85,  # ethics: service, special customization
    0.85, 1.00,  # policy awareness, social integration
)


def _ok(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS — {detail}")


def test_criterion_01_authority_fixtures():
    cases = (
        (0.8864, 0.8651, 0.8757),
        (0.9182, 0.8498, 0.8840),
        (0.8769, 0.8153, 0.8460),
    )
    for ca, cs, printed in cases:
        cr = authority_coefficient(ca, cs)
        assert cr == (ca + cs) / 2
        assert abs(cr - printed) <= 1.5e-4, (ca, cs, cr, printed)
    _ok(1, "three (Ca, Cs) fixtures within 1.5e-4 of reference Cr values "
           "(third computes 0.8461 vs printed 0.8460 — documented rounding gap)")


def test_criterion_02_positivity_fixtures():
    assert positivity_coefficient(25, 25) == 1.0
    assert positivity_coefficient(25, 20) == 0.8
    _ok(2, "positivity (25,25) → 1.00 and (25,20) → 0.80 exactly")


def test_criterion_03_scvi_fixture():
    value = s_cvi(REFERENCE_ICVI)
    assert abs(value - 0.93125) <= 1e-9
    assert display(value, 2) == "0.93"
    _ok(3, "S-CVI of the 16 reference item I-CVIs = 0.93125, displays 0.93")


def test_criterion_04_cvi_reconstruction():
    rng = np.random.default_rng(41)
    matrix = rng.integers(5, 8, size=(13, 7))
    for col in range(matrix.shape[1]):
        assert i_cvi(tuple(int(v) for v in matrix[:, col])) == 1.0
    column = [5, 6, 7, 5, 5, 6, 5, 7, 5, 6, 5, 5, 6, 7, 5, 5, 6, 4, 3, 2]
    assert sum(1 for v in column if v >= 5) == 17 and len(column) == 20
    assert i_cvi(column) == 0.85
    _ok(4, "all-relevant matrix gives I-CVI 1.00 per item; 17-of-20 column gives 0.85 exactly")


def test_criterion_05_kendalls_w_suite():
    start = time.monotonic()
    rng = np.random.default_rng(5)

    for n in range(2, 9):
        base = rng.permutation(np.arange(1, n + 1))
        for m in (2, 3, 7):
            assert abs(kendalls_w([tuple(base)] * m) - 1.0) <= 1e-12

    for n in range(2, 9):
        asc = tuple(range(1, n + 1))
        assert abs(kendalls_w([asc, asc[::-1]])) <= 1e-12

    in_range = 0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        rows = rng.integers(1, 6, size=(m, n))
        try:
            w = kendalls_w(rows.tolist())
        except DegenerateDataError:
            continue
        assert -1e-12 <= w <= 1 + 1e-12
        in_range += 1
    assert in_range >= 950

    for _ in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(3, 9))
        rows = [tuple(rng.permutation(np.arange(1, n + 1))) for _ in range(m)]
        assert kendalls_w(rows, correct_ties=True) == kendalls_w(rows, correct_ties=False)

    compared = 0
    while compared < 500:
        rows = rng.integers(1, 5, size=(4, 4))
        if all(len(set(row)) == 1 for row in rows.tolist()):
            continue  # fully tied everywhere: W undefined for both routes
        assert abs(kendalls_w(rows.tolist()) - kendalls_w_oracle(rows)) <= 1e-12
        compared += 1

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"Kendall suite took {elapsed:.1f}s"
    _ok(5, f"W fixtures, range over 1000 random matrices, tie-correction identity, "
           f"and {compared} oracle comparisons at 1e-12 in {elapsed:.1f}s")


def test_criterion_06_cronbach_alpha_suite():
    rng = np.random.default_rng(6)

    for k in (2, 4, 7):
        col = rng.normal(size=12)
        matrix = np.tile(col[:, None], (1, k))
        assert abs(cronbach_alpha(matrix) - 1.0) <= 1e-12

    for r in (0.2, 0.5, 0.8):
        matrix = two_item_matrix_with_corr(r, blocks=50)
        assert abs(cronbach_alpha(matrix) - 2 * r / (1 + r)) <= 1e-9

    for _ in range(200):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(2, 11))
        matrix = rng.normal(size=(n, k)) + rng.normal(size=(n, 1))
        assert abs(cronbach_alpha(matrix) - cronbach_alpha_oracle(matrix)) <= 1e-10

    for _ in range(50):
        n = int(rng.integers(6, 20))
        k = int(rng.integers(3, 9))
        matrix = rng.normal(size=(n, k)) + rng.normal(size=(n, 1))
        for item in range(k):
            assert alpha_if_deleted(matrix, item) == cronbach_alpha(np.delete(matrix, item, axis=1))

    _ok(6, "identical-column α = 1, two-item closed form at 1e-9, 200 oracle matches "
           "at 1e-10, deletion ≡ submatrix α exactly (no raw-response fixture exists "
           "for the reference totals — excluded)")


def _random_consistent(rng, n):
    w = rng.uniform(0.5, 3.0, size=n)
    entries = tuple(tuple(float(w[i] / w[j]) for j in range(n)) for i in range(n))
    ids = tuple(f"c{i}" for i in range(n))
    return PairwiseMatrix(ids=ids, entries=entries), w / w.sum()


def test_criterion_07_ahp_suite():
    rng = np.random.default_rng(7)

    for _ in range(200):
        n = int(rng.integers(2, 10))
        matrix, expected = _random_consistent(rng, n)
        weights, lam = principal_weights(matrix)
        assert max(abs(a - b) for a, b in zip(weights, expected)) <= 1e-9
        _, cr = consistency_ratio(lam, n)
        assert abs(cr) <= 1e-12

    saaty = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=float)
    scale = np.concatenate([saaty, 1.0 / saaty[1:]])
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        entries = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                entries[i, j] = rng.choice(scale)
                entries[j, i] = 1.0 / entries[i, j]
        _, lam = principal_weights(
            PairwiseMatrix(ids=tuple(f"r{i}" for i in range(n)),
                           entries=tuple(map(tuple, entries)))
        )
        assert lam >= n - 1e-9

    composed = compose_global(demo_weighted_tree())
    tree = default_tree()
    leaf_total = sum(composed.node(leaf.id).global_weight for leaf in tree.leaves())
    assert abs(leaf_total - 1.0) <= 1e-9

    importance = {node.id: 4.0 + (i % 10) / 10 for i, node in enumerate(tree.nodes)}
    weighted, _ = weight_tree(tree, importance=importance, method="scoring")
    rebuilt = compose_global(weighted)
    assert abs(sum(rebuilt.node(leaf.id).global_weight for leaf in tree.leaves()) - 1.0) <= 1e-9

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 10))
        matrix, _ = _random_consistent(rng, n)
        weights, _ = principal_weights(matrix)
        geometric = geometric_mean_weights(matrix.entries)
        worst = max(worst, float(np.max(np.abs(np.asarray(weights) - geometric))))
    assert worst <= 2.5e-15, worst

    _ok(7, f"consistent recovery at 1e-9 with CR 0, λmax ≥ n on 1000 reciprocal "
           f"matrices, default-tree leaf weights sum to 1, power vs geometric "
           f"agree to machine precision (max gap {worst:.1e})")


def test_criterion_08_screening_suite():
    for value in (4, 5):
        stats = {
            f"i{k}": indicator_stats((value,) * 6, scale_max=5) for k in range(5)
        }
        thresholds = derive_thresholds(stats)
        result = screen_indicators(stats, thresholds)
        assert set(result.retained) == set(stats)
        assert result.dropped == ()

    rng = np.random.default_rng(8)
    thresholds = ScreeningThresholds(mean_floor=3.0, fsf_floor=0.2, cv_ceiling=0.4)
    for _ in range(1000):
        mean = float(rng.uniform(1.0, 5.0))
        cv = float(rng.uniform(0.0, 1.5))
        fsf = float(rng.uniform(0.0, 1.0))
        before = IndicatorStats(mean=mean, sd=cv * mean, cv=cv, full_score_freq=fsf)
        improved = IndicatorStats(
            mean=mean + float(rng.uniform(0.0, 0.5)),
            sd=0.0,
            cv=max(0.0, cv - float(rng.uniform(0.0, 0.5))),
            full_score_freq=min(1.0, fsf + float(rng.uniform(0.0, 0.5))),
        )
        kept_before = "x" in screen_indicators({"x": before}, thresholds).retained
        kept_after = "x" in screen_indicators({"x": improved}, thresholds).retained
        assert not (kept_before and not kept_after)

    _ok(8, "zero-dispersion population fully retained under derived thresholds; "
           "favourable perturbation never drops an indicator (1000 trials)")


def _complete_responses(rng, instrument, n_resp):
    return ResponseSet(
        question_ids=instrument.question_ids,
        consumer={
            f"r{i}": tuple(int(v) for v in rng.integers(0, 5, size=len(instrument.question_ids)))
            for i in range(n_resp)
        },
    )


def test_criterion_09_scoring_suite():
    instrument = load_default_instrument()
    n_q = len(instrument.question_ids)
    # Question-count weights: a dimension weighs its share of the questions, and an
    # index its share of its dimension's questions, so every question weighs the same.
    count = {idx: len(qids) for idx, qids in instrument.indices}
    weights = {}
    for dim in instrument.dimensions():
        indices = instrument.indices_of_dimension(dim)
        dim_count = sum(count[idx] for idx in indices)
        weights[dim] = dim_count / n_q
        weights.update((idx, count[idx] / dim_count) for idx in indices)

    top = ResponseSet(
        question_ids=instrument.question_ids,
        consumer={f"r{i}": (4,) * n_q for i in range(4)},
    )
    card = score_software(top, instrument, weights)
    assert abs(card.composite - 100.0) <= 1e-9

    rng = np.random.default_rng(9)
    for _ in range(50):
        responses = _complete_responses(rng, instrument, 6)
        card = score_software(responses, instrument, weights)
        flat = np.array([responses.consumer[r] for r in responses.consumer], dtype=float)
        assert abs(card.composite - flat.mean() / 4 * 100) <= 1e-12

    bumped = 0
    while bumped < 1000:
        responses = _complete_responses(rng, instrument, 5)
        rid = f"r{int(rng.integers(0, 5))}"
        q = int(rng.integers(0, n_q))
        row = list(responses.consumer[rid])
        if row[q] == 4:
            continue
        row[q] += 1
        raised = ResponseSet(
            question_ids=instrument.question_ids,
            consumer={**responses.consumer, rid: tuple(row)},
        )
        before = score_software(responses, instrument, weights).composite
        after = score_software(raised, instrument, weights).composite
        assert after >= before - 1e-12
        bumped += 1

    _ok(9, "all-4 responses score 100, uniform weighting equals plain mean × 100 "
           "at 1e-12, single-answer increase never lowers the composite (1000 trials)")


def test_criterion_10_pipeline_determinism():
    config = DATA / "demo_config.json"
    outputs = []
    elapsed = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            out = Path(tmp) / f"run{run}.json"
            start = time.monotonic()
            rc = cli_main(["pipeline", "--config", str(config), "--out", str(out)])
            elapsed.append(time.monotonic() - start)
            assert rc == 0
            outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert max(elapsed) < 5.0, elapsed
    json.loads(outputs[0])  # parses cleanly
    _ok(10, f"bundled pipeline run is byte-identical across two runs "
            f"({max(elapsed):.2f}s worst case)")


CRITERIA = (
    (1, test_criterion_01_authority_fixtures),
    (2, test_criterion_02_positivity_fixtures),
    (3, test_criterion_03_scvi_fixture),
    (4, test_criterion_04_cvi_reconstruction),
    (5, test_criterion_05_kendalls_w_suite),
    (6, test_criterion_06_cronbach_alpha_suite),
    (7, test_criterion_07_ahp_suite),
    (8, test_criterion_08_screening_suite),
    (9, test_criterion_09_scoring_suite),
    (10, test_criterion_10_pipeline_determinism),
)


if __name__ == "__main__":
    failed = 0
    for number, check in CRITERIA:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report every criterion
            failed += 1
            print(f"[criterion {number}] FAIL — {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
