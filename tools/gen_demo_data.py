"""Regenerate the bundled synthetic sample dataset (src/stagekit/data/).

Everything here is fabricated demo data with a fixed seed: it exists so the
CLI and pipeline have something deterministic to run against, and so the
docs can show real output. Ratings are built from hand-chosen per-indicator
multisets (so their means/spreads are by construction) and then shuffled
across raters; shuffling never changes any per-indicator statistic.

Run from the repository root:  python3 tools/gen_demo_data.py
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from stagekit import (
    cronbach_alpha,
    default_tree,
    derive_thresholds,
    load_default_instrument,
    render_json,
    run_pipeline,
    screen_indicators,
    validity_report,
)
from stagekit.consensus import indicator_stats
from stagekit.instrument import ITEMS

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "stagekit" / "data"

SEED = 20230815
N_EXPERTS = 25
ROUND3_RESPONDENTS = 20  # e21..e25 sit round 3 out

GROUPS = (
    "service_decision_maker",
    "technology_rnd",
    "social_technology_researcher",
    "technology_implementer",
    "other",
)
FAMILIARITY = ["very_familiar"] * 10 + ["familiar"] * 10 + ["moderate"] * 5
IMPACTS = ("large", "medium", "small")


def write_csv(name: str, header: list[str], rows: list[list]) -> None:
    with open(DATA_DIR / name, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def expert_ids() -> list[str]:
    return [f"e{i:02d}" for i in range(1, N_EXPERTS + 1)]


def gen_experts() -> None:
    rows = []
    for i, eid in enumerate(expert_ids()):
        rows.append([
            eid,
            GROUPS[i % len(GROUPS)],
            FAMILIARITY[i],
            IMPACTS[i % 2],            # theory: large/medium
            "large" if i % 3 else "medium",  # practice
            IMPACTS[i % 3],            # peer
            IMPACTS[(i + 1) % 3],      # intuition
        ])
    write_csv("experts.csv", ["id", "group", "familiarity", "basis_theory",
                              "basis_practice", "basis_peer", "basis_intuition"], rows)


def multiset(fives=0, fours=0, threes=0, twos=0, ones=0) -> list[int]:
    values = [5] * fives + [4] * fours + [3] * threes + [2] * twos + [1] * ones
    assert len(values) == N_EXPERTS, f"multiset sums to {len(values)}, want {N_EXPERTS}"
    return values


def columns_to_rows(ids: list[str], columns: dict[str, list[int]],
                    raters: list[str], rng: np.random.Generator) -> list[list]:
    shuffled = {}
    for cid in ids:
        col = list(columns[cid])
        rng.shuffle(col)
        shuffled[cid] = col
    return [[rater] + [shuffled[cid][i] for cid in ids] for i, rater in enumerate(raters)]


def gen_round1(rng: np.random.Generator) -> list[str]:
    """20 candidate indicators; screening must retain exactly the 16 keepers."""
    keepers = [item_id for item_id, _, _ in ITEMS]
    columns: dict[str, list[int]] = {}
    for i, item_id in enumerate(keepers):
        fives = 6 + (i * 3) % 7        # 6..12 full scores
        threes = 2 + i % 3             # a little disagreement
        columns[item_id] = multiset(fives=fives, threes=threes,
                                    fours=N_EXPERTS - fives - threes)
    rejects = {
        "cand.offline_manual": multiset(threes=15, twos=10),     # low mean, no full scores
        "cand.mascot_branding": multiset(threes=20, twos=5),     # low mean, no full scores
        "cand.voice_cloning": multiset(fives=13, ones=12),       # polarizing: huge CV
        "cand.vr_mode": multiset(fives=13, ones=12),             # polarizing: huge CV
    }
    columns.update(rejects)
    ids = keepers + sorted(rejects)

    stats = {cid: indicator_stats(columns[cid], 5) for cid in ids}
    verdict = screen_indicators(stats, derive_thresholds(stats))
    assert sorted(verdict.retained) == sorted(keepers), (
        f"screening drift: retained {verdict.retained}"
    )
    assert sorted(verdict.dropped) == sorted(rejects), verdict.reasons

    write_csv("ratings_round1.csv", ["expert_id"] + ids,
              columns_to_rows(ids, columns, expert_ids(), rng))
    return keepers


def tree_node_ids() -> list[str]:
    return [n.id for n in default_tree().nodes]


def gen_round2(rng: np.random.Generator) -> None:
    """All 27 final nodes rated; the means drive the scoring weights."""
    target_means = {
        "ux": 4.8, "pq": 4.2, "sp": 3.8,
        "ux.availability": 4.8, "ux.perceptibility": 4.5,
        "ux.cost_consideration": 4.0, "ux.service_experience": 4.1,
        "pq.security": 4.7, "pq.innovation": 4.0,
        "sp.ethics": 4.2, "sp.social_integration": 4.0,
    }
    columns = {}
    for i, node_id in enumerate(tree_node_ids()):
        target = target_means.get(node_id, 4.0 + (i % 5) * 0.2)
        # a multiset of 4s and 5s (plus 3s when needed) whose mean hits ~target
        fives = int(round((target - 4.0) * N_EXPERTS))
        fives = max(2, min(N_EXPERTS - 3, fives))
        threes = 2 if target < 4.3 else 1
        columns[node_id] = multiset(fives=fives, threes=threes,
                                    fours=N_EXPERTS - fives - threes)
    ids = tree_node_ids()
    write_csv("ratings_round2.csv", ["expert_id"] + ids,
              columns_to_rows(ids, columns, expert_ids(), rng))


def gen_round3(rng: np.random.Generator) -> None:
    """Same 27 nodes, tighter agreement, five experts absent (blank rows)."""
    n = ROUND3_RESPONDENTS
    columns = {}
    for i, node_id in enumerate(tree_node_ids()):
        fives = 4 + (i * 5) % 11  # 4..14 of 20
        values = [5] * fives + [4] * (n - fives)
        columns[node_id] = values
    ids = tree_node_ids()
    responding = expert_ids()[:n]
    rows = columns_to_rows(ids, columns, responding, rng)
    for eid in expert_ids()[n:]:
        rows.append([eid] + [""] * len(ids))
    write_csv("ratings_round3.csv", ["expert_id"] + ids, rows)


def gen_pairwise() -> None:
    write_csv("pairwise_dimensions.csv",
              ["id", "ux", "pq", "sp"],
              [["ux", "1", "2", "3"],
               ["pq", "1/2", "1", "2"],
               ["sp", "1/3", "1/2", "1"]])
    ux = ["ux.availability", "ux.perceptibility", "ux.cost_consideration",
          "ux.service_experience"]
    write_csv("pairwise_ux.csv",
              ["id"] + ux,
              [["ux.availability", "1", "2", "3", "2"],
               ["ux.perceptibility", "1/2", "1", "2", "1"],
               ["ux.cost_consideration", "1/3", "1/2", "1", "1/2"],
               ["ux.service_experience", "1/2", "1", "2", "1"]])


def gen_responses(rng: np.random.Generator) -> None:
    """26 older-adult respondents, one common factor, one missing answer."""
    instrument = load_default_instrument()
    n, k = 26, len(instrument.questions)
    ability = rng.normal(0.4, 1.0, size=n)           # overall satisfaction
    diffic = rng.normal(0.0, 0.4, size=k)            # per-question offsets
    noise = rng.normal(0.0, 0.8, size=(n, k))
    raw = 2.0 + 1.1 * ability[:, None] + diffic[None, :] + noise
    data = np.clip(np.rint(raw), 0, 4).astype(int)

    alpha = cronbach_alpha(data)
    assert 0.70 < alpha < 0.97, f"demo responses drifted: alpha={alpha:.3f}"

    rows = []
    for i in range(n):
        rid = f"r{i + 1:02d}"
        cells = [str(v) for v in data[i]]
        if rid == "r26":
            cells[6] = ""  # q7 left blank: exercises exclusion + imputation
        rows.append([rid] + cells)
    write_csv("responses.csv", ["respondent_id"] + [q.id for q in instrument.questions], rows)


def gen_importance(rng: np.random.Generator) -> None:
    """13 expert raters scoring the 16 items on 1-7; all items must clear 0.78."""
    items = [item_id for item_id, _, _ in ITEMS]
    n_raters = 13
    columns: dict[str, list[int]] = {}
    for i, item_id in enumerate(items):
        if item_id.endswith("function_learnability") or item_id.endswith("operation_simplicity"):
            col = [7] * 9 + [6] * 4                      # unanimous: I-CVI 1.00
        elif item_id.endswith("audio_visual_effect"):
            col = [7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6, 4, 4]  # mean 6.08, I-CVI 0.85
        elif i % 3 == 0:
            col = [7] * 6 + [6] * 6 + [4]                # I-CVI 12/13 = 0.92
        elif i % 3 == 1:
            col = [7] * 5 + [6] * 6 + [4] * 2            # I-CVI 11/13 = 0.85
        else:
            col = [7] * 7 + [6] * 6                      # I-CVI 1.00
        assert len(col) == n_raters
        columns[item_id] = col

    table = validity_report(items, list(zip(*[columns[i] for i in items])))
    assert all(item.passes for item in table.items), "an item fell below the I-CVI floor"
    assert table.s_cvi_passes, f"S-CVI drifted: {table.s_cvi:.3f}"

    rows = []
    for r in range(n_raters):
        rows.append([f"v{r + 1:02d}"] + [columns[i][r] for i in items])
    write_csv("importance.csv", ["rater_id"] + items, rows)


def gen_expert_bonus() -> None:
    rows = [
        ["e01", 4, 3],
        ["e02", 3, 3],
        ["e03", 3, 4],
        ["e04", 4, 3],
        ["e05", 3, 3],
    ]
    write_csv("expert_bonus.csv", ["expert_id", "compliance", "sociability"], rows)


def gen_indicators() -> None:
    write_csv("indicators.csv", ["id", "name", "level", "parent_id", "bonus"],
              [[n.id, n.name, n.level.value, n.parent_id or "", "true" if n.bonus else "false"]
               for n in default_tree().nodes])


def gen_config() -> None:
    config = """\
{
  "scale_max": 5,
  "indicators": "indicators.csv",
  "experts": "experts.csv",
  "rounds": [
    {"ratings": "ratings_round1.csv", "screen": true},
    {"ratings": "ratings_round2.csv"},
    {"ratings": "ratings_round3.csv"}
  ],
  "weights": {
    "method": "combined",
    "pairwise": {
      "root": "pairwise_dimensions.csv",
      "ux": "pairwise_ux.csv"
    },
    "importance_round": 2
  },
  "reliability": {"responses": "responses.csv"},
  "validity": {"importance": "importance.csv"},
  "score": {"responses": "responses.csv", "bonus": "expert_bonus.csv", "bonus_cap": 10}
}
"""
    (DATA_DIR / "demo_config.json").write_text(config, encoding="utf-8")


def main(argv=None) -> int:
    # No options: parsing only answers --help and rejects unknown flags before anything is written.
    argparse.ArgumentParser(
        description="Regenerate the bundled synthetic sample dataset under src/stagekit/data/."
    ).parse_args(argv)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    gen_experts()
    gen_round1(rng)
    gen_round2(rng)
    gen_round3(rng)
    gen_pairwise()
    gen_responses(rng)
    gen_importance(rng)
    gen_expert_bonus()
    gen_indicators()
    gen_config()

    # Health check: the pipeline must run fast and byte-deterministically.
    config = DATA_DIR / "demo_config.json"
    t0 = time.monotonic()
    first = render_json(run_pipeline(config))
    second = render_json(run_pipeline(config))
    elapsed = time.monotonic() - t0
    assert first == second, "pipeline output is not deterministic"
    assert elapsed < 5.0, f"two pipeline runs took {elapsed:.2f}s"
    print(f"wrote {len(list(DATA_DIR.iterdir()))} files to {DATA_DIR}")
    print(f"two pipeline runs: {elapsed:.2f}s, byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
