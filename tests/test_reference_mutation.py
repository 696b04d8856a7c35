"""References from one demo input to another, renamed or dropped one at a time.

One reference is changed: a ``weights.pairwise`` key, an id of a pairwise
matrix, an importance column, a ratings column of any round, or
``importance_round``. The pipeline then either fails as the exit-code contract
says (exit 2 or 3, one ``error:`` line, no output file), or succeeds with a
bundle that shows what was used: one consistency row per pairwise key given,
the importance header as the validity items, and each round's ratings header
as its indicators. What it used must also be whole: validity items are items of
the bundled instrument, and the importance round rates each sibling group of the
tree in full or not at all.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stagekit.instrument import ITEMS
from stagekit.io import parse_indicators
from test_hostile_input import CONFIG, DATA, assert_contract, demo_copy, run_main


PAIRWISE = CONFIG["weights"]["pairwise"]  # group -> matrix file
RATINGS = [entry["ratings"] for entry in CONFIG["rounds"]]
IMPORTANCE = CONFIG["validity"]["importance"]
TREE = parse_indicators(DATA / CONFIG["indicators"])
TREE_IDS = [node.id for node in TREE.nodes]


def new_name(old):
    """What a reference is renamed to: another id of the tree, a near miss, or an id of nothing."""
    return st.sampled_from([*TREE_IDS, "root", old + "x", old[:-1], "ghost"]).filter(lambda n: n != old)


@st.composite
def column_edits(draw, name, mirrored=False):
    """(file name, new bytes) for a CSV with one id column renamed or dropped.

    A pairwise matrix is ``mirrored``: its row ids repeat the header, so the
    row of the id is renamed or dropped with its column.
    """
    rows = [line.split(",") for line in (DATA / name).read_text(encoding="utf-8").splitlines()]
    j = draw(st.integers(1, len(rows[0]) - 1))
    old = rows[0][j]
    new = draw(st.one_of(st.none(), new_name(old)))  # None drops the column
    if new is None:
        rows = [row[:j] + row[j + 1:] for row in rows if not (mirrored and row[0] == old)]
    else:
        rows[0][j] = new
        for row in rows[1:]:
            if mirrored and row[0] == old:
                row[0] = new
    return name, "".join(",".join(row) + "\n" for row in rows).encode()


@st.composite
def config_edits(draw):
    """(file name, new bytes) for the config with one pairwise key or its importance_round changed."""
    config = json.loads(json.dumps(CONFIG))
    weights = config["weights"]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(PAIRWISE)))
        path = weights["pairwise"].pop(key)
        new = draw(st.one_of(st.none(), new_name(key)))
        assume(new not in weights["pairwise"])
        if new is not None:
            weights["pairwise"][new] = path
    else:
        weights["importance_round"] = draw(st.sampled_from([None, 1, 3, 4]))  # None drops it
        if weights["importance_round"] is None:
            del weights["importance_round"]
    return "demo_config.json", json.dumps(config).encode()


def header(work, name):
    return (work / name).read_text(encoding="utf-8").splitlines()[0].split(",")[1:]


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    config_edits(),
    st.sampled_from(sorted(PAIRWISE.values())).flatmap(lambda name: column_edits(name, mirrored=True)),
    column_edits(IMPORTANCE),
    st.sampled_from(RATINGS).flatmap(column_edits),
))
def test_changed_reference_fails_or_shows_what_was_used(tmp_path_factory, edit):
    name, data = edit
    work = demo_copy(tmp_path_factory)
    (work / name).write_bytes(data)
    out = work / "out" / "bundle.json"
    rc, stdout, stderr = run_main(["pipeline", "--config", str(work / "demo_config.json"),
                                   "--out", str(out)])
    assert_contract(rc, stdout, stderr)
    assert out.exists() == (rc == 0)
    if rc != 0:
        return
    bundle = json.loads(out.read_text(encoding="utf-8"))
    config = json.loads((work / "demo_config.json").read_text(encoding="utf-8"))
    groups = [g["group"] for g in bundle["weights"]["consistency"]]
    assert sorted(groups) == sorted(config["weights"]["pairwise"])
    assert [i["item_id"] for i in bundle["validity"]["items"]] == header(work, IMPORTANCE)
    for rnd, ratings in zip(bundle["rounds"], RATINGS, strict=True):
        assert [s["id"] for s in rnd["indicators"]] == header(work, ratings)
    assert set(header(work, IMPORTANCE)) <= {item_id for item_id, _, _ in ITEMS}
    if "importance_round" in config["weights"]:
        rated = set(header(work, RATINGS[config["weights"]["importance_round"] - 1]))
        for _, members in TREE.sibling_groups():
            assert len({m.id in rated for m in members if not m.bonus}) == 1
