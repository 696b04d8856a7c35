import numpy as np
import pytest

from oracles import geometric_mean_weights, lambda_max_oracle
from stagekit import (
    DegenerateDataError,
    IncompleteWeightsError,
    IndicatorNode,
    IndicatorTree,
    InvalidInputError,
    Level,
    PairwiseMatrix,
    UnsupportedOrderError,
    combine_weights,
    compose_global,
    consistency_ratio,
    default_tree,
    demo_weighted_tree,
    importance_weights,
    principal_weights,
    weight_tree,
)
from stagekit.ahp import is_acceptable
from stagekit.instrument import DEMO_LOCAL_WEIGHTS


def matrix_of(entries, ids=None):
    n = len(entries)
    ids = tuple(ids or (f"n{i}" for i in range(n)))
    return PairwiseMatrix(ids=ids, entries=tuple(tuple(row) for row in entries))


def random_consistent_matrix(rng, n):
    """a_ij = w_i / w_j for a random positive w; ratios stay inside [1/9, 9]."""
    w = rng.uniform(1.0, 3.0, size=n)
    entries = [[w[i] / w[j] for j in range(n)] for i in range(n)]
    return w / w.sum(), matrix_of(entries)


def random_reciprocal_matrix(rng, n):
    """Upper triangle drawn from the 1..9 scale and reciprocals, diagonal 1."""
    scale = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    entries = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = float(rng.choice(scale))
            if rng.integers(0, 2):
                v = 1.0 / v
            entries[i][j] = v
            entries[j][i] = 1.0 / v
    return matrix_of(entries)


class TestPairwiseMatrix:
    def test_valid_matrix_accepted(self):
        m = matrix_of([[1, 3], [1 / 3, 1]])
        assert m.n == 2
        assert m.array().shape == (2, 2)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_of([[1, 2]], ids=("a", "b"))

    def test_bad_diagonal_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_of([[2, 1], [1, 1]])

    def test_non_reciprocal_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_of([[1, 3], [1 / 2, 1]])

    def test_out_of_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_of([[1, 12], [1 / 12, 1]])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            matrix_of([[1, 1], [1, 1]], ids=("a", "a"))

    def test_reciprocal_tolerance(self):
        # Reciprocal within 1e-9 passes; beyond it fails.
        matrix_of([[1, 3], [1 / 3 + 1e-11, 1]])
        with pytest.raises(InvalidInputError):
            matrix_of([[1, 3], [1 / 3 + 1e-7, 1]])


class TestPrincipalWeights:
    def test_order_two(self):
        w, lam = principal_weights(matrix_of([[1, 3], [1 / 3, 1]]))
        assert w == pytest.approx((0.75, 0.25), abs=1e-12)
        assert lam == pytest.approx(2.0, abs=1e-9)

    def test_consistent_order_three(self):
        m = matrix_of([[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]])
        w, lam = principal_weights(m)
        assert w == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-12)
        assert lam == pytest.approx(3.0, abs=1e-9)

    def test_all_ones_uniform(self):
        for n in (2, 3, 5, 9):
            m = matrix_of([[1.0] * n for _ in range(n)])
            w, lam = principal_weights(m)
            assert w == pytest.approx(tuple([1 / n] * n), abs=1e-12)
            assert lam == pytest.approx(n, abs=1e-9)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = random_reciprocal_matrix(rng, int(rng.integers(2, 9)))
            w, _ = principal_weights(m)
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(x > 0 for x in w)

    def test_recovers_weights_of_consistent_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            expected, m = random_consistent_matrix(rng, n)
            w, lam = principal_weights(m)
            assert np.max(np.abs(np.asarray(w) - expected)) < 1e-9
            assert lam == pytest.approx(n, abs=1e-9)

    def test_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            m = random_reciprocal_matrix(rng, int(rng.integers(3, 8)))
            _, lam = principal_weights(m)
            assert lam == pytest.approx(lambda_max_oracle(m.entries), abs=1e-9)

    def test_matches_geometric_means_on_consistent_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            _, m = random_consistent_matrix(rng, int(rng.integers(2, 8)))
            w, _ = principal_weights(m)
            assert np.max(np.abs(np.asarray(w) - geometric_mean_weights(m.entries))) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        base = random_reciprocal_matrix(rng, 5)
        w_base, lam_base = principal_weights(base)
        perm = rng.permutation(5)
        arr = base.array()[np.ix_(perm, perm)]
        permuted = matrix_of(arr.tolist(), ids=tuple(base.ids[i] for i in perm))
        w_perm, lam_perm = principal_weights(permuted)
        assert lam_perm == pytest.approx(lam_base, abs=1e-9)
        for i, j in enumerate(perm):
            assert w_perm[i] == pytest.approx(w_base[j], abs=1e-9)

    def test_lambda_max_at_least_n(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            _, lam = principal_weights(random_reciprocal_matrix(rng, n))
            assert lam >= n - 1e-9

    def test_order_one_rejected(self):
        with pytest.raises(InvalidInputError):
            principal_weights(matrix_of([[1.0]]))

    def test_oversized_matrix_rejected(self):
        n = 16
        with pytest.raises(UnsupportedOrderError):
            principal_weights(matrix_of([[1.0] * n for _ in range(n)]))


class TestConsistencyRatio:
    def test_consistent_three(self):
        ci, cr = consistency_ratio(3.0, 3)
        assert ci == 0.0
        assert cr == 0.0

    def test_order_two_always_zero(self):
        ci, cr = consistency_ratio(2.0, 2)
        assert cr == 0.0

    def test_perturbed_three(self):
        # One judgment nudged off the consistent value.
        m = matrix_of([[1, 2, 4], [0.5, 1, 3], [0.25, 1 / 3, 1]])
        w, lam = principal_weights(m)
        ci, cr = consistency_ratio(lam, 3)
        assert lam == pytest.approx(lambda_max_oracle(m.entries), abs=1e-9)
        assert ci == pytest.approx((lam - 3) / 2, abs=1e-15)
        assert cr == pytest.approx(ci / 0.58, abs=1e-12)
        assert is_acceptable(cr)

    def test_known_random_indices(self):
        for n, ri in [(3, 0.58), (4, 0.90), (5, 1.12), (9, 1.45)]:
            ci, cr = consistency_ratio(n + 0.29, n)
            assert cr == pytest.approx(((n + 0.29) - n) / (n - 1) / ri, abs=1e-12)

    def test_acceptability_threshold(self):
        assert is_acceptable(0.099)
        assert not is_acceptable(0.1)
        assert not is_acceptable(0.3)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        message = rf"^lambda_max {lam!r}: expected a finite number >= matrix order 3$"
        with pytest.raises(InvalidInputError, match=message):
            consistency_ratio(lam, 3)

    def test_lambda_below_order_rejected(self):
        with pytest.raises(InvalidInputError):
            consistency_ratio(2.9, 3)

    def test_unsupported_order_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            consistency_ratio(10.5, 10)

    def test_rayleigh_rounding_slack(self):
        # lambda_max a hair under n from floating error is fine.
        ci, cr = consistency_ratio(3.0 - 1e-10, 3)
        assert cr <= 0.0


class TestImportanceWeights:
    def test_two_items(self):
        assert importance_weights([6.0, 2.0]) == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_equal_means(self):
        assert importance_weights([5.0, 5.0, 5.0]) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15
        )

    def test_singleton(self):
        assert importance_weights([4.2]) == (1.0,)

    def test_sum_is_one(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            means = rng.uniform(1, 7, size=int(rng.integers(1, 10))).tolist()
            assert sum(importance_weights(means)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mean", [np.nan, np.inf])
    def test_non_finite_rejected(self, mean):
        with pytest.raises(InvalidInputError, match="^importance means must all be positive and finite$"):
            importance_weights([1.0, mean])

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            importance_weights([5.0, 0.0])
        with pytest.raises(InvalidInputError):
            importance_weights([])


class TestCombineWeights:
    def test_reported_example(self):
        combined = combine_weights((0.5, 0.5), (0.75, 0.25))
        assert combined == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_uniform_scoring_returns_ahp(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            ahp = rng.dirichlet(np.ones(n))
            combined = combine_weights([1 / n] * n, ahp.tolist())
            assert np.max(np.abs(np.asarray(combined) - ahp)) < 1e-12

    def test_rescaling_invariance(self):
        # Scaling either factor by a constant cannot change the output.
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = rng.uniform(0.1, 5, size=n)
            b = rng.uniform(0.1, 5, size=n)
            base = combine_weights(a.tolist(), b.tolist())
            scaled = combine_weights((7.3 * a).tolist(), (0.002 * b).tolist())
            assert np.max(np.abs(np.asarray(base) - scaled)) < 1e-12

    def test_commutative(self):
        a, b = (0.2, 0.3, 0.5), (0.6, 0.3, 0.1)
        assert combine_weights(a, b) == pytest.approx(combine_weights(b, a), abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_weights((0.5, 0.5), (1.0,))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_weights((-0.1, 1.1), (0.5, 0.5))

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_rejected(self, weight):
        for a, b in [((0.5, weight), (0.5, 0.5)), ((0.5, 0.5), (weight, 0.5))]:
            with pytest.raises(InvalidInputError, match="^weights must be non-negative and finite$"):
                combine_weights(a, b)

    def test_all_zero_products_degenerate(self):
        with pytest.raises(DegenerateDataError):
            combine_weights((1.0, 0.0), (0.0, 1.0))


def two_level_tree():
    return IndicatorTree(nodes=(
        IndicatorNode(id="d1", name="D1", level=Level.DIMENSION, local_weight=0.6),
        IndicatorNode(id="d2", name="D2", level=Level.DIMENSION, local_weight=0.4),
        IndicatorNode(id="d1.a", name="A", level=Level.INDEX, parent_id="d1", local_weight=0.5),
        IndicatorNode(id="d1.b", name="B", level=Level.INDEX, parent_id="d1", local_weight=0.5),
        IndicatorNode(id="d2.c", name="C", level=Level.INDEX, parent_id="d2", local_weight=1.0),
    ))


class TestComposeGlobal:
    def test_two_level_products(self):
        tree = compose_global(two_level_tree())
        assert tree.node("d1").global_weight == pytest.approx(0.6, abs=1e-15)
        assert tree.node("d1.a").global_weight == pytest.approx(0.3, abs=1e-15)
        assert tree.node("d1.b").global_weight == pytest.approx(0.3, abs=1e-15)
        assert tree.node("d2.c").global_weight == pytest.approx(0.4, abs=1e-15)

    def test_leaf_weights_sum_to_one(self):
        tree = compose_global(demo_weighted_tree())
        leaf_sum = sum(
            n.global_weight
            for n in tree.leaves()
            if not n.bonus
        )
        assert leaf_sum == pytest.approx(1.0, abs=1e-9)

    def test_demo_tree_globals_are_the_path_products(self):
        tree = demo_weighted_tree()
        for node in tree.nodes:
            product, parent_id = DEMO_LOCAL_WEIGHTS[node.id], node.parent_id
            while parent_id is not None:
                product *= DEMO_LOCAL_WEIGHTS[parent_id]
                parent_id = tree.node(parent_id).parent_id
            assert node.local_weight == DEMO_LOCAL_WEIGHTS[node.id]
            assert node.global_weight.hex() == product.hex(), node.id

    def test_children_sum_to_parent_global(self):
        tree = compose_global(demo_weighted_tree())
        for parent_id, members in tree.sibling_groups():
            if parent_id is None:
                continue
            core = [n for n in members if not n.bonus]
            if not core:
                continue
            total = sum(n.global_weight for n in core)
            assert total == pytest.approx(tree.node(parent_id).global_weight, abs=1e-12)

    def test_missing_weight_rejected(self):
        tree = IndicatorTree(nodes=(
            IndicatorNode(id="d1", name="D1", level=Level.DIMENSION, local_weight=1.0),
            IndicatorNode(id="d1.a", name="A", level=Level.INDEX, parent_id="d1"),
        ))
        with pytest.raises(IncompleteWeightsError):
            compose_global(tree)

    def test_bad_group_sum_rejected(self):
        tree = IndicatorTree(nodes=(
            IndicatorNode(id="d1", name="D1", level=Level.DIMENSION, local_weight=0.7),
            IndicatorNode(id="d2", name="D2", level=Level.DIMENSION, local_weight=0.7),
        ))
        with pytest.raises(InvalidInputError):
            compose_global(tree)

    def test_bonus_nodes_ignored(self):
        nodes = list(two_level_tree().nodes)
        nodes.append(IndicatorNode(id="x", name="Extra", level=Level.DIMENSION, bonus=True))
        extra = compose_global(IndicatorTree(nodes=tuple(nodes))).node("x")
        assert extra.global_weight is None
        assert extra.local_weight is None


class TestWeightTree:
    def tree(self):
        return IndicatorTree(nodes=(
            IndicatorNode(id="d1", name="D1", level=Level.DIMENSION),
            IndicatorNode(id="d2", name="D2", level=Level.DIMENSION),
            IndicatorNode(id="d1.a", name="A", level=Level.INDEX, parent_id="d1"),
            IndicatorNode(id="d1.b", name="B", level=Level.INDEX, parent_id="d1"),
            IndicatorNode(id="d2.c", name="C", level=Level.INDEX, parent_id="d2"),
        ))

    def test_ahp_method(self):
        pairwise = {
            None: matrix_of([[1, 3], [1 / 3, 1]], ids=("d1", "d2")),
            "d1": matrix_of([[1, 1], [1, 1]], ids=("d1.a", "d1.b")),
        }
        weighted, consistency = weight_tree(self.tree(), pairwise=pairwise, method="ahp")
        assert weighted.node("d1").local_weight == pytest.approx(0.75, abs=1e-9)
        assert weighted.node("d1.a").local_weight == pytest.approx(0.5, abs=1e-12)
        # Singleton group gets weight 1 without a matrix.
        assert weighted.node("d2.c").local_weight == 1.0
        assert weighted.node("d1.a").global_weight == pytest.approx(0.375, abs=1e-9)
        assert {c.parent_id for c in consistency} == {None, "d1"}

    def test_scoring_method(self):
        importance = {"d1": 6.0, "d2": 2.0, "d1.a": 5.0, "d1.b": 5.0, "d2.c": 3.0}
        weighted, consistency = weight_tree(self.tree(), importance=importance, method="scoring")
        assert weighted.node("d1").local_weight == pytest.approx(0.75, abs=1e-15)
        assert weighted.node("d1.b").local_weight == pytest.approx(0.5, abs=1e-15)
        assert consistency == ()

    def test_combined_method_multiplies(self):
        pairwise = {None: matrix_of([[1, 3], [1 / 3, 1]], ids=("d1", "d2"))}
        importance = {"d1": 5.0, "d2": 5.0, "d1.a": 6.0, "d1.b": 2.0, "d2.c": 3.0}
        weighted, _ = weight_tree(
            self.tree(), pairwise=pairwise, importance=importance, method="combined"
        )
        # Dimension group: uniform scoring x (0.75, 0.25) AHP -> unchanged.
        assert weighted.node("d1").local_weight == pytest.approx(0.75, abs=1e-9)
        # d1 group: no matrix, scoring alone decides.
        assert weighted.node("d1.a").local_weight == pytest.approx(0.75, abs=1e-15)

    def test_ahp_method_requires_every_matrix(self):
        pairwise = {None: matrix_of([[1, 3], [1 / 3, 1]], ids=("d1", "d2"))}
        with pytest.raises(IncompleteWeightsError):
            weight_tree(self.tree(), pairwise=pairwise, method="ahp")

    def test_combined_requires_some_source(self):
        with pytest.raises(IncompleteWeightsError):
            weight_tree(self.tree(), method="combined")

    def test_mismatched_matrix_ids_rejected(self):
        pairwise = {None: matrix_of([[1, 3], [1 / 3, 1]], ids=("d1", "wrong"))}
        with pytest.raises(InvalidInputError):
            weight_tree(self.tree(), pairwise=pairwise, method="ahp")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            weight_tree(self.tree(), method="entropy")

    @pytest.mark.parametrize("method", [["ahp"], {}], ids=["list", "dict"])
    def test_non_string_method_rejected(self, method):
        with pytest.raises(InvalidInputError) as exc:
            weight_tree(self.tree(), method=method)
        assert str(exc.value) == f"unknown weighting method {method!r}"

    def test_default_tree_weightable_end_to_end(self):
        tree = default_tree()
        importance = {
            n.id: 5.0 + (hash(n.id) % 7) / 10.0
            for n in tree.nodes
            if not n.bonus
        }
        weighted, _ = weight_tree(tree, importance=importance, method="scoring")
        leaf_sum = sum(
            n.global_weight for n in weighted.leaves() if not n.bonus
        )
        assert leaf_sum == pytest.approx(1.0, abs=1e-9)


class TestWeightTreeSourceRule:
    """Which weight source each method takes for a two-member sibling group,
    pinned exactly: the weights equal the source functions' own output and
    a missing source is named in the error."""

    MATRIX = matrix_of([[1, 3], [1 / 3, 1]], ids=("d1.b", "d1.a"))  # not in member order
    MEANS = {"d1.a": 6.0, "d1.b": 3.0}

    def tree(self):
        return IndicatorTree(nodes=(
            IndicatorNode(id="d1", name="D1", level=Level.DIMENSION),
            IndicatorNode(id="d1.a", name="A", level=Level.INDEX, parent_id="d1"),
            IndicatorNode(id="d1.b", name="B", level=Level.INDEX, parent_id="d1"),
        ))

    def ahp(self):
        weights, _ = principal_weights(self.MATRIX)
        by_id = dict(zip(self.MATRIX.ids, weights))
        return (by_id["d1.a"], by_id["d1.b"])

    def scoring(self):
        return importance_weights([self.MEANS["d1.a"], self.MEANS["d1.b"]])

    @pytest.mark.parametrize("method, sources, expected", [
        ("ahp", "matrix", "ahp"),
        ("ahp", "means", "no pairwise matrix for children of d1"),
        ("ahp", "both", "ahp"),
        ("ahp", "neither", "no pairwise matrix for children of d1"),
        ("scoring", "matrix", "no importance means for children of d1"),
        ("scoring", "means", "scoring"),
        ("scoring", "both", "scoring"),
        ("scoring", "neither", "no importance means for children of d1"),
        ("combined", "matrix", "ahp"),
        ("combined", "means", "scoring"),
        ("combined", "both", "combined"),
        ("combined", "neither", "no pairwise matrix or importance means for children of d1"),
    ])
    def test_method_takes_its_sources(self, method, sources, expected):
        pairwise = {"d1": self.MATRIX} if sources in ("matrix", "both") else {}
        importance = self.MEANS if sources in ("means", "both") else {}
        if expected.startswith("no "):
            with pytest.raises(IncompleteWeightsError) as exc:
                weight_tree(self.tree(), pairwise=pairwise, importance=importance, method=method)
            assert str(exc.value) == expected
            return
        weighted, consistency = weight_tree(self.tree(), pairwise=pairwise, importance=importance,
                                            method=method)
        want = {
            "ahp": self.ahp,
            "scoring": self.scoring,
            "combined": lambda: combine_weights(self.scoring(), self.ahp()),
        }[expected]()
        assert (weighted.node("d1.a").local_weight, weighted.node("d1.b").local_weight) == tuple(want)
        assert weighted.node("d1").local_weight == 1.0  # the one-member dimension group
        # every matrix given adds its consistency row, whatever the method
        assert [c.parent_id for c in consistency] == (["d1"] if pairwise else [])

    @pytest.mark.parametrize("method", ["ahp", "scoring", "combined"])
    def test_means_for_part_of_a_group_rejected(self, method):
        with pytest.raises(IncompleteWeightsError) as exc:
            weight_tree(self.tree(), pairwise={"d1": self.MATRIX}, importance={"d1.b": 3.0},
                        method=method)
        assert str(exc.value) == "importance means for children of d1 miss d1.a"

    def test_one_member_group_takes_one(self):
        pairwise = {None: matrix_of([[1]], ids=("d1",)), "d1": self.MATRIX}
        importance = {"d1": 4.0, **self.MEANS}
        for method in ("ahp", "scoring", "combined"):
            weighted, _ = weight_tree(self.tree(), pairwise=pairwise, importance=importance,
                                      method=method)
            assert weighted.node("d1").local_weight == 1.0

    @pytest.mark.parametrize("key, label", [("dx", "children of dx"), ("d1.a", "children of d1.a")],
                             ids=["unknown-id", "leaf"])
    def test_key_naming_no_sibling_group_rejected(self, key, label):
        pairwise = {"d1": self.MATRIX, key: self.MATRIX}
        with pytest.raises(InvalidInputError) as exc:
            weight_tree(self.tree(), pairwise=pairwise, importance=self.MEANS)
        assert str(exc.value) == f"pairwise matrix for {label}: no such sibling group in the indicator tree"

    def test_one_member_group_matrix_ids_checked(self):
        pairwise = {None: self.MATRIX, "d1": self.MATRIX}
        with pytest.raises(InvalidInputError) as exc:
            weight_tree(self.tree(), pairwise=pairwise, method="ahp")
        assert str(exc.value) == "pairwise matrix ids ['d1.a', 'd1.b'] do not match the dimension group ['d1']"

    def test_group_labels(self):
        tree = IndicatorTree(nodes=(
            IndicatorNode(id="d1", name="D1", level=Level.DIMENSION),
            IndicatorNode(id="d2", name="D2", level=Level.DIMENSION),
        ))
        with pytest.raises(IncompleteWeightsError) as exc:
            weight_tree(tree, method="ahp")
        assert str(exc.value) == "no pairwise matrix for the dimension group"
        wrong = {"d1": matrix_of([[1, 3], [1 / 3, 1]], ids=("d1.a", "x"))}
        with pytest.raises(InvalidInputError) as exc:
            weight_tree(self.tree(), pairwise=wrong, method="ahp")
        assert str(exc.value) == (
            "pairwise matrix ids ['d1.a', 'x'] do not match children of d1 ['d1.a', 'd1.b']"
        )
