import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrawave as uw
from ultrawave.ball_tree import BallSpec, TreeSpec
from ultrawave.certify import random_tree


def _children(tree, ball):
    """Preorder numbers of the children of ball number ``ball``."""
    first = tree.first_child[ball]
    return tree.kids[first : first + tree.child_count[ball]]


def _spec(entries, leaf_measures=None):
    return TreeSpec(
        balls=tuple(BallSpec(*entry) for entry in entries),
        leaf_measures=leaf_measures,
    )


# -- construction -------------------------------------------------------------


def test_uniform_binary_additivity():
    # leaf measures 1/4 each; internal measures recomputed from the leaves
    tree = uw.build_tree(
        _spec(
            [
                ("r", None, 1.0),
                ("r0", "r", 0.5),
                ("r1", "r", 0.5),
                ("r00", "r0", 0.25),
                ("r01", "r0", 0.25),
                ("r10", "r1", 0.25),
                ("r11", "r1", 0.25),
            ],
            leaf_measures={k: 0.25 for k in ["r00", "r01", "r10", "r11"]},
        )
    )
    assert tree.total_measure == 1.0
    assert tree.measure[tree.index("r0")] == 0.5
    assert tree.measure[tree.index("r1")] == 0.5


@pytest.mark.parametrize(
    "p, depth, total, n_leaves, leaf_measure",
    [(2, 1, 1.0, 2, 0.5), (3, 2, 1.0, 9, 1.0 / 9.0), (2, 3, 4.0, 8, 0.5)],
)
def test_padic_preset(p, depth, total, n_leaves, leaf_measure):
    tree = uw.build_tree(uw.padic_preset(p, depth, total))
    assert tree.n_leaves == n_leaves
    np.testing.assert_allclose(tree.leaf_measures, leaf_measure, rtol=1e-15)
    # total recovered by summation
    assert abs(tree.leaf_measures.sum() - total) <= 1e-12 * total
    assert tree.diameter[tree.index(tree.root)] == 1.0
    leaf = tree.index(tree.leaves[0])
    assert tree.diameter[leaf] == pytest.approx(float(p) ** -depth, rel=1e-15)


def test_padic_preset_p3_depth1():
    tree = uw.build_tree(uw.padic_preset(3, 1, 1.0))
    assert tree.child_count[tree.index("r")] == 3
    np.testing.assert_allclose(tree.leaf_measures, 1.0 / 3.0, rtol=1e-15)
    assert abs(tree.total_measure - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "p, depth, total", [(1, 1, 1.0), (2, 0, 1.0), (2, 1, 0.0), (2, 1, math.inf)]
)
def test_padic_preset_rejects_bad_parameters(p, depth, total):
    with pytest.raises(ValueError):
        uw.padic_preset(p, depth, total)


def test_declared_internal_measure_inconsistent():
    spec = _spec(
        [
            ("r", None, 1.0, 1.0),
            ("a", "r", 0.5, 0.9),
            ("b", "r", 0.5, 0.1),
            ("a0", "a", 0.25, 0.25),
            ("a1", "a", 0.25, 0.25),
        ]
    )
    with pytest.raises(uw.InvalidTreeError, match="'a'"):
        uw.build_tree(spec)


def test_declared_measures_consistent_are_accepted():
    tree = uw.build_tree(uw.padic_preset(3, 2, 1.0))  # preset declares all measures
    for ball in tree.internal_balls:
        child_sum = sum(tree.measure[_children(tree, ball)].tolist())
        assert tree.measure[ball] == child_sum  # recomputed exactly


@pytest.mark.parametrize(
    "entries, leaf_measures, fragment",
    [
        # non-positive measure
        ([("r", None, 1.0), ("a", "r", 0.5, 0.0), ("b", "r", 0.5, 1.0)], None, "measure"),
        # non-positive diameter
        ([("r", None, 1.0), ("a", "r", -0.5, 1.0), ("b", "r", 0.5, 1.0)], None, "diameter"),
        # diameter must strictly decrease
        ([("r", None, 1.0), ("a", "r", 1.0, 1.0), ("b", "r", 0.5, 1.0)], None, "decrease"),
        # single child
        (
            [("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5), ("a0", "a", 0.25)],
            {"a0": 1.0, "b": 1.0},
            "single child",
        ),
        # leaf without measure
        ([("r", None, 1.0), ("a", "r", 0.5), ("b", "r", 0.5, 1.0)], None, "no measure"),
        # leaf_measures naming an internal ball
        (
            [("r", None, 1.0), ("a", "r", 0.5, 1.0), ("b", "r", 0.5, 1.0)],
            {"r": 2.0},
            "internal",
        ),
        # leaf_measures naming an unknown ball
        (
            [("r", None, 1.0), ("a", "r", 0.5, 1.0), ("b", "r", 0.5, 1.0)],
            {"zz": 2.0},
            "unknown",
        ),
        # finite leaf measures whose sum overflows
        ([("r", None, 1.0), ("a", "r", 0.5, 1e308), ("b", "r", 0.5, 1e308)], None, "overflow"),
    ],
)
def test_build_rejects_value_violations(entries, leaf_measures, fragment):
    with pytest.raises(uw.InvalidTreeError, match=fragment):
        uw.build_tree(_spec(entries, leaf_measures))


@pytest.mark.parametrize(
    "entries, fragment",
    [
        ([("r", None, 1.0, 1.0), ("s", None, 1.0, 1.0)], "one root"),
        ([("a", "b", 1.0, 1.0), ("b", "a", 2.0, 1.0)], "one root"),
        ([("r", None, 1.0), ("a", "zz", 0.5, 1.0), ("b", "r", 0.5, 1.0)], "unknown parent"),
        ([("r", None, 1.0), ("a", "a", 0.5, 1.0), ("b", "r", 0.5, 1.0)], "own parent"),
        ([("r", None, 1.0, 1.0), ("r", None, 1.0, 1.0)], "duplicate"),
        (
            [
                ("r", None, 1.0, 1.0),
                ("a", "b", 0.5, 1.0),
                ("b", "a", 0.6, 1.0),
            ],
            "reachable",
        ),
    ],
)
def test_build_rejects_structural_violations(entries, fragment):
    with pytest.raises(uw.InvalidTreeError, match=fragment):
        uw.build_tree(_spec(entries))


def test_violations_are_collected():
    spec = _spec(
        [
            ("r", None, 1.0),
            ("a", "r", 2.0, -1.0),
            ("b", "r", 0.5, 1.0),
        ]
    )
    with pytest.raises(uw.InvalidTreeError) as excinfo:
        uw.build_tree(spec)
    assert len(excinfo.value.violations) >= 2  # bad diameter and bad measure


# -- JSON form ----------------------------------------------------------------


def test_tree_spec_from_dict_balls(tmp_path):
    doc = {
        "balls": [
            {"id": "r", "parent": None, "diameter": 1.0},
            {"id": "a", "parent": "r", "diameter": 0.5},
            {"id": "b", "parent": "r", "diameter": 0.5},
        ],
        "leaf_measures": {"a": 0.25, "b": 0.75},
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    tree = uw.build_tree(uw.load_tree_spec(path))
    assert tree.leaves == ("a", "b")
    assert tree.total_measure == 1.0


def test_tree_spec_from_dict_preset():
    spec = uw.tree_spec_from_dict({"preset": {"type": "padic", "p": 2, "depth": 1}})
    tree = uw.build_tree(spec)
    assert tree.n_leaves == 2


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"balls": [], "preset": None},
        {
            "balls": [{"id": "r", "parent": None, "diameter": 1.0}],
            "preset": {"type": "padic", "p": 2, "depth": 1},
        },
        {"preset": {"type": "mystery", "p": 2, "depth": 1}},
    ],
)
def test_tree_spec_from_dict_rejects(doc):
    with pytest.raises(uw.InvalidTreeError):
        uw.tree_spec_from_dict(doc)


# -- sup and support ----------------------------------------------------------


def test_sup_examples(binary_tree):
    assert binary_tree.sup("r.0.0", "r.0.1") == "r.0"
    assert binary_tree.sup("r.0.0", "r.1.1") == "r"
    assert binary_tree.sup("r.0.0", "r.0.0") == "r.0.0"
    assert binary_tree.sup("r.0.0", "r.1") == "r"
    assert binary_tree.sup("r", "r.0.1") == "r"


def test_sup_symmetric(binary_tree):
    for a in binary_tree.leaves:
        for b in binary_tree.leaves:
            assert binary_tree.sup(a, b) == binary_tree.sup(b, a)


def test_sup_unknown_id(binary_tree):
    with pytest.raises(ValueError, match="unknown ball id"):
        binary_tree.sup("r.0.0", "nope")


def test_ball_support_empty(binary_tree):
    assert binary_tree.ball_support(np.zeros(4)) is None


def test_ball_support_single_leaf(binary_tree):
    values = np.zeros(4)
    values[2] = 3.0
    assert binary_tree.ball_support(values) == "r.1.0"


def test_ball_support_wavelet_is_its_ball(binary_tree):
    basis = uw.build_basis(binary_tree)
    for wavelet in basis.wavelets:
        assert binary_tree.ball_support(wavelet.vector) == wavelet.ball


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ball_support_rejects_non_finite_values(binary_tree, bad):
    with pytest.raises(ValueError, match=r"value at leaf 'r\.1\.0' is not finite"):
        binary_tree.ball_support([1.0, -1.0, bad, 0.0])


def test_ball_support_rejects_negative_tol(binary_tree):
    with pytest.raises(ValueError, match="nonnegative"):
        binary_tree.ball_support(np.ones(4), tol=-1.0)
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        binary_tree.ball_support(np.ones(4), tol=float("nan"))


def test_leaf_order_is_depth_first(binary_tree):
    assert binary_tree.leaves == ("r.0.0", "r.0.1", "r.1.0", "r.1.1")
    assert binary_tree.internal == ("r", "r.0", "r.1")
    assert binary_tree.depth == 2
    assert binary_tree.leaf_slice("r.1") == slice(2, 4)


def test_leaf_values_length_checked(binary_tree):
    with pytest.raises(ValueError, match="4 values"):
        binary_tree.as_leaf_values([1.0, 2.0])


# -- metric properties --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_leaf_metric_is_ultrametric(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, min_leaves=3, max_leaves=40)
    leaves = tree.leaves
    for _ in range(20):
        a, b, c = (leaves[int(rng.integers(len(leaves)))] for _ in range(3))
        dab, dbc, dac = tree.distance(a, b), tree.distance(b, c), tree.distance(a, c)
        assert dab >= 0 and dab == tree.distance(b, a)
        assert (dab == 0) == (a == b)
        assert dac <= max(dab, dbc) + 1e-15
        # equivalent depth form of the strong triangle inequality
        if a != b and b != c and a != c:
            ac, ab, bc = (
                tree.depths[tree.index(tree.sup(x, y))] for x, y in ((a, c), (a, b), (b, c))
            )
            assert ac >= min(ab, bc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_measure_additivity_on_random_trees(seed):
    tree = random_tree(np.random.default_rng(seed), min_leaves=2, max_leaves=60)
    for ball in tree.internal_balls:
        child_sum = 0.0
        for child in _children(tree, ball):
            child_sum += tree.measure[child]
        assert abs(tree.measure[ball] - child_sum) <= 1e-12 * tree.measure[ball]


# -- degenerate single-ball space ----------------------------------------------


def test_single_ball_tree_is_permitted():
    # a root with no children is a minimal ball; nothing to split
    tree = uw.build_tree(_spec([("r", None, 1.0, 2.0)]))
    assert tree.leaves == ("r",)
    assert tree.internal == ()
    assert tree.depth == 0
    assert tree.sup("r", "r") == "r"
    assert tree.ball_support(np.array([1.0])) == "r"
    assert tree.ball_support(np.array([0.0])) is None


def test_tree_is_immutable():
    tree = uw.build_tree(uw.padic_preset(2, 1, 1.0))
    with pytest.raises(ValueError):
        tree.leaf_measures[0] = 7.0
    with pytest.raises(ValueError):
        tree.measure[0] = 2.0
