import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultrawave as uw
from ultrawave.ball_tree import BallSpec, TreeSpec
from ultrawave.certify import random_tree, random_tree_spec


def _two_leaf_tree(m1, m2):
    spec = TreeSpec(
        balls=(
            BallSpec("root", None, 1.0),
            BallSpec("a", "root", 0.5),
            BallSpec("b", "root", 0.5),
        ),
        leaf_measures={"a": m1, "b": m2},
    )
    return uw.build_tree(spec)


def test_equal_masses_give_haar_pair():
    # mean zero a/2 + b/2 = 0 and norm a^2/2 + b^2/2 = 1 with a > 0
    # solve by hand: a = 1, b = -1
    basis = uw.build_basis(_two_leaf_tree(0.5, 0.5))
    (wavelet,) = basis.wavelets
    np.testing.assert_allclose(wavelet.vector, [1.0, -1.0], rtol=0, atol=0)


def test_unequal_masses_frozen_values(lopsided_tree):
    # a/3 + 2b/3 = 0, a^2/3 + 2 b^2/3 = 1, a > 0  =>  a = sqrt(2), b = -1/sqrt(2)
    basis = uw.build_basis(lopsided_tree)
    (wavelet,) = basis.wavelets
    np.testing.assert_allclose(
        wavelet.vector, [math.sqrt(2.0), -1.0 / math.sqrt(2.0)], rtol=1e-15
    )


@settings(max_examples=60, deadline=None)
@given(
    m1=st.floats(min_value=1e-6, max_value=1e6),
    m2=st.floats(min_value=1e-6, max_value=1e6),
)
def test_pair_wavelet_constraints(m1, m2):
    tree = _two_leaf_tree(m1, m2)
    (wavelet,) = uw.build_basis(tree).wavelets
    assert wavelet.vector[0] > 0 > wavelet.vector[1]
    assert abs(uw.mean(tree, wavelet.vector)) <= 1e-12 * tree.total_measure * max(
        abs(wavelet.vector)
    )
    assert tree.norm(wavelet.vector) == pytest.approx(1.0, abs=1e-12)


def test_ternary_ball_spans_mean_zero_space():
    tree = uw.build_tree(uw.padic_preset(3, 1, 1.0))
    basis = uw.build_basis(tree)
    assert len(basis.wavelets) == 2  # dim = children - 1
    gram = basis.gram()
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-14)
    for wavelet in basis.wavelets:
        assert abs(uw.mean(tree, wavelet.vector)) < 1e-14


def test_basis_ordering(binary_tree):
    basis = uw.build_basis(binary_tree)
    assert basis.labels == (
        ("r", 1),
        ("r.0", 1),
        ("r.1", 1),
        ("r", "const"),
    )


def test_constant_element_value(binary_tree):
    basis = uw.build_basis(binary_tree)
    np.testing.assert_allclose(basis.constant, 1.0, rtol=0)  # nu(root) = 1
    tree4 = uw.build_tree(uw.padic_preset(2, 1, 4.0))
    np.testing.assert_allclose(uw.build_basis(tree4).constant, 0.5, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_count_identity_exact(seed):
    tree = random_tree(np.random.default_rng(seed), min_leaves=2, max_leaves=80)
    basis = uw.build_basis(tree)
    per_ball = sum(tree.child_count[tree.index(b)] - 1 for b in tree.internal)
    assert len(basis.wavelets) == per_ball == tree.n_leaves - 1
    assert basis.size == tree.n_leaves


def test_gram_identity_on_fuzzed_trees():
    for seed in range(15):
        rng = np.random.default_rng([7, seed])
        tree = random_tree(rng, min_leaves=2, max_leaves=200)
        basis = uw.build_basis(tree)
        deviation = np.max(np.abs(basis.gram() - np.eye(basis.size)))
        assert deviation <= 1e-10, f"seed {seed}: gram deviation {deviation}"


def test_analyze_wavelet_gives_unit_vector(binary_tree):
    basis = uw.build_basis(binary_tree)
    for k, wavelet in enumerate(basis.wavelets):
        coeffs = basis.analyze(wavelet.vector)
        expected = np.zeros(basis.size)
        expected[k] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-14)


def test_analyze_constant_function(binary_tree):
    coeffs = uw.build_basis(binary_tree).analyze(np.ones(4))
    np.testing.assert_allclose(coeffs[:-1], 0.0, atol=1e-14)
    assert coeffs[-1] == pytest.approx(1.0, abs=1e-14)  # nu(root) = 1


def test_round_trip_random_functions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree = random_tree(rng, min_leaves=2, max_leaves=120)
        basis = uw.build_basis(tree)
        f = rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)
        coeffs = basis.analyze(f)
        back = basis.synthesize(coeffs)
        assert tree.norm(back - f) <= 1e-10 * tree.norm(f)
        # Parseval
        assert abs(np.sum(np.abs(coeffs) ** 2) - tree.norm(f) ** 2) <= 1e-10 * tree.norm(f) ** 2


def test_synthesize_zero_and_unit(binary_tree):
    basis = uw.build_basis(binary_tree)
    np.testing.assert_array_equal(basis.synthesize(np.zeros(4)), np.zeros(4))
    unit = np.zeros(4)
    unit[1] = 1.0
    np.testing.assert_allclose(basis.synthesize(unit), basis.wavelets[1].vector, rtol=0)


def test_mean_examples(binary_tree):
    basis = uw.build_basis(binary_tree)
    for wavelet in basis.wavelets:
        assert abs(uw.mean(binary_tree, wavelet.vector)) <= 1e-12
    assert uw.mean(binary_tree, np.full(4, 2.5)) == pytest.approx(2.5, abs=1e-14)
    indicator = np.zeros(4)
    indicator[3] = 1.0
    assert uw.mean(binary_tree, indicator) == pytest.approx(0.25, abs=1e-16)


#: The mean of seeded complex values on a 2^16-leaf tree, printed with repr.
MEAN_SCRIPT = """
import numpy as np
import ultrawave as uw
tree = uw.build_tree(uw.padic_preset(256, 2))
rng = np.random.default_rng(11)
print(repr(uw.mean(tree, rng.standard_normal(65536) + 1j * rng.standard_normal(65536))))
"""


def test_mean_is_the_same_for_every_blas_thread_count():
    # a BLAS dot product sums in an order that follows its thread count
    means = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(uw.__file__)), env.get("PYTHONPATH", "")]
        )
        run = subprocess.run(
            [sys.executable, "-c", MEAN_SCRIPT], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        means.add(run.stdout)
    assert len(means) == 1, means


def _contains(tree, outer, inner):
    """True when ball ``inner`` lies inside ball ``outer`` (or equals it)."""
    a, b = tree.leaf_slice(outer), tree.leaf_slice(inner)
    return a.start <= b.start and b.stop <= a.stop


def _children(tree, ball_id):
    """The ids of a ball's children, in child order."""
    b = tree.index(ball_id)
    first = tree.first_child[b]
    return tuple(tree.ids_of(tree.kids[first : first + tree.child_count[b]]).tolist())


def test_wavelet_orthogonal_to_outer_indicators():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, min_leaves=8, max_leaves=40, min_depth=2)
    basis = uw.build_basis(tree)
    for wavelet in basis.wavelets:
        scale = max(abs(wavelet.vector))
        for ball_id in tree.order:
            inside = _contains(tree, wavelet.ball, ball_id)
            covers = _contains(tree, ball_id, wavelet.ball)
            disjoint = not inside and not covers
            if covers or disjoint:
                indicator = np.zeros(tree.n_leaves)
                indicator[tree.leaf_slice(ball_id)] = 1.0
                overlap = abs(tree.inner(indicator, wavelet.vector))
                assert overlap <= 1e-12 * tree.total_measure * scale


def test_wavelets_constant_on_children():
    tree = random_tree(np.random.default_rng(5), min_leaves=10, max_leaves=60)
    basis = uw.build_basis(tree)
    for wavelet in basis.wavelets:
        for child in _children(tree, wavelet.ball):
            block = wavelet.vector[tree.leaf_slice(child)]
            assert np.ptp(block) == 0.0  # exactly constant


def test_build_is_deterministic():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    t1 = random_tree(rng1, min_leaves=30, max_leaves=30)
    t2 = random_tree(rng2, min_leaves=30, max_leaves=30)
    b1, b2 = uw.build_basis(t1), uw.build_basis(t2)
    np.testing.assert_array_equal(b1.matrix, b2.matrix)


def test_length_mismatches_raise(binary_tree):
    basis = uw.build_basis(binary_tree)
    with pytest.raises(ValueError):
        basis.analyze(np.ones(5))
    with pytest.raises(ValueError):
        basis.synthesize(np.ones(5))


def test_single_ball_tree_has_only_the_constant():
    tree = uw.build_tree(
        TreeSpec(balls=(BallSpec("r", None, 1.0, 4.0),))
    )
    basis = uw.build_basis(tree)
    assert basis.wavelets == ()
    assert basis.size == 1
    np.testing.assert_allclose(basis.constant, 0.5, rtol=1e-15)
    coeffs = basis.analyze(np.array([3.0]))
    np.testing.assert_allclose(basis.synthesize(coeffs), [3.0], rtol=1e-12)


def test_basis_matrix_is_read_only(binary_tree):
    basis = uw.build_basis(binary_tree)
    with pytest.raises(ValueError):
        basis.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        basis.wavelets[0].vector[0] = 5.0


# -- fast transforms against the dense materialization ---------------------------


def _reference_matrix(tree):
    """Basis rows built child by child with the plain Helmert formula."""
    rows = []
    for ball_id in tree.internal:
        children = _children(tree, ball_id)
        head = float(tree.measure[tree.index(children[0])])
        for j in range(1, len(children)):
            tail = float(tree.measure[tree.index(children[j])])
            total = head + tail
            row = np.zeros(tree.n_leaves)
            for child in children[:j]:
                row[tree.leaf_slice(child)] = math.sqrt(tail / (head * total))
            row[tree.leaf_slice(children[j])] = -math.sqrt(head / (tail * total))
            rows.append(row)
            head = total
    rows.append(np.full(tree.n_leaves, 1.0 / math.sqrt(tree.total_measure)))
    return np.array(rows)


def test_matrix_matches_plain_formula_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tree = random_tree(rng, min_leaves=2, max_leaves=150, max_children=7)
        np.testing.assert_array_equal(uw.build_basis(tree).matrix, _reference_matrix(tree))


def _spec_from_children(children, measures):
    """Tree spec from one child list per ball (ball 0 the root, parents
    numbered before their children); leaves take ``measures`` in id order."""
    balls = [BallSpec("b0", None, 1.0)]
    depth = [0] * len(children)
    for ball, kids in enumerate(children):
        for kid in kids:
            depth[kid] = depth[ball] + 1
            balls.append(BallSpec(f"b{kid}", f"b{ball}", 1.0 / (1 + depth[kid])))
    leaves = [f"b{b}" for b, kids in enumerate(children) if not kids]
    return TreeSpec(balls=tuple(balls), leaf_measures=dict(zip(leaves, measures)))


def _adversarial_tree(kind, n, seed):
    """A random, caterpillar (depth n - 1) or star tree with about n leaves
    whose measures spread over +-6 decades."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        spec = random_tree_spec(rng, max_leaves=n, max_children=9)
        leaves = list(spec.leaf_measures)
        measures = 10.0 ** rng.uniform(-6.0, 6.0, len(leaves))
        return uw.build_tree(dataclasses.replace(spec, leaf_measures=dict(zip(leaves, measures))))
    if kind == "star":
        children = [list(range(1, n + 1))] + [[] for _ in range(n)]
    else:
        children, spine = [[]], 0
        for _ in range(n - 1):
            leaf, deeper = len(children), len(children) + 1
            children += [[], []]
            children[spine] = [leaf, deeper] if rng.random() < 0.5 else [deeper, leaf]
            spine = deeper
    return uw.build_tree(_spec_from_children(children, 10.0 ** rng.uniform(-6.0, 6.0, n)))


_SHAPES = st.one_of(
    st.tuples(st.just("random"), st.integers(min_value=2, max_value=300)),
    st.tuples(st.just("caterpillar"), st.integers(min_value=2, max_value=300)),
    st.tuples(st.just("star"), st.integers(min_value=1000, max_value=1200)),
)


@settings(max_examples=40, deadline=None)
@given(shape=_SHAPES, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fast_transforms_match_dense_matrix(shape, seed):
    tree = _adversarial_tree(*shape, seed)
    basis = uw.build_basis(tree)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)

    dense_coefficients = basis.matrix @ (f * tree.leaf_measures)
    gap = np.linalg.norm(basis.analyze(f) - dense_coefficients)
    assert gap <= 1e-12 * np.linalg.norm(dense_coefficients)

    dense_values = basis.matrix.T @ c
    assert tree.norm(basis.synthesize(c) - dense_values) <= 1e-12 * tree.norm(dense_values)

    back = basis.synthesize(basis.analyze(f))
    assert tree.norm(back - f) <= 1e-12 * tree.norm(f)


@pytest.mark.parametrize(
    "measures",
    [
        [1e-320, 1.0],  # subnormal
        [1.0, 1e-320],
        [5e-324, 5e-324],  # smallest subnormal twice
        [1e-200, 1e-200, 3e-200],  # head * total underflows
        [1e300, 1e-300, 1.0],
    ],
)
def test_extreme_measures_give_finite_weights(measures):
    children = [list(range(1, len(measures) + 1))] + [[] for _ in measures]
    tree = uw.build_tree(_spec_from_children(children, measures))
    basis = uw.build_basis(tree)
    assert np.all(np.isfinite(basis.plan.pos)) and np.all(np.isfinite(basis.plan.neg))
    assert np.max(np.abs(basis.gram() - np.eye(basis.size))) <= 1e-10


def test_fast_transform_memory_is_linear():
    # a dense basis at this size takes 2 GB
    tree = uw.build_tree(uw.padic_preset(2, 14, 1.0))
    f = np.random.default_rng(0).standard_normal(tree.n_leaves) + 0j
    tracemalloc.start()
    try:
        basis = uw.build_basis(tree)
        back = basis.synthesize(basis.analyze(f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert tree.norm(back - f) <= 1e-12 * tree.norm(f)


@pytest.mark.parametrize("kind, n", [("star", 10000), ("random", 2000), ("caterpillar", 500)])
def test_sibling_scan_work_is_linear(kind, n):
    # whatever the arity, the scan's levels hold at most two entries per node
    plan = uw.build_basis(_adversarial_tree(kind, n, 0)).plan
    assert sum(len(left) for left, _, _ in plan.scan) <= 2 * len(plan.parent)


# -- products with the basis over its supports -----------------------------------


@settings(max_examples=40, deadline=None)
@given(
    shape=_SHAPES,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    one_column=st.booleans(),
)
def test_matrix_times_matches_dense_product(shape, seed, one_column):
    tree = _adversarial_tree(*shape, seed)
    basis = uw.build_basis(tree)
    n = tree.n_leaves
    y = np.random.default_rng(seed).standard_normal((n, 1 if one_column else n))
    matrix = basis.matrix
    # entrywise, relative to the magnitudes each entry sums
    bound = 1e-13 * (np.abs(matrix) @ np.abs(y))
    assert np.all(np.abs(basis.matrix_times(y) - matrix @ y) <= bound)


def test_matrix_times_on_a_single_leaf():
    tree = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 4.0),)))
    basis = uw.build_basis(tree)
    y = np.array([[3.0, -1.0, 0.5]])
    np.testing.assert_array_equal(basis.matrix_times(y), 0.5 * y)
    np.testing.assert_array_equal(basis.gram(), [[1.0]])


def test_matrix_times_rejects_wrong_shapes(binary_tree):
    basis = uw.build_basis(binary_tree)
    for y in (np.ones(4), np.ones((3, 2)), np.ones((4, 2, 1))):
        with pytest.raises(ValueError, match="2-D array with 4 rows"):
            basis.matrix_times(y)


@pytest.mark.parametrize("kind, n", [("random", 300), ("caterpillar", 200), ("star", 1000)])
def test_gram_matches_dense_product(kind, n):
    tree = _adversarial_tree(kind, n, 5)
    basis = uw.build_basis(tree)
    matrix = basis.matrix
    dense = (matrix * tree.leaf_measures) @ matrix.T
    np.testing.assert_allclose(basis.gram(), dense, rtol=0, atol=1e-13)


def test_matrix_is_rebuilt_on_every_access(binary_tree):
    basis = uw.build_basis(binary_tree)
    first = basis.matrix
    assert basis.matrix is not first
    np.testing.assert_array_equal(basis.matrix, first)


@pytest.mark.parametrize(
    "tree",
    [
        uw.build_tree(uw.padic_preset(2, 10)),
        random_tree(np.random.default_rng(2), min_leaves=1000, max_leaves=1000),
    ],
    ids=["padic", "random"],
)
def test_gram_memory_is_about_two_dense_arrays(tree):
    # the input diag(nu) matrix^T and the result; no dense basis
    basis = uw.build_basis(tree)
    n = tree.n_leaves
    tracemalloc.start()
    try:
        gram = basis.gram()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
