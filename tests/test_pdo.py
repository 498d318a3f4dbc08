import json
import tracemalloc

import numpy as np
import pytest

import ultrawave as uw
from ultrawave.ball_tree import BallSpec, BallValues, TreeSpec
from ultrawave.certify import (
    corrupt_basis_sign,
    corrupt_spectrum,
    random_kernel,
    random_tree,
)
from ultrawave.pdo import read_spectrum, symmetrized, write_spectrum


def test_root_eigenvalue_has_empty_ancestor_sum():
    tree = uw.build_tree(uw.padic_preset(2, 1, 1.0))
    kernel = uw.make_kernel(tree, {"r": 1.0})
    assert uw.eigenvalue(tree, kernel, "r") == 1.0


def test_binary_fixture_eigenvalues_by_hand(binary_tree, binary_kernel):
    # level-1 ball: 2 * 1/2 + 1 * (1 - 1/2) = 1.5; root: 1 * 1 = 1
    assert uw.eigenvalue(binary_tree, binary_kernel, "r.0") == 1.5
    assert uw.eigenvalue(binary_tree, binary_kernel, "r") == 1.0
    spec = uw.spectrum(binary_tree, binary_kernel)
    assert spec.eigenvalues == {"r": 1.0, "r.0": 1.5, "r.1": 1.5}
    assert spec.for_basis(uw.build_basis(binary_tree))[-1] == 0.0


def test_binary_fixture_multiset_against_dense_oracle(binary_tree, binary_kernel):
    # brute-force eigendecomposition of the pair-defined matrix
    dense = uw.dense_operator(binary_tree, binary_kernel)
    numeric = np.sort(np.linalg.eigvalsh(symmetrized(binary_tree, dense)))
    np.testing.assert_allclose(numeric, [0.0, 1.0, 1.5, 1.5], atol=1e-12)


def test_spectrum_matches_single_ball_routine():
    rng = np.random.default_rng(21)
    tree = random_tree(rng, min_leaves=10, max_leaves=80)
    kernel = random_kernel(rng, tree)
    spec = uw.spectrum(tree, kernel)
    for ball_id in tree.internal:
        assert spec.eigenvalues[ball_id] == uw.eigenvalue(tree, kernel, ball_id)


def test_zero_kernel_spectrum(binary_tree):
    kernel = uw.constant_kernel(binary_tree, 0.0)
    spec = uw.spectrum(binary_tree, kernel)
    assert all(v == 0.0 for v in spec.eigenvalues.values())
    assert not uw.dense_operator(binary_tree, kernel).any()


def test_vladimirov_values(binary_tree):
    kernel = uw.vladimirov_kernel(binary_tree, alpha=1.0)
    assert kernel.values["r"] == 1.0  # diameter 1
    assert kernel.values["r.0"] == 4.0  # diameter 1/2, power -2


def test_vladimirov_padic_spectrum_certified():
    tree = uw.build_tree(uw.padic_preset(2, 3, 1.0))
    kernel = uw.vladimirov_kernel(tree, alpha=0.5)
    report = uw.verify_spectrum(
        tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel)
    )
    assert report.passed
    assert report.max_residual <= 1e-10
    assert report.multiset_max_diff <= 1e-10


def test_vladimirov_deeper_balls_have_larger_eigenvalues():
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    spec = uw.spectrum(tree, uw.vladimirov_kernel(tree, alpha=1.0))
    assert spec.eigenvalues["r.0"] > spec.eigenvalues["r"]
    assert spec.eigenvalues["r.1"] > spec.eigenvalues["r"]


def test_dense_kills_constants(binary_tree, binary_kernel):
    matrix = uw.dense_operator(binary_tree, binary_kernel)
    scale = np.max(np.abs(matrix))
    assert np.max(np.abs(matrix @ np.ones(4))) <= 1e-12 * scale


def test_dense_eigenrelation(binary_tree, binary_kernel):
    matrix = uw.dense_operator(binary_tree, binary_kernel)
    basis = uw.build_basis(binary_tree)
    spec = uw.spectrum(binary_tree, binary_kernel)
    for wavelet in basis.wavelets:
        lam = spec.eigenvalues[wavelet.ball]
        residual = binary_tree.norm(matrix @ wavelet.vector - lam * wavelet.vector)
        assert residual <= 1e-10 * max(1.0, lam)


def test_two_leaf_dense_matrix_by_direct_evaluation():
    spec = TreeSpec(
        balls=(
            BallSpec("root", None, 1.0),
            BallSpec("a", "root", 0.5),
            BallSpec("b", "root", 0.5),
        ),
        leaf_measures={"a": 0.5, "b": 0.5},
    )
    tree = uw.build_tree(spec)
    matrix = uw.dense_operator(tree, uw.constant_kernel(tree, 1.0))
    np.testing.assert_array_equal(matrix, [[0.5, -0.5], [-0.5, 0.5]])


def test_dense_matrix_invariants_fuzzed():
    for seed in range(8):
        rng = np.random.default_rng([13, seed])
        tree = random_tree(rng, min_leaves=2, max_leaves=80)
        kernel = random_kernel(rng, tree)
        matrix = uw.dense_operator(tree, kernel)
        scale = max(1.0, np.max(np.abs(matrix)))
        weights = tree.leaf_measures
        # self-adjoint under the weighted inner product
        skew = weights[:, None] * matrix - (weights[:, None] * matrix).T
        assert np.max(np.abs(skew)) <= 1e-12 * scale
        # rows sum to zero
        assert np.max(np.abs(matrix.sum(axis=1))) <= 1e-12 * scale
        # positive semidefinite in the weighted sense
        eigs = np.linalg.eigvalsh(symmetrized(tree, matrix))
        assert eigs.min() >= -1e-10 * scale
        # all eigenvalues of the closed form are nonnegative
        spec = uw.spectrum(tree, kernel)
        assert all(v >= 0.0 for v in spec.eigenvalues.values())


def test_rank_counts_zero_kernel_multiplicities():
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    kernel = uw.make_kernel(tree, {"r": 0.0, "r.0": 1.0, "r.1": 1.0})
    spec = uw.spectrum(tree, kernel)
    # root eigenvalue is 0 with multiplicity p-1 = 1, plus the constant
    zero_mult = 1 + sum(
        tree.child_count[tree.index(b)] - 1
        for b, lam in spec.eigenvalues.items()
        if lam == 0.0
    )
    eigs = np.linalg.eigvalsh(symmetrized(tree, uw.dense_operator(tree, kernel)))
    numeric_rank = int(np.sum(np.abs(eigs) > 1e-10))
    assert numeric_rank == tree.n_leaves - zero_mult == 2


def test_spectrum_invariant_under_basis_rotation():
    # eigenvalues attach to balls, not to the chosen basis inside a ball
    tree = uw.build_tree(uw.padic_preset(3, 1, 1.0))
    kernel = uw.constant_kernel(tree, 2.0)
    basis = uw.build_basis(tree)
    matrix = uw.dense_operator(tree, kernel)
    lam = uw.eigenvalue(tree, kernel, "r")
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = q @ np.vstack([w.vector for w in basis.wavelets])
    for row in rotated:
        assert tree.norm(matrix @ row - lam * row) <= 1e-12 * max(1.0, lam)


def test_verify_spectrum_passes_and_reports(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    spec = uw.spectrum(binary_tree, binary_kernel)
    report = uw.verify_spectrum(binary_tree, binary_kernel, basis, spec)
    assert report.passed and report.residual_ok and report.multiset_ok
    assert report.operator_norm == pytest.approx(1.5, abs=1e-12)


def test_verify_spectrum_zero_kernel_residuals_vanish(binary_tree):
    kernel = uw.constant_kernel(binary_tree, 0.0)
    report = uw.verify_spectrum(
        binary_tree, kernel, uw.build_basis(binary_tree), uw.spectrum(binary_tree, kernel)
    )
    assert report.max_residual == 0.0
    assert report.multiset_max_diff == 0.0


def test_verify_spectrum_detects_corruption(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    spec = uw.spectrum(binary_tree, binary_kernel)
    bad = uw.Spectrum(eigenvalues=BallValues(binary_tree, spec.eigenvalues.array + 1.0))
    report = uw.verify_spectrum(binary_tree, binary_kernel, basis, bad)
    assert not report.passed


@pytest.mark.parametrize("make", [uw.SupKernel, uw.Spectrum])
def test_kernel_and_spectrum_take_only_ball_values(make):
    with pytest.raises(TypeError, match=f"{make.__name__} takes a BallValues.*got dict"):
        make({"r": 1.0, "r.0": 1.5, "r.1": 1.5})


def test_values_bound_to_another_tree_are_rejected(binary_tree, binary_kernel, lopsided_tree):
    spec = uw.spectrum(binary_tree, binary_kernel)
    message = r"bound to another tree: internal ball 0 in preorder is 'r' there and 'root' here"
    with pytest.raises(ValueError, match=message):
        uw.spectrum(lopsided_tree, binary_kernel)
    with pytest.raises(ValueError, match=message):
        uw.dense_operator(lopsided_tree, binary_kernel)
    with pytest.raises(ValueError, match=message):
        uw.eigenvalue(lopsided_tree, binary_kernel, "root")
    with pytest.raises(ValueError, match=message):
        spec.for_tree(lopsided_tree)
    deeper = uw.build_tree(uw.padic_preset(2, 3))
    message = r"internal ball 2 in preorder is 'r.1' there and 'r.0.0' here"
    with pytest.raises(ValueError, match=message):
        uw.verify_spectrum(deeper, uw.vladimirov_kernel(deeper, 1.0), uw.build_basis(deeper), spec)
    # a tree rebuilt from the same specification reads the same values
    rebuilt = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    assert spec.for_tree(rebuilt) is spec.eigenvalues.array


@pytest.mark.parametrize(
    "values, message",
    [
        ({"r": -1.0, "r.0": 1.0, "r.1": 1.0}, ">= 0"),
        ({"r": 1.0, "r.0": 1.0}, "missing"),
        ({"r": 1.0, "r.0": 1.0, "r.1": 1.0, "r.0.0": 1.0}, "leaf"),
    ],
)
def test_make_kernel_rejections(binary_tree, values, message):
    with pytest.raises(ValueError, match=message):
        uw.make_kernel(binary_tree, values)


def test_eigenvalue_argument_errors(binary_tree, binary_kernel):
    with pytest.raises(ValueError, match="leaf"):
        uw.eigenvalue(binary_tree, binary_kernel, "r.0.0")
    with pytest.raises(ValueError, match="unknown"):
        uw.eigenvalue(binary_tree, binary_kernel, "nope")


def test_vladimirov_rejects_nonpositive_alpha(binary_tree):
    with pytest.raises(ValueError, match="alpha"):
        uw.vladimirov_kernel(binary_tree, 0.0)


def test_kernel_file_forms(tmp_path, binary_tree):
    mapping = tmp_path / "kernel.json"
    mapping.write_text(json.dumps({"r": 1.0, "r.0": 2.0, "r.1": 2.0}))
    kernel = uw.load_kernel(mapping, binary_tree)
    assert kernel.values["r.0"] == 2.0

    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"preset": "vladimirov", "alpha": 1.0}))
    kernel = uw.load_kernel(preset, binary_tree)
    assert kernel.values["r.0"] == 4.0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "mystery", "alpha": 1.0}))
    with pytest.raises(ValueError, match="preset"):
        uw.load_kernel(bad, binary_tree)


def test_spectrum_csv_round_trip(tmp_path, binary_tree, binary_kernel):
    spec = uw.spectrum(binary_tree, binary_kernel)
    path = tmp_path / "spectrum.csv"
    write_spectrum(path, binary_tree, spec)
    header = path.read_text().splitlines()[0]
    assert header == "ball_id,p_I,lambda"
    assert read_spectrum(path) == {"r": 1.0, "r.0": 1.5, "r.1": 1.5}


def test_single_ball_tree_spectrum_is_trivial():
    tree = uw.build_tree(
        TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),))
    )
    kernel = uw.make_kernel(tree, {})
    spec = uw.spectrum(tree, kernel)
    assert spec.eigenvalues == {}
    matrix = uw.dense_operator(tree, kernel)
    np.testing.assert_array_equal(matrix, [[0.0]])
    report = uw.verify_spectrum(tree, kernel, uw.build_basis(tree), spec)
    assert report.passed


# -- verify_spectrum against the first dense realization -------------------------


def _reference_verification(tree, kernel, basis, spec):
    """(max residual, multiset deviation, operator norm) computed as
    ``verify_spectrum`` first did: the dense operator, its symmetrized copy
    and products with the dense basis."""
    matrix = uw.dense_operator(tree, kernel)
    numeric = np.sort(np.linalg.eigvalsh(symmetrized(tree, matrix)))
    analytic = [0.0]
    for ball_id in tree.internal:
        arity = tree.child_count[tree.index(ball_id)]
        analytic.extend([spec.eigenvalues[ball_id]] * (arity - 1))
    multiset = float(np.max(np.abs(numeric - np.sort(analytic))))
    operator_norm = float(np.max(np.abs(numeric)))
    vectors = basis.matrix.T
    residual = matrix @ vectors - vectors * spec.for_basis(basis)
    residual_norms = np.sqrt(tree.leaf_measures @ residual**2)
    vector_norms = np.sqrt(tree.leaf_measures @ vectors**2)
    scale = np.maximum(1.0, operator_norm * vector_norms)
    return float(np.max(residual_norms / scale)), multiset, operator_norm


def _verification_cases():
    rng = np.random.default_rng(41)
    for _ in range(6):
        tree = random_tree(rng, min_leaves=2, max_leaves=150, max_children=6)
        kernel = random_kernel(rng, tree)
        basis, spec = uw.build_basis(tree), uw.spectrum(tree, kernel)
        yield "random", tree, kernel, basis, spec
        yield "tampered", tree, kernel, basis, corrupt_spectrum(spec)
        yield "sign-bug", tree, kernel, corrupt_basis_sign(basis), spec
        zero = uw.constant_kernel(tree, 0.0)
        yield "zero", tree, zero, basis, uw.spectrum(tree, zero)
    tree = uw.build_tree(uw.padic_preset(3, 4))
    kernel = uw.vladimirov_kernel(tree, 0.5)
    yield "padic", tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel)


def test_verify_spectrum_agrees_with_the_dense_reference():
    verdicts = set()
    for case, tree, kernel, basis, spec in _verification_cases():
        report = uw.verify_spectrum(tree, kernel, basis, spec)
        residual, multiset, operator_norm = _reference_verification(tree, kernel, basis, spec)
        reference_passed = (
            residual <= report.residual_tol and multiset <= report.multiset_tol
        )
        assert report.passed == reference_passed, case
        verdicts.add((case, report.passed))
        rounding = 1e-12 * max(1.0, operator_norm)
        assert report.operator_norm == pytest.approx(operator_norm, rel=1e-12, abs=1e-300)
        assert abs(report.multiset_max_diff - multiset) <= rounding, case
        assert abs(report.max_residual - residual) <= 1e-14 + 1e-12 * residual, case
    # a sign bug under a zero kernel value stays an eigenvector, so only
    # the reference decides each verdict; both corruptions must bite somewhere
    assert {case for case, passed in verdicts if not passed} == {"tampered", "sign-bug"}
    assert ("random", True) in verdicts and ("zero", True) in verdicts


def test_verify_spectrum_on_a_single_leaf():
    tree = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 4.0),)))
    kernel = uw.make_kernel(tree, {})
    report = uw.verify_spectrum(tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel))
    assert report.passed and report.max_residual == 0.0 and report.multiset_max_diff == 0.0


@pytest.mark.parametrize(
    "tree",
    [
        uw.build_tree(uw.padic_preset(2, 10)),
        random_tree(np.random.default_rng(2), min_leaves=1000, max_leaves=1000),
    ],
    ids=["padic", "random"],
)
def test_verify_spectrum_memory_is_about_two_dense_arrays(tree):
    # the symmetric buffer and the residual; no dense operator or basis copies
    kernel = uw.vladimirov_kernel(tree, 0.5)
    basis, spec = uw.build_basis(tree), uw.spectrum(tree, kernel)
    n = tree.n_leaves
    tracemalloc.start()
    try:
        report = uw.verify_spectrum(tree, kernel, basis, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8
    assert report.passed
