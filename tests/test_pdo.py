import copy
import dataclasses
import json
import math
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
    random_tree_spec,
)
from ultrawave import wavelet
from ultrawave.pdo import (
    _MULTISET_TOL,
    _RESIDUAL_TOL,
    SpectrumVerification,
    _gram_deviation,
    _sum_of_squares,
    _sup_kernel,
    pair_matvec,
    read_spectrum,
    symmetric_operator,
    write_spectrum,
)


def symmetrized(tree, matrix: np.ndarray) -> np.ndarray:
    """Conjugate by diag(sqrt(nu)).

    Maps an operator self-adjoint under the measure-weighted inner product
    to a symmetric matrix; the output is explicitly symmetrized to absorb
    last-bit asymmetry.
    """
    r = np.sqrt(tree.leaf_measures)
    sym = matrix * (r[:, None] / r[None, :])
    return 0.5 * (sym + sym.T)


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
    balls = binary_tree.ids_of(binary_tree.parent[basis.plan.child]).tolist()
    for ball, wavelet in zip(balls, basis.matrix):
        lam = spec.eigenvalues[ball]
        residual = binary_tree.norm(matrix @ wavelet - lam * wavelet)
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


def test_symmetric_operator_matches_the_symmetrized_dense_operator_fuzzed():
    for seed in range(8):
        rng = np.random.default_rng([17, seed])
        tree = random_tree(rng, min_leaves=2, max_leaves=120, max_children=6)
        kernel = random_kernel(rng, tree)
        potential = rng.uniform(-5.0, 5.0, tree.n_leaves)
        dense = uw.dense_operator(tree, kernel)
        for u in (None, potential):
            sym = symmetric_operator(tree, kernel, u)
            np.testing.assert_array_equal(sym, sym.T)
            reference = symmetrized(tree, dense if u is None else dense + np.diag(u))
            scale = np.linalg.norm(reference, 2)
            assert np.max(np.abs(sym - reference)) <= 1e-14 * scale


def _assert_pair_matvec_matches_dense(tree, kernel, rng):
    f = rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)
    matrix = uw.dense_operator(tree, kernel)
    error = np.linalg.norm(pair_matvec(tree, kernel)(f) - matrix @ f)
    assert error <= 1e-14 * np.linalg.norm(matrix, 2) * np.linalg.norm(f)


def test_pair_matvec_matches_the_dense_operator_fuzzed():
    for seed in range(8):
        rng = np.random.default_rng([19, seed])
        tree = random_tree(rng, min_leaves=2, max_leaves=300, max_children=8)
        _assert_pair_matvec_matches_dense(tree, random_kernel(rng, tree), rng)


def test_pair_matvec_on_adversarial_shapes(caterpillar, star):
    rng = np.random.default_rng(20)
    one_leaf = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),)))
    for tree in (caterpillar(512), star(1000), one_leaf):
        _assert_pair_matvec_matches_dense(tree, random_kernel(rng, tree), rng)


def test_pair_matvec_with_measures_over_thirty_decades():
    for seed in range(4):
        rng = np.random.default_rng([21, seed])
        spec = random_tree_spec(rng, min_leaves=20, max_leaves=200)
        measures = 10.0 ** rng.uniform(-15.0, 15.0, len(spec.leaf_measures))
        tree = uw.build_tree(TreeSpec(spec.balls, dict(zip(spec.leaf_measures, measures))))
        _assert_pair_matvec_matches_dense(tree, random_kernel(rng, tree), rng)


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
    rotated = q @ basis.matrix[:-1]
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


@pytest.mark.parametrize("value", [-1.0, math.nan])
def test_constant_kernel_rejects_a_negative_or_nan_value(binary_tree, value):
    message = f"^kernel value for ball 'r' must be >= 0, got {value}$"
    with pytest.raises(ValueError, match=message):
        uw.constant_kernel(binary_tree, value)


def test_kernel_file_of_a_json_list_is_rejected(tmp_path, binary_tree):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps([1.0, 2.0, 2.0]))
    with pytest.raises(ValueError, match="^kernel file must contain a JSON object$"):
        uw.load_kernel(path, binary_tree)


def test_verify_spectrum_rejects_another_trees_basis(binary_tree, binary_kernel):
    other = uw.build_basis(uw.build_tree(uw.padic_preset(2, 3)))
    spec = uw.spectrum(binary_tree, binary_kernel)
    with pytest.raises(ValueError, match="^basis was built for a different tree$"):
        uw.verify_spectrum(binary_tree, binary_kernel, other, spec)


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
    # the report's multiset deviation is a certified bound beta, so the
    # reference's eigenvalue gap and operator norm must lie within it
    verdicts = set()
    for case, tree, kernel, basis, spec in _verification_cases():
        report = uw.verify_spectrum(tree, kernel, basis, spec)
        residual, multiset, operator_norm = _reference_verification(tree, kernel, basis, spec)
        reference_passed = (
            residual <= report.residual_tol and multiset <= report.multiset_tol
        )
        assert reference_passed or not report.passed, case
        verdicts.add((case, report.passed))
        rounding = 1e-12 * max(1.0, operator_norm)
        beta = report.multiset_max_diff
        assert multiset <= beta + rounding, case
        assert abs(report.operator_norm - operator_norm) <= beta + rounding, case
        if report.passed:
            assert abs(report.max_residual - residual) <= 1e-14 + 1e-12 * residual, case
    # both corruptions must bite somewhere, and every clean case passes
    assert {case for case, passed in verdicts if not passed} == {"tampered", "sign-bug"}
    assert {case for case, passed in verdicts if passed} == {"random", "zero", "padic"}


def test_gram_deviation_is_the_dense_basis_distance_from_orthonormal():
    # eta = ||G - I||_F from the dense basis vectors; beta is inf exactly when eta > 1/2
    far = set()
    for case, tree, kernel, basis, spec in _verification_cases():
        report = uw.verify_spectrum(tree, kernel, basis, spec)
        vectors = basis.matrix
        gram = (vectors * tree.leaf_measures) @ vectors.T
        eta = float(np.linalg.norm(gram - np.eye(basis.size)))
        assert abs(report.gram_deviation - eta) <= 1e-14 + 1e-12 * eta, case
        assert (report.multiset_max_diff == math.inf) == (report.gram_deviation > 0.5), case
        assert (report.gram_deviation > 1e-10) == (case == "sign-bug"), case
        if report.gram_deviation > 0.5:
            far.add(case)
    # only a sign bug moves the basis more than 1/2 from orthonormal
    assert far == {"sign-bug"}


def _with_plan(basis, **arrays):
    """``basis`` with some of its plan's arrays replaced."""
    return uw.WaveletBasis(basis.tree, dataclasses.replace(basis.plan, **arrays))


def _gram_cases(caterpillar, star, heavy_star):
    """(case, basis, spectrum, cancellation) for the structured Gram deviation.

    ``cancellation`` is None for a clean basis; for a corrupted one, how
    much the wavelet integrals the commutator is made of amplify rounding.
    """
    rng = np.random.default_rng(43)
    trees = [random_tree(rng, max_leaves=200, max_children=8) for _ in range(8)]
    trees += [caterpillar(300), star(500), uw.build_tree(uw.tree_spec_from_dict(heavy_star))]
    trees += [uw.build_tree(uw.padic_preset(p, depth)) for p, depth in ((2, 8), (3, 4), (5, 2))]
    trees.append(uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),))))
    for index, tree in enumerate(trees):
        basis = uw.build_basis(tree)
        kernel = random_kernel(rng, tree)
        spec = uw.spectrum(tree, kernel)
        yield f"tree {index}", basis, spec, None
        yield f"zero kernel {index}", basis, uw.spectrum(tree, uw.constant_kernel(tree, 0.0)), None
        if basis.size > 1:
            yield f"sign-bug {index}", corrupt_basis_sign(basis), spec, 1.0
            pos = basis.plan.pos.copy()
            pos[int(rng.integers(pos.size))] *= 1 + 1e-6
            # that wavelet's integral is 1e-6 of its two terms, so both
            # routes round it with 1e6 times the relative error
            yield f"scaled pos {index}", _with_plan(basis, pos=pos), spec, 1e6
        if len(tree.internal_balls) > 1:
            # Helmert values from a ball measure 1.5 times its leaves' sum
            wrong = copy.copy(tree)
            wrong.measure = tree.measure.copy()
            wrong.measure[tree.internal_balls[1]] *= 1.5
            yield f"wrong measure {index}", uw.build_basis(wrong), spec, 1.0


def test_gram_deviation_matches_the_dense_gram_matrix(caterpillar, star, heavy_star):
    # eta, the commutator and diag(G) from the plan against basis.gram()
    for case, basis, spec, cancellation in _gram_cases(caterpillar, star, heavy_star):
        eta, commutator, diagonal = _gram_deviation(basis, spec.for_tree(basis.tree))
        gram = basis.gram()
        lam = spec.for_basis(basis)
        error = gram - np.eye(basis.size)
        dense_eta = float(np.linalg.norm(error))
        dense_commutator = float(np.linalg.norm(error * (lam - lam[:, None])))
        assert abs(eta - dense_eta) <= 1e-14 + 1e-12 * dense_eta, case
        np.testing.assert_allclose(diagonal, gram.diagonal(), rtol=1e-12, atol=1e-14, err_msg=case)
        # a clean basis's commutator is rounding, at most this
        rounding = 1e-13 * max(1.0, float(np.max(np.abs(lam))))
        if cancellation:
            tol = 1e-12 * cancellation * dense_commutator + rounding
            assert abs(commutator - dense_commutator) <= tol, case
        else:
            assert commutator <= rounding and dense_commutator <= rounding, case


def test_a_nan_helmert_weight_fails_the_spectrum_check(caterpillar):
    tree = caterpillar(50)
    kernel = uw.vladimirov_kernel(tree, 0.5)
    spec = uw.spectrum(tree, kernel)
    basis = uw.build_basis(tree)
    assert uw.verify_spectrum(tree, kernel, basis, spec).passed
    pos = basis.plan.pos.copy()
    pos[7] = math.nan
    report = uw.verify_spectrum(tree, kernel, _with_plan(basis, pos=pos), spec)
    assert math.isnan(report.gram_deviation)
    assert report.multiset_max_diff == math.inf
    assert not report.passed


def test_verify_spectrum_needs_a_basis_near_orthonormal(binary_tree):
    # under a zero kernel the sign-bugged vectors are still eigenvectors of
    # M = 0, and the dense eigenvalues are the analytic ones, but the basis
    # is far from orthonormal, so no bound on the eigenvalues follows
    kernel = uw.constant_kernel(binary_tree, 0.0)
    spec = uw.spectrum(binary_tree, kernel)
    basis = corrupt_basis_sign(uw.build_basis(binary_tree))
    assert _reference_verification(binary_tree, kernel, basis, spec) == (0.0, 0.0, 0.0)
    report = uw.verify_spectrum(binary_tree, kernel, basis, spec)
    assert report.max_residual == 0.0 and report.residual_ok
    assert report.gram_deviation > 0.5
    assert report.multiset_max_diff == math.inf and not report.passed


def test_verify_spectrum_bound_covers_a_shifted_eigenvalue():
    tree = uw.build_tree(uw.padic_preset(2, 6))
    kernel = uw.vladimirov_kernel(tree, 0.5)
    spec = uw.spectrum(tree, kernel)
    basis = uw.build_basis(tree)
    assert uw.verify_spectrum(tree, kernel, basis, spec).passed
    delta = 1e-6
    shifted = spec.for_tree(tree).copy()
    shifted[-1] += delta  # a ball of two leaves: one wavelet
    report = uw.verify_spectrum(tree, kernel, basis, uw.Spectrum(BallValues(tree, shifted)))
    rounding = 1e-12 * max(1.0, report.operator_norm)
    assert delta <= report.multiset_max_diff + rounding
    assert report.multiset_max_diff <= 2 * delta
    assert not report.multiset_ok and not report.passed


def test_verify_spectrum_on_a_single_leaf():
    tree = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 4.0),)))
    kernel = uw.make_kernel(tree, {})
    report = uw.verify_spectrum(tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel))
    assert report.passed and report.max_residual == 0.0 and report.multiset_max_diff == 0.0


@pytest.mark.parametrize(
    "tree, mib",
    [
        (uw.build_tree(uw.padic_preset(2, 10)), 2),
        (random_tree(np.random.default_rng(2), min_leaves=1000, max_leaves=1000), 2),
        (uw.build_tree(uw.padic_preset(2, 12)), 4),
    ],
    ids=["padic", "random", "padic-4096"],
)
def test_verify_spectrum_memory_is_a_few_row_blocks(tree, mib):
    # 32-row blocks of diag(r) S and of the residual, never either whole
    # (16 MiB at 1024 leaves, 256 MiB at 4096); blocks of 1 MiB, or a
    # temporary of a block's size in the scaling of S's rows, would break
    # the bounds (3.5 MiB and 4.6 MiB)
    kernel = uw.vladimirov_kernel(tree, 0.5)
    basis, spec = uw.build_basis(tree), uw.spectrum(tree, kernel)
    tracemalloc.start()
    try:
        report = uw.verify_spectrum(tree, kernel, basis, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20
    assert report.passed


def _reference_sup_kernel(tree, kernel):
    """T(sup(x, y)) by filling each internal ball's whole leaf block in
    preorder, so the deepest common ball is written last."""
    n = tree.n_leaves
    sup_kernel = np.zeros((n, n))
    for ball in tree.internal:
        leaves = tree.leaf_slice(ball)
        sup_kernel[leaves, leaves] = kernel.values[ball]
    return sup_kernel


def test_sup_kernel_matches_the_whole_block_fill(caterpillar, star):
    trees = [
        random_tree(np.random.default_rng([23, seed]), max_leaves=200, max_children=8)
        for seed in range(12)
    ]
    one_leaf = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),)))
    trees += [caterpillar(300), star(500), one_leaf, uw.build_tree(uw.padic_preset(3, 4))]
    rng = np.random.default_rng(24)
    for tree in trees:
        kernel = random_kernel(rng, tree)
        np.testing.assert_array_equal(
            _sup_kernel(tree, kernel), _reference_sup_kernel(tree, kernel), strict=True
        )


def _whole_symmetric_operator(tree, kernel, potential=None):
    """S from the whole n-by-n sup kernel, as it was built before its rows
    were built a block at a time."""
    nu = tree.leaf_measures
    r = np.sqrt(nu)
    sup_kernel = _sup_kernel(tree, kernel)
    diagonal = sup_kernel @ nu - sup_kernel.diagonal() * nu
    if potential is not None:
        diagonal += potential
    sym = sup_kernel * np.outer(-r, r)
    np.fill_diagonal(sym, diagonal)
    return sym


def test_symmetric_operator_is_the_scaled_sup_kernel_bitwise(caterpillar, star, monkeypatch):
    trees = [
        random_tree(np.random.default_rng([29, seed]), max_leaves=200, max_children=8)
        for seed in range(8)
    ]
    one_leaf = uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),)))
    trees += [caterpillar(300), star(500), one_leaf]
    small = [
        random_tree(np.random.default_rng([31, seed]), min_leaves=33, max_leaves=95)
        for seed in range(6)
    ]
    rng = np.random.default_rng(30)
    for tree in trees:
        kernel = random_kernel(rng, tree)
        for u in (None, rng.uniform(-5.0, 5.0, tree.n_leaves)):
            sym = symmetric_operator(tree, kernel, u)
            reference = _whole_symmetric_operator(tree, kernel, u)
            np.testing.assert_array_equal(sym, reference, strict=True)
            np.testing.assert_array_equal(sym, sym.T, strict=True)
    # built 32 rows at a time; up to 95 leaves every gemv, the whole
    # matrix's too, runs on one OpenBLAS thread
    monkeypatch.setattr(wavelet, "_BLOCK_BYTES", 1)
    for tree in small + [caterpillar(95), star(65), one_leaf]:
        kernel = random_kernel(rng, tree)
        u = rng.uniform(-5.0, 5.0, tree.n_leaves)
        np.testing.assert_array_equal(
            symmetric_operator(tree, kernel, u), _whole_symmetric_operator(tree, kernel, u)
        )


# -- the streamed residual against the whole arrays ---------------------------


def _whole_array_verification(tree, kernel, basis, spec):
    """``verify_spectrum``'s report from the whole n-by-n arrays diag(r) S
    and R, as it was computed before the rows were streamed."""
    r = np.sqrt(tree.leaf_measures)
    lam = spec.for_basis(basis)
    operator_norm = float(np.max(np.abs(lam)))
    eta, commutator, gram_diagonal = _gram_deviation(basis, spec.for_tree(basis.tree))
    sym = _whole_symmetric_operator(tree, kernel)
    sym *= r[:, None]
    residual = basis.matrix_times(sym)
    wavelet_index, leaf, value = basis._entries(slice(None))
    residual[wavelet_index, leaf] -= lam[wavelet_index] * (r[leaf] * value)
    squares = _sum_of_squares(residual)
    scale = np.maximum(1.0, operator_norm * np.sqrt(gram_diagonal))
    if eta <= 0.5:
        norm = math.sqrt(np.sum(squares))
        bound = (norm + commutator / 2 + eta**2 * operator_norm) / math.sqrt(1.0 - eta)
    else:
        bound = math.inf
    return SpectrumVerification(
        max_residual=float(np.max(np.sqrt(squares) / scale)),
        residual_tol=_RESIDUAL_TOL,
        multiset_max_diff=bound,
        multiset_tol=_MULTISET_TOL,
        operator_norm=operator_norm,
        gram_deviation=eta,
    )


def _bits(report):
    return [float(value).hex() for value in dataclasses.astuple(report)]


def _comb(groups):
    """The root's children alternate a leaf and a ball of two leaves, so the
    sweep reads the root's own leaves last, after every block has moved on."""
    balls = [BallSpec("r", None, 1.0)]
    leaves = []
    for i in range(groups):
        balls += [BallSpec(f"x{i}", "r", 0.5), BallSpec(f"c{i}", "r", 0.5)]
        balls += [BallSpec(f"c{i}.{j}", f"c{i}", 0.25) for j in range(2)]
        leaves += [f"x{i}", f"c{i}.0", f"c{i}.1"]
    measures = np.random.default_rng(groups).uniform(0.5, 2.0, len(leaves))
    return uw.build_tree(TreeSpec(balls=tuple(balls), leaf_measures=dict(zip(leaves, measures))))


def test_streamed_residual_has_the_bits_of_the_whole_arrays(caterpillar, star, monkeypatch):
    # 32-row blocks and windows: n below a block, a multiple of one, one row
    # more (the last block takes it) and neither; up to 95 leaves every
    # gemv, the whole matrix's too, runs on one OpenBLAS thread
    rng = np.random.default_rng(47)
    trees = [random_tree(rng, min_leaves=33, max_leaves=95, max_children=8) for _ in range(8)]
    trees += [random_tree(rng, min_leaves=n, max_leaves=n) for n in (20, 33, 33, 64, 65, 65, 90)]
    trees += [star(95), star(64), caterpillar(95), _comb(31)]
    trees.append(uw.build_tree(TreeSpec(balls=(BallSpec("r", None, 1.0, 2.0),))))
    monkeypatch.setattr(wavelet, "_BLOCK_BYTES", 1)
    for index, tree in enumerate(trees):
        basis = uw.build_basis(tree)
        kernel = random_kernel(rng, tree)
        spec = uw.spectrum(tree, kernel)
        cases = [(basis, spec)]
        if basis.size > 1:
            cases += [(basis, corrupt_spectrum(spec)), (corrupt_basis_sign(basis), spec)]
        for case, (b, s) in enumerate(cases):
            report = uw.verify_spectrum(tree, kernel, b, s)
            assert _bits(report) == _bits(_whole_array_verification(tree, kernel, b, s)), (
                index,
                case,
            )
