import numpy as np

import ultrawave as uw
from ultrawave.certify import corrupt_basis_sign, orthonormality_checks, random_tree


def _checks(tree, basis):
    checks = orthonormality_checks(tree, basis, np.random.default_rng(0))
    return {name: (value, tol) for name, value, tol in checks}


def test_orthonormality_suite_compares_fast_and_dense_transforms():
    tree = random_tree(np.random.default_rng(4), min_leaves=50, max_leaves=120)
    checks = _checks(tree, uw.build_basis(tree))
    value, tol = checks["transform_dense_equivalence"]
    assert tol == 1e-12
    assert value <= tol


def test_sign_bug_reaches_fast_and_dense_paths_alike():
    tree = random_tree(np.random.default_rng(8), min_leaves=20, max_leaves=60)
    basis = uw.build_basis(tree)
    broken = corrupt_basis_sign(basis)
    np.testing.assert_array_equal(broken.wavelets[0].vector, np.abs(basis.wavelets[0].vector))
    np.testing.assert_array_equal(broken.matrix[1:], basis.matrix[1:])
    f = np.random.default_rng(1).standard_normal(tree.n_leaves)
    np.testing.assert_allclose(
        broken.analyze(f), broken.matrix @ (f * tree.leaf_measures), rtol=0, atol=1e-12
    )
    checks = _checks(tree, broken)
    assert checks["gram_identity"][0] > checks["gram_identity"][1]
    assert checks["transform_dense_equivalence"][0] <= 1e-12
