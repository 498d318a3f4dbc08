import numpy as np
import pytest

import ultrawave as uw
from ultrawave import evolution
from ultrawave.certify import (
    corrupt_basis_sign,
    orthonormality_checks,
    random_kernel,
    random_tree,
    unitarity_checks,
)
from ultrawave.evolution import chebyshev_expm


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


def test_small_trees_compare_potential_evolution_with_the_dense_propagator(monkeypatch):
    tree = random_tree(np.random.default_rng(12), min_leaves=10, max_leaves=40)
    kernel = random_kernel(np.random.default_rng(13), tree)
    basis, spec = uw.build_basis(tree), uw.spectrum(tree, kernel)
    chebyshev_runs = []

    def counting(*args):
        chebyshev_runs.append(args)
        return chebyshev_expm(*args)

    monkeypatch.setattr(evolution, "chebyshev_expm", counting)

    def run(limit):
        rng = np.random.default_rng(14)
        checks = {name: (value, tol) for name, value, tol in
                  unitarity_checks(tree, kernel, basis, spec, rng, dense_leaf_limit=limit)}
        return checks, rng.random()

    checks, after = run(64)
    value, tol = checks["potential_dense_equivalence"]
    assert tol == 1e-8
    assert value <= tol
    # the comparison runs the Chebyshev route, not the dense one twice
    assert len(chebyshev_runs) == 1
    # above the dense limit the check neither runs nor draws from the stream
    plain, plain_after = run(0)
    assert "potential_dense_equivalence" not in plain
    assert "spectral_dense_equivalence" not in plain
    assert plain_after != after


def test_negative_instance_count_is_rejected():
    with pytest.raises(ValueError, match="instances must be >= 0"):
        uw.run_certification(instances=-3)
