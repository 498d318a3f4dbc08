import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ultrawave as uw
from ultrawave import certify, evolution, wavelet
from ultrawave.certify import (
    corrupt_basis_sign,
    orthonormality_checks,
    random_kernel,
    random_tree,
    unitarity_checks,
)
from ultrawave.evolution import chebyshev_expm


def _checks(tree, basis):
    kernel = random_kernel(np.random.default_rng(1), tree)
    report = uw.verify_spectrum(tree, kernel, basis, uw.spectrum(tree, kernel))
    checks = orthonormality_checks(tree, basis, report, np.random.default_rng(0))
    return {name: (value, tol) for name, value, tol in checks}


def test_orthonormality_suite_compares_fast_and_dense_transforms():
    tree = random_tree(np.random.default_rng(4), min_leaves=50, max_leaves=120)
    checks = _checks(tree, uw.build_basis(tree))
    value, tol = checks["transform_dense_equivalence"]
    assert tol == 1e-12
    assert value <= tol


def _whole_matrix_transform_deviation(tree, basis, rng):
    """``certify._transform_deviation`` from products with the whole matrix,
    as it was computed before the matrix was taken in blocks."""
    values = certify.random_leaf_values(rng, tree)
    coefficients = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    matrix = basis.matrix
    dense_coefficients = evolution.real_matvec(matrix, values * tree.leaf_measures)
    dense_values = evolution.real_matvec(matrix.T, coefficients)
    analyze_gap = certify._relative(
        certify._weighted_norm(basis.analyze(values) - dense_coefficients, 1.0),
        certify._weighted_norm(dense_coefficients, 1.0),
    )
    synthesize_gap = certify._relative(
        tree.norm(basis.synthesize(coefficients) - dense_values), tree.norm(dense_values)
    )
    return max(analyze_gap, synthesize_gap)


def test_transform_check_in_blocks_has_the_bits_of_whole_matrix_products(monkeypatch):
    # 32 rows or columns at a time; up to 95 leaves every gemv, the whole
    # matrix's too, runs on one OpenBLAS thread
    rng = np.random.default_rng(14)
    trees = [random_tree(rng, min_leaves=n, max_leaves=n, max_children=7) for n in (20, 33, 65, 90)]
    trees += [random_tree(rng, min_leaves=33, max_leaves=95) for _ in range(4)]
    monkeypatch.setattr(wavelet, "_BLOCK_BYTES", 1)
    for tree in trees:
        basis = uw.build_basis(tree)
        for b in (basis, corrupt_basis_sign(basis)):
            streamed = certify._transform_deviation(tree, b, np.random.default_rng(5))
            whole = _whole_matrix_transform_deviation(tree, b, np.random.default_rng(5))
            assert streamed.hex() == whole.hex()


@pytest.mark.parametrize(
    "tree",
    [
        uw.build_tree(uw.padic_preset(2, 11)),
        random_tree(np.random.default_rng(3), min_leaves=2048, max_leaves=2048),
    ],
    ids=["padic", "random"],
)
def test_transform_check_memory_is_a_few_blocks(tree):
    # 32-row and 32-column blocks of the matrix at 2048 leaves, 512 KiB
    # each; blocks of 1 MiB would break the bound (1.3 MiB)
    basis = uw.build_basis(tree)
    tracemalloc.start()
    try:
        value = certify._transform_deviation(tree, basis, np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert value <= 1e-12


def test_sign_bug_reaches_fast_and_dense_paths_alike():
    tree = random_tree(np.random.default_rng(8), min_leaves=20, max_leaves=60)
    basis = uw.build_basis(tree)
    broken = corrupt_basis_sign(basis)
    np.testing.assert_array_equal(broken.matrix[0], np.abs(basis.matrix[0]))
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
        monkeypatch.setattr(certify, "_DENSE_LEAF_LIMIT", limit)
        rng = np.random.default_rng(14)
        checks = {name: (value, tol) for name, value, tol in
                  unitarity_checks(tree, kernel, basis, spec, rng)}
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


def test_certify_forms_no_dense_gram_matrix(monkeypatch):
    # the orthonormality suite reads ||G - I||_F from the spectrum report,
    # which reads it off the plan's block structure
    def refused(basis):
        raise AssertionError("certify formed the dense Gram matrix")

    monkeypatch.setattr(uw.WaveletBasis, "gram", refused)
    report = uw.run_certification(instances=3)
    assert report.passed
    worst = {check.name: check.worst for check in report.checks}
    assert 0.0 < worst["gram_identity"] <= 1e-10


def test_negative_instance_count_is_rejected():
    with pytest.raises(ValueError, match="instances must be >= 0"):
        uw.run_certification(instances=-3)


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        uw.run_certification(seed=-1, instances=1)


def test_localization_suite_reports_the_figures_of_the_library(monkeypatch):
    reports = []

    def recording(*args, **kwargs):
        reports.append(evolution.check_localization(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(certify, "check_localization", recording)
    for index in range(4):
        rng = np.random.default_rng([42, index])
        tree = random_tree(rng, max_leaves=60, min_depth=2)
        kernel = random_kernel(rng, tree)
        checks = certify.localization_checks(
            tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel), rng
        )
        report = reports[-1]
        assert checks == [
            ("localization_precondition", 0.0, 0.0),
            ("localization_outside_mass", report.relative_outside_mass, report.tol),
            ("localization_mean", report.relative_mean, report.tol),
            ("localization_coefficients", report.relative_leak, report.tol),
        ]
        assert report.passed and report.relative_leak > 0.0
    assert len(reports) == 4


FIGURES_SCRIPT = """
import numpy as np
import ultrawave as uw
from ultrawave.certify import heat_checks, unitarity_checks
tree = uw.build_tree(uw.padic_preset(2, 17))
kernel = uw.vladimirov_kernel(tree, 0.5)
basis = uw.build_basis(tree)
spec = uw.spectrum(tree, kernel)
rng = np.random.default_rng(42)
checks = unitarity_checks(tree, kernel, basis, spec, rng)
checks += heat_checks(tree, kernel, basis, spec, rng)
print([(name, repr(value)) for name, value, _ in checks])
"""


def test_unitarity_and_heat_figures_are_the_same_for_every_blas_thread_count():
    # on 2^17 leaves a BLAS dot product runs on several threads and sums in
    # an order that follows their count; the package's norm does not
    figures = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(uw.__file__)), env.get("PYTHONPATH", "")]
        )
        run = subprocess.run(
            [sys.executable, "-c", FIGURES_SCRIPT], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        figures.add(run.stdout)
    assert len(figures) == 1, figures
