"""Acceptance gate: one test per headline criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success) and enforces the stated tolerance and runtime budget.  The fuzz
corpora are derived deterministically from seed 42.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

import ultrawave as uw
from ultrawave.certify import (
    heat_checks,
    random_kernel,
    random_leaf_values,
    random_mean_zero_packet,
    random_tree,
    unitarity_checks,
)

SEED = 42


def _corpus(n=100, max_leaves=200, min_leaves=2, min_depth=1, salt=0):
    for index in range(n):
        rng = np.random.default_rng([SEED, salt, index])
        tree = random_tree(
            rng, min_leaves=min_leaves, max_leaves=max_leaves, min_depth=min_depth
        )
        yield rng, tree, random_kernel(rng, tree)


def _line(number, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail} [{elapsed:.1f}s]")


def test_criterion_1_eigenbasis_certificate():
    start = time.perf_counter()
    worst_gram = 0.0
    count_ok = True
    for _, tree, _ in _corpus():
        basis = uw.build_basis(tree)
        worst_gram = max(
            worst_gram, float(np.max(np.abs(basis.gram() - np.eye(basis.size))))
        )
        count_ok = count_ok and len(basis.wavelets) + 1 == tree.n_leaves
    elapsed = time.perf_counter() - start
    passed = worst_gram <= 1e-10 and count_ok and elapsed < 60
    _line(
        1,
        "eigenbasis certificate",
        passed,
        f"worst gram deviation {worst_gram:.3e}, count identity {'exact' if count_ok else 'BROKEN'}",
        elapsed,
    )
    assert worst_gram <= 1e-10
    assert count_ok
    assert elapsed < 60


def test_criterion_2_eigenvalue_formula_vs_oracle():
    start = time.perf_counter()
    worst_residual = 0.0
    worst_multiset = 0.0
    for _, tree, kernel in _corpus():
        report = uw.verify_spectrum(
            tree, kernel, uw.build_basis(tree), uw.spectrum(tree, kernel)
        )
        worst_residual = max(worst_residual, report.max_residual)
        worst_multiset = max(worst_multiset, report.multiset_max_diff)
    elapsed = time.perf_counter() - start
    passed = worst_residual <= 1e-10 and worst_multiset <= 1e-8 and elapsed < 120
    _line(
        2,
        "eigenvalue formula vs dense oracle",
        passed,
        f"worst residual {worst_residual:.3e}, worst multiset diff {worst_multiset:.3e}",
        elapsed,
    )
    assert worst_residual <= 1e-10
    assert worst_multiset <= 1e-8
    assert elapsed < 120


def test_criterion_3_hand_derived_fixture():
    start = time.perf_counter()
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    kernel = uw.make_kernel(tree, {"r": 1.0, "r.0": 2.0, "r.1": 2.0})
    spec = uw.spectrum(tree, kernel)
    analytic = sorted(
        [0.0]
        + [
            lam
            for ball, lam in spec.eigenvalues.items()
            for _ in range(tree.child_count[tree.index(ball)] - 1)
        ]
    )
    deviation = float(np.max(np.abs(np.array(analytic) - np.array([0.0, 1.0, 1.5, 1.5]))))
    elapsed = time.perf_counter() - start
    passed = deviation <= 1e-12 and elapsed < 1
    _line(
        3,
        "hand-derived fixture spectrum {0, 1, 1.5, 1.5}",
        passed,
        f"max deviation {deviation:.3e}",
        elapsed,
    )
    assert deviation <= 1e-12
    assert elapsed < 1


def test_criterion_4_localization():
    start = time.perf_counter()
    worst_outside = 0.0
    worst_mean = 0.0
    for rng, tree, kernel in _corpus(min_leaves=4, min_depth=2, salt=4):
        proper = [b for b in tree.internal if b != tree.root]
        ball = proper[int(rng.integers(len(proper)))]
        values = random_mean_zero_packet(rng, tree, ball)
        config = uw.EvolutionConfig(times=tuple(rng.uniform(0.0, 10.0, 5)))
        report = uw.check_localization(values, tree, kernel, config, tol=1e-10)
        assert report.mean_zero and report.support_ball is not None
        outer, inner = tree.leaf_slice(ball), tree.leaf_slice(report.support_ball)
        assert outer.start <= inner.start and inner.stop <= outer.stop
        norm0 = max(report.initial_norm, 1e-300)
        worst_outside = max(
            worst_outside, max(s.outside_mass for s in report.samples) / norm0
        )
        worst_mean = max(
            worst_mean, max(s.mean_abs for s in report.samples) / report.mean_scale
        )

    # negative control: a bare leaf indicator is not mean zero and leaks
    leaked = 0.0
    for _, tree, kernel in _corpus(n=5, min_leaves=4, min_depth=2, salt=5):
        indicator = np.zeros(tree.n_leaves)
        indicator[0] = 1.0
        report = uw.check_localization(
            indicator,
            tree,
            kernel,
            uw.EvolutionConfig(times=(0.5, 1.5, 3.0, 6.0, 9.0)),
            demonstrate_leakage=True,
        )
        assert not report.mean_zero
        leaked = max(leaked, report.leakage_outside_mass or 0.0)
    elapsed = time.perf_counter() - start
    passed = (
        worst_outside <= 1e-10 and worst_mean <= 1e-10 and leaked > 1e-3 and elapsed < 60
    )
    _line(
        4,
        "localization of mean-zero packets",
        passed,
        f"worst outside mass {worst_outside:.3e}, worst mean {worst_mean:.3e}, "
        f"control leakage {leaked:.3e}",
        elapsed,
    )
    assert worst_outside <= 1e-10
    assert worst_mean <= 1e-10
    assert leaked > 1e-3
    assert elapsed < 60


def test_criterion_5_unitarity_and_semigroup_laws():
    start = time.perf_counter()
    worst = {}
    for rng, tree, kernel in _corpus(salt=6):
        basis = uw.build_basis(tree)
        spec = uw.spectrum(tree, kernel)
        checks = unitarity_checks(tree, kernel, basis, spec, rng, dense_leaf_limit=0)
        checks += heat_checks(tree, kernel, basis, spec, rng)
        for name, value, tol in checks:
            seen, _ = worst.get(name, (0.0, tol))
            worst[name] = (max(seen, value), tol)
    elapsed = time.perf_counter() - start
    failed = {k: v for k, (v, tol) in worst.items() if v > tol}
    detail = ", ".join(f"{k} {v:.2e}" for k, (v, _) in sorted(worst.items()))
    passed = not failed and elapsed < 60
    _line(5, "unitarity and semigroup laws", passed, detail, elapsed)
    assert not failed, failed
    assert elapsed < 60


def test_criterion_6_spectral_dense_propagator_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for index in range(20):
        rng = np.random.default_rng([SEED, 7, index])
        tree = random_tree(rng, min_leaves=2, max_leaves=64)
        kernel = random_kernel(rng, tree)
        basis = uw.build_basis(tree)
        spec = uw.spectrum(tree, kernel)
        values = random_leaf_values(rng, tree)
        norm0 = tree.norm(values)
        packet = uw.WavePacket.from_leaf_values(basis, spec, values)
        matrix = uw.dense_operator(tree, kernel)
        times = tuple(rng.uniform(0.0, 10.0, 3))
        spectral = [
            s.leaf_values()
            for s in uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=times))
        ]
        for t, state in zip(times, spectral):
            oracle = expm(-1j * t * matrix) @ values
            worst = max(worst, tree.norm(state - oracle) / norm0)

        # potential reductions: U = 0 and U = const are both known in closed form
        config = uw.EvolutionConfig(times=times)
        zero_u = uw.evolve_with_potential(values, np.zeros(tree.n_leaves), tree, kernel, config)
        c = float(rng.uniform(-1.0, 1.0))
        const_u = uw.evolve_with_potential(
            values, np.full(tree.n_leaves, c), tree, kernel, config
        )
        for t, free_state, zero_state, const_state in zip(
            times, spectral, zero_u, const_u
        ):
            worst = max(worst, tree.norm(zero_state - free_state) / norm0)
            phased = np.exp(-1j * c * t) * free_state
            worst = max(worst, tree.norm(const_state - phased) / norm0)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed < 120
    _line(
        6,
        "spectral vs dense matrix-exponential evolution",
        passed,
        f"worst relative deviation {worst:.3e}",
        elapsed,
    )
    assert worst <= 1e-8
    assert elapsed < 120


def test_criterion_7_spacetime_product_solutions():
    start = time.perf_counter()
    worst = 0.0
    for index in range(20):
        rng = np.random.default_rng([SEED, 8, index])
        picks = []
        for _ in range(2):
            tree = random_tree(rng, min_leaves=4, max_leaves=32)
            kernel = random_kernel(rng, tree, low=0.05, zero_fraction=0.0)
            ball = tree.internal[int(rng.integers(len(tree.internal)))]
            arity = int(tree.child_count[tree.index(ball)])
            picks.append((tree, kernel, ball, int(rng.integers(1, arity))))
        (tx, kx, bx, jx), (tt, kt, bt, jt) = picks
        report = uw.spacetime_product_check(tx, kx, bx, jx, tt, kt, bt, jt)
        worst = max(worst, report.residual_norm / report.norm)

    # zero eigenvalues are rejected up front
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    live = uw.constant_kernel(tree, 1.0)
    dead = uw.constant_kernel(tree, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        uw.spacetime_product_check(tree, live, "r", 1, tree, dead, "r", 1)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 30
    _line(
        7,
        "space-time wavelet product solutions",
        passed,
        f"worst relative residual {worst:.3e}",
        elapsed,
    )
    assert worst <= 1e-10
    assert elapsed < 30


def test_criterion_8_cli_gate(tmp_path):
    start = time.perf_counter()

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "ultrawave.cli", *args],
            capture_output=True,
            text=True,
        )

    gate = run("certify", "--seed", "42", "--instances", "100")
    sign_bug = run("certify", "--seed", "42", "--instances", "5", "--inject", "sign-bug")
    tampered_spec = run(
        "certify", "--seed", "42", "--instances", "5", "--inject", "tamper-spectrum"
    )

    # tampered expected-spectrum fixture must be flagged through the CLI too
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"preset": {"type": "padic", "p": 2, "depth": 2}}))
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text(json.dumps({"r": 1.0, "r.0": 2.0, "r.1": 2.0}))
    out = tmp_path / "out"
    baseline = run(
        "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file), "--out", str(out)
    )
    tampered_file = tmp_path / "tampered.csv"
    tampered_file.write_text((out / "spectrum.csv").read_text().replace("1.5", "1.75"))
    mismatch = run(
        "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
        "--out", str(tmp_path / "out2"), "--expected", str(tampered_file),
    )

    elapsed = time.perf_counter() - start
    ok = (
        gate.returncode == 0
        and "ALL CHECKS PASSED" in gate.stdout
        and sign_bug.returncode != 0
        and tampered_spec.returncode != 0
        and baseline.returncode == 0
        and mismatch.returncode != 0
        and elapsed < 300
    )
    _line(
        8,
        "end-to-end CLI gate",
        ok,
        f"certify rc={gate.returncode}, sign-bug rc={sign_bug.returncode}, "
        f"tamper rc={tampered_spec.returncode}, expected-mismatch rc={mismatch.returncode}",
        elapsed,
    )
    assert gate.returncode == 0, gate.stdout + gate.stderr
    assert "ALL CHECKS PASSED" in gate.stdout
    assert sign_bug.returncode != 0
    assert tampered_spec.returncode != 0
    assert baseline.returncode == 0
    assert mismatch.returncode != 0
    assert elapsed < 300
