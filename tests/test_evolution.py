import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

import ultrawave as uw
from ultrawave.certify import (
    random_kernel,
    random_leaf_values,
    random_mean_zero_packet,
    random_tree,
)
from ultrawave import evolution
from ultrawave.evolution import (
    _bessel_j,
    _negligible_order,
    chebyshev_evolve_with_potential,
    chebyshev_expm,
    real_matvec,
)


def _packet(tree, kernel, values):
    basis = uw.build_basis(tree)
    return uw.WavePacket.from_leaf_values(basis, uw.spectrum(tree, kernel), values)


# -- free unitary evolution ---------------------------------------------------


def test_time_zero_is_identity(binary_tree, binary_kernel):
    packet = _packet(binary_tree, binary_kernel, np.array([1.0, 2.0, -1.0, 0.5]))
    (state,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(0.0,)))
    np.testing.assert_array_equal(state.coefficients, packet.coefficients)


def test_single_wavelet_picks_up_pure_phase(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    wavelet = basis.matrix[1]  # ball r.0, eigenvalue 1.5
    packet = _packet(binary_tree, binary_kernel, wavelet)
    t = 0.73
    (state,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(t,)))
    coeff = state.coefficients[1]
    assert abs(coeff) == pytest.approx(1.0, abs=1e-12)
    assert coeff == pytest.approx(np.exp(-1.5j * t), abs=1e-12)
    # every other coefficient stays zero
    others = np.delete(state.coefficients, 1)
    np.testing.assert_allclose(others, 0.0, atol=1e-14)


def test_phase_period_returns_initial_state(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    packet = _packet(binary_tree, binary_kernel, basis.matrix[1])
    period = 2.0 * np.pi / 1.5
    (state,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(period,)))
    assert np.max(np.abs(state.coefficients - packet.coefficients)) <= 1e-10
    # dense-propagator cross-check at the same time
    dense_state = uw.DensePropagator(binary_tree, binary_kernel).schrodinger(
        basis.matrix[1], period
    )
    assert binary_tree.norm(dense_state - basis.matrix[1]) <= 1e-10


def test_unitarity_and_group_law_fuzzed():
    rng = np.random.default_rng(17)
    for _ in range(8):
        tree = random_tree(rng, min_leaves=2, max_leaves=120)
        kernel = random_kernel(rng, tree)
        packet = _packet(tree, kernel, random_leaf_values(rng, tree))
        t1, t2 = rng.uniform(0.0, 10.0, 2)
        (a,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(t1,)))
        (ab,) = uw.evolve_schrodinger(a, uw.EvolutionConfig(times=(t2,)))
        (direct,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(t1 + t2,)))
        assert abs(a.norm() - packet.norm()) <= 1e-10 * packet.norm()
        assert np.linalg.norm(ab.coefficients - direct.coefficients) <= 1e-10 * packet.norm()


def test_hbar_rescales_time(binary_tree, binary_kernel):
    values = np.array([1.0, -0.5, 0.25, 2.0])
    packet = _packet(binary_tree, binary_kernel, values)
    (slow,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(2.0,), hbar=0.5))
    (fast,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(1.0,), hbar=1.0))
    np.testing.assert_allclose(slow.coefficients, fast.coefficients, atol=1e-14)


def test_packet_parseval(binary_tree, binary_kernel):
    rng = np.random.default_rng(2)
    values = random_leaf_values(rng, binary_tree)
    packet = _packet(binary_tree, binary_kernel, values)
    assert packet.norm() == pytest.approx(binary_tree.norm(values), rel=1e-10)
    assert binary_tree.norm(packet.leaf_values() - values) <= 1e-10 * packet.norm()


def test_packet_norm_of_a_tiny_packet_keeps_its_digits(binary_tree, binary_kernel):
    # the squares of 1e-170 underflow; the scaled sum keeps the norm
    values = 1e-170 * np.array([1.0, -1.0, 0.0, 0.0])
    packet = _packet(binary_tree, binary_kernel, values)
    assert packet.norm() == pytest.approx(binary_tree.norm(values), rel=1e-15, abs=0.0)


def test_evolution_config_validation():
    with pytest.raises(ValueError, match="hbar"):
        uw.EvolutionConfig(times=(1.0,), hbar=0.0)
    with pytest.raises(ValueError, match="finite"):
        uw.EvolutionConfig(times=(np.inf,))


@pytest.mark.parametrize("hbar", [np.inf, -np.inf, np.nan])
def test_evolution_config_rejects_a_non_finite_hbar(hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        uw.EvolutionConfig(times=(1.0,), hbar=hbar)


# -- heat flow ----------------------------------------------------------------


def test_heat_time_zero_identity(binary_tree, binary_kernel):
    packet = _packet(binary_tree, binary_kernel, np.array([1.0, 2.0, 3.0, 4.0]))
    (state,) = uw.evolve_heat(packet, [0.0])
    np.testing.assert_array_equal(state.coefficients, packet.coefficients)


def test_heat_single_wavelet_decay(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    packet = _packet(binary_tree, binary_kernel, basis.matrix[1])
    (state,) = uw.evolve_heat(packet, [1.0])
    # scalar exponential with eigenvalue 1.5
    assert state.coefficients[1] == pytest.approx(0.22313016014842982, rel=1e-12)
    # independent oracle: dense matrix exponential
    matrix = uw.dense_operator(binary_tree, binary_kernel)
    oracle = expm(-matrix) @ basis.matrix[1]
    assert binary_tree.norm(state.leaf_values() - oracle) <= 1e-8


def test_heat_rejects_negative_times(binary_tree, binary_kernel):
    packet = _packet(binary_tree, binary_kernel, np.ones(4))
    with pytest.raises(ValueError, match="nonnegative"):
        uw.evolve_heat(packet, [-0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_heat_rejects_non_finite_times(binary_tree, binary_kernel, bad):
    packet = _packet(binary_tree, binary_kernel, np.ones(4))
    with pytest.raises(ValueError, match=str(bad)):
        uw.evolve_heat(packet, [1.0, bad])


def test_heat_mean_zero_packet_dies_out():
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    kernel = uw.constant_kernel(tree, 1.0)  # strictly positive eigenvalues
    values = random_mean_zero_packet(np.random.default_rng(0), tree, "r")
    packet = _packet(tree, kernel, values)
    (late,) = uw.evolve_heat(packet, [80.0])
    # every wavelet mode decays; only the rounding-level constant survives
    assert np.max(np.abs(late.coefficients[:-1])) <= 1e-30
    assert abs(late.coefficients[-1]) <= 1e-12 * packet.norm()


def test_heat_monotone_and_mean_conserving(binary_tree, binary_kernel):
    rng = np.random.default_rng(8)
    packet = _packet(binary_tree, binary_kernel, random_leaf_values(rng, binary_tree))
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    states = uw.evolve_heat(packet, times)
    norms = [s.norm() for s in states]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    means = [uw.mean(binary_tree, s.leaf_values()) for s in states]
    assert max(abs(m - means[0]) for m in means) <= 1e-10 * max(1.0, abs(means[0]))


# -- potential ----------------------------------------------------------------


def test_zero_potential_reduces_to_free(binary_tree, binary_kernel):
    rng = np.random.default_rng(5)
    values = random_leaf_values(rng, binary_tree)
    config = uw.EvolutionConfig(times=(0.3, 1.7), hbar=1.0)
    with_potential = uw.evolve_with_potential(
        values, np.zeros(4), binary_tree, binary_kernel, config
    )
    packet = _packet(binary_tree, binary_kernel, values)
    free = [s.leaf_values() for s in uw.evolve_schrodinger(packet, config)]
    for got, want in zip(with_potential, free):
        assert binary_tree.norm(got - want) <= 1e-8 * binary_tree.norm(values)


def test_constant_potential_is_global_phase(binary_tree, binary_kernel):
    rng = np.random.default_rng(6)
    values = random_leaf_values(rng, binary_tree)
    c, hbar = 0.8, 0.7
    config = uw.EvolutionConfig(times=(2.1,), hbar=hbar)
    (shifted,) = uw.evolve_with_potential(
        values, np.full(4, c), binary_tree, binary_kernel, config
    )
    packet = _packet(binary_tree, binary_kernel, values)
    (free,) = uw.evolve_schrodinger(packet, config)
    expected = np.exp(-1j * c * 2.1 / hbar) * free.leaf_values()
    assert binary_tree.norm(shifted - expected) <= 1e-8 * binary_tree.norm(values)


def test_zero_kernel_potential_gives_pointwise_phases(binary_tree):
    kernel = uw.constant_kernel(binary_tree, 0.0)
    rng = np.random.default_rng(7)
    values = random_leaf_values(rng, binary_tree)
    potential = rng.uniform(-2.0, 2.0, 4)
    t, hbar = 1.3, 2.0
    (state,) = uw.evolve_with_potential(
        values, potential, binary_tree, kernel, uw.EvolutionConfig(times=(t,), hbar=hbar)
    )
    expected = np.exp(-1j * potential * t / hbar) * values
    assert binary_tree.norm(state - expected) <= 1e-10 * binary_tree.norm(values)


def test_potential_norm_preserved(binary_tree, binary_kernel):
    rng = np.random.default_rng(9)
    values = random_leaf_values(rng, binary_tree)
    potential = rng.uniform(-1.0, 1.0, 4)
    states = uw.evolve_with_potential(
        values, potential, binary_tree, binary_kernel, uw.EvolutionConfig(times=(0.5, 5.0))
    )
    for state in states:
        assert binary_tree.norm(state) == pytest.approx(
            binary_tree.norm(values), rel=1e-8
        )


def test_potential_argument_errors(binary_tree, binary_kernel):
    config = uw.EvolutionConfig(times=(1.0,))
    with pytest.raises(ValueError, match="4 values"):
        uw.evolve_with_potential(np.ones(4), np.ones(3), binary_tree, binary_kernel, config)
    with pytest.raises(ValueError, match="real"):
        uw.evolve_with_potential(
            np.ones(4), np.array([1j, 0, 0, 0]), binary_tree, binary_kernel, config
        )


def test_dense_propagator_matches_expm():
    rng = np.random.default_rng(23)
    tree = random_tree(rng, min_leaves=4, max_leaves=24)
    kernel = random_kernel(rng, tree)
    matrix = uw.dense_operator(tree, kernel)
    propagator = uw.DensePropagator(tree, kernel)
    values = random_leaf_values(rng, tree)
    for t in (0.4, 2.9):
        via_eigh = propagator.schrodinger(values, t)
        via_expm = expm(-1j * t * matrix) @ values
        assert tree.norm(via_eigh - via_expm) <= 1e-8 * tree.norm(values)


def test_real_matvec_matches_the_complex_product():
    rng = np.random.default_rng(30)
    matrix = rng.standard_normal((7, 5))
    vector = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_allclose(real_matvec(matrix, vector), matrix @ vector, rtol=1e-15)


class _CountingDense(uw.DensePropagator):
    built = 0

    def __init__(self, tree, kernel, potential=None):
        type(self).built += 1
        super().__init__(tree, kernel, potential)


@pytest.fixture
def dense_builds(monkeypatch):
    """Count DensePropagator constructions inside evolve_with_potential."""
    monkeypatch.setattr(_CountingDense, "built", 0)
    monkeypatch.setattr(evolution, "DensePropagator", _CountingDense)
    return _CountingDense


def _expm_states(tree, kernel, values, potential, times, hbar):
    hamiltonian = hbar**2 * uw.dense_operator(tree, kernel) + np.diag(potential)
    return [expm(-1j * t * hamiltonian / hbar) @ values for t in times]


def _assert_close(tree, got, want, values):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert tree.norm(g - w) <= 1e-8 * tree.norm(values)


@pytest.mark.parametrize("seed", range(6))
def test_lanczos_potential_evolution_matches_expm(seed):
    rng = np.random.default_rng([31, seed])
    tree = random_tree(rng, min_leaves=20, max_leaves=120)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-1.0, 1.0, tree.n_leaves)
    hbar = (1.0, 0.6, 1.3)[seed % 3]
    # unsorted, repeated, zero and negative times
    times = (0.6, -0.3, 0.0, 0.25, 0.6, -0.6)
    config = uw.EvolutionConfig(times=times, hbar=hbar)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, hbar), values)
    np.testing.assert_allclose(states[2], values, rtol=0, atol=1e-14)


def test_lanczos_with_zero_kernel_matches_expm():
    rng = np.random.default_rng(32)
    tree = random_tree(rng, min_leaves=30, max_leaves=60)
    kernel = uw.constant_kernel(tree, 0.0)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-3.0, 3.0, tree.n_leaves)
    times = (2.0, -1.0)
    config = uw.EvolutionConfig(times=times, hbar=0.5)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 0.5), values)


def test_lanczos_on_two_leaves_matches_expm(lopsided_tree):
    kernel = uw.constant_kernel(lopsided_tree, 1.5)
    values = np.array([1.0 - 0.5j, 0.25 + 2.0j])
    potential = np.array([0.3, -0.2])
    times = (0.4, -0.3, 0.5)
    config = uw.EvolutionConfig(times=times)
    states = chebyshev_evolve_with_potential(values, potential, lopsided_tree, kernel, config)
    want = _expm_states(lopsided_tree, kernel, values, potential, times, 1.0)
    _assert_close(lopsided_tree, states, want, values)


@pytest.mark.parametrize("seed", range(3))
def test_lanczos_under_a_large_constant_potential_matches_expm(seed):
    # the error estimate depends on where the spectrum sits, the error does not
    rng = np.random.default_rng([34, seed])
    tree = random_tree(rng, min_leaves=20, max_leaves=60)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = 1e6 + rng.uniform(-1.0, 1.0, tree.n_leaves)
    times = (3.0, -1.0, 0.5)
    config = uw.EvolutionConfig(times=times)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 1.0), values)


def test_large_mild_problem_takes_the_lanczos_route(dense_builds):
    tree = uw.build_tree(uw.padic_preset(2, 9))
    kernel = uw.vladimirov_kernel(tree, 0.5)
    rng = np.random.default_rng(35)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-1.0, 1.0, tree.n_leaves)
    times = (0.5, -0.3)
    lam_max = max(uw.spectrum(tree, kernel).eigenvalues.values())
    width = lam_max + np.ptp(potential)
    assert width * 0.8 <= evolution._DENSE_CROSSOVER * tree.n_leaves**2
    states = uw.evolve_with_potential(
        values, potential, tree, kernel, uw.EvolutionConfig(times=times)
    )
    assert dense_builds.built == 0
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 1.0), values)


def _stiff_instance():
    rng = np.random.default_rng(33)
    tree = random_tree(rng, min_leaves=60, max_leaves=90)
    kernel = random_kernel(rng, tree, low=50.0, high=100.0, zero_fraction=0.0)
    return tree, kernel, random_leaf_values(rng, tree), rng.uniform(-5.0, 5.0, tree.n_leaves)


def test_stiff_potential_evolution_takes_the_dense_route(dense_builds):
    tree, kernel, values, potential = _stiff_instance()
    times = (0.5, -0.2)
    lam_max = max(uw.spectrum(tree, kernel).eigenvalues.values())
    width = lam_max + np.ptp(potential)
    assert width * 0.7 > 10 * evolution._DENSE_CROSSOVER * tree.n_leaves**2
    states = uw.evolve_with_potential(
        values, potential, tree, kernel, uw.EvolutionConfig(times=times)
    )
    assert dense_builds.built == 1
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 1.0), values)


def test_dense_route_takes_a_tiny_hbar(dense_builds):
    # U / hbar**2 overflows here; H / hbar = hbar * operator + U / hbar does not
    tree, kernel, values, potential = _stiff_instance()
    hbar = 1e-160
    times = (5 * hbar, -2 * hbar)
    states = uw.evolve_with_potential(
        values, potential, tree, kernel, uw.EvolutionConfig(times=times, hbar=hbar)
    )
    assert dense_builds.built == 1
    # hbar * t * operator is far below rounding: only the potential's phase is left
    want = [np.exp(-1j * potential * (t / hbar)) * values for t in times]
    _assert_close(tree, states, want, values)


def test_lanczos_is_accurate_on_the_stiff_side_too():
    tree, kernel, values, potential = _stiff_instance()
    times = (0.5, -0.2)
    config = uw.EvolutionConfig(times=times)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 1.0), values)


def test_dense_route_is_bounded_in_size():
    crossover = evolution._DENSE_CROSSOVER
    assert not evolution._dense_is_cheaper(crossover * 2048**2, 2048)
    assert evolution._dense_is_cheaper(2 * crossover * 2048**2, 2048)
    # beyond the largest size its n x n arrays are not affordable, however stiff
    n = evolution._DENSE_MAX_LEAVES + 1
    assert not evolution._dense_is_cheaper(1e300, n)


def test_lanczos_of_the_zero_state_is_zero(binary_tree, binary_kernel):
    states = chebyshev_evolve_with_potential(
        np.zeros(4), np.ones(4), binary_tree, binary_kernel, uw.EvolutionConfig(times=(1.0, -2.0))
    )
    for state in states:
        np.testing.assert_array_equal(state, 0.0)


def _bessel_by_quadrature(x, orders, points=4096):
    """J_k(x) = mean of cos(k tau - x sin tau) over ``points`` equispaced
    tau, exact up to J_{points - k}(x); in long double, with k tau reduced
    modulo 2 pi in integers."""
    m = np.arange(points)
    turns = (orders[:, None] * m) % points
    tau = 2 * np.pi * np.longdouble(1) / points
    phase = tau * turns - np.longdouble(x) * np.sin(tau * m)
    return np.cos(phase).mean(axis=1).astype(float)


@pytest.mark.parametrize("x", [0.0, 1e-3, 1.0, 40.0, 80.0, 1e3])
def test_bessel_values_match_independent_references(x):
    count = int(1.5 * x) + 30
    got = _bessel_j(x, count, _negligible_order(x))
    assert got.shape == (count,)
    if x < 1e3:
        np.testing.assert_allclose(got, jv(np.arange(count), x), rtol=0, atol=1e-14)
    else:
        # scipy's jv is itself off by up to 1.8e-14 here (against 40-digit
        # mpmath), so every third order is checked against the quadrature
        orders = np.arange(0, count, 3)
        want = _bessel_by_quadrature(x, orders)
        np.testing.assert_allclose(got[orders], want, rtol=0, atol=1e-14)


def _counting_products(monkeypatch):
    """Count the operator products inside every chebyshev_expm call."""
    products = []

    def counting(matvec, *args):
        def counted(g):
            products.append(1)
            return matvec(g)

        return chebyshev_expm(counted, *args)

    monkeypatch.setattr(evolution, "chebyshev_expm", counting)
    return products


@pytest.mark.parametrize("shape", ["caterpillar", "star"])
def test_chebyshev_on_adversarial_shapes_matches_expm(shape, caterpillar, star):
    tree = caterpillar(120) if shape == "caterpillar" else star(1000)
    rng = np.random.default_rng(36)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-2.0, 2.0, tree.n_leaves)
    times = (1.5, -0.4)
    config = uw.EvolutionConfig(times=times, hbar=0.8)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 0.8), values)


@pytest.mark.parametrize("shape", ["caterpillar", "star"])
def test_chebyshev_on_adversarial_shapes_matches_the_dense_propagator(shape, caterpillar, star):
    tree = caterpillar(512) if shape == "caterpillar" else star(1000)
    rng = np.random.default_rng(40)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-2.0, 2.0, tree.n_leaves)
    times = (1.5, -0.4)
    config = uw.EvolutionConfig(times=times)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    dense = uw.DensePropagator(tree, kernel, potential)
    _assert_close(tree, states, [dense.schrodinger(values, t) for t in times], values)


def test_chebyshev_of_zero_width_is_a_pure_phase(monkeypatch, binary_tree):
    # zero kernel and a constant potential: H / hbar is c / hbar times one
    products = _counting_products(monkeypatch)
    kernel = uw.constant_kernel(binary_tree, 0.0)
    values = random_leaf_values(np.random.default_rng(37), binary_tree)
    potential = np.full(4, 0.7)
    times = (2.0, -1.0, 0.0)
    config = uw.EvolutionConfig(times=times, hbar=0.5)
    states = chebyshev_evolve_with_potential(values, potential, binary_tree, kernel, config)
    assert not products
    want = _expm_states(binary_tree, kernel, values, potential, times, 0.5)
    _assert_close(binary_tree, states, want, values)
    for got, t in zip(states, times):
        np.testing.assert_allclose(got, np.exp(-1.4j * t) * values, rtol=1e-15)


def test_chebyshev_of_degree_above_ten_thousand_matches_expm(monkeypatch):
    products = _counting_products(monkeypatch)
    rng = np.random.default_rng(38)
    tree = random_tree(rng, min_leaves=20, max_leaves=40)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-1.0, 1.0, tree.n_leaves)
    times = (-4000.0, 40.0, 1700.0)
    config = uw.EvolutionConfig(times=times)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    assert len(products) >= 10_000
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 1.0), values)


def test_chebyshev_product_count_on_the_512_leaf_tree(monkeypatch):
    products = _counting_products(monkeypatch)
    tree = uw.build_tree(uw.padic_preset(2, 9))
    kernel = uw.vladimirov_kernel(tree, 0.5)
    rng = np.random.default_rng(39)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-5.0, 5.0, tree.n_leaves)
    config = uw.EvolutionConfig(times=(0.0, 0.5, 1.0, -2.0))
    chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    assert len(products) == 76


def _reference_chebyshev_coefficients(x):
    """The coefficients through ``_bessel_j``, with the negligible order
    searched here, outside ``_chebyshev_coefficients``."""
    order = _negligible_order(abs(x))
    j = _bessel_j(abs(x), order, order)
    tail = np.abs(j)
    tail[1:] *= 2
    tail = np.cumsum(tail[::-1])[::-1]
    degree = int(np.count_nonzero(tail > evolution._KRYLOV_TOL)) - 1
    phase = (2, -2j, -2, 2j) if x >= 0 else (2, 2j, -2, -2j)
    c = np.empty(degree + 1, dtype=complex)
    for k in range(min(4, degree + 1)):
        c[k::4] = j[k : degree + 1 : 4] * phase[k]
    c[0] = j[0]
    return c


def test_chebyshev_coefficients_search_the_order_once(monkeypatch):
    xs = (0.0, 1e-3, 0.7, -3.5, 40.0, -1e3, 2.5e4)
    want = [_reference_chebyshev_coefficients(x) for x in xs]
    searches = []
    search = evolution._negligible_order

    def counted(x):
        searches.append(x)
        return search(x)

    monkeypatch.setattr(evolution, "_negligible_order", counted)
    for x, c in zip(xs, want):
        searches.clear()
        got = evolution._chebyshev_coefficients(x)
        assert searches == [abs(x)]
        np.testing.assert_array_equal(got.view(np.int64), c.view(np.int64))  # bitwise


def test_chebyshev_expm_holds_no_table_of_all_coefficients():
    # A = I / 2 with half-width 1, so exp(-i t A) is the phase exp(-i t / 2)
    times = (1e5, -0.9e5, 0.5e5)
    sizes = [evolution._chebyshev_coefficients(t).nbytes for t in times]
    table = len(times) * max(sizes)
    peaks = []

    def matvec(g):
        # every coefficient is computed before the first product
        if not peaks:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return 0.5 * g

    start = np.array([1.0, -2.0j, 0.5])
    tracemalloc.start()
    try:
        states = chebyshev_expm(matvec, start, times, 1.0)
    finally:
        tracemalloc.stop()
    # each time's coefficients and one time's working arrays; a
    # len(times) x degree table beside them would add about ``table``
    assert peaks[0] <= sum(sizes) + 0.5 * table
    for state, t in zip(states, times):
        np.testing.assert_allclose(state, np.exp(-0.5j * t) * start, rtol=0, atol=1e-11)


def test_chebyshev_expm_rejects_non_finite_input_before_any_product():
    def matvec(g):
        raise AssertionError("no product may be taken")

    start = np.ones(3, dtype=complex)
    with pytest.raises(ValueError, match="half-width must be finite"):
        chebyshev_expm(matvec, start, (1.0,), np.inf)
    with pytest.raises(ValueError, match="half-width must be finite"):
        chebyshev_expm(matvec, start, (1.0,), np.nan)
    with pytest.raises(ValueError, match="times must be finite.*got nan"):
        chebyshev_expm(matvec, start, (1.0, np.nan), 2.0)
    with pytest.raises(ValueError, match=r"product with the half-width 1e\+200; got 1e\+200"):
        chebyshev_expm(matvec, start, (1.0, 1e200), 1e200)


def test_chebyshev_route_rejects_a_time_past_its_bound_at_once(binary_tree, binary_kernel):
    config = uw.EvolutionConfig(times=(0.0, 1e9))
    start = time.monotonic()
    # the spectrum of H is [0, 1.5]: half-width 0.75
    message = (
        r"^time 1000000000\.0 is too large: with the spectral half-width 0\.75 it needs "
        r"about 7\.5e\+08 Chebyshev products, more than the 1e\+06 allowed$"
    )
    with pytest.raises(ValueError, match=message):
        chebyshev_evolve_with_potential(
            np.array([1.0, -1.0, 0.0, 0.0]), np.zeros(4), binary_tree, binary_kernel, config
        )
    assert time.monotonic() - start < 1


def _last_time_with_digits(top):
    """The largest time t whose phase top * t is below the phase limit."""
    t = evolution._PHASE_LIMIT / top
    while top * t >= evolution._PHASE_LIMIT:
        t = math.nextafter(t, 0.0)
    return t


def _phase_error(t):
    return rf"^time {re.escape(repr(t))} is too large: the phase .* has no digits$"


def test_schrodinger_rejects_a_phase_without_digits(heavy_star):
    tree = uw.build_tree(uw.tree_spec_from_dict(heavy_star))
    kernel = uw.constant_kernel(tree, 0.5)
    packet = _packet(tree, kernel, random_leaf_values(np.random.default_rng(3), tree))
    top = float(np.max(packet.spectrum.for_basis(packet.basis)))
    assert top > 1e148
    last = _last_time_with_digits(top)
    for state in uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(last, -last))):
        assert state.norm() == pytest.approx(packet.norm(), rel=1e-12)
    for t in (math.nextafter(last, math.inf), -1.0):
        with pytest.raises(ValueError, match=_phase_error(t)):
            uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(0.0, t)))


def test_potential_evolution_rejects_a_phase_without_digits(heavy_star, dense_builds):
    tree = uw.build_tree(uw.tree_spec_from_dict(heavy_star))
    kernel = uw.constant_kernel(tree, 0.5)
    values = random_leaf_values(np.random.default_rng(3), tree)
    potential = np.zeros(tree.n_leaves)
    # the spectrum of H is [0, lambda_max]; the dense route has no product bound
    top = float(uw.spectrum(tree, kernel).eigenvalues.array.max())
    last = _last_time_with_digits(top)
    (state,) = uw.evolve_with_potential(
        values, potential, tree, kernel, uw.EvolutionConfig(times=(last,))
    )
    assert dense_builds.built == 1
    assert tree.norm(state) == pytest.approx(tree.norm(values), rel=1e-10)
    for t in (math.nextafter(last, math.inf), -1.0):
        with pytest.raises(ValueError, match=_phase_error(t)):
            uw.evolve_with_potential(
                values, potential, tree, kernel, uw.EvolutionConfig(times=(0.0, t))
            )
    assert dense_builds.built == 1


def test_forced_chebyshev_route_rejects_a_phase_without_digits():
    # U = 1e20 puts the spectrum of H at 1e20, whose ulp is 16384 rad: the
    # forced route must refuse t = 1 as the routed call does
    tree = uw.build_tree(uw.padic_preset(2, 3))
    kernel = uw.vladimirov_kernel(tree, 0.5)
    values = np.zeros(tree.n_leaves, dtype=complex)
    values[:2] = 1.0, -1.0
    potential = np.full(tree.n_leaves, 1e20)
    config = uw.EvolutionConfig(times=(1.0,))
    for evolve in (uw.evolve_with_potential, chebyshev_evolve_with_potential):
        with pytest.raises(ValueError, match=_phase_error(1.0)):
            evolve(values, potential, tree, kernel, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_potential_evolution_rejects_non_finite_input(binary_tree, binary_kernel, bad):
    config = uw.EvolutionConfig(times=(1.0,))
    values = np.ones(4, dtype=complex)
    values[2] = complex(0.0, bad)
    with pytest.raises(ValueError, match=r"initial value at leaf 'r\.1\.0' is not finite"):
        uw.evolve_with_potential(values, np.zeros(4), binary_tree, binary_kernel, config)
    potential = np.zeros(4)
    potential[3] = bad
    with pytest.raises(ValueError, match=r"potential at leaf 'r\.1\.1' is not finite"):
        uw.evolve_with_potential(np.ones(4), potential, binary_tree, binary_kernel, config)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wave_packet_rejects_non_finite_values(binary_tree, binary_kernel, bad):
    with pytest.raises(ValueError, match=r"leaf value at leaf 'r\.1\.0' is not finite"):
        _packet(binary_tree, binary_kernel, [1.0, -1.0, bad, 0.0])


# -- localization ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_localization_rejects_non_finite_values(binary_tree, binary_kernel, bad):
    config = uw.EvolutionConfig(times=(1.0,))
    with pytest.raises(ValueError, match=r"initial value at leaf 'r\.1\.0' is not finite"):
        uw.check_localization([1.0, -1.0, bad, 0.0], binary_tree, binary_kernel, config)


def test_wavelet_stays_in_its_ball(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    wavelet = basis.matrix[1]
    report = uw.check_localization(
        wavelet,
        binary_tree,
        binary_kernel,
        uw.EvolutionConfig(times=(0.0, 0.7, 3.1, 9.9)),
    )
    assert report.passed and report.mean_zero
    ball = binary_tree.parent[basis.plan.child[1]]
    assert report.support_ball == binary_tree.ids_of(ball) == "r.0"
    assert all(s.outside_mass == 0.0 for s in report.samples)
    assert all(s.mean_abs <= 1e-12 for s in report.samples)


def test_two_leaf_difference_stays_in_level_one_ball(binary_tree, binary_kernel):
    values = np.array([1.0, -1.0, 0.0, 0.0])  # mean zero inside r.0
    report = uw.check_localization(
        values, binary_tree, binary_kernel, uw.EvolutionConfig(times=(0.5, 2.0, 7.7))
    )
    assert report.passed
    assert report.support_ball == "r.0"
    # dense propagator agrees that nothing leaks
    propagator = uw.DensePropagator(binary_tree, binary_kernel)
    for t in (0.5, 2.0, 7.7):
        state = propagator.schrodinger(values, t)
        assert np.max(np.abs(state[2:])) <= 1e-12


def _ball_potential_instance(shape):
    """A tree and kernel, a mean-zero packet in a ball B, the non-root internal
    ball with the most leaves, and a potential equal to 0.7 on B and
    uniform(-3, 3) elsewhere."""
    rng = np.random.default_rng([20, 0])
    if shape == "padic-3":
        tree = uw.build_tree(uw.padic_preset(3, 4))
        kernel = uw.vladimirov_kernel(tree, 0.5)
    else:
        tree = random_tree(rng, min_leaves=100, max_leaves=190, min_depth=3)
        kernel = random_kernel(rng, tree)
    assert tree.n_leaves <= 200
    internal = tree.internal_balls[1:]
    ball = tree.ids_of(internal[np.argmax((tree.leaf_stop - tree.leaf_start)[internal])])
    values = random_mean_zero_packet(rng, tree, ball)
    potential = rng.uniform(-3.0, 3.0, tree.n_leaves)
    potential[tree.leaf_slice(ball)] = 0.7
    return tree, kernel, ball, values, potential


@pytest.mark.parametrize("route", ["dense", "chebyshev"])
@pytest.mark.parametrize("hbar", [1.0, 0.6])
@pytest.mark.parametrize("shape", ["padic-3", "random"])
def test_potential_constant_on_the_packets_ball_is_a_phase(shape, hbar, route, dense_builds):
    """exp(-itH/hbar) f = exp(-ict/hbar) exp(-i hbar t M) f for f mean zero in
    a ball B and V = c on B: H = hbar**2 M + V maps the mean-zero functions in
    B into themselves and acts on them as hbar**2 M + c.  The left side is a
    potential route, the right the spectral route; a change of V on one leaf
    of B breaks the identity."""
    tree, kernel, ball, values, potential = _ball_potential_instance(shape)
    config = uw.EvolutionConfig(times=(0.5, -1.0, 3.0), hbar=hbar)
    free = uw.evolve_schrodinger(_packet(tree, kernel, values), config)
    want = [np.exp(-0.7j * t / hbar) * s.leaf_values() for s, t in zip(free, config.times)]
    evolve = uw.evolve_with_potential if route == "dense" else chebyshev_evolve_with_potential

    def error(v):
        states = evolve(values, v, tree, kernel, config)
        return max(tree.norm(s - w) for s, w in zip(states, want)) / tree.norm(values)

    # measured at most 5.5e-13 (Chebyshev, random tree, hbar 0.6); the
    # changed potential reads 1.8e-4 and more
    assert error(potential) <= 1e-10
    assert dense_builds.built == (route == "dense")
    step = potential.copy()
    step[tree.leaf_slice(ball).start] += 1e-3
    assert error(step) > 1e-10


def test_leaf_indicator_fails_precondition_and_leaks(binary_tree, binary_kernel):
    indicator = np.zeros(4)
    indicator[0] = 1.0
    report = uw.check_localization(
        indicator,
        binary_tree,
        binary_kernel,
        uw.EvolutionConfig(times=(0.4, 1.1, 2.8)),
        demonstrate_leakage=True,
    )
    assert not report.mean_zero
    assert not report.passed
    assert report.leakage_outside_mass is not None
    assert report.leakage_outside_mass > 1e-3


def test_mean_zero_precondition_is_measured_on_the_support_ball():
    """A light ball beside a heavy sibling: the packet's mean, 1e-11, is far
    below 1e-10 of the whole space's scale but 500 times the support ball's,
    and such a mean does leak out of the ball."""
    spec = uw.TreeSpec(
        balls=(
            uw.BallSpec("r", None, 1.0),
            uw.BallSpec("b", "r", 0.5),
            uw.BallSpec("b0", "b", 0.25),
            uw.BallSpec("b1", "b", 0.25),
            uw.BallSpec("c", "r", 0.5),
        ),
        leaf_measures={"b0": 1e-4, "b1": 1e-4, "c": 1e4},
    )
    tree = uw.build_tree(spec)
    kernel = uw.constant_kernel(tree)
    values = np.array([1.0, -1.0 + 1e-7, 0.0])
    mean_abs = abs(uw.mean(tree, values))
    sqrt_ball_measure = math.sqrt(tree.measure[tree.index("b")])
    assert 400 * 1e-10 * sqrt_ball_measure * tree.norm(values) < mean_abs
    assert mean_abs < 1e-10 * math.sqrt(tree.total_measure) * tree.norm(values)
    report = uw.check_localization(
        values, tree, kernel, uw.EvolutionConfig(times=(1.0,)), demonstrate_leakage=True
    )
    assert report.support_ball == "b"
    assert not report.mean_zero
    assert not report.passed
    # the leak a mean can cause is bounded by |mean| / sqrt(nu(B))
    assert 0 < report.leakage_outside_mass <= mean_abs / sqrt_ball_measure


def test_zero_packet_is_mean_zero_and_stays_zero(binary_tree, binary_kernel):
    report = uw.check_localization(
        np.zeros(4), binary_tree, binary_kernel, uw.EvolutionConfig(times=(0.5, 2.0))
    )
    assert report.mean_zero and report.passed
    assert report.support_ball is None
    assert all(s.outside_mass == 0.0 and s.mean_abs == 0.0 for s in report.samples)
    figures = (report.relative_outside_mass, report.relative_mean, report.relative_leak)
    assert figures == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_a_leak_fails_localization_at_every_amplitude(
    binary_tree, binary_kernel, monkeypatch, scale
):
    """Each evolved state gains 0.1 * ||f|| on the constant: a tenth of the
    packet, spread over the whole space, whatever the packet's amplitude."""
    evolve = evolution.evolve_schrodinger

    def leaky(packet, config):
        constant = np.zeros(packet.basis.size)
        constant[-1] = 0.1 * packet.norm()
        return [
            dataclasses.replace(s, coefficients=s.coefficients + constant)
            for s in evolve(packet, config)
        ]

    values = scale * np.array([1.0, -1.0, 0.0, 0.0])
    config = uw.EvolutionConfig(times=(0.5, 2.0))
    monkeypatch.setattr(evolution, "evolve_schrodinger", leaky)
    report = uw.check_localization(values, binary_tree, binary_kernel, config)
    assert report.mean_zero and report.support_ball == "r.0"
    assert not report.passed
    # half the measure lies outside r.0, and the constant's mean is 0.1 ||f||
    assert report.relative_outside_mass == pytest.approx(0.1 * math.sqrt(0.5), rel=1e-12)
    assert report.relative_mean == pytest.approx(0.1, rel=1e-12)
    assert report.relative_leak == 0.0


def test_a_leak_from_a_tiny_packet_fails_localization(binary_tree, binary_kernel, monkeypatch):
    """A packet of values near 1e-170, whose squares underflow, keeps its
    norm, and 1e-171 added to the root wavelet's coefficient of every
    evolved state, a tenth of the packet leaking out of r.0, fails."""
    evolve = evolution.evolve_schrodinger
    values = 1e-170 * np.array([1.0, -1.0, 0.0, 0.0])
    config = uw.EvolutionConfig(times=(0.5, 2.0))
    report = uw.check_localization(values, binary_tree, binary_kernel, config)
    assert report.initial_norm == pytest.approx(1e-170 * math.sqrt(0.5), rel=1e-15, abs=0.0)
    assert report.mean_zero and report.passed

    def leaky(packet, config):
        root_wavelet = np.zeros(packet.basis.size)
        root_wavelet[0] = 1e-171
        return [
            dataclasses.replace(s, coefficients=s.coefficients + root_wavelet)
            for s in evolve(packet, config)
        ]

    monkeypatch.setattr(evolution, "evolve_schrodinger", leaky)
    report = uw.check_localization(values, binary_tree, binary_kernel, config)
    assert report.mean_zero and report.support_ball == "r.0"
    assert not report.passed
    # the root wavelet is -1 on r.1, half the measure
    assert report.relative_outside_mass == pytest.approx(0.1, rel=1e-12)


def test_localization_fuzzed_packets():
    rng = np.random.default_rng(31)
    for _ in range(6):
        tree = random_tree(rng, min_leaves=6, max_leaves=90, min_depth=2)
        kernel = random_kernel(rng, tree)
        proper = [b for b in tree.internal if b != tree.root]
        ball = proper[int(rng.integers(len(proper)))]
        values = random_mean_zero_packet(rng, tree, ball)
        report = uw.check_localization(
            values, tree, kernel, uw.EvolutionConfig(times=tuple(rng.uniform(0, 10, 5)))
        )
        assert report.passed, (ball, report)
        norm0 = tree.norm(values)
        assert all(s.outside_mass <= 1e-10 * norm0 for s in report.samples)


# -- space-time products --------------------------------------------------------


def test_wavelet_product_solves_balance_equation(binary_tree, binary_kernel):
    for ball_x, j_x in (("r", 1), ("r.0", 1)):
        for ball_t, j_t in (("r", 1), ("r.1", 1)):
            report = uw.spacetime_product_check(
                binary_tree, binary_kernel, ball_x, j_x,
                binary_tree, binary_kernel, ball_t, j_t,
            )
            assert report.passed
            assert report.residual_norm <= 1e-10 * report.norm


def test_product_check_reads_one_wavelet_row_not_the_whole_matrix(monkeypatch):
    # the check needs one row of each basis; the whole matrix is size-by-n
    tree = random_tree(np.random.default_rng(31), min_leaves=40, max_leaves=80)
    kernel = uw.vladimirov_kernel(tree, 0.5)

    def whole_matrix(self):
        raise AssertionError("the whole basis matrix was built")

    monkeypatch.setattr(uw.WaveletBasis, "matrix", property(whole_matrix))
    for ball in tree.internal[:6]:
        report = uw.spacetime_product_check(tree, kernel, ball, 1, tree, kernel, tree.root, 1)
        assert report.passed


def test_zero_eigenvalue_is_rejected(binary_tree, binary_kernel):
    silent = uw.constant_kernel(binary_tree, 0.0)
    with pytest.raises(ValueError, match="nonzero eigenvalues"):
        uw.spacetime_product_check(
            binary_tree, binary_kernel, "r", 1, binary_tree, silent, "r", 1
        )


def test_perturbed_product_residual_scales_linearly(binary_tree, binary_kernel):
    basis = uw.build_basis(binary_tree)
    spec = uw.spectrum(binary_tree, binary_kernel)
    matrix = uw.dense_operator(binary_tree, binary_kernel)
    lam_x = spec.eigenvalues["r.0"]
    lam_t = spec.eigenvalues["r.0"]
    psi = np.outer(basis.matrix[1], basis.matrix[1])
    # different eigenvalue ratio, so the balance operator does not kill it
    phi = np.outer(basis.matrix[0], basis.matrix[1])

    def residual(grid):
        value = (grid @ matrix.T) / lam_t - (matrix @ grid) / lam_x
        weights = np.outer(binary_tree.leaf_measures, binary_tree.leaf_measures)
        return float(np.sqrt(np.sum(np.abs(value) ** 2 * weights)))

    assert residual(psi) <= 1e-12
    r1 = residual(psi + 1e-3 * phi)
    r2 = residual(psi + 2e-3 * phi)
    assert r1 > 1e-5  # genuinely nonzero
    assert r2 / r1 == pytest.approx(2.0, rel=1e-6)


def test_unknown_wavelet_index_rejected(binary_tree, binary_kernel):
    with pytest.raises(ValueError, match="no wavelet"):
        uw.spacetime_product_check(
            binary_tree, binary_kernel, "r", 7, binary_tree, binary_kernel, "r", 1
        )
