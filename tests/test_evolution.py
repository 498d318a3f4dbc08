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
    bessel_j,
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
    wavelet = basis.wavelets[1]  # ball r.0, eigenvalue 1.5
    packet = _packet(binary_tree, binary_kernel, wavelet.vector)
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
    packet = _packet(binary_tree, binary_kernel, basis.wavelets[1].vector)
    period = 2.0 * np.pi / 1.5
    (state,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(period,)))
    assert np.max(np.abs(state.coefficients - packet.coefficients)) <= 1e-10
    # dense-propagator cross-check at the same time
    dense_state = uw.DensePropagator(
        binary_tree, uw.dense_operator(binary_tree, binary_kernel)
    ).schrodinger(basis.wavelets[1].vector, period)
    assert binary_tree.norm(dense_state - basis.wavelets[1].vector) <= 1e-10


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
    packet = _packet(binary_tree, binary_kernel, basis.wavelets[1].vector)
    (state,) = uw.evolve_heat(packet, [1.0])
    # scalar exponential with eigenvalue 1.5
    assert state.coefficients[1] == pytest.approx(0.22313016014842982, rel=1e-12)
    # independent oracle: dense matrix exponential
    matrix = uw.dense_operator(binary_tree, binary_kernel)
    oracle = expm(-matrix) @ basis.wavelets[1].vector
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
    propagator = uw.DensePropagator(tree, matrix)
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

    def __init__(self, tree, matrix):
        type(self).built += 1
        super().__init__(tree, matrix)


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
    got = bessel_j(x, count)
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


def _caterpillar(n):
    """n leaves, one off each ball of a spine of depth n - 1."""
    balls = [uw.BallSpec("s0", None, 1.0)]
    for i in range(n - 1):
        diameter = 1 / (i + 2)
        balls += [
            uw.BallSpec(f"l{i}", f"s{i}", diameter),
            uw.BallSpec(f"s{i + 1}", f"s{i}", diameter),
        ]
    leaves = [f"l{i}" for i in range(n - 1)] + [f"s{n - 1}"]
    measures = np.random.default_rng(n).uniform(0.5, 2.0, n)
    spec = uw.TreeSpec(balls=tuple(balls), leaf_measures=dict(zip(leaves, measures)))
    return uw.build_tree(spec)


def _star(n):
    balls = [uw.BallSpec("r", None, 1.0)] + [uw.BallSpec(f"x{i}", "r", 0.5) for i in range(n)]
    measures = np.random.default_rng(n).uniform(0.5, 2.0, n) / n
    return uw.build_tree(
        uw.TreeSpec(balls=tuple(balls), leaf_measures={f"x{i}": m for i, m in enumerate(measures)})
    )


@pytest.mark.parametrize("shape", ["caterpillar", "star"])
def test_chebyshev_on_adversarial_shapes_matches_expm(shape):
    tree = _caterpillar(120) if shape == "caterpillar" else _star(1000)
    rng = np.random.default_rng(36)
    kernel = random_kernel(rng, tree)
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-2.0, 2.0, tree.n_leaves)
    times = (1.5, -0.4)
    config = uw.EvolutionConfig(times=times, hbar=0.8)
    states = chebyshev_evolve_with_potential(values, potential, tree, kernel, config)
    _assert_close(tree, states, _expm_states(tree, kernel, values, potential, times, 0.8), values)


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
    wavelet = basis.wavelets[1]
    report = uw.check_localization(
        wavelet.vector,
        binary_tree,
        binary_kernel,
        uw.EvolutionConfig(times=(0.0, 0.7, 3.1, 9.9)),
    )
    assert report.passed and report.mean_zero
    assert report.support_ball == wavelet.ball
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
    propagator = uw.DensePropagator(binary_tree, uw.dense_operator(binary_tree, binary_kernel))
    for t in (0.5, 2.0, 7.7):
        state = propagator.schrodinger(values, t)
        assert np.max(np.abs(state[2:])) <= 1e-12


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
        assert report.passed, (ball, report.to_dict())
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
    psi = np.outer(basis.wavelets[1].vector, basis.wavelets[1].vector)
    # different eigenvalue ratio, so the balance operator does not kill it
    phi = np.outer(basis.wavelets[0].vector, basis.wavelets[1].vector)

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
