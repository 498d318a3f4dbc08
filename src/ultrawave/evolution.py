"""Time evolution of wave packets on ball trees.

Free unitary evolution and heat flow act diagonally on wavelet
coefficients: a wavelet attached to eigenvalue lambda picks up the phase
exp(-i*hbar*lambda*t) or the decay exp(-lambda*t).  Because every wavelet
lives inside its own ball and phases never mix coefficients, a mean-zero
packet supported in a ball stays supported in that ball for all time;
``check_localization`` certifies this and can demonstrate, through the
dense propagator, how a packet with nonzero mean leaks out.

A real potential U couples the wavelets, so ``evolve_with_potential``
applies exp(-i t H / hbar) as a Chebyshev expansion (``chebyshev_expm``):
the product H f = hbar**2 * synthesize(lambda * analyze f) + U f costs
O(n), and the expansion, on the operator shifted to a spectrum centred on
0, needs about half the spectral width of H / hbar times the largest |t|
products, shared by all sample times.  That width is bounded a priori by
hbar * max(lambda) + (max U - min U) / hbar.  The dense eigendecomposition
costs O(n**3) whatever the width, so it is used instead when that bound
times the largest |t| exceeds a measured 1.5e-3 * n**2, on trees of at
most 4096 leaves.

``DensePropagator`` evolves leaf functions directly through an
eigendecomposition of the measure-symmetrized operator matrix, with no
reference to wavelets; it is the cross-check route for everything above
and the potential route for small or stiff problems.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat, zip_longest

import numpy as np

from .artifacts import csv_fields, write_csv
from .ball_tree import BallTree, _require_finite
from .pdo import Spectrum, SupKernel, dense_operator, eigenvalue, symmetrized
from .pdo import spectrum as build_spectrum
from .wavelet import WaveletBasis, build_basis, mean


@dataclass(frozen=True)
class EvolutionConfig:
    """Sample times and the hbar scale entering unitary phases."""

    times: tuple[float, ...]
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("sample times must be finite")


@dataclass(frozen=True)
class WavePacket:
    """A state given by its expansion coefficients in a wavelet basis."""

    coefficients: np.ndarray
    basis: WaveletBasis
    spectrum: Spectrum

    @classmethod
    def from_leaf_values(
        cls, basis: WaveletBasis, spectrum: Spectrum, values
    ) -> "WavePacket":
        """Expand leaf values over the basis; non-finite values are rejected."""
        v = basis.tree.as_leaf_values(values)
        _require_finite(basis.tree, v, "leaf value")
        return cls(coefficients=basis.analyze(v), basis=basis, spectrum=spectrum)

    def leaf_values(self) -> np.ndarray:
        return self.basis.synthesize(self.coefficients)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def with_coefficients(self, coefficients) -> "WavePacket":
        return dataclasses.replace(self, coefficients=np.asarray(coefficients, dtype=complex))


def evolve_schrodinger(packet: WavePacket, config: EvolutionConfig) -> list[WavePacket]:
    """Free unitary evolution: coefficients rotate by exp(-i*hbar*lambda*t).

    The constant coefficient is untouched (eigenvalue 0) and the
    coefficient magnitudes are preserved exactly.
    """
    return _propagate(packet, -1j * config.hbar, config.times)


def evolve_heat(packet: WavePacket, times) -> list[WavePacket]:
    """Heat flow: coefficients decay by exp(-lambda*t); requires finite t >= 0."""
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise ValueError(f"heat evolution requires nonnegative times, got {t}")
    return _propagate(packet, -1.0, times)


def _propagate(packet: WavePacket, rate: complex, times) -> list[WavePacket]:
    """Multiply each coefficient by exp(rate * lambda * t), one state per time."""
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"evolution times must be finite, got {t}")
    lam = packet.spectrum.for_basis(packet.basis)
    return [
        packet.with_coefficients(packet.coefficients * np.exp(rate * lam * t)) for t in times
    ]


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` for a real matrix and a complex vector.

    Multiplying the real and imaginary parts separately avoids the complex
    copy of the whole matrix that a mixed-type product makes first.
    """
    return matrix @ vector.real + 1j * (matrix @ vector.imag)


class DensePropagator:
    """exp(scale * H) applied through the eigendecomposition of H.

    H must be self-adjoint under the measure-weighted inner product (any
    dense operator matrix, optionally plus a real diagonal potential).
    Conjugation by diag(sqrt(nu)) turns it into a symmetric matrix whose
    eigendecomposition gives the exact propagator up to linear-algebra
    accuracy, with no series truncation.
    """

    def __init__(self, tree: BallTree, matrix: np.ndarray):
        self.tree = tree
        self._root_weights = np.sqrt(tree.leaf_measures)
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(
            symmetrized(tree, matrix)
        )

    def expm_apply(self, values, scale: complex) -> np.ndarray:
        """Return exp(scale * H) applied to a leaf function."""
        v = self.tree.as_leaf_values(values)
        sym = real_matvec(self._eigenvectors.T, self._root_weights * v)
        sym = np.exp(scale * self._eigenvalues) * sym
        return real_matvec(self._eigenvectors, sym) / self._root_weights

    def schrodinger(self, values, t: float, hbar: float = 1.0) -> np.ndarray:
        """Unitary evolution exp(-i*hbar*t*H) matching the free spectral route."""
        return self.expm_apply(values, -1j * hbar * t)

    def heat(self, values, t: float) -> np.ndarray:
        return self.expm_apply(values, -t)


def evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """Evolve a leaf function under the operator plus a real potential.

    The generator is H = hbar**2 times the operator plus diag(potential);
    the state at time t is exp(-i t H / hbar) applied to the input, for
    times of either sign in any order.  H / hbar has its spectrum in
    [min U / hbar, hbar * max(lambda) + max U / hbar], whose width times
    the largest |t| sets the number of Chebyshev products.  The dense
    eigendecomposition is used where it is measured to be cheaper
    (``_dense_is_cheaper``), the Chebyshev route
    (``chebyshev_evolve_with_potential``) everywhere else.  Both preserve
    the norm to linear-algebra accuracy.
    """
    v, u = _potential_inputs(tree, values, potential)
    spec = build_spectrum(tree, kernel)
    low, high = _spectral_bounds(spec.for_tree(tree), u, config.hbar)
    longest = max((abs(t) for t in config.times), default=0.0)
    if _dense_is_cheaper((high - low) * longest, tree.n_leaves):
        hamiltonian = config.hbar**2 * dense_operator(tree, kernel) + np.diag(u)
        propagator = DensePropagator(tree, hamiltonian)
        return [propagator.expm_apply(v, -1j * t / config.hbar) for t in config.times]
    return _chebyshev_route(tree, spec, v, u, config)


def chebyshev_evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """``evolve_with_potential`` on its Chebyshev route, whatever the width.

    Small trees take the dense route in ``evolve_with_potential``; this
    lets the Chebyshev route be cross-checked against the dense propagator
    there.
    """
    v, u = _potential_inputs(tree, values, potential)
    return _chebyshev_route(tree, build_spectrum(tree, kernel), v, u, config)


def _chebyshev_route(
    tree: BallTree, spec: Spectrum, v: np.ndarray, u: np.ndarray, config: EvolutionConfig
) -> list[np.ndarray]:
    hbar = config.hbar
    basis = build_basis(tree)
    lam = hbar * spec.for_basis(basis)
    # the expansion runs on H / hbar - centre, whose spectrum lies in
    # [-half_width, half_width]; the centre comes back as a phase
    low, high = _spectral_bounds(spec.for_tree(tree), u, hbar)
    centre = (low + high) / 2
    shift = u / hbar - centre

    def matvec(f: np.ndarray) -> np.ndarray:
        return basis.synthesize(lam * basis.analyze(f)) + shift * f

    states = chebyshev_expm(matvec, v, config.times, (high - low) / 2)
    return [np.exp(-1j * centre * t) * f for f, t in zip(states, config.times)]


def _potential_inputs(tree: BallTree, values, potential) -> tuple[np.ndarray, np.ndarray]:
    """Validated leaf values and real potential of a potential evolution."""
    u = np.asarray(potential)
    if u.shape != (tree.n_leaves,):
        raise ValueError(
            f"potential must have {tree.n_leaves} values, got shape {u.shape}"
        )
    if np.iscomplexobj(u) and np.any(u.imag != 0):
        raise ValueError("potential must be real-valued")
    u = u.real.astype(float)
    v = tree.as_leaf_values(values)
    _require_finite(tree, v, "initial value")
    _require_finite(tree, u, "potential")
    return v, u


def _spectral_bounds(eigenvalues: np.ndarray, u: np.ndarray, hbar: float) -> tuple[float, float]:
    """Interval holding the spectrum of H / hbar (the operator is positive)."""
    low = float(np.min(u)) / hbar
    high = hbar * float(np.max(eigenvalues, initial=0.0)) + float(np.max(u)) / hbar
    return low, high


#: Measured crossover of the two potential routes.  Chebyshev takes about
#: width * max|t| / 2 products of O(n), the dense route O(n**3) whatever
#: the width; CHANGES.md has the timings on binary and irregular trees of
#: 2**9 to 2**12 leaves.
_DENSE_CROSSOVER = 1.5e-3
#: Largest tree sent to the dense route: it holds several n x n float
#: arrays at once, over 0.5 GB each beyond this size.
_DENSE_MAX_LEAVES = 4096


def _dense_is_cheaper(width_time: float, n: int) -> bool:
    """Whether the dense route beats Chebyshev for width * max|t| on n leaves."""
    return n <= _DENSE_MAX_LEAVES and width_time > _DENSE_CROSSOVER * n**2


#: Truncation error allowed per sample time, relative to the state norm.
_KRYLOV_TOL = 1e-12
#: Chebyshev vectors held at once; each full block is added into every
#: sample time's state by one matrix product.
_CHEBYSHEV_BLOCK = 16


def chebyshev_expm(matvec, start: np.ndarray, times, half_width: float) -> list[np.ndarray]:
    """exp(-i t A) applied to ``start`` for each time.

    A must be self-adjoint, in whatever inner product measures the error,
    with its spectrum in [-h, h], h = ``half_width``.  Then
    exp(-i t A) = sum_k c_k(t) T_k(A / h) with c_0 = J_0(h t) and
    c_k = 2 (-i)**k J_k(h t), T_k the Chebyshev polynomials (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 1984).  Since |T_k(A / h)| <= 1, each time's
    sum stops at the degree past which sum |c_k| <= ``_KRYLOV_TOL``, so its
    error is at most that times |start|; the degree is fixed before any
    product is taken.  All times, of either sign and in any order, share
    one three-term recurrence T_{k+1} = 2 (A / h) T_k - T_{k-1}, so the
    number of products is the largest degree, about h * max|t|.  States
    come back in the order of ``times``.
    """
    h = float(half_width)
    if not (math.isfinite(h) and h >= 0):
        raise ValueError(f"spectral half-width must be finite and nonnegative, got {half_width}")
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(h * t):
            raise ValueError(
                f"evolution times must be finite, as must their product with the "
                f"half-width {h}; got {t}"
            )
    start = np.asarray(start, dtype=complex)
    expansions = [_chebyshev_coefficients(h * t) for t in times]
    degree = max((c.size for c in expansions), default=1) - 1
    table = np.zeros((len(times), degree + 1), dtype=complex)
    for row, c in zip(table, expansions):
        row[: c.size] = c
    states = np.zeros((len(times), start.size), dtype=complex)
    # T_k(A / h) start sits in row k % rows; rows >= 3 whenever the block
    # wraps, so rows j - 1 and j - 2 (negative indices wrap too) still hold
    # T_{k-1} and T_{k-2}
    rows = min(_CHEBYSHEV_BLOCK, degree + 1)
    block = np.empty((rows, start.size), dtype=complex)
    for k in range(degree + 1):
        j = k % rows
        if k == 0:
            block[0] = start
        elif k == 1:
            np.multiply(matvec(start), 1 / h, out=block[1])
        else:
            np.multiply(matvec(block[j - 1]), 2 / h, out=block[j])
            block[j] -= block[j - 2]
        if j == rows - 1 or k == degree:
            states += table[:, k - j : k + 1] @ block[: j + 1]
    return list(states)


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """c_0 .. c_K of exp(-i x y) = sum_k c_k T_k(y) on [-1, 1].

    c_0 = J_0(x), c_k = 2 (-i)**k J_k(x), with J_k(-x) = (-1)**k J_k(x);
    K is the least degree whose discarded tail has sum |c_k| <= ``_KRYLOV_TOL``.
    """
    j = bessel_j(abs(x), _negligible_order(abs(x)))
    magnitude = 2 * np.abs(j)
    magnitude[0] = abs(j[0])
    tail = np.cumsum(magnitude[::-1])[::-1]
    degree = int(np.count_nonzero(tail > _KRYLOV_TOL)) - 1
    phase = np.array([1, -1j, -1, 1j]) if x >= 0 else np.array([1, 1j, -1, -1j])
    c = 2 * j[: degree + 1] * np.resize(phase, degree + 1)
    c[0] = j[0]
    return c


#: log of an absolute bound on the coefficients left out beyond
#: ``_negligible_order``: far below any tolerance and above underflow.
_LOG_NEGLIGIBLE = math.log(1e-30)


def _negligible_order(x: float) -> int:
    """An order k >= x with 2 * sum_{j >= k} |J_j(x)| <= 1e-30, for x >= 0.

    From |J_j(x)| <= (x / 2)**j / j!: for j >= k >= x successive bounds at
    least halve, so the tail is at most twice the first.
    """
    if x == 0:
        return 1
    k = math.ceil(x)
    while k * math.log(x / 2) - math.lgamma(k + 1) + math.log(4) > _LOG_NEGLIGIBLE:
        k += 1
    return k


def bessel_j(x: float, count: int) -> np.ndarray:
    """J_0(x) .. J_{count-1}(x) for x >= 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2 k / x) J_k - J_{k+1} runs down from an order
    where J is negligible (from 1 and 0 there, rescaled before it can
    overflow) and is normalized by J_0 + 2 * sum_k J_{2k} = 1.
    """
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"Bessel argument must be finite and nonnegative, got {x}")
    if x == 0:
        return (np.arange(count) == 0).astype(float)
    top = max(count, _negligible_order(x)) + 1
    out = np.zeros(top + 1)
    above, current = 0.0, 1.0
    out[top] = current
    for k in range(top, 0, -1):
        above, current = current, 2 * k / x * current - above
        out[k - 1] = current
        if abs(current) > 1e250:
            out[k - 1 :] *= 1e-250
            above, current = above * 1e-250, current * 1e-250
    out /= out[0] + 2 * out[2::2].sum()
    return out[:count]


@dataclass(frozen=True)
class LocalizationSample:
    time: float
    outside_mass: float
    mean_abs: float


@dataclass(frozen=True)
class LocalizationReport:
    """Outcome of a localization check.

    ``support_ball`` is the smallest ball covering the initial packet.
    When the packet is not mean zero the check does not apply
    (``mean_zero`` False); ``leakage_outside_mass`` then records how much
    mass the dense propagator pushes outside the ball, demonstrating that
    the mean-zero hypothesis is essential.
    """

    support_ball: str | None
    mean_zero: bool
    initial_mean_abs: float
    initial_norm: float
    coefficient_leak: float
    samples: tuple[LocalizationSample, ...]
    tol: float
    mean_scale: float
    leakage_outside_mass: float | None = None

    @property
    def passed(self) -> bool:
        if not self.mean_zero:
            return False
        budget = self.tol * max(1.0, self.initial_norm)
        if self.coefficient_leak > budget:
            return False
        return all(
            s.outside_mass <= budget and s.mean_abs <= self.tol * self.mean_scale
            for s in self.samples
        )

    def to_dict(self) -> dict:
        return {
            "support_ball": self.support_ball or "empty",
            "mean_zero": self.mean_zero,
            "initial_mean_abs": self.initial_mean_abs,
            "coefficient_leak": self.coefficient_leak,
            "samples": [dataclasses.asdict(s) for s in self.samples],
            "leakage_outside_mass": self.leakage_outside_mass,
            "passed": self.passed,
        }


def check_localization(
    values,
    tree: BallTree,
    kernel: SupKernel,
    config: EvolutionConfig,
    tol: float = 1e-10,
    basis: WaveletBasis | None = None,
    spec: Spectrum | None = None,
    demonstrate_leakage: bool = False,
) -> LocalizationReport:
    """Certify that free evolution keeps a mean-zero packet in its ball.

    The packet's support ball B is detected, the state is evolved at every
    configured time, and the mass outside B plus the integral of the state
    are measured.  Structurally both must vanish: a mean-zero packet in B
    expands purely over wavelets inside B, and evolution only rotates
    coefficient phases, so any excess signals an implementation bug.

    A packet that is not mean zero is reported as a precondition failure
    rather than an error; with ``demonstrate_leakage`` the dense propagator
    is run to exhibit the mass actually escaping B.  Non-finite values
    raise ``ValueError`` naming the leaf.
    """
    v = tree.as_leaf_values(values)
    _require_finite(tree, v, "initial value")
    if basis is None:
        basis = build_basis(tree)
    if spec is None:
        spec = build_spectrum(tree, kernel)

    norm0 = tree.norm(v)
    mean_scale = max(1.0, math.sqrt(tree.total_measure) * norm0)
    mean0 = abs(mean(tree, v))
    mean_zero = mean0 <= tol * mean_scale
    max_abs = float(np.max(np.abs(v), initial=0.0))
    ball = tree._support_ball(v, tol * max_abs)
    support = None if ball is None else tree.ids_of(ball)

    leakage = None
    if not mean_zero:
        if demonstrate_leakage and ball is not None:
            propagator = DensePropagator(tree, dense_operator(tree, kernel))
            outside = _outside_mask(tree, ball)
            leakage = max(
                _masked_norm(tree, propagator.schrodinger(v, t, config.hbar), outside)
                for t in config.times
            )
        return LocalizationReport(
            support_ball=support,
            mean_zero=False,
            initial_mean_abs=mean0,
            initial_norm=norm0,
            coefficient_leak=0.0,
            samples=(),
            tol=tol,
            mean_scale=mean_scale,
            leakage_outside_mass=leakage,
        )

    packet = WavePacket.from_leaf_values(basis, spec, v)
    if ball is None:
        coefficient_leak = float(np.max(np.abs(packet.coefficients), initial=0.0))
        outside = np.ones(tree.n_leaves, dtype=bool)
    else:
        plan = basis.plan
        inside = np.append(
            (plan.ball_start >= tree.leaf_start[ball]) & (plan.child_stop <= tree.leaf_stop[ball]),
            False,
        )
        coefficient_leak = float(
            np.max(np.abs(packet.coefficients[~inside]), initial=0.0)
        )
        outside = _outside_mask(tree, ball)

    samples = []
    for t, state in zip(config.times, evolve_schrodinger(packet, config)):
        leaf = state.leaf_values()
        samples.append(
            LocalizationSample(
                time=t,
                outside_mass=_masked_norm(tree, leaf, outside),
                mean_abs=abs(mean(tree, leaf)),
            )
        )
    return LocalizationReport(
        support_ball=support,
        mean_zero=True,
        initial_mean_abs=mean0,
        initial_norm=norm0,
        coefficient_leak=coefficient_leak,
        samples=tuple(samples),
        tol=tol,
        mean_scale=mean_scale,
        leakage_outside_mass=leakage,
    )


def _outside_mask(tree: BallTree, ball: int) -> np.ndarray:
    """The leaves outside ball number ``ball``."""
    mask = np.ones(tree.n_leaves, dtype=bool)
    mask[tree.leaf_start[ball] : tree.leaf_stop[ball]] = False
    return mask


def _masked_norm(tree: BallTree, values, mask: np.ndarray) -> float:
    v = tree.as_leaf_values(values)
    return float(np.sqrt(np.sum(np.abs(v[mask]) ** 2 * tree.leaf_measures[mask])))


@dataclass(frozen=True)
class SpacetimeReport:
    """Residual of the product-solution identity on a space x time grid."""

    residual_norm: float
    residual_max: float
    norm: float
    tol: float
    eigenvalue_x: float
    eigenvalue_t: float

    @property
    def passed(self) -> bool:
        return self.residual_norm <= self.tol * self.norm


def spacetime_product_check(
    tree_x: BallTree,
    kernel_x: SupKernel,
    ball_x: str,
    index_x: int,
    tree_t: BallTree,
    kernel_t: SupKernel,
    ball_t: str,
    index_t: int,
    tol: float = 1e-10,
) -> SpacetimeReport:
    """Verify a wavelet product solves the two-operator balance equation.

    With both coordinates ultrametric, the state psi(x) * psi(t) built from
    wavelets with nonzero eigenvalues lam_x and lam_t satisfies
    (D_t / lam_t - D_x / lam_x) applied to it = 0.  Both operators are
    applied densely on the product grid and the measure-weighted residual
    norm is reported.
    """
    lam_x = eigenvalue(tree_x, kernel_x, ball_x)
    lam_t = eigenvalue(tree_t, kernel_t, ball_t)
    if lam_x == 0.0 or lam_t == 0.0:
        raise ValueError(
            "product solutions require nonzero eigenvalues in both coordinates; "
            f"got lambda_x={lam_x}, lambda_t={lam_t}"
        )
    u = _wavelet_vector(tree_x, ball_x, index_x)
    v = _wavelet_vector(tree_t, ball_t, index_t)
    grid = np.outer(u, v)
    m_x = dense_operator(tree_x, kernel_x)
    m_t = dense_operator(tree_t, kernel_t)
    residual = (grid @ m_t.T) / lam_t - (m_x @ grid) / lam_x
    weights = np.outer(tree_x.leaf_measures, tree_t.leaf_measures)
    norm = float(np.sqrt(np.sum(np.abs(grid) ** 2 * weights)))
    residual_norm = float(np.sqrt(np.sum(np.abs(residual) ** 2 * weights)))
    return SpacetimeReport(
        residual_norm=residual_norm,
        residual_max=float(np.max(np.abs(residual), initial=0.0)),
        norm=norm,
        tol=tol,
        eigenvalue_x=lam_x,
        eigenvalue_t=lam_t,
    )


def _wavelet_vector(tree: BallTree, ball_id: str, index: int) -> np.ndarray:
    basis = build_basis(tree)
    try:
        position = basis.labels.index((ball_id, index), 0, basis.size - 1)
    except ValueError:
        raise ValueError(f"no wavelet with ball {ball_id!r} and index {index}") from None
    return basis.wavelets[position].vector


# -- CSV artifacts -----------------------------------------------------------


def read_leaf_values(path, tree: BallTree) -> np.ndarray:
    """Read a leaf-values CSV (columns leaf_id, re, im) in canonical order.

    Every leaf must appear exactly once and every value must be finite; an
    empty or absent ``im`` reads as 0.  The rows are read as columns: ids
    are matched in one pass (a file in canonical leaf order needs no
    lookup) and each value column is converted in one call.
    """
    header, columns = _csv_columns(path)
    column = {name: k for k, name in enumerate(header)}
    if columns and "leaf_id" not in column:
        raise ValueError(f"{path} has no 'leaf_id' column")
    ids = columns[column["leaf_id"]] if columns else ()
    if len(ids) == tree.n_leaves and all(map(operator.eq, ids, tree.leaves)):
        leaf = np.arange(tree.n_leaves)  # canonical order: nothing to look up
    else:
        leaf = _leaf_rows(path, tree, ids)
    values = np.empty(tree.n_leaves, dtype=complex)
    values.real[leaf] = _float_column(path, columns, column.get("re"), "re")
    values.imag[leaf] = _float_column(path, columns, column.get("im"), "im", empty=0.0)
    _require_finite(tree, values, f"value in {path}")
    return values


def _leaf_rows(path, tree: BallTree, ids) -> np.ndarray:
    """Canonical leaf index of each row's id; every leaf must be listed once."""
    balls = tree.positions(ids)
    is_leaf = balls >= 0
    is_leaf[is_leaf] = tree.child_count[balls[is_leaf]] == 0
    if not is_leaf.all():
        tree.leaf_index(ids[np.argmin(is_leaf)])  # raises, naming the row's id
    leaf = tree.leaf_start[balls]
    first_rows = np.unique(leaf, return_index=True)[1]
    if first_rows.size < leaf.size:
        repeated = np.ones(leaf.size, dtype=bool)
        repeated[first_rows] = False
        raise ValueError(f"{path} lists leaf {ids[np.argmax(repeated)]!r} more than once")
    if leaf.size < tree.n_leaves:
        listed = np.zeros(tree.n_leaves, dtype=bool)
        listed[leaf] = True
        missing = tree.ids_of(tree.leaf_balls[~listed][:5]).tolist()
        raise ValueError(f"{path} is missing leaves: {missing!r}")
    return leaf


def _csv_columns(path) -> tuple[list[str], list]:
    """The header and the columns of a CSV file, as ``csv.reader`` reads it.

    Blank lines are skipped and short rows padded with None.  The cyclic
    garbage collector is paused while the rows are made: they hold no
    cycles, and its passes over them took two thirds of a 2**20-row read
    (3.3 s against 1.2 s without).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            return next(reader, []), list(zip_longest(*filter(None, reader)))
    finally:
        if enabled:
            gc.enable()


def _float_column(path, columns, k: int | None, name: str, empty: float | None = None):
    """Column ``k`` converted as ``float`` converts each field.

    A missing column or field, or an empty field, reads as ``empty`` when
    that is given and is an error otherwise.
    """
    cells = columns[k] if k is not None and k < len(columns) else [None] * len(columns[0])
    if None in cells or "" in cells:
        if empty is None:
            raise ValueError(f"{path} has a row without a {name!r} value")
        cells = [empty if cell is None or cell == "" else cell for cell in cells]
    return np.array(cells, dtype=float)


#: Rows whose runs are found with one set of numpy calls and formatted
#: together.  They span as many times as they reach, so short times (16
#: leaves, say) do not pay those calls once per time.
_RUN_ROWS = 1024


def write_trajectory(path, tree: BallTree, times, states) -> None:
    """Per-time leaf values: columns time, leaf_id, re, im, abs2.

    ``abs2`` is ``abs(z) ** 2``, ``inf`` where that overflows.  Leaf ids are
    quoted once and each time is formatted once, not once per row.

    Row r is leaf ``r % n`` at time ``r // n`` for n leaves.  A run is a
    stretch of consecutive rows whose values have the same bits (so 0.0 and
    -0.0 differ): a localized state is constant on the children of every
    ball outside its support, so its rows hold few runs.  Each run's
    ``re,im,abs2`` is formatted once and repeated on its rows.

    A file of many runs is formatted on every available CPU
    (``artifacts.write_csv``), in row ranges of equal numbers of runs: this
    process writes the first range and forked processes each format a later
    range into an anonymous temporary file in the output directory.  A forked
    process reads only ``states`` and the quoted ids, writes only to its own
    file with ``os.write``, calls no BLAS, logging or stdio, and leaves
    through ``os._exit``.  The bytes are the same as from one process.
    """
    n = tree.n_leaves
    leaves = csv_fields(tree.leaves)
    stamps = [repr(float(t)) for t in times]
    values = [tree.as_leaf_values(state) for state in states]

    def begins(start: int, stop: int):
        """The values of rows start..stop - 1, and a flag per row that is true
        where a run begins: the first row, and each row whose bits differ from
        the row before."""
        (k, j), (last, i) = divmod(start, n), divmod(stop - 1, n)
        if k == last:
            v = np.ascontiguousarray(values[k][j : i + 1])
        else:
            v = np.concatenate([values[k][j:], *values[k + 1 : last], values[last][: i + 1]])
        bits = v.view(np.uint64)  # re and im of each value, side by side
        differ = bits[2:] != bits[:-2]
        flags = np.empty(len(v), dtype=bool)
        flags[0] = True
        np.logical_or(differ[0::2], differ[1::2], out=flags[1:])
        return v, flags

    def runs(start: int, stop: int):
        before = min(start, 1)  # the row before start decides whether start begins a run
        return start + np.flatnonzero(begins(start - before, stop)[1][before:])

    def rows(start: int, stop: int):
        for lo in range(start, stop, _RUN_ROWS):
            hi = min(lo + _RUN_ROWS, stop)
            v, flags = begins(lo, hi)
            firsts = np.flatnonzero(flags)
            texts = [f"{z.real!r},{z.imag!r},{_abs2(z)!r}" for z in v[firsts].tolist()]
            if len(texts) < hi - lo:  # each run's text once per row
                lengths = np.diff(firsts, append=hi - lo).tolist()
                texts = chain.from_iterable(map(repeat, texts, lengths))
            texts = iter(texts)
            for k in range(lo // n, -(-hi // n)):
                time = stamps[k]
                # zip stops at the last leaf, before it takes the next time's first text
                for leaf, text in zip(leaves[max(lo - k * n, 0) : hi - k * n], texts):
                    yield f"{time},{leaf},{text}"

    write_csv(path, ["time", "leaf_id", "re", "im", "abs2"], len(values) * n, rows, runs)


def _abs2(z: complex) -> float:
    """pow(|z|, 2), bit for bit, with ``inf`` where it overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def write_summary(
    path, tree: BallTree, times, states, reference_ball: str | int | None
) -> None:
    """Per-time summary: columns time, norm, mean_re, mean_im, outside_mass,
    support_ball.

    ``outside_mass`` is measured relative to ``reference_ball`` (normally
    the support of the initial state), given by id or by preorder number;
    ``support_ball`` is recomputed per time.
    """
    if reference_ball is None:
        outside = np.zeros(tree.n_leaves, dtype=bool)
    else:
        if isinstance(reference_ball, str):
            reference_ball = tree.index(reference_ball)
        outside = _outside_mask(tree, reference_ball)
    lines = []
    for t, state in zip(times, states):
        v = tree.as_leaf_values(state)
        m = mean(tree, v)
        (support,) = csv_fields([tree.ball_support(v) or "empty"])
        lines.append(
            f"{float(t)!r},{tree.norm(v)!r},{m.real!r},{m.imag!r},"
            f"{_masked_norm(tree, v, outside)!r},{support}"
        )
    write_csv(
        path,
        ["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"],
        len(lines),
        lambda start, stop: lines[start:stop],
    )
