"""Time evolution of wave packets on ball trees.

Free unitary evolution and heat flow act diagonally on wavelet
coefficients: a wavelet attached to eigenvalue lambda picks up the phase
exp(-i*hbar*lambda*t) or the decay exp(-lambda*t).  Because every wavelet
lives inside its own ball and phases never mix coefficients, a mean-zero
packet supported in a ball stays supported in that ball for all time;
``check_localization`` certifies this and can demonstrate, through the
dense propagator, how a packet with nonzero mean leaks out, reading the
wavelets that lie in the ball from their leaf ranges, ``WaveletBasis.support``.

A real potential U couples the wavelets, so ``evolve_with_potential``
applies exp(-i t H / hbar) as a Chebyshev expansion (``chebyshev_expm``):
the product (H / hbar) f = hbar * M f + U f / hbar takes M f from
:func:`~.pdo.pair_matvec` on the kernel times hbar, matrix-free from the
pair definition in O(n) and with no wavelet basis, and the expansion, on
the operator shifted to a spectrum centred on 0, needs about half the
spectral width of H / hbar times the largest |t| products, shared by all
sample times.  That width is bounded a priori by
hbar * max(lambda) + (max U - min U) / hbar.  The dense eigendecomposition
costs O(n**3) whatever the width, so it is used instead when that bound
times the largest |t| exceeds a measured 1.5e-3 * n**2, on trees of at
most 4096 leaves.

``DensePropagator`` evolves leaf functions directly through an
eigendecomposition of the operator, optionally plus a potential, in the
symmetric form that :func:`~.pdo.symmetric_operator` builds from the pair
definition, with no reference to wavelets; it is the cross-check route for
everything above and the potential route for small or stiff problems.  On
that route it is built for H / hbar, from the kernel times hbar and the
potential U / hbar, so the state at time t is ``schrodinger(v, t)``.  The
symmetric matrix goes to ``eigh`` as its transpose, the same values in
the column-major order LAPACK reads, so numpy's copy into LAPACK's buffer
is contiguous.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .artifacts import column, csv_fields, float_column, read_csv, write_csv
from .ball_tree import BallTree, BallValues, _relative, _require_finite, _weighted_norm
from .pdo import Spectrum, SupKernel, dense_operator, eigenvalue, pair_matvec, symmetric_operator
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
        """The 2-norm of the coefficients, which is ||f||_nu of the state."""
        return _weighted_norm(self.coefficients, 1.0)


def evolve_schrodinger(packet: WavePacket, config: EvolutionConfig) -> list[WavePacket]:
    """Free unitary evolution: coefficients rotate by exp(-i*hbar*lambda*t).

    The constant coefficient is untouched (eigenvalue 0) and the
    coefficient magnitudes are preserved exactly.  A time whose phase
    hbar*lambda*t for the largest eigenvalue overflows or has no digits is
    rejected by ``_require_phases`` before any coefficient is propagated.
    """
    top = float(np.max(packet.spectrum.for_basis(packet.basis), initial=0.0))
    _require_phases(
        config.times,
        config.hbar * top,
        "hbar*lambda*t",
        f"for the largest eigenvalue lambda = {top!r} and hbar = {config.hbar!r}",
    )
    return _propagate(packet, -1j * config.hbar, config.times)


#: Smallest |phase| in radians whose unit in the last place is 1 rad: at
#: and beyond it a float phase carries no digit of the angle.
_PHASE_LIMIT = 2.0**52


def _require_phases(times, rate: float, name: str, context: str) -> None:
    """Reject a time t whose phase ``rate * t``, called ``name`` ``context``
    in the message, overflows or is at least ``_PHASE_LIMIT`` and so has no
    digits."""
    for t in times:
        phase = rate * t
        if not math.isfinite(phase):
            raise ValueError(f"time {t!r} is too large: {name} overflows {context}")
        if abs(phase) >= _PHASE_LIMIT:
            raise ValueError(
                f"time {t!r} is too large: the phase {name} {context} is {phase!r} rad, and "
                f"one unit in its last place is {math.ulp(phase)!r} rad, so it has no digits"
            )


def evolve_heat(packet: WavePacket, times) -> list[WavePacket]:
    """Heat flow: coefficients decay by exp(-lambda*t); requires finite t >= 0."""
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise ValueError(f"heat evolution requires nonnegative times, got {t}")
        if not math.isfinite(t):
            raise ValueError(f"evolution times must be finite, got {t}")
    return _propagate(packet, -1.0, times)


def _propagate(packet: WavePacket, rate: complex, times) -> list[WavePacket]:
    """Multiply each coefficient by exp(rate * lambda * t), one state per
    finite time.

    A decay (a negative real rate) whose exponent overflows to -inf has the
    exact factor 0, so that overflow is not reported.
    """
    lam = packet.spectrum.for_basis(packet.basis)
    over = "ignore" if rate.imag == 0 and rate.real < 0 else np.geterr()["over"]
    with np.errstate(over=over):
        return [
            dataclasses.replace(packet, coefficients=np.asarray(c, dtype=complex))
            for c in (packet.coefficients * np.exp(rate * lam * t) for t in times)
        ]


def real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` for a real matrix and a complex vector.

    Multiplying the real and imaginary parts separately avoids the complex
    copy of the whole matrix that a mixed-type product makes first.
    """
    return matrix @ vector.real + 1j * (matrix @ vector.imag)


class DensePropagator:
    """exp(-i*t*H) applied through the eigendecomposition of H.

    H is the kernel's operator, optionally plus a real diagonal
    ``potential`` (one value per leaf), built from the pair definition by
    :func:`~.pdo.symmetric_operator` in its symmetric sqrt(nu)-conjugated
    form.  Its eigendecomposition gives the exact propagator up to
    linear-algebra accuracy, with no series truncation.  An hbar enters
    through the kernel and the potential, as ``evolve_with_potential``
    scales them.
    """

    def __init__(self, tree: BallTree, kernel: SupKernel, potential: np.ndarray | None = None):
        self.tree = tree
        self._root_weights = np.sqrt(tree.leaf_measures)
        # S is bitwise symmetric, so S.T holds S in the column-major order LAPACK reads
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(
            symmetric_operator(tree, kernel, potential).T
        )

    def schrodinger(self, values, t: float) -> np.ndarray:
        """exp(-i*t*H) applied to a leaf function, matching the free spectral route."""
        v = self.tree.as_leaf_values(values)
        sym = real_matvec(self._eigenvectors.T, self._root_weights * v)
        sym = np.exp(-1j * t * self._eigenvalues) * sym
        return real_matvec(self._eigenvectors, sym) / self._root_weights


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
    (``chebyshev_evolve_with_potential``) everywhere else; it rejects a
    half-width times max|t| above ``_CHEBYSHEV_MAX_WIDTH_TIME``.  Both
    preserve the norm to linear-algebra accuracy.  The dense route has no
    such bound, so every route rejects a time t whose phase
    max(|min|, |max|) * t over that spectrum overflows, or is at least
    ``_PHASE_LIMIT`` and so has no digits.
    """
    v, u, (low, high) = _potential_prelude(values, potential, tree, kernel, config)
    longest = max((abs(t) for t in config.times), default=0.0)
    if _dense_is_cheaper((high - low) * longest, tree.n_leaves):
        # H / hbar = hbar * operator + U / hbar, scaled as on the Chebyshev route:
        # its spectrum lies in [low, high], checked finite above, while
        # U / hbar**2 would overflow for hbar below about 1e-154
        propagator = DensePropagator(tree, _scaled(tree, kernel, config.hbar), u / config.hbar)
        return [propagator.schrodinger(v, t) for t in config.times]
    return _chebyshev_route(tree, kernel, (low, high), v, u, config)


def chebyshev_evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """``evolve_with_potential`` on its Chebyshev route, whatever the width.

    Small trees take the dense route in ``evolve_with_potential``; this
    lets the Chebyshev route be cross-checked against the dense propagator
    there.  It runs the same phase rule.
    """
    v, u, bounds = _potential_prelude(values, potential, tree, kernel, config)
    return _chebyshev_route(tree, kernel, bounds, v, u, config)


def _potential_prelude(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Validated leaf values, real potential and the bounds of H / hbar's
    spectrum (``_spectral_bounds``) of both potential routes, after
    ``_require_phases`` has rejected a time whose phase over those bounds
    overflows or has no digits."""
    v, u = _potential_inputs(tree, values, potential)
    low, high = _spectral_bounds(build_spectrum(tree, kernel).for_tree(tree), u, config.hbar)
    _require_phases(
        config.times,
        max(abs(low), abs(high)),
        "t*H/hbar",
        f"for the spectrum of H/hbar in [{low!r}, {high!r}]",
    )
    return v, u, (low, high)


def _scaled(tree: BallTree, kernel: SupKernel, hbar: float) -> SupKernel:
    """The kernel times hbar, whose operator is hbar times the kernel's."""
    return SupKernel(BallValues(tree, hbar * kernel.values.array))


def _chebyshev_route(
    tree: BallTree,
    kernel: SupKernel,
    bounds: tuple[float, float],
    v: np.ndarray,
    u: np.ndarray,
    config: EvolutionConfig,
) -> list[np.ndarray]:
    """exp(-i t H / hbar) v by ``chebyshev_expm``, for H / hbar with its
    spectrum in ``bounds`` (from ``_spectral_bounds``)."""
    hbar = config.hbar
    product = pair_matvec(tree, _scaled(tree, kernel, hbar))
    # the expansion runs on H / hbar - centre, whose spectrum lies in
    # [-half_width, half_width]; the centre comes back as a phase
    low, high = bounds
    centre = (low + high) / 2
    shift = u / hbar - centre

    def matvec(f: np.ndarray) -> np.ndarray:
        return product(f) + shift * f

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
#: Largest half-width * max|t| that ``chebyshev_expm`` accepts; it takes about
#: that many products.  At the bound the order search in
#: ``_negligible_order`` takes 0.19 s and ``_bessel_j`` fills 1.36e6 doubles
#: (11 MB) per time, plus 16 MB of coefficients per time (2-vCPU VM,
#: Python 3.11); all grow linearly with it.  A product on the 4-leaf p = 2
#: tree takes about 50 us, so the bound is about a minute of products even
#: there.
_CHEBYSHEV_MAX_WIDTH_TIME = 1e6


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
    number of products is the largest degree, about h * max|t|, which may
    be at most ``_CHEBYSHEV_MAX_WIDTH_TIME``.  States come back in the order
    of ``times``.
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
    longest = max(times, key=abs, default=0.0)
    if h * abs(longest) > _CHEBYSHEV_MAX_WIDTH_TIME:
        raise ValueError(
            f"time {longest!r} is too large: with the spectral half-width {h!r} it needs "
            f"about {h * abs(longest):.3g} Chebyshev products, more than the "
            f"{_CHEBYSHEV_MAX_WIDTH_TIME:.0e} allowed"
        )
    start = np.asarray(start, dtype=complex)
    expansions = [_chebyshev_coefficients(h * t) for t in times]
    degree = max((c.size for c in expansions), default=1) - 1
    states = np.zeros((len(times), start.size), dtype=complex)
    # T_k(A / h) start sits in row k % rows; rows >= 3 whenever the block
    # wraps, so rows j - 1 and j - 2 (negative indices wrap too) still hold
    # T_{k-1} and T_{k-2}
    rows = min(_CHEBYSHEV_BLOCK, degree + 1)
    block = np.empty((rows, start.size), dtype=complex)
    # the coefficients of the block's degrees, one row per time (zero past
    # a time's own degree)
    chunk = np.empty((len(times), rows), dtype=complex)
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
            for row, c in zip(chunk, expansions):
                part = c[k - j : k + 1]
                row[: part.size] = part
                row[part.size :] = 0
            states += chunk[:, : j + 1] @ block[: j + 1]
    return list(states)


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """c_0 .. c_K of exp(-i x y) = sum_k c_k T_k(y) on [-1, 1].

    c_0 = J_0(x), c_k = 2 (-i)**k J_k(x), with J_k(-x) = (-1)**k J_k(x);
    K is the least degree whose discarded tail has sum |c_k| <= ``_KRYLOV_TOL``.
    """
    order = _negligible_order(abs(x))
    j = _bessel_j(abs(x), order, order)
    # |c_k|, then in place the sum of |c_k| from k up
    tail = np.abs(j)
    tail[1:] *= 2
    np.cumsum(tail[::-1], out=tail[::-1])
    degree = int(np.count_nonzero(tail > _KRYLOV_TOL)) - 1
    del tail
    phase = (2, -2j, -2, 2j) if x >= 0 else (2, 2j, -2, -2j)
    c = np.empty(degree + 1, dtype=complex)
    for k in range(min(4, degree + 1)):
        np.multiply(j[k : degree + 1 : 4], phase[k], out=c[k::4])
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


def _bessel_j(x: float, count: int, order: int) -> np.ndarray:
    """J_0(x) .. J_{count-1}(x) for x >= 0, by Miller's backward recurrence.

    The recurrence J_{k-1} = (2 k / x) J_k - J_{k+1} runs down from
    ``order = _negligible_order(x)``, where J is negligible (from 1 and 0
    there, rescaled before it can overflow), and is normalized by
    J_0 + 2 * sum_k J_{2k} = 1.
    """
    if x == 0:
        return (np.arange(count) == 0).astype(float)
    top = max(count, order) + 1
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
    """Outcome of a localization check, scored relative to the packet.

    ``support_ball`` is the smallest ball B covering the initial packet f;
    a zero packet has none (``None``) and takes the root as B.  Evolution
    is linear, so each of the three figures below divides by the packet's
    own scale and reads the same at every amplitude:

    - ``relative_outside_mass``: the largest mass outside B over ||f||_nu;
    - ``relative_mean``: the largest |integral of the state| over
      ``mean_scale`` = sqrt(nu(X)) * ||f||_nu;
    - ``relative_leak``: ``coefficient_leak``, the largest coefficient of a
      wavelet outside B or of the constant, over ||f||_nu.

    A zero packet reads 0 on all three.  ``passed`` holds when the packet
    is mean zero and every figure is at most ``tol``.  When the packet is
    not mean zero the check does not apply (``mean_zero`` False);
    ``leakage_outside_mass`` then records how much mass the dense
    propagator pushes outside the ball, demonstrating that the mean-zero
    hypothesis is essential.
    """

    support_ball: str | None
    mean_zero: bool
    initial_norm: float
    coefficient_leak: float
    samples: tuple[LocalizationSample, ...]
    tol: float
    mean_scale: float
    leakage_outside_mass: float | None = None

    @property
    def relative_outside_mass(self) -> float:
        outside = max((s.outside_mass for s in self.samples), default=0.0)
        return _relative(outside, self.initial_norm)

    @property
    def relative_mean(self) -> float:
        return _relative(max((s.mean_abs for s in self.samples), default=0.0), self.mean_scale)

    @property
    def relative_leak(self) -> float:
        return _relative(self.coefficient_leak, self.initial_norm)

    @property
    def passed(self) -> bool:
        figures = (self.relative_outside_mass, self.relative_mean, self.relative_leak)
        return self.mean_zero and all(f <= self.tol for f in figures)


#: Relative tolerance of :func:`check_localization`: for the mean-zero
#: precondition, the support threshold, and the three figures of its report.
_LOCALIZATION_TOL = 1e-10


def check_localization(
    values,
    tree: BallTree,
    kernel: SupKernel,
    config: EvolutionConfig,
    basis: WaveletBasis | None = None,
    spec: Spectrum | None = None,
    demonstrate_leakage: bool = False,
) -> LocalizationReport:
    """Certify that free evolution keeps a mean-zero packet in its ball.

    The packet's support ball B is detected, the state is evolved at every
    configured time, and the mass outside B plus the integral of the state
    are measured.  Structurally both must vanish: a mean-zero packet in B
    expands purely over wavelets inside B, and evolution only rotates
    coefficient phases, so any excess shows an implementation bug.  The
    report scores them, and the coefficients outside B, relative to the
    packet (:class:`LocalizationReport`), against ``_LOCALIZATION_TOL``.

    The packet counts as mean zero when |integral of f nu| is at most
    ``_LOCALIZATION_TOL * sqrt(nu(B)) * ||f||_nu``: the mass a mean can
    push out of B is bounded by |integral of f nu| / sqrt(nu(B)), so the
    precondition is measured on B, not on the whole space.  A packet that
    is not mean zero is reported as a precondition failure rather than an
    error; with ``demonstrate_leakage`` the dense propagator is run to
    exhibit the mass actually escaping B.  Non-finite values raise
    ``ValueError`` naming the leaf.
    """
    v = tree.as_leaf_values(values)
    _require_finite(tree, v, "initial value")
    if basis is None:
        basis = build_basis(tree)
    if spec is None:
        spec = build_spectrum(tree, kernel)

    norm0 = tree.norm(v)
    mean_scale = math.sqrt(tree.total_measure) * norm0
    max_abs = float(np.max(np.abs(v), initial=0.0))
    ball = tree._support_ball(v, _LOCALIZATION_TOL * max_abs)
    support = None if ball is None else tree.ids_of(ball)
    if ball is None:
        ball = 0  # only a zero packet has no support ball; the root is its reference
    ball_measure = float(tree.measure[ball])
    mean_zero = abs(mean(tree, v)) <= _LOCALIZATION_TOL * math.sqrt(ball_measure) * norm0
    outside = _outside_mask(tree, ball)

    leakage, coefficient_leak, samples = None, 0.0, []
    if mean_zero:
        packet = WavePacket.from_leaf_values(basis, spec, v)
        start, _, stop = basis.support()
        inside = (start >= tree.leaf_start[ball]) & (stop <= tree.leaf_stop[ball])
        coefficient_leak = float(
            np.max(np.abs(packet.coefficients[~np.append(inside, False)]), initial=0.0)
        )
        for t, state in zip(config.times, evolve_schrodinger(packet, config)):
            leaf = state.leaf_values()
            samples.append(
                LocalizationSample(
                    time=t,
                    outside_mass=_masked_norm(tree, leaf, outside),
                    mean_abs=abs(mean(tree, leaf)),
                )
            )
    elif demonstrate_leakage:
        # exp(-i hbar t M) is the propagator of the kernel times hbar
        propagator = DensePropagator(tree, _scaled(tree, kernel, config.hbar))
        leakage = max(
            _masked_norm(tree, propagator.schrodinger(v, t), outside) for t in config.times
        )
    return LocalizationReport(
        support_ball=support,
        mean_zero=mean_zero,
        initial_norm=norm0,
        coefficient_leak=coefficient_leak,
        samples=tuple(samples),
        tol=_LOCALIZATION_TOL,
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
    return _weighted_norm(v[mask], tree.leaf_measures[mask])


@dataclass(frozen=True)
class SpacetimeReport:
    """Residual of the product-solution identity on a space x time grid."""

    residual_norm: float
    norm: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual_norm <= self.tol * self.norm


#: Largest residual norm of :func:`spacetime_product_check`, relative to the state's.
_SPACETIME_TOL = 1e-10


def spacetime_product_check(
    tree_x: BallTree,
    kernel_x: SupKernel,
    ball_x: str,
    index_x: int,
    tree_t: BallTree,
    kernel_t: SupKernel,
    ball_t: str,
    index_t: int,
) -> SpacetimeReport:
    """Verify a wavelet product solves the two-operator balance equation.

    With both coordinates ultrametric, the state psi(x) * psi(t) built from
    wavelets with nonzero eigenvalues lam_x and lam_t satisfies
    (D_t / lam_t - D_x / lam_x) applied to it = 0.  Both operators are
    applied densely on the product grid and the measure-weighted residual
    norm is reported, against ``_SPACETIME_TOL`` times the state's norm.
    """
    lam_x = eigenvalue(tree_x, kernel_x, ball_x)
    lam_t = eigenvalue(tree_t, kernel_t, ball_t)
    if lam_x == 0.0 or lam_t == 0.0:
        raise ValueError(
            "product solutions require nonzero eigenvalues in both coordinates; "
            f"got lambda_x={lam_x}, lambda_t={lam_t}"
        )
    rows = []
    for tree, ball_id, index in ((tree_x, ball_x, index_x), (tree_t, ball_t, index_t)):
        basis = build_basis(tree)
        # a ball's wavelets are consecutive in the basis, by index from 1
        mine = np.flatnonzero(tree.parent[basis.plan.child] == tree.index(ball_id))
        if not 1 <= index <= mine.size:
            raise ValueError(f"no wavelet with ball {ball_id!r} and index {index}")
        k = int(mine[index - 1])
        rows.append(basis.block(slice(k, k + 1))[0])
    grid = np.outer(*rows)
    m_x = dense_operator(tree_x, kernel_x)
    m_t = dense_operator(tree_t, kernel_t)
    residual = (grid @ m_t.T) / lam_t - (m_x @ grid) / lam_x
    weights = np.outer(tree_x.leaf_measures, tree_t.leaf_measures)
    norm = _weighted_norm(grid.ravel(), weights.ravel())
    residual_norm = _weighted_norm(residual.ravel(), weights.ravel())
    return SpacetimeReport(residual_norm=residual_norm, norm=norm, tol=_SPACETIME_TOL)


# -- CSV artifacts -----------------------------------------------------------


def read_leaf_values(path, tree: BallTree) -> np.ndarray:
    """Read a leaf-values CSV (columns leaf_id, re, im) in canonical order.

    Every leaf must appear exactly once and every value must be finite; an
    empty or absent ``im`` reads as 0.  The file is read as columns by
    :func:`~.artifacts.read_csv`: ids are matched in one pass (a file in
    canonical leaf order needs no lookup) and each value column is
    converted in one call.
    """
    columns = read_csv(path)
    ids = column(path, columns, "leaf_id")
    if len(ids) == tree.n_leaves and all(map(operator.eq, ids, tree.leaves)):
        leaf = np.arange(tree.n_leaves)  # canonical order: nothing to look up
    else:
        leaf = _leaf_rows(path, tree, ids)
    im = columns.get("im", ())
    if None in im or "" in im:
        columns["im"] = [0.0 if cell is None or cell == "" else cell for cell in im]
    values = np.empty(tree.n_leaves, dtype=complex)
    values.real[leaf] = float_column(path, columns, "re")
    values.imag[leaf] = float_column(path, columns, "im") if "im" in columns else 0.0
    _require_finite(tree, values, f"value in {path}")
    return values


def _leaf_rows(path, tree: BallTree, ids) -> np.ndarray:
    """Canonical leaf index of each row's id; every leaf must be listed once."""
    balls = tree.positions(ids)
    is_leaf = balls >= 0
    is_leaf[is_leaf] = tree.child_count[balls[is_leaf]] == 0
    if not is_leaf.all():
        raise ValueError(f"{path} lists {ids[np.argmin(is_leaf)]!r}, not a leaf of this tree")
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


#: Rows whose runs are found with one set of numpy calls and formatted
#: together.  They span as many times as they reach, so short times (16
#: leaves, say) do not pay those calls once per time.
_RUN_ROWS = 1024
#: Most rows in one text handed to the CSV writer: runs are cut here, so no
#: string grows with a run's length, and a block fills about one write of
#: ``artifacts._CSV_CHARS_PER_WRITE`` characters.
_BLOCK_ROWS = 256


def write_trajectory(path, tree: BallTree, times, states) -> None:
    """Per-time leaf values: columns time, leaf_id, re, im, abs2.

    ``abs2`` is ``abs(z) ** 2``, ``inf`` where that overflows.  Leaf ids are
    quoted once and each time is formatted once, not once per row.

    Row r is leaf ``r % n`` at time ``r // n`` for n leaves.  A run is a
    stretch of consecutive rows whose values have the same bits (so 0.0 and
    -0.0 differ): a localized state is constant on the children of every
    ball outside its support, so its rows hold few runs.  Each run's
    ``re,im,abs2`` is formatted once, and its rows within one time and one
    block of ``_BLOCK_ROWS`` rows are written by one ``str.join`` over their
    leaf ids (a lone row without the join), so a repeated row costs only the
    copy of its bytes.  The rows go out in order through
    ``artifacts.write_csv``, from this process alone.
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

    def rows():
        count = len(values) * n
        for lo in range(0, count, _RUN_ROWS):
            hi = min(lo + _RUN_ROWS, count)
            v, flags = begins(lo, hi)
            firsts = np.flatnonzero(flags)
            texts = [f"{z.real!r},{z.imag!r},{_abs2(z)!r}" for z in v[firsts].tolist()]
            # a segment is the rows of one run within one time and one block
            flags[-lo % n :: n] = True
            flags[::_BLOCK_ROWS] = True
            starts = np.flatnonzero(flags)
            run = (np.searchsorted(firsts, starts, "right") - 1).tolist()
            starts = starts.tolist()
            lines = []
            for a, b, r in zip(starts, [*starts[1:], hi - lo], run):
                if a % _BLOCK_ROWS == 0 and lines:
                    yield "\r\n".join(lines)
                    lines = []
                (k, j), text = divmod(lo + a, n), texts[r]
                # a join per lone row made files of distinct values 8-24 % slower to write
                if b - a == 1:
                    lines.append(f"{stamps[k]},{leaves[j]},{text}")
                else:
                    sep = f",{text}\r\n{stamps[k]},"
                    lines.append(f"{stamps[k]},{sep.join(leaves[j : j + b - a])},{text}")
            yield "\r\n".join(lines)

    write_csv(path, ["time", "leaf_id", "re", "im", "abs2"], rows())


def _abs2(z: complex) -> float:
    """pow(|z|, 2), bit for bit, with ``inf`` where it overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def write_summary(path, tree: BallTree, times, states, reference_ball: int | None) -> None:
    """Per-time summary: columns time, norm, mean_re, mean_im, outside_mass,
    support_ball.

    ``outside_mass`` is measured relative to ``reference_ball`` (normally
    the support of the initial state), given by preorder number;
    ``support_ball`` is recomputed per time.
    """
    if reference_ball is None:
        outside = np.zeros(tree.n_leaves, dtype=bool)
    else:
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
    write_csv(path, ["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"], lines)
