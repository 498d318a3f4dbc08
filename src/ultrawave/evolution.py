"""Time evolution of wave packets on ball trees.

Free unitary evolution and heat flow act diagonally on wavelet
coefficients: a wavelet attached to eigenvalue lambda picks up the phase
exp(-i*hbar*lambda*t) or the decay exp(-lambda*t).  Because every wavelet
lives inside its own ball and phases never mix coefficients, a mean-zero
packet supported in a ball stays supported in that ball for all time;
``check_localization`` certifies this and can demonstrate, through the
dense propagator, how a packet with nonzero mean leaks out.

A real potential U couples the wavelets, so ``evolve_with_potential``
applies exp(-i t H / hbar) with a Lanczos (Krylov) exponential: the
product H f = hbar**2 * synthesize(lambda * analyze f) + U f costs O(n),
and each substep grows an orthonormal Krylov basis of the operator,
shifted to a spectrum centred on 0, until Saad's a-posteriori error
estimate meets a fixed tolerance.  The number of products grows with the
spectral width of H/hbar times the time span, which is bounded a priori
by hbar * max(lambda) + (max U - min U) / hbar.  The dense
eigendecomposition costs O(n**3) whatever the width, so it is used
instead when that bound times the span exceeds a measured 3e-4 * n**2,
on trees of at most 4096 leaves.

``DensePropagator`` evolves leaf functions directly through an
eigendecomposition of the measure-symmetrized operator matrix, with no
reference to wavelets; it is the cross-check route for everything above
and the potential route for small or stiff problems.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ball_tree import BallTree, _csv_fields, _require_finite, _write_csv
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
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
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


def free_propagator(tree: BallTree, kernel: SupKernel) -> DensePropagator:
    """Dense propagator of the bare operator, for cross-checking."""
    return DensePropagator(tree, dense_operator(tree, kernel))


def evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """Evolve a leaf function under the operator plus a real potential.

    The generator is H = hbar**2 times the operator plus diag(potential);
    the state at time t is exp(-i t H / hbar) applied to the input, for
    times of either sign in any order.  H / hbar has its spectrum in
    [min U / hbar, hbar * max(lambda) + max U / hbar], whose width times
    the time span covered from t = 0 sets the number of Lanczos products.
    The dense eigendecomposition is used where it is measured to be
    cheaper (``_dense_is_cheaper``), the Lanczos route
    (``lanczos_evolve_with_potential``) everywhere else.  Both preserve
    the norm to linear-algebra accuracy.
    """
    v, u = _potential_inputs(tree, values, potential)
    spec = build_spectrum(tree, kernel)
    low, high = _spectral_bounds(spec, u, config.hbar)
    if _dense_is_cheaper((high - low) * _time_span(config.times), tree.n_leaves):
        hamiltonian = config.hbar**2 * dense_operator(tree, kernel) + np.diag(u)
        propagator = DensePropagator(tree, hamiltonian)
        return [propagator.expm_apply(v, -1j * t / config.hbar) for t in config.times]
    return _lanczos_route(tree, spec, v, u, config)


def lanczos_evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """``evolve_with_potential`` on its Lanczos route, whatever the width.

    Small trees take the dense route in ``evolve_with_potential``; this
    lets the Lanczos route be cross-checked against the dense propagator
    there.
    """
    v, u = _potential_inputs(tree, values, potential)
    return _lanczos_route(tree, build_spectrum(tree, kernel), v, u, config)


def _lanczos_route(
    tree: BallTree, spec: Spectrum, v: np.ndarray, u: np.ndarray, config: EvolutionConfig
) -> list[np.ndarray]:
    hbar = config.hbar
    basis = build_basis(tree)
    lam = hbar * spec.for_basis(basis)
    root = np.sqrt(tree.leaf_measures)
    # Lanczos runs on H / hbar - centre, whose spectrum is symmetric about 0:
    # the Krylov basis does not depend on the shift, the error estimate does
    centre = sum(_spectral_bounds(spec, u, hbar)) / 2
    shift = u / hbar - centre

    def matvec(g: np.ndarray) -> np.ndarray:
        # H / hbar - centre conjugated by diag(sqrt(nu)): real symmetric
        return root * basis.synthesize(lam * basis.analyze(g / root)) + shift * g

    states = lanczos_expm(matvec, root * v, config.times)
    return [np.exp(-1j * centre * t) * g / root for g, t in zip(states, config.times)]


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


def _spectral_bounds(spec: Spectrum, u: np.ndarray, hbar: float) -> tuple[float, float]:
    """Interval holding the spectrum of H / hbar (the operator is positive)."""
    low = float(np.min(u)) / hbar
    high = hbar * max(spec.eigenvalues.values(), default=0.0) + float(np.max(u)) / hbar
    return low, high


#: Measured crossover of the two potential routes.  Lanczos takes up to
#: about 1.7 products of O(n) per unit of width times span, the dense route
#: O(n**3) whatever the width; at width times span = 3e-4 * n**2 Lanczos
#: took 0.55 to 1.27 times the dense time on binary and irregular trees
#: of 2**9 to 2**12 leaves (CHANGES.md has the timings).
_DENSE_CROSSOVER = 3e-4
#: Largest tree sent to the dense route: it holds several n x n float
#: arrays at once, over 0.5 GB each beyond this size.
_DENSE_MAX_LEAVES = 4096


def _dense_is_cheaper(width_span: float, n: int) -> bool:
    """Whether the dense route beats Lanczos for width * time span on n leaves."""
    return n <= _DENSE_MAX_LEAVES and width_span > _DENSE_CROSSOVER * n**2


def _time_span(times) -> float:
    """Length of time covered when stepping from t = 0 to every sample time."""
    return max(max(times, default=0.0), 0.0) - min(min(times, default=0.0), 0.0)


#: Error allowed over a whole Lanczos evolution, relative to the state norm.
_KRYLOV_TOL = 1e-12
#: Largest Krylov basis built for one substep.
_KRYLOV_DIM = 40


@dataclass(frozen=True)
class _KrylovSpace:
    """Lanczos basis of a start vector and the eigensystem of its projection.

    ``vectors`` holds m orthonormal rows spanning the Krylov space; the
    operator restricted to it is the tridiagonal T = ``coords`` diag(``ritz``)
    ``coords``^T, and ``residual`` is the norm of the part of the operator
    times the last basis vector that leaves the space (0 if the space is
    invariant).
    """

    vectors: np.ndarray
    ritz: np.ndarray
    coords: np.ndarray
    scale: float
    residual: float

    def apply(self, z: complex) -> np.ndarray:
        """exp(z * A) applied to the start vector, from the Krylov space."""
        weights = self.coords @ (np.exp(z * self.ritz) * self.coords[0])
        return self.scale * (weights @ self.vectors)

    def error(self, z: complex) -> float:
        """Saad's a-posteriori estimate of the error of ``apply(z)``.

        scale * residual * |z| * |e_m^T phi_1(z T) e_1|, with
        phi_1(x) = (exp(x) - 1) / x: the leading term of the error series
        (Saad, SIAM J. Numer. Anal. 29, 1992, section 5).
        """
        x = z * self.ritz
        phi = np.ones_like(x)
        nonzero = x != 0
        phi[nonzero] = np.expm1(x[nonzero]) / x[nonzero]
        tail = abs(self.coords[-1] @ (phi * self.coords[0]))
        return self.scale * self.residual * abs(z) * float(tail)


def _krylov_space(matvec, start: np.ndarray, z: complex, allowed: float) -> _KrylovSpace:
    """Grow a Lanczos basis of ``start`` until ``error(z)`` is within ``allowed``.

    ``matvec`` must apply a real symmetric operator A.  Every new vector is
    orthogonalized twice against the whole basis (full
    reorthogonalization), so the basis stays orthonormal to rounding.  The
    growth stops at ``_KRYLOV_DIM`` vectors, at the dimension of the space, or
    when the basis becomes invariant.
    """
    n = start.size
    dim = min(_KRYLOV_DIM, n)
    scale = float(np.linalg.norm(start))
    vectors = np.empty((dim, n), dtype=complex)
    vectors[0] = start / scale
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(dim):
        if j:
            beta.append(residual)
            vectors[j] = w / residual
        w = matvec(vectors[j])
        product_norm = float(np.linalg.norm(w))
        basis = vectors[: j + 1]
        # conj(basis) @ w without copying the basis
        h = (basis @ w.conj()).conj()
        w = w - h @ basis
        correction = (basis @ w.conj()).conj()
        w = w - correction @ basis
        alpha.append(float((h[j] + correction[j]).real))
        residual = float(np.linalg.norm(w))
        invariant = residual <= 16 * np.finfo(float).eps * product_norm or j + 1 == n
        ritz, coords = np.linalg.eigh(
            np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        )
        space = _KrylovSpace(basis, ritz, coords, scale, 0.0 if invariant else residual)
        if invariant or space.error(z) <= allowed:
            break
    return space


def lanczos_expm(matvec, start: np.ndarray, times) -> list[np.ndarray]:
    """exp(-i t A) applied to ``start`` for each time, A real symmetric.

    Each direction of time is covered by substeps from t = 0 through the
    sorted sample times.  A substep builds one Krylov basis of the current
    state aimed at the farthest remaining time, then halves its length
    until the error estimate is within ``_KRYLOV_TOL * |start|`` per unit of the
    total time span, and reads every sample time it covers off that basis.
    States come back in the order of ``times``.
    """
    times = [float(t) for t in times]
    states: list[np.ndarray | None] = [None] * len(times)
    span = _time_span(times)
    norm = float(np.linalg.norm(start))
    for i, t in enumerate(times):
        if t == 0.0 or norm == 0.0:
            states[i] = start.astype(complex)
    for sign in (1.0, -1.0):
        pending = sorted(
            (sign * t, i) for i, t in enumerate(times) if sign * t > 0 and states[i] is None
        )
        if not pending:
            continue
        rate = -1j * sign
        per_time = _KRYLOV_TOL * norm / span
        state, now = start.astype(complex), 0.0
        while pending:
            step = pending[-1][0] - now
            space = _krylov_space(matvec, state, rate * step, per_time * step)
            for _ in range(64):
                if space.error(rate * step) <= per_time * step:
                    break
                step /= 2
            else:
                raise ArithmeticError("Lanczos substep did not reach its error tolerance")
            while pending and pending[0][0] - now <= step:
                distance, i = pending.pop(0)
                states[i] = space.apply(rate * (distance - now))
            if pending:
                state, now = space.apply(rate * step), now + step
    return states


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
    support = tree.ball_support(v, tol * max_abs)

    leakage = None
    if not mean_zero:
        if demonstrate_leakage and support is not None:
            propagator = free_propagator(tree, kernel)
            outside = _outside_mask(tree, support)
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
    if support is None:
        coefficient_leak = float(np.max(np.abs(packet.coefficients), initial=0.0))
        outside = np.ones(tree.n_leaves, dtype=bool)
    else:
        ball = tree.leaf_slice(support)
        plan = basis.plan
        inside = np.append(
            (plan.ball_start >= ball.start) & (plan.child_stop <= ball.stop), False
        )
        coefficient_leak = float(
            np.max(np.abs(packet.coefficients[~inside]), initial=0.0)
        )
        outside = _outside_mask(tree, support)

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


def _outside_mask(tree: BallTree, ball_id: str) -> np.ndarray:
    mask = np.ones(tree.n_leaves, dtype=bool)
    mask[tree.leaf_slice(ball_id)] = False
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

    Every leaf must appear and every value must be finite.
    """
    seen: dict[str, complex] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            leaf = row["leaf_id"]
            tree.leaf_index(leaf)
            seen[leaf] = complex(float(row["re"]), float(row.get("im") or 0.0))
    missing = [l for l in tree.leaves if l not in seen]
    if missing:
        raise ValueError(f"{path} is missing leaves: {missing[:5]!r}")
    values = np.array([seen[l] for l in tree.leaves])
    _require_finite(tree, values, f"value in {path}")
    return values


def write_trajectory(path, tree: BallTree, times, states) -> None:
    """Per-time leaf values: columns time, leaf_id, re, im, abs2.

    ``abs2`` is ``abs(z) ** 2``, ``inf`` where that overflows.  Leaf ids are
    quoted once and each time is formatted once, not once per row.
    """
    leaves = _csv_fields(tree.leaves)

    def lines():
        for t, state in zip(times, states):
            time = repr(float(t))
            for leaf, z in zip(leaves, tree.as_leaf_values(state).tolist()):
                yield f"{time},{leaf},{z.real!r},{z.imag!r},{_abs2(z)!r}"

    _write_csv(path, ["time", "leaf_id", "re", "im", "abs2"], lines())


def _abs2(z: complex) -> float:
    """pow(|z|, 2), bit for bit, with ``inf`` where it overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def write_summary(path, tree: BallTree, times, states, reference_ball: str | None) -> None:
    """Per-time summary: columns time, norm, mean_re, mean_im, outside_mass,
    support_ball.

    ``outside_mass`` is measured relative to ``reference_ball`` (normally
    the support of the initial state); ``support_ball`` is recomputed per
    time.
    """
    outside = (
        _outside_mask(tree, reference_ball)
        if reference_ball is not None
        else np.zeros(tree.n_leaves, dtype=bool)
    )
    lines = []
    for t, state in zip(times, states):
        v = tree.as_leaf_values(state)
        m = mean(tree, v)
        (support,) = _csv_fields([tree.ball_support(v) or "empty"])
        lines.append(
            f"{float(t)!r},{tree.norm(v)!r},{m.real!r},{m.imag!r},"
            f"{_masked_norm(tree, v, outside)!r},{support}"
        )
    _write_csv(
        path, ["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"], lines
    )
