"""Time evolution of wave packets on ball trees.

Free unitary evolution and heat flow act diagonally on wavelet
coefficients: a wavelet attached to eigenvalue lambda picks up the phase
exp(-i*hbar*lambda*t) or the decay exp(-lambda*t).  Because every wavelet
lives inside its own ball and phases never mix coefficients, a mean-zero
packet supported in a ball stays supported in that ball for all time;
``check_localization`` certifies this and can demonstrate, through the
dense propagator, how a packet with nonzero mean leaks out.

``DensePropagator`` evolves leaf functions directly through an
eigendecomposition of the measure-symmetrized operator matrix, with no
reference to wavelets; it is the cross-check route for everything above
and the engine for evolution in a potential.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ball_tree import BallTree
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
        return cls(coefficients=basis.analyze(values), basis=basis, spectrum=spectrum)

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
        sym = self._eigenvectors.T @ (self._root_weights * v)
        sym = np.exp(scale * self._eigenvalues) * sym
        return (self._eigenvectors @ sym) / self._root_weights

    def schrodinger(self, values, t: float, hbar: float = 1.0) -> np.ndarray:
        """Unitary evolution exp(-i*hbar*t*H) matching the free spectral route."""
        return self.expm_apply(values, -1j * hbar * t)

    def heat(self, values, t: float) -> np.ndarray:
        return self.expm_apply(values, -t)


def free_propagator(tree: BallTree, kernel: SupKernel) -> DensePropagator:
    """Dense propagator of the bare operator, for cross-checking."""
    return DensePropagator(tree, dense_operator(tree, kernel).matrix)


def evolve_with_potential(
    values, potential, tree: BallTree, kernel: SupKernel, config: EvolutionConfig
) -> list[np.ndarray]:
    """Evolve a leaf function under the operator plus a real potential.

    The generator is hbar**2 times the dense operator plus diag(potential);
    the state at time t is exp(-i t H / hbar) applied to the input.  Norm
    is preserved to linear-algebra accuracy.
    """
    u = np.asarray(potential)
    if u.shape != (tree.n_leaves,):
        raise ValueError(
            f"potential must have {tree.n_leaves} values, got shape {u.shape}"
        )
    if np.iscomplexobj(u) and np.any(u.imag != 0):
        raise ValueError("potential must be real-valued")
    u = u.real.astype(float)
    v = tree.as_leaf_values(values)
    hamiltonian = config.hbar**2 * dense_operator(tree, kernel).matrix + np.diag(u)
    propagator = DensePropagator(tree, hamiltonian)
    return [propagator.expm_apply(v, -1j * t / config.hbar) for t in config.times]


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
    is run to exhibit the mass actually escaping B.
    """
    v = tree.as_leaf_values(values)
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
    m_x = dense_operator(tree_x, kernel_x).matrix
    m_t = dense_operator(tree_t, kernel_t).matrix
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
    """Read a leaf-values CSV (columns leaf_id, re, im) in canonical order."""
    seen: dict[str, complex] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            leaf = row["leaf_id"]
            tree.leaf_index(leaf)
            seen[leaf] = complex(float(row["re"]), float(row.get("im") or 0.0))
    missing = [l for l in tree.leaves if l not in seen]
    if missing:
        raise ValueError(f"initial-condition file is missing leaves: {missing[:5]!r}")
    return np.array([seen[l] for l in tree.leaves])


def write_trajectory(path, tree: BallTree, times, states) -> None:
    """Per-time leaf values: columns time, leaf_id, re, im, abs2."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "leaf_id", "re", "im", "abs2"])
        for t, state in zip(times, states):
            v = tree.as_leaf_values(state)
            for leaf, value in zip(tree.leaves, v):
                writer.writerow(
                    [
                        repr(float(t)),
                        leaf,
                        repr(float(value.real)),
                        repr(float(value.imag)),
                        repr(float(abs(value) ** 2)),
                    ]
                )


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"])
        for t, state in zip(times, states):
            v = tree.as_leaf_values(state)
            m = mean(tree, v)
            writer.writerow(
                [
                    repr(float(t)),
                    repr(tree.norm(v)),
                    repr(float(m.real)),
                    repr(float(m.imag)),
                    repr(_masked_norm(tree, v, outside)),
                    tree.ball_support(v) or "empty",
                ]
            )
