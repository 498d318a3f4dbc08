"""Randomized certification of the advertised invariants.

Generates measured trees and kernels from a seeded stream, then checks on
every instance: basis orthonormality, the counting identity and the fast
transforms against the dense basis vectors, the eigenvalue closed form
against the dense matrix, unitarity and the group law of free evolution,
free and potential evolution against the dense propagator (small trees),
heat-flow monotonicity and mean conservation, ball-by-ball localization of
mean-zero packets, and the space-time product residual.  Results merge
deterministically by instance index.

Deliberate corruptions ("sign-bug", "tamper-spectrum") are available as
negative controls to show the checks actually bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ball_tree import BallSpec, BallTree, BallValues, TreeSpec, build_tree
from .evolution import (
    DensePropagator,
    EvolutionConfig,
    WavePacket,
    chebyshev_evolve_with_potential,
    check_localization,
    evolve_heat,
    evolve_schrodinger,
    real_matvec,
    spacetime_product_check,
)
from .pdo import (
    Spectrum,
    SupKernel,
    dense_operator,
    make_kernel,
    spectrum,
    verify_spectrum,
)
from .wavelet import WaveletBasis, build_basis, mean

INJECTIONS = ("sign-bug", "tamper-spectrum")

_TINY = 1e-300


# -- random instances --------------------------------------------------------


def random_tree_spec(
    rng: np.random.Generator,
    min_leaves: int = 2,
    max_leaves: int = 200,
    max_children: int = 5,
    min_depth: int = 1,
) -> TreeSpec:
    """Grow a random measured tree by splitting leaves.

    Child counts are drawn from 2..max_children, leaf measures from
    [0.1, 1), and diameters shrink by a random factor in [0.3, 0.9) per
    level.  With ``min_depth`` > 1 extra splits guarantee a non-root
    internal ball (a few leaves beyond the drawn count may be added).
    """
    if min_leaves < 2:
        raise ValueError("a tree needs at least 2 leaves")
    target = int(rng.integers(min_leaves, max_leaves + 1))
    parents: dict[str, str | None] = {"b0": None}
    diameters: dict[str, float] = {"b0": 1.0}
    depths: dict[str, int] = {"b0": 0}
    leaves: list[str] = ["b0"]
    serial = 1

    def split(node: str, arity: int) -> None:
        nonlocal serial
        for _ in range(arity):
            child = f"b{serial}"
            serial += 1
            parents[child] = node
            diameters[child] = diameters[node] * float(rng.uniform(0.3, 0.9))
            depths[child] = depths[node] + 1
            leaves.append(child)

    while len(leaves) < target:
        node = leaves.pop(int(rng.integers(len(leaves))))
        headroom = target - len(leaves)
        split(node, int(rng.integers(2, min(max_children, headroom + 1) + 1)))
    while max(depths[l] for l in leaves) < min_depth:
        split(leaves.pop(int(rng.integers(len(leaves)))), 2)

    balls = tuple(
        BallSpec(id=node, parent=parent, diameter=diameters[node])
        for node, parent in parents.items()
    )
    leaf_measures = {leaf: float(rng.uniform(0.1, 1.0)) for leaf in leaves}
    return TreeSpec(balls=balls, leaf_measures=leaf_measures)


def random_tree(rng: np.random.Generator, **kwargs) -> BallTree:
    return build_tree(random_tree_spec(rng, **kwargs))


def random_kernel(
    rng: np.random.Generator,
    tree: BallTree,
    low: float = 0.0,
    high: float = 1.0,
    zero_fraction: float = 0.1,
) -> SupKernel:
    """Random nonnegative kernel; a fraction of balls gets an exact zero."""
    values = {}
    for ball_id in tree.internal:
        if zero_fraction and rng.random() < zero_fraction:
            values[ball_id] = 0.0
        else:
            values[ball_id] = float(rng.uniform(low, high))
    return make_kernel(tree, values)


def random_leaf_values(rng: np.random.Generator, tree: BallTree) -> np.ndarray:
    return rng.standard_normal(tree.n_leaves) + 1j * rng.standard_normal(tree.n_leaves)


def random_mean_zero_packet(
    rng: np.random.Generator, tree: BallTree, ball_id: str
) -> np.ndarray:
    """Random complex packet supported in a ball, projected to mean zero."""
    sl = tree.leaf_slice(ball_id)
    count = sl.stop - sl.start
    local = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    weights = tree.leaf_measures[sl]
    local = local - (local @ weights) / weights.sum()
    values = np.zeros(tree.n_leaves, dtype=complex)
    values[sl] = local
    return values


# -- per-instance checks -----------------------------------------------------

Check = tuple[str, float, float]  # (name, value, tolerance); passes iff value <= tol


def orthonormality_checks(
    tree: BallTree,
    basis: WaveletBasis,
    rng: np.random.Generator,
) -> list[Check]:
    gram = basis.gram()
    gram[np.diag_indices_from(gram)] -= 1.0
    gram_dev = float(np.abs(gram, out=gram).max())
    count_dev = float(abs(basis.size - tree.n_leaves))
    return [
        ("gram_identity", gram_dev, 1e-10),
        ("count_identity", count_dev, 0.0),
        ("transform_dense_equivalence", _transform_deviation(tree, basis, rng), 1e-12),
    ]


def _transform_deviation(
    tree: BallTree, basis: WaveletBasis, rng: np.random.Generator
) -> float:
    """Relative gap between the fast transforms and products with ``matrix``."""
    values = random_leaf_values(rng, tree)
    coefficients = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    matrix = basis.matrix
    dense_coefficients = real_matvec(matrix, values * tree.leaf_measures)
    dense_values = real_matvec(matrix.T, coefficients)
    analyze_gap = np.linalg.norm(basis.analyze(values) - dense_coefficients) / max(
        float(np.linalg.norm(dense_coefficients)), _TINY
    )
    synthesize_gap = tree.norm(basis.synthesize(coefficients) - dense_values) / max(
        tree.norm(dense_values), _TINY
    )
    return float(max(analyze_gap, synthesize_gap))


def eigenrelation_checks(
    tree: BallTree, kernel: SupKernel, basis: WaveletBasis, spec: Spectrum
) -> list[Check]:
    report = verify_spectrum(tree, kernel, basis, spec)
    return [
        ("eigen_residual", report.max_residual, report.residual_tol),
        ("eigen_multiset", report.multiset_max_diff, report.multiset_tol),
    ]


def unitarity_checks(
    tree: BallTree,
    kernel: SupKernel,
    basis: WaveletBasis,
    spec: Spectrum,
    rng: np.random.Generator,
    dense_leaf_limit: int = 64,
) -> list[Check]:
    values = random_leaf_values(rng, tree)
    packet = WavePacket.from_leaf_values(basis, spec, values)
    norm0 = max(packet.norm(), _TINY)
    t1, t2 = (float(t) for t in rng.uniform(0.0, 10.0, 2))
    (first,) = evolve_schrodinger(packet, EvolutionConfig(times=(t1,)))
    (chained,) = evolve_schrodinger(first, EvolutionConfig(times=(t2,)))
    (direct,) = evolve_schrodinger(packet, EvolutionConfig(times=(t1 + t2,)))
    checks = [
        ("unitarity", abs(first.norm() - packet.norm()) / norm0, 1e-10),
        (
            "schrodinger_group_law",
            float(np.linalg.norm(chained.coefficients - direct.coefficients)) / norm0,
            1e-10,
        ),
    ]
    if tree.n_leaves <= dense_leaf_limit:
        dense_state = DensePropagator(tree, dense_operator(tree, kernel)).schrodinger(values, t1)
        deviation = tree.norm(first.leaf_values() - dense_state) / norm0
        checks.append(("spectral_dense_equivalence", deviation, 1e-8))
        checks.append(
            ("potential_dense_equivalence", _potential_deviation(tree, kernel, rng), 1e-8)
        )
    return checks


def _potential_deviation(
    tree: BallTree, kernel: SupKernel, rng: np.random.Generator
) -> float:
    """Largest relative gap between the Chebyshev potential route and the
    dense propagator over three sample times in [-1, 1), one of them
    negative, evolved by one Chebyshev call."""
    values = random_leaf_values(rng, tree)
    potential = rng.uniform(-1.0, 1.0, tree.n_leaves)
    times = rng.uniform(0.0, 1.0, 3) * [1.0, 1.0, -1.0]
    states = chebyshev_evolve_with_potential(
        values, potential, tree, kernel, EvolutionConfig(times=tuple(times))
    )
    propagator = DensePropagator(tree, dense_operator(tree, kernel) + np.diag(potential))
    norm0 = max(tree.norm(values), _TINY)
    return max(
        tree.norm(state - propagator.schrodinger(values, t)) / norm0
        for state, t in zip(states, times.tolist())
    )


def heat_checks(
    tree: BallTree,
    kernel: SupKernel,
    basis: WaveletBasis,
    spec: Spectrum,
    rng: np.random.Generator,
) -> list[Check]:
    values = random_leaf_values(rng, tree)
    packet = WavePacket.from_leaf_values(basis, spec, values)
    norm0 = max(packet.norm(), _TINY)
    times = np.sort(rng.uniform(0.0, 5.0, 4))
    states = evolve_heat(packet, times)
    norms = [s.norm() for s in states]
    uptick = max(
        (later - earlier) / max(earlier, _TINY)
        for earlier, later in zip(norms, norms[1:])
    )
    mean0 = mean(tree, packet.leaf_values())
    mean_scale = max(1.0, abs(mean0))
    mean_drift = max(
        abs(mean(tree, s.leaf_values()) - mean0) / mean_scale for s in states
    )
    (chained,) = evolve_heat(states[0], [float(times[1] - times[0])])
    (direct,) = evolve_heat(packet, [float(times[1])])
    group_dev = (
        float(np.linalg.norm(chained.coefficients - direct.coefficients)) / norm0
    )
    return [
        ("heat_monotone_decay", max(uptick, 0.0), 1e-12),
        ("heat_mean_constant", mean_drift, 1e-10),
        ("heat_group_law", group_dev, 1e-10),
    ]


def localization_checks(
    tree: BallTree,
    kernel: SupKernel,
    basis: WaveletBasis,
    spec: Spectrum,
    rng: np.random.Generator,
) -> list[Check]:
    proper = [b for b in tree.internal if b != tree.root]
    candidates = proper or [tree.root]
    ball = candidates[int(rng.integers(len(candidates)))]
    values = random_mean_zero_packet(rng, tree, ball)
    config = EvolutionConfig(times=tuple(rng.uniform(0.0, 10.0, 5)))
    report = check_localization(
        values, tree, kernel, config, tol=1e-10, basis=basis, spec=spec
    )
    norm0 = max(report.initial_norm, _TINY)
    return [
        ("localization_precondition", 0.0 if report.mean_zero else 1.0, 0.0),
        (
            "localization_outside_mass",
            max((s.outside_mass for s in report.samples), default=0.0) / norm0,
            1e-10,
        ),
        (
            "localization_mean",
            max((s.mean_abs for s in report.samples), default=0.0) / report.mean_scale,
            1e-10,
        ),
        ("localization_coefficients", report.coefficient_leak / max(1.0, norm0), 1e-10),
    ]


def spacetime_checks(rng: np.random.Generator) -> list[Check]:
    picks = []
    for _ in range(2):
        tree = random_tree(rng, min_leaves=4, max_leaves=32)
        kernel = random_kernel(rng, tree, low=0.05, zero_fraction=0.0)
        ball = tree.internal[int(rng.integers(len(tree.internal)))]
        arity = int(tree.child_count[tree.index(ball)])
        picks.append((tree, kernel, ball, int(rng.integers(1, arity))))
    (tree_x, kernel_x, ball_x, index_x), (tree_t, kernel_t, ball_t, index_t) = picks
    report = spacetime_product_check(
        tree_x, kernel_x, ball_x, index_x, tree_t, kernel_t, ball_t, index_t
    )
    ratio = report.residual_norm / max(report.norm, _TINY)
    return [("spacetime_residual", ratio, report.tol)]


# -- negative controls -------------------------------------------------------


def corrupt_basis_sign(basis: WaveletBasis) -> WaveletBasis:
    """Break the sign structure of the first wavelet (mutation control).

    The negative Helmert value turns positive in the shared plan, so the
    fast transforms and the dense materialization both carry the bug.
    """
    neg = basis.plan.neg.copy()
    neg[0] = -neg[0]
    neg.flags.writeable = False
    return WaveletBasis(basis.tree, replace(basis.plan, neg=neg))


def corrupt_spectrum(spec: Spectrum) -> Spectrum:
    """Shift the root's eigenvalue by +1 (mutation control)."""
    tree = spec.eigenvalues.tree
    eigenvalues = spec.for_tree(tree).copy()
    eigenvalues[0] += 1.0
    return replace(spec, eigenvalues=BallValues(tree, eigenvalues))


# -- aggregation -------------------------------------------------------------


@dataclass
class CheckAggregate:
    name: str
    worst: float
    tol: float
    count: int
    worst_instance: int

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name:<28s} worst {self.worst:.3e} "
            f"(tol {self.tol:.1e}, {self.count} instances, "
            f"worst at #{self.worst_instance})"
        )


@dataclass
class CertificationReport:
    seed: int
    instances: int
    inject: str | None
    checks: list[CheckAggregate]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        if not self.checks:
            return ["no instances requested; nothing to certify"]
        out = [c.line() for c in self.checks]
        out.append(
            f"{'ALL CHECKS PASSED' if self.passed else 'CERTIFICATION FAILED'} "
            f"(seed {self.seed}, {self.instances} instances)"
        )
        return out

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "inject": self.inject,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "worst": c.worst,
                    "tol": c.tol,
                    "count": c.count,
                    "worst_instance": c.worst_instance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def run_certification(
    seed: int = 42,
    instances: int = 100,
    tree: BallTree | None = None,
    kernel: SupKernel | None = None,
    inject: str | None = None,
    max_leaves: int = 200,
) -> CertificationReport:
    """Run every property suite over a seeded instance stream.

    A fixed ``tree`` (and optionally a fixed ``kernel``, built for that
    tree) replaces the random tree in every instance; kernels still vary
    unless pinned.
    ``inject`` applies a deliberate corruption so the run must fail.
    """
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(f"unknown injection {inject!r}; options: {INJECTIONS}")
    if kernel is not None and tree is None:
        raise ValueError("a fixed kernel requires a fixed tree")
    fixed_tree = tree

    aggregates: dict[str, CheckAggregate] = {}
    for index in range(instances):
        rng = np.random.default_rng([seed, index])
        tree = fixed_tree or random_tree(rng, max_leaves=max_leaves, min_depth=2)
        instance_kernel = kernel or random_kernel(rng, tree)
        basis = build_basis(tree)
        spec = spectrum(tree, instance_kernel)
        if inject == "sign-bug":
            basis = corrupt_basis_sign(basis)
        elif inject == "tamper-spectrum":
            spec = corrupt_spectrum(spec)

        checks: list[Check] = []
        checks += orthonormality_checks(tree, basis, rng)
        checks += eigenrelation_checks(tree, instance_kernel, basis, spec)
        checks += unitarity_checks(tree, instance_kernel, basis, spec, rng)
        checks += heat_checks(tree, instance_kernel, basis, spec, rng)
        checks += localization_checks(tree, instance_kernel, basis, spec, rng)
        checks += spacetime_checks(rng)

        for name, value, tol in checks:
            if not math.isfinite(value):
                value = math.inf
            agg = aggregates.get(name)
            if agg is None:
                aggregates[name] = CheckAggregate(name, value, tol, 1, index)
            else:
                agg.count += 1
                if value > agg.worst:
                    agg.worst = value
                    agg.worst_instance = index
    return CertificationReport(
        seed=seed, instances=instances, inject=inject, checks=list(aggregates.values())
    )
