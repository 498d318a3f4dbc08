"""Randomized certification of the advertised invariants.

Generates measured trees and kernels from a seeded stream, then checks on
every instance: basis orthonormality, the counting identity and the fast
transforms against the dense basis vectors, the eigenvalue closed form
against the dense matrix, unitarity and the group law of free evolution,
free and potential evolution against the dense propagator (small trees),
heat-flow monotonicity and mean conservation, ball-by-ball localization of
mean-zero packets, and the space-time product residual.  The dense
spectrum report of :func:`~.pdo.verify_spectrum` is formed once per
instance, with the instance's one Gram matrix G, and the orthonormality
and eigenrelation suites both read it: ``gram_identity`` is
||G - I||_F.  Likewise the localization suite reports the three figures
of :class:`~.evolution.LocalizationReport`, each already relative to the
packet, against the report's own tolerance.  Every other figure that
compares norms is ``_relative`` of ``_weighted_norm``s (both in
:mod:`.ball_tree`): one fixed-order norm, so no figure follows the BLAS
thread count, and one ratio, which reads 0 / 0 as 0 and x / 0 as inf.
``heat_mean_constant`` divides the mean's drift by max(1, |mean|).
Results merge deterministically by instance index.

Deliberate corruptions ("sign-bug", "tamper-spectrum") are available as
negative controls to show the checks actually bite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ball_tree import BallSpec, BallTree, BallValues, TreeSpec, build_tree
from .ball_tree import _relative, _weighted_norm
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
    SpectrumVerification,
    SupKernel,
    make_kernel,
    spectrum,
    verify_spectrum,
)
from .wavelet import WaveletBasis, _row_blocks, build_basis, mean

INJECTIONS = ("sign-bug", "tamper-spectrum")

#: Most leaves of a random instance tree, small enough for the dense suites.
_MAX_LEAVES = 200
#: Most leaves of a tree on which free and potential evolution are compared
#: with the dense propagator.
_DENSE_LEAF_LIMIT = 64


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
    report: SpectrumVerification,
    rng: np.random.Generator,
) -> list[Check]:
    """``gram_identity`` is ||G - I||_F, read from ``report``, which formed G."""
    count_dev = float(abs(basis.size - tree.n_leaves))
    return [
        ("gram_identity", report.gram_deviation, 1e-10),
        ("count_identity", count_dev, 0.0),
        ("transform_dense_equivalence", _transform_deviation(tree, basis, rng), 1e-12),
    ]


def _transform_deviation(
    tree: BallTree, basis: WaveletBasis, rng: np.random.Generator
) -> float:
    """Relative gap between the fast transforms and products with ``matrix``.

    The products take ``matrix`` a block at a time and never whole: row
    blocks for ``matrix @ x``, and C-contiguous column blocks B for
    ``matrix.T @ c`` as ``B.T @ c``, the gemv the whole transpose runs,
    so each entry has the bits of the whole product (rows of the
    transpose would sum in another order).
    """
    values = random_leaf_values(rng, tree)
    coefficients = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    n, size = tree.n_leaves, basis.size
    weighted = values * tree.leaf_measures
    dense_coefficients = np.concatenate(
        [real_matvec(basis.block(slice(a, b)), weighted) for a, b in _row_blocks(size, n)]
    )
    dense_values = np.concatenate(
        [
            real_matvec(basis.block(leaves=slice(a, b)).T, coefficients)
            for a, b in _row_blocks(n, size)
        ]
    )
    analyze_gap = _relative(
        _weighted_norm(basis.analyze(values) - dense_coefficients, 1.0),
        _weighted_norm(dense_coefficients, 1.0),
    )
    synthesize_gap = _relative(
        tree.norm(basis.synthesize(coefficients) - dense_values), tree.norm(dense_values)
    )
    return max(analyze_gap, synthesize_gap)


def eigenrelation_checks(report: SpectrumVerification) -> list[Check]:
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
) -> list[Check]:
    values = random_leaf_values(rng, tree)
    packet = WavePacket.from_leaf_values(basis, spec, values)
    norm0 = packet.norm()
    t1, t2 = (float(t) for t in rng.uniform(0.0, 10.0, 2))
    (first,) = evolve_schrodinger(packet, EvolutionConfig(times=(t1,)))
    (chained,) = evolve_schrodinger(first, EvolutionConfig(times=(t2,)))
    (direct,) = evolve_schrodinger(packet, EvolutionConfig(times=(t1 + t2,)))
    group_dev = _weighted_norm(chained.coefficients - direct.coefficients, 1.0)
    checks = [
        ("unitarity", _relative(abs(first.norm() - norm0), norm0), 1e-10),
        ("schrodinger_group_law", _relative(group_dev, norm0), 1e-10),
    ]
    if tree.n_leaves <= _DENSE_LEAF_LIMIT:
        dense_state = DensePropagator(tree, kernel).schrodinger(values, t1)
        deviation = _relative(tree.norm(first.leaf_values() - dense_state), norm0)
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
    propagator = DensePropagator(tree, kernel, potential)
    norm0 = tree.norm(values)
    return max(
        _relative(tree.norm(state - propagator.schrodinger(values, t)), norm0)
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
    times = np.sort(rng.uniform(0.0, 5.0, 4))
    states = evolve_heat(packet, times)
    norms = [s.norm() for s in states]
    uptick = max(
        _relative(later - earlier, earlier) for earlier, later in zip(norms, norms[1:])
    )
    mean0 = mean(tree, packet.leaf_values())
    mean_scale = max(1.0, abs(mean0))
    mean_drift = max(
        abs(mean(tree, s.leaf_values()) - mean0) / mean_scale for s in states
    )
    (chained,) = evolve_heat(states[0], [float(times[1] - times[0])])
    (direct,) = evolve_heat(packet, [float(times[1])])
    group_dev = _weighted_norm(chained.coefficients - direct.coefficients, 1.0)
    return [
        ("heat_monotone_decay", max(uptick, 0.0), 1e-12),
        ("heat_mean_constant", mean_drift, 1e-10),
        ("heat_group_law", _relative(group_dev, packet.norm()), 1e-10),
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
    report = check_localization(values, tree, kernel, config, basis=basis, spec=spec)
    return [
        ("localization_precondition", 0.0 if report.mean_zero else 1.0, 0.0),
        ("localization_outside_mass", report.relative_outside_mass, report.tol),
        ("localization_mean", report.relative_mean, report.tol),
        ("localization_coefficients", report.relative_leak, report.tol),
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
    ratio = _relative(report.residual_norm, report.norm)
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
            "checks": [{**asdict(c), "passed": c.passed} for c in self.checks],
        }


def run_certification(
    seed: int = 42,
    instances: int = 100,
    tree: BallTree | None = None,
    kernel: SupKernel | None = None,
    inject: str | None = None,
) -> CertificationReport:
    """Run every property suite over a seeded instance stream.

    Random instance trees have at most ``_MAX_LEAVES`` leaves.  A fixed
    ``tree`` (and optionally a fixed ``kernel``, built for that tree)
    replaces the random tree in every instance; kernels still vary unless
    pinned.
    ``inject`` applies a deliberate corruption so the run must fail.  A
    negative ``seed`` or ``instances`` is a ``ValueError`` naming it.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        tree = fixed_tree or random_tree(rng, max_leaves=_MAX_LEAVES, min_depth=2)
        instance_kernel = kernel or random_kernel(rng, tree)
        basis = build_basis(tree)
        spec = spectrum(tree, instance_kernel)
        if inject == "sign-bug":
            basis = corrupt_basis_sign(basis)
        elif inject == "tamper-spectrum":
            spec = corrupt_spectrum(spec)

        # the one Gram matrix of the instance is formed here, and both
        # suites read the report
        report = verify_spectrum(tree, instance_kernel, basis, spec)
        checks: list[Check] = []
        checks += orthonormality_checks(tree, basis, report, rng)
        checks += eigenrelation_checks(report)
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
