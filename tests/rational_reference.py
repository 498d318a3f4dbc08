"""Exact ball measures and spectra in rational arithmetic, the tests' ground truth.

Every float is a rational number.  So from the float inputs a tree and a
kernel hold, the leaf measures nu(x) and the kernel values T(B), the ball
measures and the eigenvalues

    lambda_B = sum T(P) (nu(P) - nu(C)) + T(B) nu(B),

the sum over the parent-child pairs (P, C) on the path from the root down
to B, can be computed with no rounding at all.  This module does so with
stdlib ``fractions``, in O(balls) rational operations, so the float
results of :mod:`ultrawave` can be held to a bound on their rounding
rather than to a second float computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ultrawave.ball_tree import internal_values

#: The unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = Fraction(1, 2**53)


def gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u): k roundings of relative size at most u
    compound to a relative error at most gamma_k (*Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Lemma 3.1)."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1 - ku)


@dataclass(frozen=True)
class ExactSpectrum:
    """The exact quantities of one tree and kernel.

    ``measure`` is nu(B) per ball in preorder.  Per internal ball, in the
    tree's internal order: ``eigenvalue`` is lambda_B, ``condition`` is
    Lambda_B = sum T(P) (nu(P) + nu(C)) + T(B) nu(B) over the same pairs,
    the sum of the magnitudes the float computation rounds, and ``depth``
    is B's number of strict ancestors.  ``additions`` bounds, per ball, the
    roundings a leaf measure goes through on its way into the float ball
    measure: a ball of m children adds them left to right, m - 1 additions.
    """

    measure: list[Fraction]
    additions: list[int]
    eigenvalue: list[Fraction]
    condition: list[Fraction]
    depth: list[int]


def exact_spectrum(tree, kernel) -> ExactSpectrum:
    """Ball measures and eigenvalues of ``tree`` under ``kernel``, exactly."""
    m = len(tree)
    parent = tree.parent.tolist()
    child_count = tree.child_count.tolist()
    t = [Fraction(0)] * m
    kernel_values = internal_values(kernel.values, tree).tolist()
    for ball, value in zip(tree.internal_balls.tolist(), kernel_values):
        t[ball] = Fraction(value)
    measure = [Fraction(0)] * m
    for ball, value in zip(tree.leaf_balls.tolist(), tree.leaf_measures.tolist()):
        measure[ball] = Fraction(value)

    # bottom-up: preorder lists every ball before its descendants
    additions, deepest = [0] * m, [0] * m
    for b in range(m - 1, -1, -1):
        if child_count[b]:
            additions[b] = deepest[b] + child_count[b] - 1
        p = parent[b]
        if p >= 0:
            measure[p] += measure[b]
            deepest[p] = max(deepest[p], additions[b])

    # top-down descent sums over the parent-child pairs above each ball
    descent, condition_above, depth = [Fraction(0)] * m, [Fraction(0)] * m, [0] * m
    for b in range(1, m):
        p = parent[b]
        descent[b] = descent[p] + t[p] * (measure[p] - measure[b])
        condition_above[b] = condition_above[p] + t[p] * (measure[p] + measure[b])
        depth[b] = depth[p] + 1

    internal = tree.internal_balls.tolist()
    return ExactSpectrum(
        measure=measure,
        additions=additions,
        eigenvalue=[descent[b] + t[b] * measure[b] for b in internal],
        condition=[condition_above[b] + t[b] * measure[b] for b in internal],
        depth=[depth[b] for b in internal],
    )
