"""``spectrum()`` and the ball measures against exact rational arithmetic.

The float ball measure of B is a left-to-right sum of its children's, so
every leaf measure in it goes through at most K_B roundings (``additions``)
and, the terms being positive, |nu^(B) - nu(B)| <= gamma_{K_B} nu(B)
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
Lemma 3.1 and ch. 4).

``spectrum`` forms each term T(P) (nu^(P) - nu^(C)) with one subtraction
and one multiplication, adds them root-down, one addition per level
(``BallTree.path_sums``), and adds T(B) nu^(B) last: a term of a ball at
depth d goes through at most d + 3 roundings besides those of the two
measures in it, which are at most K = K_root.  So, with
Lambda_B = sum T(P) (nu(P) + nu(C)) + T(B) nu(B),

    |lambda^_B - lambda_B| <= gamma_{K + d + 3} Lambda_B,

a relative error of at most gamma_{K + d + 3} kappa_B with
kappa_B = Lambda_B / lambda_B >= 1, the condition number of the sum.  The
bound grows with depth, not with the number of leaves.
"""

from fractions import Fraction

import numpy as np
import pytest

import ultrawave as uw
from rational_reference import exact_spectrum, gamma
from ultrawave.certify import random_kernel, random_tree


def _cases(caterpillar, star, heavy_star):
    cases = []
    for seed in range(6):
        rng = np.random.default_rng([41, seed])
        tree = random_tree(rng, max_leaves=300, max_children=6, min_depth=3)
        cases.append((f"random-{seed}", tree, random_kernel(rng, tree)))
    for name, tree in (
        ("caterpillar-512", caterpillar(512)),
        ("star-500", star(500)),
        ("padic-2-9", uw.build_tree(uw.padic_preset(2, 9))),
        ("padic-3-5", uw.build_tree(uw.padic_preset(3, 5))),
    ):
        cases.append((name, tree, uw.vladimirov_kernel(tree, 0.5)))
    heavy = uw.build_tree(uw.tree_spec_from_dict(heavy_star))
    cases.append(("heavy-star", heavy, uw.constant_kernel(heavy, 0.5)))
    cases.append(("heavy-star-vladimirov", heavy, uw.vladimirov_kernel(heavy, 0.5)))
    return cases


def test_spectrum_is_within_its_rounding_bound_of_the_exact_one(caterpillar, star, heavy_star):
    for name, tree, kernel in _cases(caterpillar, star, heavy_star):
        exact = exact_spectrum(tree, kernel)
        for ball, (computed, true) in enumerate(zip(tree.measure.tolist(), exact.measure)):
            bound = gamma(exact.additions[ball]) * true
            assert abs(Fraction(computed) - true) <= bound, (name, ball)
        computed = uw.spectrum(tree, kernel).for_tree(tree).tolist()
        k = exact.additions[0]
        for i, lam in enumerate(computed):
            bound = gamma(k + exact.depth[i] + 3) * exact.condition[i]
            assert abs(Fraction(lam) - exact.eigenvalue[i]) <= bound, (name, tree.internal[i])


def test_the_bound_is_not_vacuous(caterpillar):
    # on the p = 2 preset each ball's two children have equal measure, so
    # kappa <= 3 and the bound is a relative error of about sixty units of
    # roundoff
    tree = uw.build_tree(uw.padic_preset(2, 9))
    exact = exact_spectrum(tree, uw.vladimirov_kernel(tree, 0.5))
    kappa = [float(c / lam) for c, lam in zip(exact.condition, exact.eigenvalue)]
    assert max(kappa) <= 3.0
    assert float(gamma(exact.additions[0] + max(exact.depth) + 3)) * max(kappa) < 1e-14
    # and on the deep caterpillar (depth 510, kappa up to about 300) the
    # observed error, about 6 units of roundoff, is far inside it
    tree = caterpillar(512)
    kernel = uw.vladimirov_kernel(tree, 0.5)
    exact = exact_spectrum(tree, kernel)
    computed = uw.spectrum(tree, kernel).for_tree(tree).tolist()
    worst = max(abs(Fraction(lam) - true) / true for lam, true in zip(computed, exact.eigenvalue))
    assert worst <= 16 * Fraction(1, 2**53)


@pytest.mark.parametrize("p, depth", [(2, 4), (3, 3)])
def test_exact_spectrum_matches_the_closed_form_on_a_preset(p, depth):
    # a level-k ball of the preset has measure p^-k (exact for p = 2) and,
    # with T = 1, lambda_B = sum (nu(P) - nu(C)) + nu(B) = 1 telescopes
    tree = uw.build_tree(uw.padic_preset(p, depth))
    exact = exact_spectrum(tree, uw.constant_kernel(tree, 1.0))
    assert exact.measure[0] == sum(Fraction(x) for x in tree.leaf_measures.tolist())
    assert all(lam == exact.measure[0] for lam in exact.eigenvalue)
