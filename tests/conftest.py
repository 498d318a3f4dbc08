import numpy as np
import pytest

import ultrawave as uw


@pytest.fixture
def binary_tree():
    """Uniform binary tree of depth 2, total measure 1."""
    return uw.build_tree(uw.padic_preset(2, 2, 1.0))


@pytest.fixture
def binary_kernel(binary_tree):
    """Kernel 1 at the root and 2 on both level-1 balls."""
    return uw.make_kernel(binary_tree, {"r": 1.0, "r.0": 2.0, "r.1": 2.0})


@pytest.fixture
def lopsided_tree():
    """Two leaves with masses 1/3 and 2/3."""
    spec = uw.TreeSpec(
        balls=(
            uw.BallSpec("root", None, 1.0),
            uw.BallSpec("a", "root", 0.5),
            uw.BallSpec("b", "root", 0.5),
        ),
        leaf_measures={"a": 1.0 / 3.0, "b": 2.0 / 3.0},
    )
    return uw.build_tree(spec)


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
    """n leaves, all children of the root."""
    balls = [uw.BallSpec("r", None, 1.0)] + [uw.BallSpec(f"x{i}", "r", 0.5) for i in range(n)]
    measures = np.random.default_rng(n).uniform(0.5, 2.0, n) / n
    return uw.build_tree(
        uw.TreeSpec(balls=tuple(balls), leaf_measures={f"x{i}": m for i, m in enumerate(measures)})
    )


@pytest.fixture
def caterpillar():
    """Builds the n-leaf caterpillar tree: ``caterpillar(n)``."""
    return _caterpillar


@pytest.fixture
def star():
    """Builds the tree of n leaves under the root: ``star(n)``."""
    return _star


@pytest.fixture
def heavy_star():
    """Tree document of 200 leaves under the root, leaf measures 10**U(-150, 150).

    Under the constant kernel 0.5 its largest eigenvalue is about 1e149, so
    the phase lambda * t of any time near 1 has no digits.
    """
    measures = 10.0 ** np.random.default_rng(0).uniform(-150, 150, 200)
    leaves = [f"x{i}" for i in range(200)]
    balls = [{"id": "r", "parent": None, "diameter": 1.0}]
    balls += [{"id": leaf, "parent": "r", "diameter": 0.5} for leaf in leaves]
    return {"balls": balls, "leaf_measures": dict(zip(leaves, measures.tolist()))}
