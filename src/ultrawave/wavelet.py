"""Orthonormal wavelet bases on measured ball trees.

For each internal ball the functions that are constant on its children and
have zero measure-weighted mean form a space of dimension (number of
children - 1); these spaces are orthogonal across balls, and together with
the normalized constant they span all leaf functions.

Inside each ball we pick a weighted Helmert family: wavelet j takes a
common positive value on the first j children, a negative value on child
j+1, and zero elsewhere, the two values fixed by the zero-mean and
unit-norm constraints.  For a two-child ball with equal masses this is the
classical Haar pair (+1, -1); any other orthonormal choice inside a ball
spans the same space and leaves every operator in :mod:`.pdo` diagonal.

A basis is stored as a :class:`TransformPlan`: per wavelet two leaf ranges
and the Helmert pair, plus a schedule over the tree's balls, O(n) numbers
for n leaves.  ``analyze`` and ``synthesize`` run in O(n) as a pyramid over
that schedule: ball integrals of f * nu bottom-up, then values top-down.
Partial sums over siblings come from a work-efficient (Blelloch) scan, so
each is a balanced tree of additions and rounding grows with depth and the
log of the arity, not with n.

The dense oracles work from the same plan.  ``matrix_times(y)`` returns
``matrix @ y`` in one children-first sweep over the balls, O(balls) work
per column of ``y``, without building ``matrix``; ``gram`` is one such
product.  ``matrix`` and ``Wavelet.vector`` materialize dense vectors
(``matrix`` is O(n^2) and rebuilt on every access, so hold one reference
per use); they exist for the transform cross-check and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ball_tree import BallTree, running_sums

#: Index label of the constant basis element in ``WaveletBasis.labels``.
CONSTANT_LABEL = "const"


@dataclass(frozen=True)
class TransformPlan:
    """Everything a wavelet basis stores, as read-only arrays.

    Wavelet k belongs to ball ``tree.internal[ball[k]]`` with index
    ``index[k]`` = j.  It equals ``pos[k]`` on leaves
    ``[ball_start[k], child_start[k])`` (children 1..j of the ball),
    ``neg[k]`` on leaves ``[child_start[k], child_stop[k])`` (child j+1) and
    zero elsewhere.  ``constant`` is the value of the normalized constant.

    The pyramid numbers the balls root first (node 0), then the children of
    each internal ball in tree order, so siblings are consecutive nodes.
    ``child_node[k]`` is the node of wavelet k's child j+1, ``leaf_node``
    the node of each leaf and ``parent`` each node's parent.  ``levels``
    holds, per depth from the root down, the internal balls at that depth
    (``parents``), all balls one level deeper (``kids``, grouped by parent)
    and the start of each parent's group in ``kids``.  ``scan`` pairs
    sibling blocks for :func:`_sibling_sums`: level L joins blocks
    ``left`` and ``right`` of level L - 1 (each block a run of 2**(L-1)
    consecutive siblings) into one, ``paired`` marking the joined blocks
    that have a right half.
    """

    ball: np.ndarray
    index: np.ndarray
    ball_start: np.ndarray
    child_start: np.ndarray
    child_stop: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    constant: float
    child_node: np.ndarray
    leaf_node: np.ndarray
    parent: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    scan: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero wavelet value as flat arrays ``(wavelet, leaf, value)``.

        One entry per leaf of each wavelet's support, wavelets in order; the
        constant element is not included.
        """
        length = self.child_stop - self.ball_start
        wavelet = np.repeat(np.arange(len(length)), length)
        shift = np.repeat(self.ball_start - (np.cumsum(length) - length), length)
        leaf = np.arange(wavelet.size) + shift
        value = np.where(
            leaf < self.child_start[wavelet], self.pos[wavelet], self.neg[wavelet]
        )
        return wavelet, leaf, value


@dataclass(frozen=True)
class Wavelet:
    """One basis element: mean zero, unit norm, supported in ``ball``.

    ``index`` runs from 1 to (children of ball) - 1.  ``vector`` holds real
    leaf values in canonical leaf order and is constant on each child; it
    is materialized from the basis plan on every access (O(n)).
    """

    ball: str
    index: int
    _plan: TransformPlan = field(repr=False, compare=False)
    _position: int = field(repr=False, compare=False)

    @property
    def vector(self) -> np.ndarray:
        p, k = self._plan, self._position
        v = np.zeros(len(p.leaf_node))
        v[p.ball_start[k] : p.child_start[k]] = p.pos[k]
        v[p.child_start[k] : p.child_stop[k]] = p.neg[k]
        v.flags.writeable = False
        return v


class WaveletBasis:
    """Orthonormal basis of leaf functions: wavelets plus the constant.

    The basis is ordered by internal ball in depth-first order, then by
    wavelet index, with the constant element last.  ``labels`` mirrors that
    order as ``(ball_id, index)`` pairs, the constant labelled
    ``(root_id, "const")``.
    """

    def __init__(self, tree: BallTree, plan: TransformPlan):
        self.tree = tree
        self.plan = plan

    @cached_property
    def labels(self) -> tuple[tuple[str, int | str], ...]:
        tree, plan = self.tree, self.plan
        balls = tree.ids_of(tree.internal_balls[plan.ball]).tolist()
        return tuple(zip(balls, plan.index.tolist())) + ((tree.root, CONSTANT_LABEL),)

    @property
    def size(self) -> int:
        return len(self.plan.pos) + 1

    @property
    def constant(self) -> np.ndarray:
        """The normalized constant element as a leaf vector."""
        v = np.full(self.tree.n_leaves, self.plan.constant)
        v.flags.writeable = False
        return v

    @cached_property
    def wavelets(self) -> tuple[Wavelet, ...]:
        return tuple(
            Wavelet(ball, index, self.plan, k)
            for k, (ball, index) in enumerate(self.labels[:-1])
        )

    @property
    def matrix(self) -> np.ndarray:
        """Basis vectors as rows, shape (size, n_leaves), constant last.

        Dense O(n^2) materialization for oracles, built on every access;
        read-only.
        """
        m = np.zeros((self.size, self.tree.n_leaves))
        wavelet, leaf, value = self.plan.support()
        m[wavelet, leaf] = value
        m[-1] = self.plan.constant
        m.flags.writeable = False
        return m

    @cached_property
    def _sweep(self) -> tuple[list[int], list[int], list[int]]:
        """Schedule of :meth:`matrix_times`.

        Per internal ball its first wavelet (one more entry closes the last
        ball) and the source of its first child's block; per wavelet the
        source of its child j+1.  A source is a leaf index, or ``~b`` for
        the sum of internal ball b.
        """
        p = self.plan
        first = np.searchsorted(p.ball, np.arange(len(self.tree.internal_balls) + 1))
        first_child = p.child_node[first[:-1]] - 1  # siblings are consecutive nodes
        source = np.empty(len(p.parent), dtype=np.intp)
        source[p.leaf_node] = np.arange(self.tree.n_leaves)
        source[p.parent[first_child]] = ~np.arange(len(first_child))
        return first.tolist(), source[first_child].tolist(), source[p.child_node].tolist()

    def matrix_times(self, y) -> np.ndarray:
        """``matrix @ y`` for a real 2-D ``y`` with one row per leaf.

        One sweep over the internal balls, children first: a child's block
        sum is a row of ``y`` (a leaf) or the sum already formed for that
        ball.  Wavelet k's row is ``pos[k]`` times the blocks before child
        j+1 plus ``neg[k]`` times the block of child j+1; the constant's row
        is the constant times the root's sum.  O(balls) work per column,
        and a ball's sum is dropped as soon as its parent has used it.
        """
        y = np.asarray(y, dtype=float)
        if y.ndim != 2 or y.shape[0] != self.tree.n_leaves:
            raise ValueError(
                f"expected a 2-D array with {self.tree.n_leaves} rows, got shape {y.shape}"
            )
        first, first_source, source = self._sweep
        pos, neg = self.plan.pos.tolist(), self.plan.neg.tolist()
        out = np.empty((self.size, y.shape[1]))
        term = np.empty(y.shape[1])
        sums: dict[int, np.ndarray] = {}
        # depth-first preorder lists every ball before its descendants
        for b in range(len(first) - 2, -1, -1):
            s = first_source[b]
            before = y[s].copy() if s >= 0 else sums.pop(~s)
            for k in range(first[b], first[b + 1]):
                s = source[k]
                block = y[s] if s >= 0 else sums.pop(~s)
                np.multiply(before, pos[k], out=out[k])
                np.multiply(block, neg[k], out=term)
                out[k] += term
                before += block
            sums[b] = before
        np.multiply(sums.pop(0) if sums else y[0], self.plan.constant, out=out[-1])
        return out

    def analyze(self, values) -> np.ndarray:
        """Expansion coefficients of a leaf function, one per basis element."""
        p = self.plan
        v = self.tree.as_leaf_values(values)
        integral = np.empty(len(p.parent), dtype=complex)
        integral[p.leaf_node] = v * self.tree.leaf_measures
        for parents, kids, offsets in reversed(p.levels):
            integral[parents] = np.add.reduceat(integral[kids], offsets)
        before = _sibling_sums(integral, p.scan, before=True)
        wavelet_part = p.pos * before[p.child_node] + p.neg * integral[p.child_node]
        return np.append(wavelet_part, p.constant * integral[0])

    def synthesize(self, coefficients) -> np.ndarray:
        """Leaf function with the given expansion coefficients."""
        c = np.asarray(coefficients, dtype=complex)
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got shape {c.shape}")
        p = self.plan
        # a ball's wavelets add, on its child i, pos * c for every wavelet
        # of a later child plus neg * c for the wavelet of child i
        up = np.zeros(len(p.parent), dtype=complex)
        up[p.child_node] = p.pos * c[:-1]
        value = _sibling_sums(up, p.scan, before=False)
        value[p.child_node] += p.neg * c[:-1]
        value[0] = p.constant * c[-1]
        for _, kids, _ in p.levels:
            value[kids] += value[p.parent[kids]]
        return value[p.leaf_node]

    def gram(self) -> np.ndarray:
        """Measure-weighted Gram matrix; identity for a correct basis.

        ``matrix_times`` of the n-by-size array diag(nu) matrix^T, which is
        filled from the plan's supports.
        """
        nu = self.tree.leaf_measures
        wavelet, leaf, value = self.plan.support()
        weighted = np.zeros((self.tree.n_leaves, self.size))
        weighted[leaf, wavelet] = nu[leaf] * value
        weighted[:, -1] = nu * self.plan.constant
        return self.matrix_times(weighted)


def _sibling_sums(x: np.ndarray, scan, before: bool) -> np.ndarray:
    """Sum of ``x`` over the earlier (or, if not ``before``, later) siblings.

    An up-sweep sums aligned blocks of 1, 2, 4, ... siblings, a down-sweep
    hands each block the sum of the blocks before (after) it.  Every level
    touches only its own blocks, so the work is O(len(x)), and every sum is
    a balanced tree of additions.
    """
    sums = [x]
    for left, paired, right in scan:
        s = sums[-1][left]
        s[paired] += sums[-1][right]
        sums.append(s)
    out = np.zeros_like(sums[-1])
    for (left, paired, right), s in zip(reversed(scan), reversed(sums[:-1])):
        below = np.zeros_like(s)
        below[left] = out
        below[right] = out[paired]
        if before:
            below[right] += s[left[paired]]
        else:
            below[left[paired]] += s[right]
        out = below
    return out


def _scan_schedule(rank: np.ndarray, rank_back: np.ndarray):
    """The ``scan`` of a plan, from each node's count of earlier and later siblings."""
    scan = []
    while True:
        # a block opens a pair if it is even-numbered and has a sibling block
        left = np.flatnonzero((rank % 2 == 0) & (rank + rank_back > 0))
        if left.size == 0:
            return tuple(scan)
        paired = np.flatnonzero(rank_back[left] > 0)
        right = left[paired] + 1
        for a in (left, paired, right):
            a.flags.writeable = False
        scan.append((left, paired, right))
        rank, rank_back = rank[left] // 2, rank_back[left] // 2


def _helmert_weight(near: np.ndarray, far: np.ndarray, total: np.ndarray) -> np.ndarray:
    """sqrt(far / (near * total)): the Helmert value on the ``near`` side.

    ``near`` and ``total`` are scaled by even powers of two into [0.5, 2)
    first, so no intermediate overflows or underflows, even for subnormal
    measures.  In the normal range the scaling is exact and the result is
    bitwise that of the plain formula.
    """
    a = np.frexp(near)[1] // 2
    c = np.frexp(total)[1] // 2
    ratio = np.ldexp(far, -2 * c) / (np.ldexp(near, -2 * a) * np.ldexp(total, -2 * c))
    return np.ldexp(np.sqrt(ratio), -a)


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def build_basis(tree: BallTree) -> WaveletBasis:
    """Construct the wavelet basis of a tree in O(n), from the tree's arrays.

    Deterministic: the same tree always yields bitwise-identical vectors.
    The pyramid's nodes are the tree's sibling order (``tree.kids``) after
    the root, and the Helmert masses before each child are running sums of
    the sibling measures in child order, as a loop over the children would
    add them.
    """
    m = len(tree)
    node_ball = np.concatenate(([0], tree.kids))
    node_of = np.empty(m, dtype=np.intp)
    node_of[node_ball] = np.arange(m)
    parent = node_of[np.maximum(tree.parent[node_ball], 0)]  # the root is its own parent
    up = tree.parent[tree.kids]
    count = tree.child_count[up]
    rank = np.arange(1, m) - 1 - tree.first_child[up]
    internal = tree.internal_balls
    measure = tree.measure[tree.kids]
    mass = running_sums(measure, tree.first_child[internal], tree.child_count[internal])

    wavelet = np.flatnonzero(rank)  # every child but the first: position in kids
    child = tree.kids[wavelet]
    head = mass[wavelet - 1]
    tail = measure[wavelet]
    total = head + tail
    levels = []
    for level in tree.levels[1:]:
        # within a depth preorder is sibling order, so the nodes ascend and
        # come grouped by parent
        kids = node_of[level]
        parents, offsets = np.unique(parent[kids], return_index=True)
        levels.append(tuple(_frozen(a, np.intp) for a in (parents, kids, offsets)))

    rank_all = np.concatenate(([0], rank))
    rank_back = np.concatenate(([0], count - 1 - rank))
    plan = TransformPlan(
        ball=_frozen(tree.internal_rank[up[wavelet]], np.intp),
        index=_frozen(rank[wavelet], np.intp),
        ball_start=_frozen(tree.leaf_start[up[wavelet]], np.intp),
        child_start=_frozen(tree.leaf_start[child], np.intp),
        child_stop=_frozen(tree.leaf_stop[child], np.intp),
        pos=_frozen(_helmert_weight(head, tail, total), float),
        neg=_frozen(-_helmert_weight(tail, head, total), float),
        constant=1.0 / math.sqrt(tree.total_measure),
        child_node=_frozen(wavelet + 1, np.intp),
        leaf_node=_frozen(node_of[tree.leaf_balls], np.intp),
        parent=_frozen(parent, np.intp),
        levels=tuple(levels),
        scan=_scan_schedule(rank_all, rank_back),
    )
    return WaveletBasis(tree, plan)


def mean(tree: BallTree, values) -> complex:
    """Measure-weighted integral of a leaf function.

    Summed by numpy's pairwise ``sum``, whose order is fixed, not as a BLAS
    dot product, whose order follows the BLAS thread count.
    """
    return complex(np.sum(tree.as_leaf_values(values) * tree.leaf_measures))
