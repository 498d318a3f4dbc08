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

A basis is stored as a :class:`TransformPlan`: per wavelet the ball of its
child and its Helmert pair, plus a scan schedule over siblings, O(n)
numbers for n leaves.  Everything else about a wavelet is the tree's: its
ball is its child's parent, and ``WaveletBasis.support`` reads the leaf
ranges it covers off the tree.  ``analyze`` and ``synthesize`` run in O(n)
on the tree's two sweeps, with every per-ball array in the tree's preorder
ball numbering: ``analyze`` takes ball integrals of f * nu bottom-up
(``BallTree.ball_integrals``), ``synthesize`` sums values down each root
path (``BallTree.path_sums``).
Partial sums over siblings come from a work-efficient (Blelloch) scan, so
each is a balanced tree of additions and rounding grows with depth and the
log of the arity, not with n.

The dense oracles work from the same plan, and ``_row_blocks`` cuts what
they form into blocks of about 256 KiB and at least 32 rows, so from 1024
leaves up every block is 32 rows long.  ``matrix_times(y)`` returns
``matrix @ y`` in one children-first sweep over the balls, O(balls) work
per column of ``y``, without building ``matrix``; ``stream_matrix_times``
is that sweep with the rows of ``y`` and of the product passed through
callables, so that :func:`.pdo.verify_spectrum` forms the rows of its
operator a block at a time and keeps a window of the product's rows.
``gram`` is one such product, the dense reference for the Gram deviation
that :func:`.pdo.verify_spectrum` reads off the plan, and no library
routine calls it.  ``block(rows, leaves)`` is one block of ``matrix``,
built from the supports that meet it, and ``matrix`` materializes the
basis vectors as rows a block at a time (O(n^2) and rebuilt on every
access, so hold one reference per use); they exist for the dense checks
and tests.  Wavelet k belongs to ball ``tree.parent[plan.child[k]]``; a
ball's wavelets are consecutive, in index order from 1, and a ball with c
children has c - 1 of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ball_tree import BallTree, running_sums

#: Bytes of one block of a dense oracle's rows (or columns), formed at a time (256 KiB).
_BLOCK_BYTES = 1 << 18


def _row_blocks(count: int, length: int) -> list[tuple[int, int]]:
    """Ranges ``[first, last)`` that cut ``count`` rows of ``length`` floats into blocks.

    A block holds about ``_BLOCK_BYTES`` (256 KiB) in a multiple of 32
    rows, and the last block takes a lone row left over.  32 rows is the
    floor, which rows of 1024 floats or more all reach: a block is then
    32 rows whatever the bytes, 512 KiB at 2048 leaves and 2 MiB at 8192,
    while rows of 200 floats or fewer, ``certify``'s default trees, come in
    one or two blocks.  A block's product with a
    vector is then a BLAS gemv whose rows fall in the same groups of four
    as in the whole matrix's product (OpenBLAS sums a row of a group in
    another order than a row left over), also when it splits a block
    evenly over 2, 4 or 8 threads; and no block is a single row, which
    numpy would hand to a dot product instead.
    """
    step = max(32, _BLOCK_BYTES // (8 * max(length, 1)) // 32 * 32)
    starts = list(range(0, count, step))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [count]))


@dataclass(frozen=True)
class TransformPlan:
    """Everything a wavelet basis stores, as read-only arrays.

    Wavelet k with index j belongs to ball ``tree.parent[child[k]]``.  It
    equals ``pos[k]`` on children 1..j of the ball, ``neg[k]`` on child
    j+1, whose ball number in the tree is ``child[k]``, and zero elsewhere.
    ``constant`` is the value of the normalized constant.

    ``scan`` pairs sibling blocks for :func:`_sibling_sums`: level L joins
    blocks ``left`` and ``right`` of level L - 1 (each block a run of
    2**(L-1) consecutive siblings) into one, ``paired`` marking the joined
    blocks that have a right half.  The blocks of level 0 are single balls,
    so the first level's ``left`` and ``right`` are ball numbers; later
    levels index the blocks of the level before.
    """

    child: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    constant: float
    scan: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


class WaveletBasis:
    """Orthonormal basis of leaf functions: wavelets plus the constant.

    The basis is ordered by internal ball in depth-first order, then by
    wavelet index, with the constant element last.
    """

    def __init__(self, tree: BallTree, plan: TransformPlan):
        self.tree = tree
        self.plan = plan

    @property
    def size(self) -> int:
        return len(self.plan.pos) + 1

    def support(self, wavelets=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each wavelet's leaf ranges ``(start, split, stop)``, in basis order.

        Wavelet k is ``pos[k]`` on leaves ``[start[k], split[k])``, the
        children of its ball before its child, ``neg[k]`` on leaves
        ``[split[k], stop[k])``, its child, and zero elsewhere: the tree's
        leaf ranges of the wavelet's ball and child.  ``wavelets``, a slice
        or an index array, selects the wavelets (all by default).
        """
        tree, child = self.tree, self.plan.child[wavelets]
        return tree.leaf_start[tree.parent[child]], tree.leaf_start[child], tree.leaf_stop[child]

    def _entries(
        self, wavelets, first: int = 0, last: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero values of the given wavelets on leaves ``[first, last)``.

        ``wavelets`` is a slice or an index array of wavelets (the constant
        is not one).  Flat arrays ``(row, leaf, value)``, ``row`` the
        position in ``wavelets``, in order, and leaves ascending in a row:
        one entry per leaf of each support, so callers expand a bounded set
        of wavelets at a time (a star's supports hold n^2/2 leaves).
        """
        start, split, stop = self.support(wavelets)
        start = np.maximum(start, first)
        if last is not None:
            stop = np.minimum(stop, last)
        length = np.maximum(stop - start, 0)
        row = np.repeat(np.arange(len(length)), length)
        shift = np.repeat(start - (np.cumsum(length) - length), length)
        leaf = np.arange(row.size) + shift
        pos, neg = self.plan.pos[wavelets], self.plan.neg[wavelets]
        value = np.where(leaf < split[row], pos[row], neg[row])
        return row, leaf, value

    def block(self, rows: slice = slice(None), leaves: slice = slice(None)) -> np.ndarray:
        """``matrix[rows, leaves]`` for two slices of step 1, as a new C-contiguous array.

        Built from the entries inside the block alone, in O(size) plus the
        block's area.
        """
        first_row, last_row, row_step = rows.indices(self.size)
        first, last, leaf_step = leaves.indices(self.tree.n_leaves)
        if (row_step, leaf_step) != (1, 1):
            raise ValueError(f"block takes slices of step 1, got {rows} and {leaves}")
        out = np.zeros((max(last_row - first_row, 0), max(last - first, 0)))
        wavelets = slice(first_row, min(last_row, self.size - 1))
        row, leaf, value = self._entries(wavelets, first, last)
        out[row, leaf - first] = value
        if last_row == self.size and first_row < last_row:
            out[-1] = self.plan.constant
        return out

    @property
    def matrix(self) -> np.ndarray:
        """Basis vectors as rows, shape (size, n_leaves), constant last.

        Dense O(n^2) materialization for oracles, built on every access a
        block of rows at a time; read-only.
        """
        m = np.empty((self.size, self.tree.n_leaves))
        for first, last in _row_blocks(self.size, self.tree.n_leaves):
            m[first:last] = self.block(slice(first, last))
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
        tree, p = self.tree, self.plan
        first = np.append(0, np.cumsum(tree.child_count[tree.internal_balls] - 1))
        first_child = tree.kids[tree.first_child[tree.internal_balls]]
        source = np.where(tree.child_count, ~tree.internal_rank, tree.leaf_start)
        return first.tolist(), source[first_child].tolist(), source[p.child].tolist()

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
        out = np.empty((self.size, y.shape[1]))
        self.stream_matrix_times(y.__getitem__, out.__getitem__, y.shape[1])
        return out

    def stream_matrix_times(self, leaf_row, out_row, width: int) -> None:
        """:meth:`matrix_times`'s sweep, with its rows passed through two callables.

        ``leaf_row(x)`` returns leaf x's row of ``y``, a 1-D array of
        ``width`` floats; the sweep reads each leaf's row once, and uses it
        before the next call.  ``out_row(k)`` returns the array that row k
        of the product is written into; the rows are written one after the
        other, each complete before the next is asked for, wavelets in
        sweep order and the constant last.  So neither ``y`` nor the
        product need be held whole.
        """
        first, first_source, source = self._sweep
        pos, neg = self.plan.pos.tolist(), self.plan.neg.tolist()
        term = np.empty(width)
        sums: dict[int, np.ndarray] = {}
        # depth-first preorder lists every ball before its descendants
        for b in range(len(first) - 2, -1, -1):
            s = first_source[b]
            before = leaf_row(s).copy() if s >= 0 else sums.pop(~s)
            for k in range(first[b], first[b + 1]):
                s = source[k]
                block = leaf_row(s) if s >= 0 else sums.pop(~s)
                row = out_row(k)
                np.multiply(before, pos[k], out=row)
                np.multiply(block, neg[k], out=term)
                row += term
                before += block
            sums[b] = before
        root = sums.pop(0) if sums else leaf_row(0)
        np.multiply(root, self.plan.constant, out=out_row(self.size - 1))

    def analyze(self, values) -> np.ndarray:
        """Expansion coefficients of a leaf function, one per basis element."""
        p = self.plan
        v = self.tree.as_leaf_values(values)
        integral = self.tree.ball_integrals(v * self.tree.leaf_measures)
        before = _sibling_sums(integral, p.scan, before=True)
        wavelet_part = p.pos * before[p.child] + p.neg * integral[p.child]
        return np.append(wavelet_part, p.constant * integral[0])

    def synthesize(self, coefficients) -> np.ndarray:
        """Leaf function with the given expansion coefficients."""
        c = np.asarray(coefficients, dtype=complex)
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got shape {c.shape}")
        p = self.plan
        # a ball's wavelets add, on its child i, pos * c for every wavelet
        # of a later child plus neg * c for the wavelet of child i
        up = np.zeros(len(self.tree), dtype=complex)
        up[p.child] = p.pos * c[:-1]
        value = _sibling_sums(up, p.scan, before=False)
        value[p.child] += p.neg * c[:-1]
        value[0] = p.constant * c[-1]
        return self.tree.path_sums(value)[self.tree.leaf_balls]

    def gram(self) -> np.ndarray:
        """Measure-weighted Gram matrix; identity for a correct basis.

        ``matrix_times`` of the n-by-size array diag(nu) matrix^T, which is
        filled from the wavelets' supports.  O(n^2); the dense reference
        for ``pdo._gram_deviation``, which needs no n-by-n array.
        """
        nu = self.tree.leaf_measures
        weighted = np.zeros((self.tree.n_leaves, self.size))
        for first, last in _row_blocks(self.size - 1, self.tree.n_leaves):
            row, leaf, value = self._entries(slice(first, last))
            weighted[leaf, first + row] = nu[leaf] * value
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


def _scan_schedule(kids: np.ndarray, rank: np.ndarray, rank_back: np.ndarray):
    """The ``scan`` of a plan, from the balls ``kids`` in sibling order and
    each one's count of earlier and later siblings."""
    scan = []
    block = kids  # level 0's blocks are balls, every later level's are positions
    while True:
        # a block opens a pair if it is even-numbered and has a sibling block
        left = np.flatnonzero((rank % 2 == 0) & (rank + rank_back > 0))
        if left.size == 0:
            return tuple(scan)
        paired = np.flatnonzero(rank_back[left] > 0)
        level = (block[left], paired, block[left[paired] + 1])
        for a in level:
            a.flags.writeable = False
        scan.append(level)
        rank, rank_back = rank[left] // 2, rank_back[left] // 2
        block = np.arange(left.size)


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
    Wavelets follow the tree's sibling order (``tree.kids``), and the
    Helmert masses before each child are running sums of the sibling
    measures in child order, as a loop over the children would add them.
    """
    m = len(tree)
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
    plan = TransformPlan(
        child=_frozen(child, np.intp),
        pos=_frozen(_helmert_weight(head, tail, total), float),
        neg=_frozen(-_helmert_weight(tail, head, total), float),
        constant=1.0 / math.sqrt(tree.total_measure),
        scan=_scan_schedule(tree.kids, rank, count - 1 - rank),
    )
    return WaveletBasis(tree, plan)


def mean(tree: BallTree, values) -> complex:
    """Measure-weighted integral of a leaf function.

    Summed by numpy's pairwise ``sum``, whose order is fixed, not as a BLAS
    dot product, whose order follows the BLAS thread count.
    """
    return complex(np.sum(tree.as_leaf_values(values) * tree.leaf_measures))
