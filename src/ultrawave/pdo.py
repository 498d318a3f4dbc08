"""Hierarchical operators diagonal in the wavelet basis.

An operator here is determined by a nonnegative kernel value per internal
ball, applied through the minimal ball containing each pair of points:

    (T f)(x) = sum_y T(sup(x, y)) (f(x) - f(y)) nu(y)

Constants are annihilated, and every wavelet is an exact eigenvector: the
eigenvalue attached to a ball combines the kernel value there with one term
per strict ancestor, weighted by the measure that ancestor adds around the
ball.  On a finite tree the ancestor sum is finite, so no summability
condition arises.

Kernels and spectra are :class:`~.ball_tree.BallValues`: one float per
internal ball, in an array over the tree's internal balls in preorder,
bound to that tree.  Id-keyed kernel values enter only through
``make_kernel`` (and ``load_kernel``).  ``spectrum`` fills the whole array
from the descent sums that ``pair_matvec`` shares, one ``BallTree.path_sums``,
adding the same terms in the same order as the path sum of ``eigenvalue``, and
``Spectrum.for_basis`` is one gather by the basis plan's ball indices.

``dense_operator`` builds the full leaf-by-leaf matrix M straight from the
pair definition, with no reference to wavelets or the eigenvalue sum.
``symmetric_operator`` builds, from the same pairs and into one buffer,
the symmetric matrix S = diag(sqrt(nu)) M diag(sqrt(nu))^-1, optionally
plus a real diagonal potential; it is the one dense matrix behind both
oracles, and ``_operator_rows`` builds it a block of rows at a time.
``verify_spectrum`` certifies the closed form with those blocks, never
holding S whole: it takes each wavelet's residual in sqrt(nu) coordinates
and, from the residuals and the basis's Gram matrix G, a bound on the gap
between the eigenvalues of S and the analytic multiset, in O(n^2) time,
in memory of a few blocks of rows, and with no eigensolver; it reports
||G - I||_F too, the one measure of orthonormality the checks use.
G itself is never formed: every off-diagonal entry is a constant times one
wavelet's integral, so ``_gram_deviation`` reads what the bound needs off
the basis plan's block structure.
``DensePropagator`` in :mod:`.evolution` evolves through the
eigendecomposition of S.  S is bitwise symmetric, so it passes LAPACK
S.T: the same values in column-major order, which numpy copies into
LAPACK's buffer contiguously rather than one strided column at a time.

``pair_matvec`` is M without the matrix: the product f -> M f = a f - b
from the tree's two sweeps, ball integrals bottom-up
(``BallTree.ball_integrals``) and path sums top-down
(``BallTree.path_sums``), O(n) per product.  Like ``dense_operator``
it uses no wavelet and no eigenvalue formula; it is the product of the
Chebyshev potential route in :mod:`.evolution`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from .artifacts import column, csv_fields, float_column, read_csv, write_csv
from .ball_tree import _NOT_NUMBERS, BallTree, BallValues, _is_json_number, internal_values
from .wavelet import WaveletBasis, _row_blocks, _sibling_sums


def _require_ball_values(owner: str, values) -> None:
    if not isinstance(values, BallValues):
        raise TypeError(
            f"{owner} takes a BallValues (one value per internal ball, bound to its tree), "
            f"got {type(values).__name__}"
        )


@dataclass(frozen=True)
class SupKernel:
    """Nonnegative kernel value per internal ball, as built by
    :func:`make_kernel` or a preset."""

    values: BallValues

    def __post_init__(self):
        _require_ball_values("SupKernel", self.values)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue per internal ball, as computed by :func:`spectrum`.

    The constant element has eigenvalue 0: the operator annihilates constants.
    """

    eigenvalues: BallValues

    def __post_init__(self):
        _require_ball_values("Spectrum", self.eigenvalues)

    def for_tree(self, tree: BallTree) -> np.ndarray:
        """Eigenvalue per internal ball of ``tree``, in preorder."""
        return internal_values(self.eigenvalues, tree)

    def for_basis(self, basis: WaveletBasis) -> np.ndarray:
        """Eigenvalue per basis element, in basis order (constant last)."""
        ball = basis.tree.internal_rank[basis.tree.parent[basis.plan.child]]
        return np.append(self.for_tree(basis.tree)[ball], 0.0)


def _checked_kernel(tree: BallTree, values: np.ndarray) -> SupKernel:
    """A kernel from one value per internal ball, rejecting negative or non-finite values."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        raise ValueError(
            f"kernel value for ball {tree.internal[bad[0]]!r} must be >= 0, "
            f"got {values[bad[0]].item()}"
        )
    return SupKernel(values=BallValues(tree, values))


def make_kernel(tree: BallTree, values: Mapping[str, float]) -> SupKernel:
    """Validate a kernel: nonnegative and covering every internal ball.

    The first offending entry, in the mapping's order, is named: an unknown
    ball, a leaf, or a value that is not a number (a bool or a string is
    not), negative or non-finite.
    """
    names = list(values)
    try:
        if _NOT_NUMBERS & set(map(type, values.values())):
            raise TypeError("a kernel value is a bool or a string")
        given = np.array([float(v) for v in values.values()], dtype=float)
    except (TypeError, ValueError, OverflowError):
        name, value = next((k, v) for k, v in values.items() if not _is_json_number(v))
        raise ValueError(f"kernel value for ball {name!r} is not a number: {value!r}") from None
    balls = tree.positions(names)
    leaf = tree.child_count[balls] == 0
    bad = ~(np.isfinite(given) & (given >= 0))
    problems = np.flatnonzero((balls < 0) | leaf | bad)
    if problems.size:
        i = problems[0]
        if balls[i] < 0:
            tree.index(names[i])  # raises, naming the unknown ball
        if leaf[i]:
            raise ValueError(f"kernel value given for leaf ball {names[i]!r}")
        raise ValueError(f"kernel value for ball {names[i]!r} must be >= 0, got {given[i].item()}")
    full = np.full(len(tree), np.nan)
    full[balls] = given
    kernel = full[tree.internal_balls]
    missing = np.flatnonzero(np.isnan(kernel))[:5]
    if missing.size:
        raise ValueError(
            f"kernel is missing internal balls: {[tree.internal[i] for i in missing]!r}"
        )
    return SupKernel(values=BallValues(tree, kernel))


def constant_kernel(tree: BallTree, value: float = 1.0) -> SupKernel:
    return _checked_kernel(tree, np.full(len(tree.internal_balls), float(value)))


def vladimirov_kernel(tree: BallTree, alpha: float) -> SupKernel:
    """Fractional-differentiation style preset: T(I) = diameter(I)**(-alpha-1).

    On a regular p-ary tree this reproduces the scaling of p-adic
    fractional differentiation of order ``alpha``.  Each value is Python's
    float power (``np.power`` rounds differently on some inputs), and a
    diameter whose power overflows is rejected, naming its ball.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    diameters = tree.diameter[tree.internal_balls].tolist()
    exponent = -alpha - 1.0
    try:
        kernel = np.fromiter(map(pow, diameters, repeat(exponent)), float, len(diameters))
    except OverflowError:
        for ball_id, d in zip(tree.internal, diameters):
            try:
                d**exponent
            except OverflowError:
                raise ValueError(
                    f"kernel value diameter ** (-alpha - 1) overflows at ball {ball_id!r}: "
                    f"diameter {d}, alpha {alpha}"
                ) from None
        raise
    return _checked_kernel(tree, kernel)


def load_kernel(path, tree: BallTree) -> SupKernel:
    """Read a kernel file: either a JSON object mapping ball id to value, or
    ``{"preset": "vladimirov", "alpha": number}``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("kernel file must contain a JSON object")
    if "preset" in doc:
        if doc["preset"] != "vladimirov":
            raise ValueError(f"unknown kernel preset: {doc['preset']!r}")
        if not _is_json_number(doc.get("alpha")):
            raise ValueError(
                f"kernel file {path}: the vladimirov preset needs a number 'alpha', "
                f"got {doc.get('alpha')!r}"
            )
        return vladimirov_kernel(tree, float(doc["alpha"]))
    return make_kernel(tree, doc)


def eigenvalue(tree: BallTree, kernel: SupKernel, ball_id: str) -> float:
    """Wavelet eigenvalue for one internal ball.

    T(I) nu(I) plus, for each strict ancestor J, the kernel value at J times
    the measure J adds beyond its child on the path down to I.  Terms are
    accumulated from the root downward, along the parent array.
    """
    ball = tree.index(ball_id)
    if not tree.child_count[ball]:
        raise ValueError(f"eigenvalues attach to internal balls, got leaf {ball_id!r}")
    path = [ball]
    while path[-1]:
        path.append(int(tree.parent[path[-1]]))
    path.reverse()
    t = internal_values(kernel.values, tree)[tree.internal_rank[path]].tolist()
    nu = tree.measure[path].tolist()
    lam = 0.0
    for k in range(len(path) - 1):
        lam += t[k] * (nu[k] - nu[k + 1])
    lam += t[-1] * nu[-1]
    return lam


def _ball_kernel(tree: BallTree, kernel: SupKernel) -> np.ndarray:
    """The kernel value of every ball in preorder, 0 on leaves."""
    t = np.zeros(len(tree))
    t[tree.internal_balls] = internal_values(kernel.values, tree)
    return t


def _descent_sums(tree: BallTree, t: np.ndarray, internal_only: bool = False) -> np.ndarray:
    """Per ball B, a(B) = sum T(P) (nu(P) - nu(C)) over the parent-child pairs
    (P, C) on the path from the root down to B, from the tree's root-down
    :meth:`~.BallTree.path_sums`; ``t`` is :func:`_ball_kernel`'s T per ball.
    With ``internal_only`` only the internal balls' sums are finished.
    """
    parent = np.maximum(tree.parent, 0)  # the root is its own parent and adds T(root) * 0
    nu = tree.measure
    return tree.path_sums(t[parent] * (nu[parent] - nu), internal_only)


def spectrum(tree: BallTree, kernel: SupKernel) -> Spectrum:
    """Eigenvalues of every internal ball, from the descent sums a(B).

    With a(root) = 0 and a(B) = a(P) + T(P) (nu(P) - nu(B)) for a child B of
    P, the eigenvalue of B is a(B) + T(B) nu(B): the same additions, in the
    same order, as the path sum of :func:`eigenvalue`.  A ball whose
    eigenvalue is not finite (the kernel times the measures overflows) is
    rejected by name.
    """
    t = _ball_kernel(tree, kernel)
    nu = tree.measure
    internal = tree.internal_balls
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _descent_sums(tree, t, internal_only=True)[internal] + t[internal] * nu[internal]
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise ValueError(
            f"eigenvalue of ball {tree.internal[bad[0]]!r} is not finite: {float(lam[bad[0]])}; "
            "the kernel values times the measures overflow"
        )
    return Spectrum(eigenvalues=BallValues(tree, lam))


def _sup_rectangles(tree: BallTree, kernel: SupKernel) -> tuple[np.ndarray, ...]:
    """T(sup(x, y)) over leaf pairs as disjoint rectangles that cover its nonzeros.

    Arrays ``(top, bottom, left, right, value)``: rows ``[top, bottom)`` by
    columns ``[left, right)`` hold ``value``.  Two leaves in different
    children of B have sup B, so the rows of each internal child C of B
    take T(B) in the columns of B outside C.  The row of a leaf child takes
    T(B) in all of B's columns, since sup(x, x) is the leaf x, whose value
    is its parent's; adjacent leaves of one parent form one rectangle.
    """
    n = tree.n_leaves
    t = _ball_kernel(tree, kernel)
    start, stop = tree.leaf_start, tree.leaf_stop
    # leaves where the parent changes; prepending -1, the root's parent,
    # finds none when the one leaf is the root
    leaf_parent = tree.parent[tree.leaf_balls]
    runs = np.flatnonzero(np.diff(leaf_parent, prepend=-1))
    run_parent = leaf_parent[runs]
    children = tree.internal_balls[1:]  # every internal ball but the root, ball 0
    parent = tree.parent[children]
    # one rectangle per run of leaves, and two per internal child, its
    # parent's columns left and right of its own
    top = np.concatenate([runs, start[children], start[children]])
    bottom = np.concatenate([np.append(runs, n)[1:], stop[children], stop[children]])
    left = np.concatenate([start[run_parent], start[parent], stop[children]])
    right = np.concatenate([stop[run_parent], start[children], stop[parent]])
    value = np.concatenate([t[run_parent], t[parent], t[parent]])
    # the first child has no columns left of it and the last none right: on
    # the p = 2 preset that drops 2046 of 5116 slices, each about 1 us
    wide = left < right
    return top[wide], bottom[wide], left[wide], right[wide], value[wide]


def _fill_sup_kernel(rectangles: tuple[np.ndarray, ...], first: int, out: np.ndarray) -> None:
    """Write rows ``first`` to ``first + len(out)`` of T(sup(x, y)) into the zeroed ``out``.

    ``rectangles`` is :func:`_sup_rectangles`'s; each one is clipped to the
    rows, so every entry is written once.
    """
    top, bottom, left, right, value = rectangles
    last = first + len(out)
    hit = (top < last) & (bottom > first)
    for row, stop, first_col, last_col, v in zip(
        (np.maximum(top[hit], first) - first).tolist(),
        (np.minimum(bottom[hit], last) - first).tolist(),
        left[hit].tolist(),
        right[hit].tolist(),
        value[hit].tolist(),
    ):
        out[row:stop, first_col:last_col] = v


def _sup_kernel(tree: BallTree, kernel: SupKernel) -> np.ndarray:
    """The n-by-n matrix T(sup(x, y)) over leaf pairs, each entry written once."""
    n = tree.n_leaves
    sup_kernel = np.zeros((n, n))
    _fill_sup_kernel(_sup_rectangles(tree, kernel), 0, sup_kernel)
    return sup_kernel


def dense_operator(tree: BallTree, kernel: SupKernel) -> np.ndarray:
    """Leaf-by-leaf matrix M of the operator, from the pair definition.

    M[x, y] = -T(sup(x, y)) nu(y) off the diagonal and the negated row sum
    on it.  Exact for leaf functions: within a single leaf f(x) - f(y)
    vanishes, so no quadrature is involved.  Rows sum to zero (constants
    are killed) and M is self-adjoint under the measure-weighted inner
    product: nu(x) M[x,y] = nu(y) M[y,x].
    """
    weighted = _sup_kernel(tree, kernel) * tree.leaf_measures
    matrix = -weighted
    np.fill_diagonal(matrix, weighted.sum(axis=1) - weighted.diagonal())
    return matrix


def pair_matvec(tree: BallTree, kernel: SupKernel):
    """The product f -> M f with :func:`dense_operator`'s M, in O(n) per product.

    The pair sum splits over the internal balls P holding x: with C the
    child of P that holds x, P adds T(P) [(nu(P) - nu(C)) f(x) - (I(P) - I(C))],
    I(B) the integral of f * nu over B.  So M f = a * f - b with
    a(x) = sum T(P) (nu(P) - nu(C)) and b(x) = sum T(P) (I(P) - I(C)) over
    the parent-child pairs on x's path.  Each product takes I from the
    tree's bottom-up :meth:`~.BallTree.ball_integrals` and b from its
    top-down :meth:`~.BallTree.path_sums`; a is :func:`spectrum`'s
    :func:`_descent_sums`.  It uses no wavelet and no eigenvalue, so it is
    independent of both.
    """
    t = _ball_kernel(tree, kernel)
    leaves, leaf_nu = tree.leaf_balls, tree.leaf_measures
    a = _descent_sums(tree, t)[leaves]
    parent = np.maximum(tree.parent, 0)  # the root, ball 0, is its own parent
    t_parent = t[parent]
    t_parent[0] = 0.0  # and no pair of points has its sup above the root

    def matvec(f: np.ndarray) -> np.ndarray:
        integral = tree.ball_integrals(f * leaf_nu)
        b = tree.path_sums(t_parent * (integral[parent] - integral))
        return a * f - b[leaves]

    return matvec


def _operator_rows(tree: BallTree, kernel: SupKernel, potential: np.ndarray | None = None):
    """:func:`symmetric_operator`'s S a block of rows at a time.

    Returns ``fill(first, out)``, which writes rows ``first`` to
    ``first + len(out)`` of S into the C-contiguous ``out``: T(sup(x, y))
    from the rectangles clipped to the rows, M's diagonal from them as
    ``T_rows @ nu - T(x, x) nu(x)``, a BLAS gemv per row, plus the
    potential, then each row x scaled in place by the products -r(x) r(y),
    formed in one reused vector of n floats, and the diagonal set, so no
    temporary the size of the block is allocated.  On the blocks of
    :func:`~.wavelet._row_blocks` each row's gemv sums in the order of the
    whole matrix's product, so on one BLAS thread every entry has the bits
    it has in S built whole.
    """
    nu = tree.leaf_measures
    r = np.sqrt(nu)
    rectangles = _sup_rectangles(tree, kernel)
    scale = np.empty_like(r)

    def fill(first: int, out: np.ndarray) -> None:
        last = first + len(out)
        out.fill(0.0)
        _fill_sup_kernel(rectangles, first, out)
        rows = np.arange(len(out))
        diagonal = out @ nu - out[rows, rows + first] * nu[first:last]
        if potential is not None:
            diagonal += potential[first:last]
        for row, minus_r in zip(out, (-r[first:last]).tolist()):
            row *= np.multiply(minus_r, r, out=scale)
        out[rows, rows + first] = diagonal

    return fill


def symmetric_operator(
    tree: BallTree, kernel: SupKernel, potential: np.ndarray | None = None
) -> np.ndarray:
    """S = diag(r) (M + diag(potential)) diag(r)^-1 with r = sqrt(nu), from the pairs.

    M is :func:`dense_operator`'s matrix and ``potential`` an optional real
    value per leaf.  The conjugation maps M, self-adjoint under the
    measure-weighted inner product, to a symmetric matrix with the same
    eigenvalues: S[x, y] = -T(sup(x, y)) r(x) r(y) off the diagonal, which
    is bitwise symmetric, and M's diagonal plus the potential on it.  Built
    in one n-by-n buffer, which is returned, a block of rows at a time by
    :func:`_operator_rows`, which :func:`verify_spectrum` streams.
    """
    n = tree.n_leaves
    sym = np.empty((n, n))
    fill = _operator_rows(tree, kernel, potential)
    for first, last in _row_blocks(n, n):
        fill(first, sym[first:last])
    return sym


def _leaf_rows(fill, blocks: list[tuple[int, int]], width: int):
    """The rows of a matrix for :meth:`~.WaveletBasis.stream_matrix_times`,
    formed a block at a time.

    ``fill(first, out)`` writes rows ``first`` to ``first + len(out)`` into
    ``out``; ``blocks`` are the row ranges it is called on.  A row outside
    the block held has its block formed in the one buffer, and the rows of
    the old block the sweep has yet to read are first copied out until it
    reads them, so no block is formed twice.  The sweep reads most rows
    near the one it read last, so on most trees few rows wait.
    """
    starts = [first for first, _ in blocks]
    buffer = np.empty((max(last - first for first, last in blocks), width))
    waiting: dict[int, np.ndarray] = {}
    unread = np.ones(blocks[-1][1], dtype=bool)
    held = [0, 0]

    def row(leaf: int) -> np.ndarray:
        if leaf in waiting:
            return waiting.pop(leaf)
        first, last = held
        if not first <= leaf < last:
            for i in (first + np.flatnonzero(unread[first:last])).tolist():
                waiting[i] = buffer[i - first].copy()
            first, last = blocks[bisect_right(starts, leaf) - 1]
            fill(first, buffer[: last - first])
            held[:] = first, last
        unread[leaf] = False
        return buffer[leaf - first]

    return row


@dataclass(frozen=True)
class SpectrumVerification:
    """Cross-check of the analytic eigenvalues against the dense matrix."""

    max_residual: float
    residual_tol: float
    multiset_max_diff: float
    multiset_tol: float
    operator_norm: float
    gram_deviation: float

    @property
    def residual_ok(self) -> bool:
        return self.max_residual <= self.residual_tol

    @property
    def multiset_ok(self) -> bool:
        return self.multiset_max_diff <= self.multiset_tol

    @property
    def passed(self) -> bool:
        return self.residual_ok and self.multiset_ok

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


#: Largest relative eigenrelation residual :func:`verify_spectrum` accepts.
_RESIDUAL_TOL = 1e-10
#: Largest certified gap between the dense and the analytic eigenvalues it accepts.
_MULTISET_TOL = 1e-8


def _sum_of_squares(a: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of ``a`` (of ``a`` itself if it is 1-D).

    Summed by numpy's own loop, whose order is fixed, not as a BLAS dot
    product, whose order follows the BLAS thread count.
    """
    return np.einsum("...i,...i->...", a, a)


def _gram_deviation(
    basis: WaveletBasis, ball_lambda: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """eta = ||G - I||_F, ||E Lambda - Lambda E||_F and diag(G), read off the plan.

    G is ``basis.gram()``, E = G - I and Lambda the eigenvalue per basis
    element, ``ball_lambda`` being the one per internal ball in preorder.
    Two basis functions overlap only where one's ball holds the other's
    support, and there the outer one is constant, so no n-by-n array is
    needed.  Wavelet k of ball A is ``pos`` on A's children before its own,
    of mass M, and ``neg`` on its child, of mass m, so

        G_kk = pos^2 M + neg^2 m,    s_k = pos M + neg m = integral of psi_k,

    and every off-diagonal entry of row k is a value of the other function
    on A times s_k: ``pos`` of each later wavelet of A, the value v_w(A) of
    each wavelet w of a strict ancestor, and the constant c.  Summing the
    squares, with U(A) the sum of v_w(A)^2 over the ancestors' wavelets
    plus c^2,

        eta^2 = sum (G_kk - 1)^2 + (c^2 nu(X) - 1)^2 + 2 sum s_k^2 (later_k + U(A)).

    Same-ball pairs share lambda, so the commutator's square is
    2 sum s_k^2 [c^2 lambda_k^2 + sum_w v_w(A)^2 (lambda_w - lambda_k)^2],
    the square of each gap taken as it is, not expanded, which would cancel.

    Ball masses are the tree's sums of the leaf measures, not
    ``tree.measure``, from which the Helmert values were built, so a wrong
    ball measure shows in eta as it does in the dense product.  The work is
    O(n) plus one step per internal ball and ancestor, and every sum is
    numpy's own, in a fixed order.
    """
    tree, p = basis.tree, basis.plan
    parent, child = tree.parent, p.child
    mass = tree.ball_integrals(tree.leaf_measures)
    before = _sibling_sums(mass, p.scan, before=True)[child]
    within = mass[child]
    diagonal = np.append(p.pos**2 * before + p.neg**2 * within, p.constant**2 * mass[0])
    integral = p.pos * before + p.neg * within
    # per ball C, the squares of its parent's wavelet values on C: pos^2 of
    # every later sibling's wavelet plus neg^2 of C's own; the root's parent
    # is the constant, with eigenvalue 0
    square = np.zeros(len(tree))
    square[child] = p.pos**2
    later = _sibling_sums(square, p.scan, before=False)
    square = later.copy()
    square[child] += p.neg**2
    square[0] = p.constant**2
    lam = np.zeros(len(tree))
    lam[tree.internal_balls] = ball_lambda
    lam_above = lam[np.maximum(parent, 0)]
    lam_above[0] = 0.0
    # per internal ball A, sum over C from A up to the root of
    # square(C) (lambda(parent(C)) - lambda(A))^2, one level per step
    spread = np.zeros(len(ball_lambda))
    rows, ball = np.arange(len(ball_lambda)), tree.internal_balls
    while rows.size:
        spread[rows] += square[ball] * (lam_above[ball] - ball_lambda[rows]) ** 2
        up = ball > 0
        rows, ball = rows[up], parent[ball[up]]
    above = tree.path_sums(square)[parent[child]]
    off_diagonal = 2.0 * np.sum(integral**2 * (later[child] + above))
    eta = math.sqrt(_sum_of_squares(diagonal - 1.0) + off_diagonal)
    rank = tree.internal_rank[parent[child]]
    commutator = math.sqrt(2.0 * np.sum(integral**2 * spread[rank]))
    return eta, commutator, diagonal


def verify_spectrum(
    tree: BallTree, kernel: SupKernel, basis: WaveletBasis, spec: Spectrum
) -> SpectrumVerification:
    """Check every basis element against the operator's dense matrix.

    Two comparisons: the eigenrelation residual
    ||M psi - lambda psi||_nu / max(1, ||M|| ||psi||_nu) per basis element,
    at most ``_RESIDUAL_TOL``, and a certified bound beta on the gap between
    the eigenvalues of M and the analytic multiset (each ball's eigenvalue
    repeated once per wavelet, plus 0 for the constant), both sorted, at
    most ``_MULTISET_TOL``.  The report records both tolerances, beta as
    ``multiset_max_diff``, max |lambda| as ``operator_norm``, which is
    within beta of ||M||, and eta = ||G - I||_F, defined below, as
    ``gram_deviation``: the basis's distance from orthonormal, and why
    beta is ``inf`` when it exceeds 1/2.

    The operator is the symmetric matrix S = diag(r) M diag(r)^-1 with
    r = sqrt(nu) of :func:`symmetric_operator`, which has M's eigenvalues.
    Scaling S's rows by r makes row k of ``basis.matrix_times(diag(r) S)``
    the vector S phi_k with phi_k = r psi_k, and
    ||M psi_k - lambda_k psi_k||_nu = ||S phi_k - lambda_k phi_k||_2, so
    the residual rows R_k = S phi_k - lambda_k phi_k are taken in these
    coordinates, subtracting lambda_k phi_k on psi_k's support only.  Each
    ||psi_k||_nu = ||phi_k||_2 in the residual's scale is sqrt(G_kk), G
    the Gram matrix below.

    Neither diag(r) S nor R is held whole.  The rows of diag(r) S are
    formed a block of :func:`~.wavelet._row_blocks` at a time by
    :func:`_operator_rows`, the builder of :func:`symmetric_operator`, and
    handed to the sweep of :meth:`~.WaveletBasis.stream_matrix_times`,
    which reads each leaf's row once (:func:`_leaf_rows`).  The residual
    rows go into a window of as
    many rows; a full window has lambda_k phi_k subtracted on its
    wavelets' supports and its squares summed, and is reused.  On one
    BLAS thread every entry and sum has the bits it has in the whole
    arrays.

    The bound needs no eigensolver (Weyl's theorem on the polar factor of
    the basis; Parlett, *The Symmetric Eigenvalue Problem*, 1980, ch. 11).
    Let Q have the columns phi_k, G = Q^T Q = ``basis.gram()``, E = G - I,
    eta = ||E||_F and Lambda = diag(lambda).  For eta <= 1/2, Q = U H with
    U orthogonal and H = G^(1/2), and S Q = Q Lambda + R^T gives
    U^T S U = H Lambda H^-1 + U^T R^T H^-1.  With ||H - I - E/2|| <= eta^2/2
    and ||H^-1|| <= 1/sqrt(1 - eta), Weyl's theorem bounds every sorted
    eigenvalue gap by

        beta = (||R||_F + ||E Lambda - Lambda E||_F / 2 + eta^2 max|lambda|)
               / sqrt(1 - eta),

    where (E Lambda - Lambda E)_jk = E_jk (lambda_k - lambda_j).  For
    eta > 1/2 the basis is too far from orthonormal to bound anything, and
    beta is ``inf``.  Rounding in forming R and E is not bounded, just as an
    eigensolver's backward error would not be.

    E is never formed: :func:`_gram_deviation` reads eta,
    ||E Lambda - Lambda E||_F and diag(G) off the plan's block structure in
    O(n) plus one step per internal ball and ancestor, with ball masses
    summed from the leaf measures, so a ball measure the Helmert values
    disagree with still shows in eta.  ``basis.gram()`` is the dense
    reference the tests compare it with; no library routine calls it.
    :mod:`.certify`'s orthonormality check reads eta from the report.
    The residual product alone costs O(n^2) time, in the memory of a
    block of rows of each array plus the rows the sweep keeps for later:
    blocks of about 256 KiB and at least 32 rows, so 32 rows from 1024
    leaves up, and S's rows are scaled in place, with no temporary of a
    block's size.  Its ``tracemalloc`` peak on the p = 2 presets with
    ``vladimirov`` alpha = 0.5 is 0.9 MiB at 2^10 leaves, 1.8 MiB at 2^11,
    3.7 MiB at 2^12 and 6.3 MiB at 2^13.
    No LAPACK routine runs.  M's diagonal is a BLAS gemv per row, whose blocks keep each row
    in the same group of four rows as the whole matrix's product, and
    every other sum taken here is numpy's own, in a fixed order.
    """
    if basis.tree is not tree and basis.tree.leaves != tree.leaves:
        raise ValueError("basis was built for a different tree")
    r = np.sqrt(tree.leaf_measures)
    lam = spec.for_basis(basis)
    operator_norm = float(np.max(np.abs(lam)))
    eta, commutator, gram_diagonal = _gram_deviation(basis, spec.for_tree(basis.tree))
    vector_norms = np.sqrt(gram_diagonal)

    n = tree.n_leaves
    fill = _operator_rows(tree, kernel)

    def scaled(first: int, out: np.ndarray) -> None:
        fill(first, out)
        out *= r[first : first + len(out), None]

    blocks = _row_blocks(n, n)
    residual_squares = np.empty(basis.size)
    window = np.empty((blocks[0][1] - blocks[0][0], n))
    held: list[int] = []  # the basis element of each window row

    def flush() -> None:
        k = np.array(held, dtype=np.intp)
        # the constant, written last, has eigenvalue 0: its row is S phi alone
        wavelets = k[k < basis.size - 1]
        row, leaf, value = basis._entries(wavelets)
        window[row, leaf] -= lam[wavelets][row] * (r[leaf] * value)
        residual_squares[k] = _sum_of_squares(window[: len(k)])
        held.clear()

    def out_row(k: int) -> np.ndarray:
        if len(held) == len(window):
            flush()
        held.append(k)
        return window[len(held) - 1]

    basis.stream_matrix_times(_leaf_rows(scaled, blocks, n), out_row, n)
    flush()
    scale = np.maximum(1.0, operator_norm * vector_norms)
    max_residual = float(np.max(np.sqrt(residual_squares) / scale))
    if eta <= 0.5:
        residual_norm = math.sqrt(np.sum(residual_squares))
        bound = (residual_norm + commutator / 2 + eta**2 * operator_norm) / math.sqrt(1.0 - eta)
    else:
        bound = math.inf
    return SpectrumVerification(
        max_residual=max_residual,
        residual_tol=_RESIDUAL_TOL,
        multiset_max_diff=bound,
        multiset_tol=_MULTISET_TOL,
        operator_norm=operator_norm,
        gram_deviation=eta,
    )


def write_spectrum(path, tree: BallTree, spec: Spectrum) -> None:
    """Export as CSV columns ball_id, p_I, lambda (internal balls, tree order)."""
    fields = csv_fields(tree.internal)
    arities = tree.child_count[tree.internal_balls].tolist()
    eigenvalues = spec.for_tree(tree).tolist()
    rows = (f"{field},{arity},{lam!r}" for field, arity, lam in zip(fields, arities, eigenvalues))
    write_csv(path, ["ball_id", "p_I", "lambda"], rows)


def read_spectrum(path) -> dict[str, float]:
    """Read a spectrum CSV back as a ball id to eigenvalue mapping.

    The file needs ``ball_id`` and ``lambda`` columns, every row a value in
    both, and lists each ball once; ``ValueError`` names the file otherwise.
    """
    columns = read_csv(path)
    ids = column(path, columns, "ball_id")
    values = dict(zip(ids, float_column(path, columns, "lambda").tolist()))
    if len(values) < len(ids):
        seen = set()
        repeated = next(ball_id for ball_id in ids if ball_id in seen or seen.add(ball_id))
        raise ValueError(f"{path} lists ball {repeated!r} more than once")
    return values
