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
in one root-down sweep, a level of the tree at a time, adding the same
terms in the same order as the per-ball path sum of ``eigenvalue``, and
``Spectrum.for_basis`` is one gather by the basis plan's ball indices.

``dense_operator`` builds the full leaf-by-leaf matrix straight from the
pair definition, with no reference to wavelets or the eigenvalue sum.
``verify_spectrum`` certifies the closed form against the same definition:
it builds the symmetric matrix S = diag(sqrt(nu)) M diag(sqrt(nu))^-1 from
the pairs into one buffer, compares its eigenvalues with the analytic
multiset, and takes each wavelet's residual in sqrt(nu) coordinates.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping

import numpy as np

from .artifacts import csv_fields, write_csv
from .ball_tree import BallTree, BallValues, _is_number, internal_values
from .wavelet import WaveletBasis


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
        return np.append(self.for_tree(basis.tree)[basis.plan.ball], 0.0)


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
    ball, a leaf, or a value that is not a number, negative or non-finite.
    """
    names = list(values)
    try:
        given = np.array([float(v) for v in values.values()], dtype=float)
    except (TypeError, ValueError, OverflowError):
        name, value = next((k, v) for k, v in values.items() if not _is_number(v))
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
        if not _is_number(doc.get("alpha")):
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


def spectrum(tree: BallTree, kernel: SupKernel) -> Spectrum:
    """Eigenvalues of every internal ball in one root-down sweep, a level at a time.

    With a(root) = 0 and a(B) = a(P) + T(P) (nu(P) - nu(B)) for a child B of
    P, the eigenvalue of B is a(B) + T(B) nu(B): the same additions, in the
    same order, as the path sum of :func:`eigenvalue`.  A ball whose
    eigenvalue is not finite (the kernel times the measures overflows) is
    rejected by name.
    """
    t = np.zeros(len(tree))
    t[tree.internal_balls] = internal_values(kernel.values, tree)
    nu = tree.measure
    a = np.zeros(len(tree))
    with np.errstate(over="ignore", invalid="ignore"):
        for level in tree.levels[1:-1]:  # the deepest level holds only leaves
            up = tree.parent[level]
            a[level] = a[up] + t[up] * (nu[up] - nu[level])
        internal = tree.internal_balls
        lam = a[internal] + t[internal] * nu[internal]
    bad = np.flatnonzero(~np.isfinite(lam))
    if bad.size:
        raise ValueError(
            f"eigenvalue of ball {tree.internal[bad[0]]!r} is not finite: {float(lam[bad[0]])}; "
            "the kernel values times the measures overflow"
        )
    return Spectrum(eigenvalues=BallValues(tree, lam))


def _sup_kernel(tree: BallTree, kernel: SupKernel) -> np.ndarray:
    """The n-by-n matrix T(sup(x, y)) over leaf pairs."""
    n = tree.n_leaves
    sup_kernel = np.zeros((n, n))
    # depth-first preorder visits parents before children, so the deepest
    # common ball wins each pair entry
    internal = tree.internal_balls
    for start, stop, value in zip(
        tree.leaf_start[internal].tolist(),
        tree.leaf_stop[internal].tolist(),
        internal_values(kernel.values, tree).tolist(),
    ):
        sup_kernel[start:stop, start:stop] = value
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


def symmetrized(tree: BallTree, matrix: np.ndarray) -> np.ndarray:
    """Conjugate by diag(sqrt(nu)).

    Maps an operator self-adjoint under the measure-weighted inner product
    to a symmetric matrix; the output is explicitly symmetrized to absorb
    last-bit asymmetry.
    """
    r = np.sqrt(tree.leaf_measures)
    sym = matrix * (r[:, None] / r[None, :])
    return 0.5 * (sym + sym.T)


@dataclass(frozen=True)
class SpectrumVerification:
    """Cross-check of the analytic eigenvalues against the dense matrix."""

    max_residual: float
    residual_tol: float
    multiset_max_diff: float
    multiset_tol: float
    operator_norm: float

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
        return {
            "max_residual": self.max_residual,
            "residual_tol": self.residual_tol,
            "multiset_max_diff": self.multiset_max_diff,
            "multiset_tol": self.multiset_tol,
            "operator_norm": self.operator_norm,
            "passed": self.passed,
        }


def verify_spectrum(
    tree: BallTree,
    kernel: SupKernel,
    basis: WaveletBasis,
    spec: Spectrum,
    residual_tol: float = 1e-10,
    multiset_tol: float = 1e-8,
) -> SpectrumVerification:
    """Check every basis element against the operator's dense matrix.

    Two independent comparisons: the eigenrelation residual
    ||M psi - lambda psi||_nu / max(1, ||M|| ||psi||_nu) per basis element,
    and equality of the numerically computed eigenvalue multiset with the
    analytic multiset (each ball's eigenvalue repeated once per wavelet,
    plus 0 for the constant).

    Everything runs on one n-by-n buffer, built straight from the pair
    definition as S = diag(r) M diag(r)^-1 with r = sqrt(nu):
    S[x, y] = -T(sup(x, y)) r(x) r(y) off the diagonal, which is bitwise
    symmetric, and M's diagonal on it.  ``eigvalsh(S)`` gives the multiset.
    Scaling S's rows by r then makes row k of ``basis.matrix_times(S)`` the
    vector S phi_k with phi_k = r psi_k, and
    ||M psi_k - lambda_k psi_k||_nu = ||S phi_k - lambda_k phi_k||_2, so
    the residual is taken in these coordinates, subtracting lambda_k phi_k
    on psi_k's support only.
    """
    if basis.tree is not tree and basis.tree.leaves != tree.leaves:
        raise ValueError("basis was built for a different tree")
    nu = tree.leaf_measures
    r = np.sqrt(nu)
    sym = _sup_kernel(tree, kernel)
    diagonal = sym @ nu - sym.diagonal() * nu
    sym *= np.outer(-r, r)
    np.fill_diagonal(sym, diagonal)
    numeric = np.sort(np.linalg.eigvalsh(sym))
    arity = tree.child_count[tree.internal_balls]
    analytic = np.sort(
        np.append(np.repeat(spec.for_tree(tree), arity - 1), 0.0)
    )
    if analytic.shape != numeric.shape:
        raise ValueError(
            f"eigenvalue count mismatch: {analytic.size} analytic vs {numeric.size} dense"
        )
    multiset_max_diff = float(np.max(np.abs(numeric - analytic), initial=0.0))
    operator_norm = float(np.max(np.abs(numeric), initial=0.0))

    lam = spec.for_basis(basis)
    sym *= r[:, None]
    residual = basis.matrix_times(sym)
    wavelet, leaf, value = basis.plan.support()
    residual[wavelet, leaf] -= lam[wavelet] * (r[leaf] * value)
    residual[-1] -= lam[-1] * basis.plan.constant * r
    residual_norms = np.sqrt(np.einsum("ij,ij->i", residual, residual))
    vector_norms = np.sqrt(
        np.append(
            np.bincount(wavelet, weights=nu[leaf] * value**2, minlength=basis.size - 1),
            basis.plan.constant**2 * nu.sum(),
        )
    )
    scale = np.maximum(1.0, operator_norm * vector_norms)
    max_residual = float(np.max(residual_norms / scale, initial=0.0))
    return SpectrumVerification(
        max_residual=max_residual,
        residual_tol=residual_tol,
        multiset_max_diff=multiset_max_diff,
        multiset_tol=multiset_tol,
        operator_norm=operator_norm,
    )


def write_spectrum(path, tree: BallTree, spec: Spectrum) -> None:
    """Export as CSV columns ball_id, p_I, lambda (internal balls, tree order)."""
    fields = csv_fields(tree.internal)
    arities = tree.child_count[tree.internal_balls].tolist()
    eigenvalues = spec.for_tree(tree)

    def rows(start: int, stop: int):
        for field, arity, lam in zip(
            fields[start:stop], arities[start:stop], eigenvalues[start:stop].tolist()
        ):
            yield f"{field},{arity},{lam!r}"

    write_csv(path, ["ball_id", "p_I", "lambda"], len(fields), rows)


def read_spectrum(path) -> dict[str, float]:
    """Read a spectrum CSV back as a ball id to eigenvalue mapping.

    The file needs ``ball_id`` and ``lambda`` columns, every row a value in
    both, and lists each ball once; ``ValueError`` names the file otherwise.
    """
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(fh)
        for column in ("ball_id", "lambda"):
            if column not in (rows.fieldnames or ()):
                raise ValueError(f"{path} has no {column!r} column")
        for row in rows:
            ball_id, lam = row["ball_id"], row["lambda"]
            if ball_id is None or lam is None:
                raise ValueError(f"{path} has a short row on line {rows.line_num}")
            if ball_id in values:
                raise ValueError(f"{path} lists ball {ball_id!r} more than once")
            try:
                values[ball_id] = float(lam)
            except ValueError:
                raise ValueError(
                    f"{path} has a lambda that is not a number on line {rows.line_num}: {lam!r}"
                ) from None
    return values
