"""Measured ball trees: finite ultrametric spaces as rooted trees of balls.

In an ultrametric space the strong triangle inequality forces any two balls
to be either nested or disjoint, so the balls form a rooted tree: the
children of a ball are its maximal subballs, and the minimal balls (the
leaves of a finite-depth tree) play the role of points.  Every ball carries
a positive diameter, strictly decreasing from parent to child, and a
positive measure that adds up over children.

Square-integrable functions are represented by one complex value per leaf,
in a canonical depth-first leaf order ("leaf functions").  All spectral
constructions in this package are exact on that span, so the finite tree
introduces no discretization error.

A built tree is a set of arrays.  Its balls are numbered 0 .. m-1 in
depth-first preorder: the root is 0, every ball comes before its
descendants, and children follow the order of the specification.  The
leaves, taken in preorder, are the canonical leaf order.  Each per-ball
quantity is a read-only numpy array indexed by that number:

- ``parent`` (-1 at the root) and ``child_count``;
- ``kids`` and ``first_child``: ``kids`` lists the non-root balls grouped
  by parent, parents in preorder and siblings in child order, so the
  children of ball b are ``kids[first_child[b]:first_child[b] + child_count[b]]``;
- ``leaf_start`` and ``leaf_stop``: the contiguous range of canonical leaf
  indices below each ball;
- ``diameter`` and ``measure``;
- ``levels``: per depth, the balls at that depth in preorder; a ball's
  depth is the index of its level.

Two sweeps over ``levels`` carry every per-ball sum the package needs:
``ball_integrals`` sums leaf values up to each ball, children first, and
``path_sums`` sums per-ball terms down each root path.  Their per-level
schedules are built on first use and kept with the tree.

String ids are used only at the boundary.  They stay in the order of the
specification, ``ids_of`` reads them by ball number, and one lookup table,
built on first use, maps an id back to its number.  ``sup``, ``leaf_slice``
and the other methods taking ids are thin views over the arrays.  A
per-ball quantity such as a kernel or a spectrum is a :class:`BallValues`:
one float per internal ball, in a read-only array in preorder, bound to its
tree.  Its array is read through :func:`internal_values`, which checks the
tree; reading by id through its mapping view is for the boundary.

Trees are immutable once built and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, zip_longest
from typing import Iterable

import numpy as np

#: Relative tolerance when checking a declared internal measure against the
#: sum of its child measures.
MEASURE_RTOL = 1e-12


class InvalidTreeError(ValueError):
    """A tree specification violates a structural invariant.

    ``violations`` lists every detected problem; each message names the
    offending ball ids.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid ball tree: " + "; ".join(self.violations))


@dataclass(frozen=True)
class BallSpec:
    """One ball in a declarative tree specification."""

    id: str
    parent: str | None
    diameter: float
    measure: float | None = None


@dataclass(frozen=True)
class TreeSpec:
    """Declarative description of a ball tree.

    Child order is the order of appearance in ``balls``.  Measures may be
    declared per ball, or for leaves only through ``leaf_measures``;
    internal measures are recomputed from the leaves and any declared
    internal measure is checked against the child sum.  The JSON form's
    ``{"preset": ...}`` is expanded by ``tree_spec_from_dict``.  The JSON
    and preset loaders give ``balls`` as columns (:class:`BallColumns`),
    which read as a sequence of :class:`BallSpec`.
    """

    balls: Sequence[BallSpec] = ()
    leaf_measures: Mapping[str, float] | None = None


class BallColumns(Sequence):
    """The balls of a specification as columns, read as ``BallSpec`` items.

    ``ids`` and ``parents`` are sequences of ids (``None`` for the root),
    ``diameter`` and ``measure`` float arrays; ``measure`` is NaN where no
    measure was declared and ``declared`` marks the other balls.  A preset
    also gives ``parent_rows``, each ball's parent as a row number (-1 for
    the root); its ids are unique by construction, so :func:`build_tree`
    then reads the links from those rows and looks up no id.
    """

    def __init__(self, ids, parents, diameter, measure, declared, parent_rows=None):
        self.ids, self.parents = ids, parents
        self.diameter, self.measure, self.declared = diameter, measure, declared
        self.parent_rows = parent_rows

    @classmethod
    def of(cls, balls: Sequence[BallSpec]) -> "BallColumns":
        if isinstance(balls, cls):
            return balls
        measure, declared = _optional_floats([b.measure for b in balls])
        return cls(
            [b.id for b in balls],
            [b.parent for b in balls],
            np.array([b.diameter for b in balls], dtype=float),
            measure,
            declared,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        measure = float(self.measure[i]) if self.declared[i] else None
        return BallSpec(self.ids[i], self.parents[i], float(self.diameter[i]), measure)


def _optional_floats(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as a float array, NaN where a value is None, and a mask of the others."""
    given = np.fromiter(map(operator.is_not, values, repeat(None)), bool, len(values))
    out = np.full(len(values), np.nan)
    out[given] = [float(v) for v in values if v is not None]
    return out, given


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start of each run of ``counts`` items laid end to end."""
    out = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def running_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` within runs, left to right.

    Run r covers ``values[starts[r]:starts[r] + counts[r]]``; entry i of the
    result is the sum of its run up to and including i, added strictly in
    order, ``((v0 + v1) + v2) + ...``, so it is bitwise the sum of a plain
    loop.  (``np.add.reduceat`` adds long runs pairwise and differs.)  Runs
    of equal length are summed together by one ``cumsum`` along rows, so
    the work is O(len(values)) in as many steps as there are distinct run
    lengths.
    """
    out = np.empty_like(values)
    for length in np.flatnonzero(np.bincount(counts)).tolist():  # the distinct lengths
        rows = starts[counts == length][:, None] + np.arange(length)
        out[rows] = np.cumsum(values[rows], axis=1)
    return out


#: The smallest normal float: a sum of squares below it has lost digits.
_NORMAL_MIN = float(np.finfo(float).tiny)


def _weighted_norm(values: np.ndarray, weights: np.ndarray | float) -> float:
    """sqrt(sum |values|^2 weights), by numpy's fixed-order ``sum``.

    This is the package's one vector norm: weights 1.0 give the 2-norm of
    coefficients, and unlike a BLAS dot product its summation order does
    not follow the thread count.  When that plain sum underflows below the
    smallest normal float or overflows, it is taken again with every
    |value| divided by max|values| first, as LAPACK's nrm2 scales, so a
    function of values below about 1e-154 or above 1e154 keeps its digits
    instead of reading 0 or inf.
    A plain sum in range is returned as it is.
    """
    mags = np.abs(values)
    with np.errstate(over="ignore"):
        total = np.sum(mags**2 * weights)
    if not _NORMAL_MIN <= total < math.inf:
        scale = float(np.max(mags, initial=0.0))
        if 0.0 < scale < math.inf:
            return scale * float(np.sqrt(np.sum((mags / scale) ** 2 * weights)))
    return float(np.sqrt(total))


def _relative(value: float, scale: float) -> float:
    """``value / scale``; a zero packet's 0 / 0 reads 0, anything else over 0 inf.

    The package's one ratio: every figure relative to a norm is this.
    """
    return value / scale if scale > 0 else (math.inf if value else 0.0)


class BallTree:
    """Immutable rooted tree of measured balls, stored as preorder arrays.

    Construct through :func:`build_tree`, which validates every invariant
    and computes the arrays described in the module docstring.
    """

    def __init__(self, ids: np.ndarray, lookup: dict | None, row: np.ndarray, **arrays):
        # ids stay in the specification's order: ball b is row row[b] there
        self._ids = _frozen(ids)
        self._row = _frozen(row)
        self._position = np.empty_like(row)
        self._position[row] = np.arange(len(row))
        self._position.flags.writeable = False
        if lookup is not None:
            self.__dict__["_lookup"] = lookup  # id -> row
        self.parent = _frozen(arrays["parent"])
        self.kids = _frozen(arrays["kids"])
        self.child_count = _frozen(arrays["child_count"])
        self.first_child = _frozen(_exclusive_cumsum(self.child_count))
        self.levels = tuple(_frozen(level) for level in arrays["levels"])
        self.leaf_start = _frozen(arrays["leaf_start"])
        self.leaf_stop = _frozen(arrays["leaf_stop"])
        self.diameter = _frozen(arrays["diameter"])
        self.measure = _frozen(arrays["measure"])
        self.leaf_balls = _frozen(np.flatnonzero(self.child_count == 0))
        self.internal_balls = _frozen(np.flatnonzero(self.child_count))
        self.leaf_measures = _frozen(self.measure[self.leaf_balls])
        self.root = self.ids_of(0)
        self.depth = len(self.levels) - 1

    # -- ids at the boundary ----------------------------------------------

    def ids_of(self, balls):
        """The id of a ball number, or an object array of ids for an array of them."""
        return self._ids[self._row[balls]]

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        """Leaf ids in canonical order."""
        return tuple(self.ids_of(self.leaf_balls).tolist())

    @cached_property
    def internal(self) -> tuple[str, ...]:
        """Internal ball ids in preorder."""
        return tuple(self.ids_of(self.internal_balls).tolist())

    @cached_property
    def _lookup(self) -> dict:
        """The id lookup table (id -> row), built on first use when ``build_tree`` had none."""
        return dict(zip(self._ids.tolist(), range(len(self._ids))))

    def _find(self, ball_id: str) -> int:
        """Preorder number of a ball; ``KeyError`` for an unknown id."""
        return int(self._position[self._lookup[ball_id]])

    def index(self, ball_id: str) -> int:
        """Preorder number of a ball."""
        try:
            return self._find(ball_id)
        except KeyError:
            raise ValueError(f"unknown ball id: {ball_id!r}") from None

    def positions(self, ball_ids: Iterable[str]) -> np.ndarray:
        """Preorder numbers of many ids at once, -1 for an id not in the tree."""
        rows = np.fromiter(map(self._lookup.get, ball_ids, repeat(-1)), np.intp)
        return np.where(rows >= 0, self._position[rows], -1)

    @cached_property
    def internal_rank(self) -> np.ndarray:
        """Per ball, its position among the internal balls (meaningful for those only)."""
        return _frozen(np.cumsum(self.child_count > 0) - 1)

    @cached_property
    def _up_sweep(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Schedule of :meth:`ball_integrals`: per level above the deepest,
        deepest first, its internal balls, the level below (grouped by
        parent) and where each ball's children start in it."""
        sweep = []
        for level, below in zip(self.levels[-2::-1], self.levels[:0:-1]):
            internal = level[self.child_count[level] > 0]
            sweep.append((internal, below, _exclusive_cumsum(self.child_count[internal])))
        return tuple(sweep)

    @cached_property
    def _down_sweep(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Schedule of :meth:`path_sums`: per level below the root, its balls and their parents."""
        return tuple((level, self.parent[level]) for level in self.levels[1:])

    def ball_integrals(self, leaf_values: np.ndarray) -> np.ndarray:
        """Per ball, the sum of ``leaf_values`` (one per leaf) over its leaves.

        Bottom-up, a level at a time: each internal ball adds its children's
        sums in child order with ``np.add.reduceat``, so a sum is never a
        global prefix difference, which would cancel as n grows.
        """
        x = np.empty(len(self), dtype=leaf_values.dtype)
        x[self.leaf_balls] = leaf_values
        for internal, below, starts in self._up_sweep:
            x[internal] = np.add.reduceat(x[below], starts)
        return x

    def path_sums(self, terms: np.ndarray, internal_only: bool = False) -> np.ndarray:
        """Per ball, the sum of ``terms`` (one per ball) over the ball and its ancestors.

        Top-down, a level at a time: each ball adds its parent's finished
        sum to its own term.  Accumulates into ``terms`` and returns it.
        With ``internal_only`` the deepest level, which holds leaves alone,
        is skipped: every internal ball's sum is the same, and the deepest
        leaves keep their terms.
        """
        sweep = self._down_sweep[:-1] if internal_only else self._down_sweep
        for level, above in sweep:
            terms[level] += terms[above]
        return terms

    # -- basic access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_balls)

    @property
    def total_measure(self) -> float:
        return float(self.measure[0])

    def leaf_slice(self, ball_id: str) -> slice:
        """Contiguous range of canonical leaf indices below a ball."""
        b = self.index(ball_id)
        return slice(int(self.leaf_start[b]), int(self.leaf_stop[b]))

    # -- ultrametric structure --------------------------------------------

    def _sup(self, x: int, y: int) -> int:
        # every internal ball has two children or more, so a ball whose
        # leaf range covers y's is y or one of its ancestors
        start, stop = self.leaf_start[y], self.leaf_stop[y]
        while not (self.leaf_start[x] <= start and stop <= self.leaf_stop[x]):
            x = self.parent[x]
        return int(x)

    def sup(self, a: str, b: str) -> str:
        """Minimal ball containing both arguments (lowest common ancestor)."""
        return self.ids_of(self._sup(self.index(a), self.index(b)))

    def distance(self, a: str, b: str) -> float:
        """Induced ultrametric between leaves: diameter of their sup."""
        x, y = self.index(a), self.index(b)
        if x == y:
            return 0.0
        return float(self.diameter[self._sup(x, y)])

    # -- leaf functions ----------------------------------------------------

    def as_leaf_values(self, values) -> np.ndarray:
        """Coerce to a complex leaf vector, checking the length."""
        v = np.asarray(values, dtype=complex)
        if v.shape != (self.n_leaves,):
            raise ValueError(
                f"leaf function must have {self.n_leaves} values, got shape {v.shape}"
            )
        return v

    def norm(self, f) -> float:
        """||f||_nu, the measure-weighted 2-norm of a leaf function."""
        return _weighted_norm(self.as_leaf_values(f), self.leaf_measures)

    def ball_support(self, values, tol: float | None = None) -> str | None:
        """Smallest ball covering every leaf where ``|values|`` exceeds ``tol``.

        Returns ``None`` when no entry exceeds the threshold (reported as
        ``"empty"`` in CSV artifacts).  The default threshold,
        ``1e-12 * max|values|``, separates true zeros from rounding noise.
        Non-finite values have no support and are rejected.
        """
        b = self._support_ball(values, tol)
        return None if b is None else self.ids_of(b)

    def _support_ball(self, values, tol: float | None = None) -> int | None:
        """:meth:`ball_support` as a preorder number, which needs no id lookup."""
        v = self.as_leaf_values(values)
        _require_finite(self, v, "value")
        mags = np.abs(v)
        if tol is None:
            tol = 1e-12 * float(mags.max(initial=0.0))
        if not tol >= 0:
            raise ValueError(f"support threshold must be nonnegative, got {tol}")
        idx = np.nonzero(mags > tol)[0]
        if idx.size == 0:
            return None
        # canonical leaf spans are contiguous, so the sup of the first and
        # last supported leaf covers everything in between
        return self._sup(self.leaf_balls[idx[0]], self.leaf_balls[idx[-1]])


class BallValues(Mapping):
    """One float per internal ball of ``tree``, read as a mapping from ball id.

    ``array`` holds the values over ``tree.internal_balls``, in preorder;
    it is a read-only copy of what the constructor is given.
    """

    def __init__(self, tree: BallTree, array):
        a = np.array(array, dtype=float)
        if a.shape != tree.internal_balls.shape:
            raise ValueError(
                f"expected {len(tree.internal_balls)} values, one per internal ball, "
                f"got shape {a.shape}"
            )
        self.tree = tree
        self.array = _frozen(a)

    def __getitem__(self, ball_id: str) -> float:
        """The value of an internal ball; ``KeyError`` for a leaf or an unknown id."""
        b = self.tree._find(ball_id)
        if not self.tree.child_count[b]:
            raise KeyError(ball_id)
        return float(self.array[self.tree.internal_rank[b]])

    def __iter__(self):
        return iter(self.tree.internal)

    def __len__(self) -> int:
        return len(self.array)

    def values(self) -> list[float]:
        return self.array.tolist()

    def items(self) -> list[tuple[str, float]]:
        return list(zip(self.tree.internal, self.array.tolist()))

    def __repr__(self) -> str:
        return f"BallValues({dict(self.items())!r})"


def internal_values(values: BallValues, tree: BallTree) -> np.ndarray:
    """``values.array``, one float per internal ball of ``tree`` in preorder.

    The values must be bound to ``tree`` or to a tree with the same internal
    ball ids in the same order; otherwise ``ValueError`` names the first
    internal ball where the two trees differ.
    """
    if values.tree is not tree and values.tree.internal != tree.internal:
        k, (bound, here) = next(
            (k, pair)
            for k, pair in enumerate(zip_longest(values.tree.internal, tree.internal))
            if pair[0] != pair[1]
        )
        raise ValueError(
            f"values are bound to another tree: internal ball {k} in preorder is "
            f"{bound!r} there and {here!r} here"
        )
    return values.array


def _require_finite(tree: BallTree, values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first leaf whose value is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        leaf = tree.ids_of(tree.leaf_balls[bad[0]])
        raise ValueError(f"{what} at leaf {leaf!r} is not finite: {values[bad[0]]}")


# -- specification loading and presets -------------------------------------


def padic_preset(p: int, depth: int, total_measure: float = 1.0) -> TreeSpec:
    """Regular p-ary tree: a level-k ball has diameter p**-k and measure
    ``total_measure * p**-k``.

    Ball ids are dot-separated child indices below the root id ``"r"``.
    The balls are listed level by level, as columns.
    """
    if p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p}")
    if depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth}")
    if not 0 < total_measure < math.inf:
        raise ValueError(f"total_measure must be positive and finite, got {total_measure}")
    digits = np.array([f".{k}" for k in range(p)], dtype=object)
    ids, parents = [np.array(["r"], dtype=object)], [np.array([None], dtype=object)]
    diameters, measures = [np.ones(1)], [np.full(1, float(total_measure))]
    for level in range(1, depth + 1):
        above = ids[-1]
        parents.append(np.repeat(above, p))
        ids.append(parents[-1] + np.tile(digits, len(above)))
        diameters.append(np.full(len(ids[-1]), float(p) ** -level))
        measures.append(np.full(len(ids[-1]), total_measure * float(p) ** -level))
    measure = np.concatenate(measures)
    # row r > 0 is child (r - 1) % p of row (r - 1) // p
    parent_rows = (np.arange(len(measure)) - 1) // p
    balls = BallColumns(
        np.concatenate(ids),
        np.concatenate(parents),
        np.concatenate(diameters),
        measure,
        np.ones(len(measure), dtype=bool),
        parent_rows,
    )
    return TreeSpec(balls=balls)


def tree_spec_from_dict(doc: Mapping) -> TreeSpec:
    """Parse the JSON document form of a tree specification.

    A document of the wrong shape raises :class:`InvalidTreeError` naming
    what is wrong: the document, the preset, a ball or ``leaf_measures`` is
    not an object, a required number is missing or is not a number (a bool
    or a string is not, even where ``float`` reads it), a preset's ``p`` or
    ``depth`` is not an integer, or a preset number is out of range.
    """
    if not isinstance(doc, Mapping):
        raise InvalidTreeError([f"specification must be an object, got {type(doc).__name__}"])
    has_balls = bool(doc.get("balls"))
    has_preset = doc.get("preset") is not None
    if has_balls == has_preset:
        raise InvalidTreeError(
            ["specification must contain exactly one of 'balls' or 'preset'"]
        )
    if has_preset:
        preset = doc["preset"]
        if not isinstance(preset, Mapping):
            raise InvalidTreeError([f"'preset' must be an object, got {type(preset).__name__}"])
        if preset.get("type") != "padic":
            raise InvalidTreeError([f"unknown preset type: {preset.get('type')!r}"])
        problems = []
        for key in ("p", "depth"):
            value = preset.get(key)
            if type(value) is not int:  # neither true nor 2.0 is a JSON integer
                kind = "an integer" if isinstance(value, float) else "a number"
                problems.append(f"padic preset needs {kind} {key!r}, got {value!r}")
        if problems:
            raise InvalidTreeError(problems)
        total_measure = _preset_measure(preset)
        try:
            return padic_preset(preset["p"], preset["depth"], total_measure)
        except ValueError as exc:  # p < 2, depth < 1, or total_measure not positive and finite
            raise InvalidTreeError([f"padic preset: {exc}"]) from None
    entries = doc["balls"]
    try:
        ids = list(map(operator.itemgetter("id"), entries))
        parents = list(map(operator.methodcaller("get", "parent"), entries))
        parent_types = set(map(type, parents))
        if _NOT_IDS & set(map(type, ids)) or bool in parent_types:
            raise TypeError("an id is a bool or null, or a parent is a bool")
        if not parent_types <= {str, type(None)}:
            parents = [None if parent is None else str(parent) for parent in parents]
        diameters = list(map(operator.itemgetter("diameter"), entries))
        measures = list(map(operator.methodcaller("get", "measure"), entries))
        if _NOT_NUMBERS & set(map(type, diameters)) or _NOT_NUMBERS & set(map(type, measures)):
            raise TypeError("a diameter or measure is a bool or a string")
        measure, declared = _optional_floats(measures)
        balls = BallColumns(
            list(map(str, ids)),
            parents,
            np.array(list(map(float, diameters)), dtype=float),
            measure,
            declared,
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        problems = _ball_entry_problems(entries)
        if problems:
            raise InvalidTreeError(problems) from None
        raise
    leaf_measures = doc.get("leaf_measures")
    if leaf_measures is not None:
        if not isinstance(leaf_measures, Mapping):
            raise InvalidTreeError(
                [f"'leaf_measures' must be an object, got {type(leaf_measures).__name__}"]
            )
        try:
            if _NOT_NUMBERS & set(map(type, leaf_measures.values())):
                raise TypeError("a leaf measure is a bool or a string")
            leaf_measures = dict(zip(map(str, leaf_measures), map(float, leaf_measures.values())))
        except (TypeError, ValueError, OverflowError):
            raise InvalidTreeError(
                [
                    f"leaf_measures gives leaf {leaf!r} a measure that is not a number: {value!r}"
                    for leaf, value in leaf_measures.items()
                    if not _is_json_number(value)
                ]
            ) from None
    return TreeSpec(balls=balls, leaf_measures=leaf_measures)


def _ball_entry_problems(entries) -> list[str]:
    """What keeps the ``balls`` of a JSON specification from being read."""
    if not isinstance(entries, list):
        return [f"'balls' must be a list of objects, got {type(entries).__name__}"]
    problems = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            problems.append(f"balls entry {k} is not an object: {entry!r}")
            continue
        has_id = "id" in entry and type(entry["id"]) not in _NOT_IDS
        name = f"ball {entry['id']!r}" if has_id else f"balls entry {k}"
        if "id" not in entry:
            problems.append(f"{name} has no 'id'")
        elif not has_id:
            problems.append(f"{name} has an id that is not a string or a number: {entry['id']!r}")
        if type(entry.get("parent")) is bool:
            problems.append(f"{name} has a parent that is not a ball id: {entry['parent']!r}")
        if entry.get("diameter") is None:
            problems.append(f"{name} has no 'diameter'")
        for key in ("diameter", "measure"):
            if entry.get(key) is not None and not _is_json_number(entry[key]):
                problems.append(f"{name} has a {key} that is not a number: {entry[key]!r}")
    return problems


def _preset_measure(preset: Mapping) -> float:
    value = preset.get("total_measure", 1.0)
    if not _is_json_number(value):
        raise InvalidTreeError([f"padic preset needs a number 'total_measure', got {value!r}"])
    return float(value)


def _is_number(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


#: Types that ``float`` reads but that are not numbers in a JSON document:
#: ``true``, ``false`` and strings such as ``"1.0"``.
_NOT_NUMBERS = {bool, str}
#: Types of a JSON ``id`` that name no ball: ``true``, ``false`` and ``null``.
#: An integer id is read as its decimal string.
_NOT_IDS = {bool, type(None)}


def _is_json_number(value) -> bool:
    """A number as a JSON document gives one: ``float`` reads it and it is no bool or string."""
    return type(value) not in _NOT_NUMBERS and _is_number(value)


def load_tree_spec(path) -> TreeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_spec_from_dict(json.load(fh))


def build_tree(spec: TreeSpec) -> BallTree:
    """Validate a specification and construct the immutable tree.

    Structural problems (bad links) abort immediately; value problems
    (measures, diameters, child counts) are collected so diagnostics can
    name every violation at once.  Every check is an array comparison, and
    the tree is laid out level by level from the root, so the work is O(m)
    for m balls in one step of Python per level (and per distinct child
    count within a level, for the measure sums).
    """
    cols = BallColumns.of(spec.balls)
    ids, parents = cols.ids, cols.parents
    m = len(ids)
    if m == 0:
        raise InvalidTreeError(["specification lists no balls"])

    # -- structure: links, roots, reachability ----------------------------
    structural: list[str] = []
    lookup, own = None, np.arange(m)
    if cols.parent_rows is not None:
        parent = np.array(cols.parent_rows, dtype=np.intp)
        is_root = parent < 0
    else:
        lookup = dict(zip(ids, range(m)))
        if len(lookup) < m:
            seen: set[str] = set()
            for ball_id in ids:
                if ball_id in seen:
                    structural.append(f"duplicate ball id {ball_id!r}")
                seen.add(ball_id)
            own = np.fromiter(map(lookup.__getitem__, ids), np.intp, m)
        is_root = np.fromiter(map(operator.is_, parents, repeat(None)), bool, m)
        parent = np.fromiter(map(lookup.get, parents, repeat(-1)), np.intp, m)
    unknown = (parent < 0) & ~is_root
    own_parent = parent == own
    for i in np.flatnonzero(unknown | own_parent).tolist():
        if unknown[i]:
            structural.append(f"ball {ids[i]!r} links to unknown parent {parents[i]!r}")
        else:
            structural.append(f"ball {ids[i]!r} is its own parent")
    roots = np.flatnonzero(is_root).tolist()
    if len(roots) != 1:
        structural.append(
            f"expected exactly one root, found {len(roots)}: {sorted(ids[i] for i in roots)!r}"
        )
    if structural:
        raise InvalidTreeError(structural)

    root = roots[0]
    child_count = np.bincount(parent[~is_root], minlength=m)
    # rows grouped by parent row, children in specification order
    by_parent = np.argsort(parent, kind="stable")[1:]  # the root's -1 sorts first
    first = _exclusive_cumsum(child_count)
    # levels[d]: the rows at depth d, children of one ball consecutive, in
    # the order of their parents one level up; groups[d]: the internal
    # balls of level d, their child counts and where their children start
    # in levels[d + 1]
    levels = [np.array([root])]
    groups = []
    while True:
        internal = levels[-1][child_count[levels[-1]] > 0]
        if internal.size == 0:
            break
        counts = child_count[internal]
        starts = _exclusive_cumsum(counts)
        groups.append((internal, counts, starts))
        runs = np.repeat(first[internal] - starts, counts) + np.arange(int(counts.sum()))
        levels.append(by_parent[runs])
    reached = sum(len(level) for level in levels)
    if reached != m:
        found = np.zeros(m, dtype=bool)
        for level in levels:
            found[level] = True
        stray = sorted(ids[i] for i in np.flatnonzero(~found).tolist())
        raise InvalidTreeError(
            [f"balls not reachable from root (cycle or detached): {stray!r}"]
        )

    # -- values: diameters, child counts, leaf measures --------------------
    violations: list[str] = []
    diameter = cols.diameter
    with np.errstate(invalid="ignore"):
        bad_diameter = ~(np.isfinite(diameter) & (diameter > 0))
        no_decrease = ~bad_diameter & ~is_root & (diameter >= diameter[parent])
    single = child_count == 1
    for i in np.flatnonzero(bad_diameter | no_decrease | single).tolist():
        if bad_diameter[i]:
            violations.append(f"ball {ids[i]!r} has non-positive diameter {float(diameter[i])}")
        elif no_decrease[i]:
            violations.append(
                f"diameter must strictly decrease: ball {ids[i]!r} "
                f"({float(diameter[i])}) vs parent {parents[i]!r} "
                f"({float(diameter[parent[i]])})"
            )
        if single[i]:
            violations.append(
                f"internal ball {ids[i]!r} has a single child "
                f"{ids[by_parent[first[i]]]!r}; every internal ball needs >= 2"
            )

    is_leaf = child_count == 0
    override, has_override = np.full(m, np.nan), np.zeros(m, dtype=bool)
    extra = spec.leaf_measures or {}
    if extra:
        if lookup is None:  # a preset's links need no lookup, its leaf measures do
            lookup = dict(zip(ids, range(m)))
        names = list(extra)
        rows = np.fromiter(map(lookup.get, names, repeat(-1)), np.intp, len(names))
        known = rows >= 0
        for k in np.flatnonzero(~known | ~is_leaf[rows]).tolist():
            kind = "internal" if known[k] else "unknown"
            violations.append(f"leaf_measures names {kind} ball {names[k]!r}")
        values, given = _optional_floats(list(extra.values()))
        use = known & is_leaf[rows] & given
        override[rows[use]] = values[use]
        has_override[rows[use]] = True

    declared, has_declared = cols.measure, cols.declared
    value = np.where(has_override, override, declared)
    has_value = has_override | has_declared
    with np.errstate(invalid="ignore"):
        conflict = is_leaf & has_override & has_declared & ~_close(override, declared)
        bad_value = is_leaf & has_value & ~(np.isfinite(value) & (value > 0))
    no_value = is_leaf & ~has_value
    for i in np.flatnonzero(conflict | bad_value | no_value).tolist():
        if conflict[i]:
            violations.append(
                f"leaf {ids[i]!r} has conflicting measures {float(declared[i])} "
                f"and {float(override[i])}"
            )
        if no_value[i]:
            violations.append(f"leaf {ids[i]!r} has no measure")
        elif bad_value[i]:
            violations.append(f"leaf {ids[i]!r} has non-positive measure {float(value[i])}")
    if violations:
        raise InvalidTreeError(violations)

    # -- bottom-up: measures and ball counts ------------------------------
    # an internal measure is the float sum of its children added in child
    # order, so additivity and measure monotonicity hold exactly
    measure = np.where(is_leaf, value, 0.0)
    size = np.ones(m, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        for (internal, counts, starts), below in zip(reversed(groups), reversed(levels[1:])):
            sums = running_sums(measure[below], starts, counts)
            measure[internal] = sums[starts + counts - 1]
            size[internal] += np.add.reduceat(size[below], starts)
        finite = np.isfinite(measure)
        mismatch = ~is_leaf & finite & has_declared & ~_close(declared, measure)
    for i in np.flatnonzero(~finite | mismatch).tolist():
        if not finite[i]:
            violations.append(
                f"ball {ids[i]!r} has infinite measure: its child measures overflow when added"
            )
        else:
            violations.append(
                f"ball {ids[i]!r} declares measure {float(declared[i])} but its "
                f"children sum to {float(measure[i])}"
            )
    if violations:
        raise InvalidTreeError(violations)

    # -- top-down: preorder numbers ---------------------------------------
    # a child's number is its parent's plus one plus the balls below its
    # earlier siblings
    pre = np.zeros(m, dtype=np.intp)
    for (internal, counts, starts), below in zip(groups, levels[1:]):
        sizes = size[below]
        before = np.cumsum(sizes) - sizes
        pre[below] = np.repeat(pre[internal] + 1 - before[starts], counts) + before
    row = np.empty(m, dtype=np.intp)
    row[pre] = np.arange(m)

    parent_pre = np.where(is_root, -1, pre[parent])[row]
    count_pre = child_count[row]
    # each non-root ball at its parent's first-child slot plus its rank
    rank = np.empty(m, dtype=np.intp)
    rank[by_parent] = np.arange(m - 1) - first[parent[by_parent]]
    kids = np.empty(m - 1, dtype=np.intp)
    kids[_exclusive_cumsum(count_pre)[parent_pre[1:]] + rank[row[1:]]] = np.arange(1, m)
    leaves_before = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(count_pre == 0, out=leaves_before[1:])
    return BallTree(
        np.asarray(ids, dtype=object),
        lookup,
        row,
        parent=parent_pre,
        kids=kids,
        child_count=count_pre,
        levels=[pre[level] for level in levels],
        leaf_start=leaves_before[:-1].copy(),
        leaf_stop=leaves_before[np.arange(m) + size[row]],
        diameter=diameter[row],
        measure=measure[row],
    )


def _close(a, b):
    return np.abs(a - b) <= MEASURE_RTOL * np.maximum(np.abs(a), np.abs(b))
