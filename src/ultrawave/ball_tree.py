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

Trees are immutable once built and safe to share across threads.

The CSV helpers at the end serve every artifact writer in the package,
which all import this module.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

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
    ``{"preset": ...}`` is expanded by ``tree_spec_from_dict``.
    """

    balls: tuple[BallSpec, ...] = ()
    leaf_measures: Mapping[str, float] | None = None


@dataclass(frozen=True)
class Ball:
    """A single ball: one node of the tree."""

    id: str
    parent: str | None
    children: tuple[str, ...]
    diameter: float
    measure: float

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BallTree:
    """Immutable rooted tree of measured balls.

    Construct through :func:`build_tree`, which validates every invariant.
    The constructor itself only derives the canonical leaf order (depth
    first, following child order), per-ball depths, and the contiguous leaf
    index span below each ball.
    """

    def __init__(self, balls: Mapping[str, Ball], root: str):
        self._balls = dict(balls)
        self.root = root

        order: list[str] = []
        leaves: list[str] = []
        depth_of: dict[str, int] = {root: 0}
        span: dict[str, tuple[int, int]] = {}
        stack: list[tuple[str, bool]] = [(root, False)]
        while stack:
            node, seen = stack.pop()
            ball = self._balls[node]
            if not seen:
                order.append(node)
                if ball.is_leaf:
                    span[node] = (len(leaves), len(leaves) + 1)
                    leaves.append(node)
                else:
                    stack.append((node, True))
                    for child in reversed(ball.children):
                        depth_of[child] = depth_of[node] + 1
                        stack.append((child, False))
            else:
                span[node] = (span[ball.children[0]][0], span[ball.children[-1]][1])

        self.order = tuple(order)
        self.leaves = tuple(leaves)
        self.internal = tuple(b for b in order if not self._balls[b].is_leaf)
        self.depth = max(depth_of.values())
        self._depth_of = depth_of
        self._span = span
        self._leaf_index = {leaf: i for i, leaf in enumerate(leaves)}
        self.leaf_measures = np.array([self._balls[l].measure for l in leaves])
        self.leaf_measures.flags.writeable = False

    # -- basic access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._balls)

    def __contains__(self, ball_id: str) -> bool:
        return ball_id in self._balls

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def total_measure(self) -> float:
        return self._balls[self.root].measure

    def ball(self, ball_id: str) -> Ball:
        try:
            return self._balls[ball_id]
        except KeyError:
            raise ValueError(f"unknown ball id: {ball_id!r}") from None

    def depth_of(self, ball_id: str) -> int:
        self.ball(ball_id)
        return self._depth_of[ball_id]

    def leaf_index(self, leaf_id: str) -> int:
        try:
            return self._leaf_index[leaf_id]
        except KeyError:
            raise ValueError(f"not a leaf of this tree: {leaf_id!r}") from None

    def leaf_slice(self, ball_id: str) -> slice:
        """Contiguous range of canonical leaf indices below a ball."""
        self.ball(ball_id)
        start, stop = self._span[ball_id]
        return slice(start, stop)

    def contains_ball(self, outer: str, inner: str) -> bool:
        """True when ball ``inner`` lies inside ball ``outer`` (or equals it)."""
        a, b = self._span[self.ball(outer).id], self._span[self.ball(inner).id]
        return a[0] <= b[0] and b[1] <= a[1]

    # -- ultrametric structure --------------------------------------------

    def sup(self, a: str, b: str) -> str:
        """Minimal ball containing both arguments (lowest common ancestor)."""
        x, y = self.ball(a).id, self.ball(b).id
        dx, dy = self._depth_of[x], self._depth_of[y]
        while dx > dy:
            x = self._balls[x].parent
            dx -= 1
        while dy > dx:
            y = self._balls[y].parent
            dy -= 1
        while x != y:
            x = self._balls[x].parent
            y = self._balls[y].parent
        return x

    def distance(self, a: str, b: str) -> float:
        """Induced ultrametric between leaves: diameter of their sup."""
        if self.ball(a).id == self.ball(b).id:
            return 0.0
        return self._balls[self.sup(a, b)].diameter

    # -- leaf functions ----------------------------------------------------

    def as_leaf_values(self, values) -> np.ndarray:
        """Coerce to a complex leaf vector, checking the length."""
        v = np.asarray(values, dtype=complex)
        if v.shape != (self.n_leaves,):
            raise ValueError(
                f"leaf function must have {self.n_leaves} values, got shape {v.shape}"
            )
        return v

    def inner(self, f, g) -> complex:
        """Measure-weighted inner product <f, g> = sum conj(f) g nu."""
        fv = self.as_leaf_values(f)
        gv = self.as_leaf_values(g)
        return complex(np.sum(np.conj(fv) * gv * self.leaf_measures))

    def norm(self, f) -> float:
        fv = self.as_leaf_values(f)
        return float(np.sqrt(np.sum(np.abs(fv) ** 2 * self.leaf_measures)))

    def ball_support(self, values, tol: float | None = None) -> str | None:
        """Smallest ball covering every leaf where ``|values|`` exceeds ``tol``.

        Returns ``None`` when no entry exceeds the threshold (reported as
        ``"empty"`` in CSV artifacts).  The default threshold,
        ``1e-12 * max|values|``, separates true zeros from rounding noise.
        Non-finite values have no support and are rejected.
        """
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
        return self.sup(self.leaves[idx[0]], self.leaves[idx[-1]])


def _require_finite(tree: BallTree, values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first leaf whose value is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        leaf = tree.leaves[bad[0]]
        raise ValueError(f"{what} at leaf {leaf!r} is not finite: {values[bad[0]]}")


# -- specification loading and presets -------------------------------------


def padic_preset(p: int, depth: int, total_measure: float = 1.0) -> TreeSpec:
    """Regular p-ary tree: a level-k ball has diameter p**-k and measure
    ``total_measure * p**-k``.

    Ball ids are dot-separated child indices below the root id ``"r"``.
    """
    if p < 2:
        raise ValueError(f"p must be an integer >= 2, got {p}")
    if depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth}")
    if not total_measure > 0:
        raise ValueError(f"total_measure must be positive, got {total_measure}")
    balls = [BallSpec("r", None, 1.0, float(total_measure))]
    frontier = ["r"]
    for level in range(1, depth + 1):
        diameter = float(p) ** -level
        measure = total_measure * float(p) ** -level
        nxt = []
        for parent in frontier:
            for k in range(p):
                child = f"{parent}.{k}"
                balls.append(BallSpec(child, parent, diameter, measure))
                nxt.append(child)
        frontier = nxt
    return TreeSpec(balls=tuple(balls))


def tree_spec_from_dict(doc: Mapping) -> TreeSpec:
    """Parse the JSON document form of a tree specification."""
    has_balls = bool(doc.get("balls"))
    has_preset = doc.get("preset") is not None
    if has_balls == has_preset:
        raise InvalidTreeError(
            ["specification must contain exactly one of 'balls' or 'preset'"]
        )
    if has_preset:
        preset = doc["preset"]
        if preset.get("type") != "padic":
            raise InvalidTreeError([f"unknown preset type: {preset.get('type')!r}"])
        return padic_preset(
            int(preset["p"]), int(preset["depth"]), float(preset.get("total_measure", 1.0))
        )
    balls = []
    for entry in doc["balls"]:
        measure = entry.get("measure")
        balls.append(
            BallSpec(
                id=str(entry["id"]),
                parent=None if entry.get("parent") is None else str(entry["parent"]),
                diameter=float(entry["diameter"]),
                measure=None if measure is None else float(measure),
            )
        )
    leaf_measures = doc.get("leaf_measures")
    if leaf_measures is not None:
        leaf_measures = {str(k): float(v) for k, v in leaf_measures.items()}
    return TreeSpec(balls=tuple(balls), leaf_measures=leaf_measures)


def load_tree_spec(path) -> TreeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_spec_from_dict(json.load(fh))


def build_tree(spec: TreeSpec) -> BallTree:
    """Validate a specification and construct the immutable tree.

    Structural problems (bad links) abort immediately; value problems
    (measures, diameters, child counts) are collected so diagnostics can
    name every violation at once.
    """
    if not spec.balls:
        raise InvalidTreeError(["specification lists no balls"])

    structural: list[str] = []
    by_id: dict[str, BallSpec] = {}
    for entry in spec.balls:
        if entry.id in by_id:
            structural.append(f"duplicate ball id {entry.id!r}")
        by_id[entry.id] = entry

    children: dict[str, list[str]] = {bid: [] for bid in by_id}
    roots = []
    for entry in spec.balls:
        if entry.parent is None:
            roots.append(entry.id)
        elif entry.parent not in by_id:
            structural.append(f"ball {entry.id!r} links to unknown parent {entry.parent!r}")
        elif entry.parent == entry.id:
            structural.append(f"ball {entry.id!r} is its own parent")
        else:
            children[entry.parent].append(entry.id)

    if len(roots) != 1:
        structural.append(
            f"expected exactly one root, found {len(roots)}: {sorted(roots)!r}"
        )
    if structural:
        raise InvalidTreeError(structural)

    root = roots[0]
    reached = set()
    stack = [root]
    while stack:
        node = stack.pop()
        reached.add(node)
        stack.extend(children[node])
    if len(reached) != len(by_id):
        stray = sorted(set(by_id) - reached)
        raise InvalidTreeError(
            [f"balls not reachable from root (cycle or detached): {stray!r}"]
        )

    violations: list[str] = []
    for entry in spec.balls:
        if not math.isfinite(entry.diameter) or entry.diameter <= 0:
            violations.append(f"ball {entry.id!r} has non-positive diameter {entry.diameter}")
        elif entry.parent is not None:
            parent_diam = by_id[entry.parent].diameter
            if entry.diameter >= parent_diam:
                violations.append(
                    f"diameter must strictly decrease: ball {entry.id!r} "
                    f"({entry.diameter}) vs parent {entry.parent!r} ({parent_diam})"
                )
        if len(children[entry.id]) == 1:
            violations.append(
                f"internal ball {entry.id!r} has a single child "
                f"{children[entry.id][0]!r}; every internal ball needs >= 2"
            )

    leaf_ids = [bid for bid in by_id if not children[bid]]
    extra = spec.leaf_measures or {}
    for bid in extra:
        if bid not in by_id:
            violations.append(f"leaf_measures names unknown ball {bid!r}")
        elif children[bid]:
            violations.append(f"leaf_measures names internal ball {bid!r}")

    leaf_measure: dict[str, float] = {}
    for bid in leaf_ids:
        declared = by_id[bid].measure
        override = extra.get(bid)
        if override is not None and declared is not None and not _close(override, declared):
            violations.append(
                f"leaf {bid!r} has conflicting measures {declared} and {override}"
            )
        value = override if override is not None else declared
        if value is None:
            violations.append(f"leaf {bid!r} has no measure")
        elif not math.isfinite(value) or value <= 0:
            violations.append(f"leaf {bid!r} has non-positive measure {value}")
        else:
            leaf_measure[bid] = value

    measures: dict[str, float] = {}
    if not violations:
        # bottom-up: an internal measure is the exact float sum of its
        # children, so additivity and measure monotonicity hold exactly
        post: list[str] = []
        stack = [root]
        while stack:
            node = stack.pop()
            post.append(node)
            stack.extend(children[node])
        for node in reversed(post):
            if not children[node]:
                measures[node] = leaf_measure[node]
            else:
                total = 0.0
                for child in children[node]:
                    total += measures[child]
                declared = by_id[node].measure
                if not math.isfinite(total):
                    violations.append(
                        f"ball {node!r} has infinite measure: its child measures "
                        "overflow when added"
                    )
                elif declared is not None and not _close(declared, total):
                    violations.append(
                        f"ball {node!r} declares measure {declared} but its "
                        f"children sum to {total}"
                    )
                measures[node] = total

    if violations:
        raise InvalidTreeError(violations)

    balls = {
        bid: Ball(
            id=bid,
            parent=by_id[bid].parent,
            children=tuple(children[bid]),
            diameter=by_id[bid].diameter,
            measure=measures[bid],
        )
        for bid in by_id
    }
    return BallTree(balls, root)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MEASURE_RTOL * max(abs(a), abs(b))


# -- CSV artifacts -----------------------------------------------------------


class _Echo:
    """A file stand-in whose ``write`` returns the text it is given."""

    @staticmethod
    def write(text: str) -> str:
        return text


def _csv_fields(values: Sequence) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row.

    Strings get ``csv``'s minimal quoting (a comma, a quote, CR or LF
    quotes the field and doubles its quotes), other values their ``str``.
    """
    row = csv.writer(_Echo()).writerow
    # the value followed by an empty field formats as "<field>,\r\n"; a
    # string that needs no quoting is returned as is rather than copied
    fields = (row((value, ""))[:-3] for value in values)
    return [value if field == value else field for value, field in zip(values, fields)]


#: Lines joined into one ``write``.  More lines save calls but hold more
#: text at once: writing a 2048-leaf trajectory peaks at about 0.2 MB of
#: Python objects with 256 lines per write, 0.8 MB with 2048.
_CSV_LINES_PER_WRITE = 256


def _write_csv(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a CSV file with exactly the bytes ``csv.writer`` gives.

    ``lines`` are the rows, already formatted: strings through
    ``_csv_fields``, floats as ``repr``, fields joined by commas.  Lines end
    in CRLF and go out ``_CSV_LINES_PER_WRITE`` to a ``write``, so lines
    from a generator never hold the whole file in memory.
    """
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_fields(header)) + "\r\n")
        while chunk := list(islice(lines, _CSV_LINES_PER_WRITE)):
            fh.write("\r\n".join([*chunk, ""]))
