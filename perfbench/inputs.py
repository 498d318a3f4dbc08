"""Seeded input generation for the ultrawave benchmark.

Everything here is the benchmark's own code: it writes tree specifications,
leaf-value CSVs and reference data from a workload seed, and computes the
reference answers (eigenvalues by a root-down sum, planted support balls,
leaf distances) without calling into ``ultrawave``.  The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ALPHA = 0.5


@dataclass
class Tree:
    """A generated tree in preorder: parent before child, child order kept."""

    ids: list[str]
    parent: list[int]  # index of the parent ball, -1 for the root
    diameter: list[float]
    children: list[list[int]]
    leaf_measure: dict[int, float]  # leaf index -> measure
    measure: list[float] = field(init=False)
    leaves: list[int] = field(init=False)  # canonical leaf order
    span: list[tuple[int, int]] = field(init=False)  # leaf index range

    def __post_init__(self):
        n = len(self.ids)
        self.measure = [0.0] * n
        self.span = [(0, 0)] * n
        # reverse preorder visits children before parents; children are summed
        # in child order, as an additive measure is defined
        for b in reversed(range(n)):
            kids = self.children[b]
            if not kids:
                self.measure[b] = self.leaf_measure[b]
                continue
            total = 0.0
            for c in kids:
                total += self.measure[c]
            self.measure[b] = total
        self.leaves = [b for b in range(n) if not self.children[b]]
        position = {b: i for i, b in enumerate(self.leaves)}
        for b in reversed(range(n)):
            kids = self.children[b]
            if kids:
                self.span[b] = (self.span[kids[0]][0], self.span[kids[-1]][1])
            else:
                self.span[b] = (position[b], position[b] + 1)

    @property
    def internal(self) -> list[int]:
        return [b for b in range(len(self.ids)) if self.children[b]]

    def leaf_measures(self) -> np.ndarray:
        return np.array([self.leaf_measure[b] for b in self.leaves])

    def eigenvalues(self, alpha: float = ALPHA) -> dict[str, float]:
        """Closed-form eigenvalue per internal ball for T(I) = diam(I)**(-alpha-1).

        lambda(I) = T(I) nu(I) + sum over strict ancestors J of
        T(J) (nu(J) - nu(child of J towards I)), summed from the root down.
        """
        above = [0.0] * len(self.ids)
        eigs: dict[str, float] = {}
        for b in range(len(self.ids)):  # preorder: parents first
            kids = self.children[b]
            if not kids:
                continue
            t = self.diameter[b] ** (-alpha - 1.0)
            eigs[self.ids[b]] = above[b] + t * self.measure[b]
            for c in kids:
                above[c] = above[b] + t * (self.measure[b] - self.measure[c])
        return eigs

    def sup(self, a: int, b: int) -> int:
        """Lowest common ancestor by leaf spans (independent of ultrawave)."""
        lo, hi = min(self.span[a][0], self.span[b][0]), max(self.span[a][1], self.span[b][1])
        node = a
        while not (self.span[node][0] <= lo and hi <= self.span[node][1]):
            node = self.parent[node]
        return node


def irregular_tree(rng: np.random.Generator, n_leaves: int, max_arity: int = 8) -> Tree:
    """Random tree with exactly ``n_leaves`` leaves and arity 2..max_arity.

    Each ball splits its leaf count at random cut points, diameters shrink by
    a factor in [0.3, 0.9) per level, and leaf measures are log-uniform over
    three decades.
    """
    ids: list[str] = []
    parent: list[int] = []
    diameter: list[float] = []
    children: list[list[int]] = []
    leaf_measure: dict[int, float] = {}
    stack = [(-1, n_leaves, 1.0)]
    while stack:
        up, count, diam = stack.pop()
        b = len(ids)
        ids.append(f"b{b}")
        parent.append(up)
        diameter.append(diam)
        children.append([])
        if up >= 0:
            children[up].append(b)
        if count == 1:
            leaf_measure[b] = float(10.0 ** rng.uniform(-2.0, 1.0))
            continue
        arity = int(rng.integers(2, min(max_arity, count) + 1))
        cuts = np.sort(rng.choice(np.arange(1, count), arity - 1, replace=False))
        sizes = np.diff(np.concatenate(([0], cuts, [count])))
        shrink = rng.uniform(0.3, 0.9, arity)
        for size, factor in zip(sizes[::-1], shrink[::-1]):
            stack.append((b, int(size), diam * float(factor)))
    return Tree(ids, parent, diameter, children, leaf_measure)


def padic_tree(p: int, depth: int) -> Tree:
    """The regular p-ary tree of ``padic_preset(p, depth)``, ids included."""
    ids, parent, diameter, children, level = ["r"], [-1], [1.0], [[]], [0]
    frontier = [0]
    for k in range(1, depth + 1):
        nxt = []
        for up in frontier:
            for j in range(p):
                b = len(ids)
                ids.append(f"{ids[up]}.{j}")
                parent.append(up)
                diameter.append(float(p) ** -k)
                children.append([])
                children[up].append(b)
                level.append(k)
                nxt.append(b)
        frontier = nxt
    # preset ids are breadth-first; reorder to preorder for the Tree invariants
    order: list[int] = []
    stack = [0]
    while stack:
        b = stack.pop()
        order.append(b)
        stack.extend(reversed(children[b]))
    new = {old: i for i, old in enumerate(order)}
    return Tree(
        ids=[ids[b] for b in order],
        parent=[new[parent[b]] if parent[b] >= 0 else -1 for b in order],
        diameter=[diameter[b] for b in order],
        children=[[new[c] for c in children[b]] for b in order],
        leaf_measure={new[b]: float(p) ** -level[b] for b in order if not children[b]},
    )


# -- files -------------------------------------------------------------------


def write_tree_spec(path: Path, tree: Tree) -> None:
    """Tree JSON with leaf measures given through ``leaf_measures``."""
    balls = [
        {
            "id": tree.ids[b],
            "parent": None if tree.parent[b] < 0 else tree.ids[tree.parent[b]],
            "diameter": tree.diameter[b],
        }
        for b in range(len(tree.ids))
    ]
    leaf_measures = {tree.ids[b]: tree.leaf_measure[b] for b in tree.leaves}
    path.write_text(json.dumps({"balls": balls, "leaf_measures": leaf_measures}))


def write_leaf_csv(path: Path, tree: Tree, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["leaf_id", "re", "im"])
        for b, value in zip(tree.leaves, values):
            writer.writerow([tree.ids[b], repr(float(value.real)), repr(float(value.imag))])


def write_expected_spectrum(path: Path, tree: Tree, eigs: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ball_id", "p_I", "lambda"])
        for b in tree.internal:
            writer.writerow([tree.ids[b], len(tree.children[b]), repr(eigs[tree.ids[b]])])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- packets -----------------------------------------------------------------


def pick_balls(rng: np.random.Generator, tree: Tree, count: int, lo: int, hi: int) -> list[int]:
    """Distinct non-root internal balls covering between lo and hi leaves."""
    fits = [
        b
        for b in tree.internal
        if b != 0 and lo <= tree.span[b][1] - tree.span[b][0] <= hi
    ]
    if not fits:
        fits = [b for b in tree.internal if b != 0] or [0]
    picks = rng.choice(len(fits), size=min(count, len(fits)), replace=False)
    return [fits[int(i)] for i in picks]


def planted_packet(
    rng: np.random.Generator, tree: Tree, ball: int, mean_zero: bool = True
) -> np.ndarray:
    """Random complex packet supported in ``ball``; mean zero unless asked not to be."""
    start, stop = tree.span[ball]
    local = rng.standard_normal(stop - start) + 1j * rng.standard_normal(stop - start)
    weights = tree.leaf_measures()[start:stop]
    if mean_zero:
        local = local - (local @ weights) / weights.sum()
    else:
        local = local + 1.0
    values = np.zeros(len(tree.leaves), dtype=complex)
    values[start:stop] = local
    return values


def leaf_norm(tree: Tree, values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2 * tree.leaf_measures())))


def sample_times(count: int, stop: float) -> str:
    return ",".join(repr(stop * k / (count - 1)) for k in range(count))


def leaf_distance_queries(
    rng: np.random.Generator, tree: Tree, count: int
) -> tuple[list[tuple[str, str]], list[float]]:
    """Random leaf pairs and their ultrametric distances (0 for equal leaves)."""
    n = len(tree.leaves)
    a = rng.integers(0, n, count)
    b = rng.integers(0, n, count)
    b[: count // 16] = a[: count // 16]  # a few equal pairs
    pairs, expected = [], []
    for i, j in zip(a, b):
        la, lb = tree.leaves[int(i)], tree.leaves[int(j)]
        pairs.append((tree.ids[la], tree.ids[lb]))
        expected.append(0.0 if la == lb else tree.diameter[tree.sup(la, lb)])
    return pairs, expected


def isclose_rel(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol * max(1.0, abs(a), abs(b))
