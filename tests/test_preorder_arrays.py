"""The preorder-array tree, kernel, spectrum and basis plan, bit for bit.

The reference functions below are the earlier per-ball implementations,
kept here as plain dict code: a tree of id-keyed balls built bottom-up, a
kernel and a spectrum as dicts, and the basis plan from a loop over the
children of every internal ball.  The array code must reproduce every
number exactly, on random trees, caterpillars (depth n - 1) and a
10**4-child star, with leaf measures over +-6 decades.
"""

import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import ultrawave as uw
from ultrawave.ball_tree import BallSpec, TreeSpec, padic_preset
from ultrawave.certify import _potential_deviation, random_kernel, random_tree_spec
from ultrawave.cli import main
from ultrawave.wavelet import _helmert_weight


# -- the per-ball reference ----------------------------------------------------


def _reference_tree(spec: TreeSpec) -> dict:
    """Children, measures, preorder, depths and leaf spans, from dicts."""
    by_id = {b.id: b for b in spec.balls}
    children = {b.id: [] for b in spec.balls}
    root = None
    for b in spec.balls:
        if b.parent is None:
            root = b.id
        else:
            children[b.parent].append(b.id)
    extra = spec.leaf_measures or {}
    measure = {}
    post, stack = [], [root]
    while stack:
        node = stack.pop()
        post.append(node)
        stack.extend(children[node])
    for node in reversed(post):
        if not children[node]:
            override = extra.get(node)
            measure[node] = override if override is not None else by_id[node].measure
        else:
            total = 0.0
            for child in children[node]:
                total += measure[child]
            measure[node] = total
    order, leaves, depth, span = [], [], {root: 0}, {}
    stack = [(root, False)]
    while stack:
        node, seen = stack.pop()
        if not seen:
            order.append(node)
            if not children[node]:
                span[node] = (len(leaves), len(leaves) + 1)
                leaves.append(node)
            else:
                stack.append((node, True))
                for child in reversed(children[node]):
                    depth[child] = depth[node] + 1
                    stack.append((child, False))
        else:
            span[node] = (span[children[node][0]][0], span[children[node][-1]][1])
    internal = [b for b in order if children[b]]
    return {
        "root": root, "children": children, "measure": measure, "order": order,
        "leaves": leaves, "internal": internal, "depth": depth, "span": span,
        "diameter": {b.id: b.diameter for b in spec.balls}, "by_id": by_id,
    }


def _reference_kernel(ref: dict, alpha: float) -> dict:
    return {b: ref["diameter"][b] ** (-alpha - 1.0) for b in ref["internal"]}


def _reference_spectrum(ref: dict, kernel: dict) -> dict:
    eigs = {}
    stack = [(ref["root"], 0.0)]
    while stack:
        node, ancestors = stack.pop()
        if not ref["children"][node]:
            continue
        t = kernel[node]
        eigs[node] = ancestors + t * ref["measure"][node]
        for child in ref["children"][node]:
            stack.append(
                (child, ancestors + t * (ref["measure"][node] - ref["measure"][child]))
            )
    return eigs


def _reference_scan(groups: list) -> tuple:
    """The sibling scan from plain lists: ``groups`` holds each internal
    ball's children as ball numbers; every level pairs a group's blocks
    left to right, and a group left with one block drops out."""
    scan = []
    while any(len(g) > 1 for g in groups):
        left, paired, right, joined = [], [], [], []
        for g in groups:
            if len(g) < 2:
                continue
            joined.append([])
            for i in range(0, len(g), 2):
                if i + 1 < len(g):
                    paired.append(len(left))
                    right.append(g[i + 1])
                joined[-1].append(len(left))
                left.append(g[i])
        scan.append(tuple(np.array(a, dtype=np.intp) for a in (left, paired, right)))
        groups = joined
    return tuple(scan)


def _reference_plan(ref: dict) -> dict:
    ball_of = {ball_id: b for b, ball_id in enumerate(ref["order"])}
    ball, ball_start, child_start, child_stop = [], [], [], []
    head, tail, child_ball = [], [], []
    for b, ball_id in enumerate(ref["internal"]):
        children = ref["children"][ball_id]
        start = ref["span"][ball_id][0]
        mass = 0.0
        for j, child in enumerate(children):
            measure = ref["measure"][child]
            if j == 0:
                mass = measure
                continue
            ball.append(b)
            ball_start.append(start)
            child_start.append(ref["span"][child][0])
            child_stop.append(ref["span"][child][1])
            child_ball.append(ball_of[child])
            head.append(mass)
            tail.append(measure)
            mass += measure
    head_arr, tail_arr = np.array(head, dtype=float), np.array(tail, dtype=float)
    total = head_arr + tail_arr
    groups = [[ball_of[c] for c in ref["children"][b]] for b in ref["internal"]]
    return {
        "ball": np.array(ball),
        "support": tuple(np.array(a) for a in (ball_start, child_start, child_stop)),
        "pos": _helmert_weight(head_arr, tail_arr, total),
        "neg": -_helmert_weight(tail_arr, head_arr, total),
        "constant": 1.0 / math.sqrt(ref["measure"][ref["root"]]),
        "child": np.array(child_ball),
        "scan": _reference_scan(groups),
    }


def _reference_path_sums(ref: dict, terms: np.ndarray) -> np.ndarray:
    """Root down, one ball at a time: s[b] = terms[b] + s[parent of b]."""
    ball_of = {ball_id: b for b, ball_id in enumerate(ref["order"])}
    sums = {}
    for ball_id in ref["order"]:
        b = ball_of[ball_id]
        parent = ref["by_id"][ball_id].parent
        sums[b] = terms[b] if parent is None else terms[b] + sums[ball_of[parent]]
    return np.array([sums[b] for b in range(len(terms))])


def _reference_ball_integrals(ref: dict, leaf_values: np.ndarray) -> np.ndarray:
    """Children first, one ball at a time: a ball adds its children's sums in child order."""
    ball_of = {ball_id: b for b, ball_id in enumerate(ref["order"])}
    leaf_of = {leaf: k for k, leaf in enumerate(ref["leaves"])}
    sums = {}
    for ball_id in reversed(ref["order"]):
        children = ref["children"][ball_id]
        if children:
            block = np.array([sums[ball_of[c]] for c in children])
            sums[ball_of[ball_id]] = np.add.reduceat(block, [0])[0]
        else:
            sums[ball_of[ball_id]] = leaf_values[leaf_of[ball_id]]
    return np.array([sums[b] for b in range(len(ref["order"]))])


# -- shapes ------------------------------------------------------------------


def _wide_measures(rng, leaves):
    return {leaf: float(10.0 ** rng.uniform(-6.0, 6.0)) for leaf in leaves}


def _random_spec(seed: int) -> TreeSpec:
    rng = np.random.default_rng(seed)
    spec = random_tree_spec(rng, min_leaves=2, max_leaves=400, max_children=9)
    leaves = list(spec.leaf_measures)
    return TreeSpec(balls=spec.balls, leaf_measures=_wide_measures(rng, leaves))


def _caterpillar_spec(n: int, seed: int) -> TreeSpec:
    """Depth n - 1: every internal ball has one leaf and one internal child."""
    rng = np.random.default_rng(seed)
    balls, leaves = [BallSpec("s0", None, 1.0)], []
    for i in range(n - 1):
        diameter = 0.9 ** (i + 1)
        last = f"s{i + 1}" if i < n - 2 else f"l{i + 1}"
        balls += [BallSpec(f"l{i}", f"s{i}", diameter), BallSpec(last, f"s{i}", diameter)]
        leaves.append(f"l{i}")
    leaves.append(f"l{n - 1}")
    return TreeSpec(balls=tuple(balls), leaf_measures=_wide_measures(rng, leaves))


def _star_spec(n: int, seed: int) -> TreeSpec:
    rng = np.random.default_rng(seed)
    balls = [BallSpec("r", None, 1.0)] + [BallSpec(f"x{i}", "r", 0.5) for i in range(n)]
    return TreeSpec(balls=tuple(balls), leaf_measures=_wide_measures(rng, [b.id for b in balls[1:]]))


SHAPES = {
    **{f"random-{seed}": (lambda seed=seed: _random_spec(seed)) for seed in range(6)},
    "caterpillar": lambda: _caterpillar_spec(300, 11),
    "star": lambda: _star_spec(10_000, 12),
    "padic-3-4": lambda: padic_preset(3, 4, 7.0),
}
ONE_LEAF = TreeSpec(balls=(BallSpec("r", None, 1.0, 3.0),))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype.kind == b.dtype.kind and a.tobytes() == np.asarray(b, dtype=a.dtype).tobytes()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_arrays_match_the_per_ball_reference_bitwise(shape):
    spec = SHAPES[shape]()
    ref = _reference_tree(spec)
    tree = uw.build_tree(spec)

    assert tree.ids_of(np.arange(len(tree))).tolist() == ref["order"]
    assert tree.leaves == tuple(ref["leaves"])
    assert tree.internal == tuple(ref["internal"])
    assert tree.depth == max(ref["depth"].values())
    assert _same_bits(tree.measure, [ref["measure"][b] for b in ref["order"]])
    assert _same_bits(tree.diameter, [ref["diameter"][b] for b in ref["order"]])
    by_level = sorted((b, d) for d, level in enumerate(tree.levels) for b in level.tolist())
    assert by_level == [(b, ref["depth"][ball_id]) for b, ball_id in enumerate(ref["order"])]
    assert _same_bits(tree.leaf_start, [ref["span"][b][0] for b in ref["order"]])
    assert _same_bits(tree.leaf_stop, [ref["span"][b][1] for b in ref["order"]])
    for b in (ref["root"], ref["order"][-1], ref["internal"][-1]):
        ball = tree.index(b)
        first = tree.first_child[ball]
        children = tree.kids[first : first + tree.child_count[ball]]
        assert tuple(tree.ids_of(children).tolist()) == tuple(ref["children"][b])
        assert tree.measure[ball] == ref["measure"][b]

    kernel = uw.vladimirov_kernel(tree, 0.7)
    ref_kernel = _reference_kernel(ref, 0.7)
    assert _same_bits(kernel.values.array, [ref_kernel[b] for b in ref["internal"]])
    spec_values = uw.spectrum(tree, kernel).eigenvalues
    ref_spectrum = _reference_spectrum(ref, ref_kernel)
    assert _same_bits(spec_values.array, [ref_spectrum[b] for b in ref["internal"]])
    assert dict(spec_values.items()) == ref_spectrum

    basis = uw.build_basis(tree)
    plan = basis.plan
    ref_plan = _reference_plan(ref)
    for name in ("pos", "neg", "child"):
        assert _same_bits(getattr(plan, name), ref_plan[name]), name
    assert _same_bits(tree.internal_rank[tree.parent[plan.child]], ref_plan["ball"])
    assert all(_same_bits(g, w) for g, w in zip(basis.support(), ref_plan["support"], strict=True))
    assert plan.constant == ref_plan["constant"]
    assert len(plan.scan) == len(ref_plan["scan"])
    for got, want in zip(plan.scan, ref_plan["scan"]):
        assert all(_same_bits(g, w) for g, w in zip(got, want))


def _wide_values(rng, size: int, dtype) -> np.ndarray:
    """Values over +-6 decades of both signs, so the order of additions shows in the bits."""
    def draw():
        return rng.standard_normal(size) * 10.0 ** rng.uniform(-6.0, 6.0, size)
    return draw() + 1j * draw() if dtype is complex else draw()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", sorted(SHAPES) + ["one-leaf"])
def test_tree_sweeps_match_the_per_ball_recursions_bitwise(shape, dtype):
    spec = ONE_LEAF if shape == "one-leaf" else SHAPES[shape]()
    ref = _reference_tree(spec)
    tree = uw.build_tree(spec)
    rng = np.random.default_rng(len(tree))

    terms = _wide_values(rng, len(tree), dtype)
    want = _reference_path_sums(ref, terms)
    got = tree.path_sums(terms.copy())
    assert got.dtype == terms.dtype and _same_bits(got, want)
    # the internal balls' sums alone: the deepest level, all leaves, keeps its terms
    internal = tree.path_sums(terms.copy(), internal_only=True)
    deepest = tree.levels[-1] if tree.depth else []
    assert np.all(tree.child_count[deepest] == 0)
    assert _same_bits(internal[deepest], terms[deepest])
    assert _same_bits(np.delete(internal, deepest), np.delete(want, deepest))

    leaf_values = _wide_values(rng, tree.n_leaves, dtype)
    got = tree.ball_integrals(leaf_values)
    assert got.dtype == leaf_values.dtype
    assert _same_bits(got, _reference_ball_integrals(ref, leaf_values))


def test_random_kernel_spectrum_matches_reference_and_eigenvalue():
    spec = _random_spec(21)
    ref = _reference_tree(spec)
    tree = uw.build_tree(spec)
    kernel = random_kernel(np.random.default_rng(5), tree)
    want = _reference_spectrum(ref, dict(kernel.values.items()))
    assert _same_bits(uw.spectrum(tree, kernel).eigenvalues.array, [want[b] for b in ref["internal"]])
    for b in ref["internal"][:: max(1, len(ref["internal"]) // 20)]:
        assert uw.eigenvalue(tree, kernel, b) == want[b]


@pytest.mark.parametrize("shape", ["caterpillar", "random-0", "random-1", "random-2"])
def test_eigenvalue_equals_spectrum_bitwise(shape):
    """The per-ball path sum and the per-level sweep add the same terms in order."""
    tree = uw.build_tree(SHAPES[shape]())
    for kernel in (uw.vladimirov_kernel(tree, 0.7), random_kernel(np.random.default_rng(8), tree)):
        lam = uw.spectrum(tree, kernel).eigenvalues.array
        path_sums = [uw.eigenvalue(tree, kernel, b) for b in tree.internal]
        assert _same_bits(lam, path_sums)


def test_json_columns_read_as_ball_specs(tmp_path):
    spec = uw.tree_spec_from_dict(
        {"balls": [{"id": "r", "parent": None, "diameter": 1, "measure": 2.0},
                   {"id": 7, "parent": "r", "diameter": 0.5},
                   {"id": "b", "parent": "r", "diameter": 0.5, "measure": None}],
         "leaf_measures": {"7": 1, "b": 1.0}}
    )
    assert list(spec.balls) == [
        BallSpec("r", None, 1.0, 2.0), BallSpec("7", "r", 0.5), BallSpec("b", "r", 0.5)
    ]
    assert spec.balls[1:] == (BallSpec("7", "r", 0.5), BallSpec("b", "r", 0.5))
    assert uw.build_tree(spec).leaves == ("7", "b")


@pytest.mark.parametrize(
    "leaf_measures, violations",
    [
        ({"r.0.1": 0.25}, None),  # matches the declared measure
        ({"r.0.1": 0.5}, ["leaf 'r.0.1' has conflicting measures 0.25 and 0.5"]),
        ({"r.9": 1.0}, ["leaf_measures names unknown ball 'r.9'"]),
        ({"r.0": 1.0}, ["leaf_measures names internal ball 'r.0'"]),
    ],
)
def test_preset_with_leaf_measures_builds_as_ball_specs(leaf_measures, violations):
    """A preset's columns with ``leaf_measures`` give what its ``BallSpec`` list gives."""
    preset = dataclasses.replace(padic_preset(2, 2), leaf_measures=leaf_measures)
    listed = TreeSpec(balls=tuple(preset.balls), leaf_measures=leaf_measures)
    if violations is None:
        tree, want = uw.build_tree(preset), uw.build_tree(listed)
        balls = np.arange(len(tree))
        assert tree.ids_of(balls).tolist() == want.ids_of(balls).tolist()
        assert _same_bits(tree.measure, want.measure)
        assert tree.measure[tree.index("r.0.1")] == 0.25
    else:
        for spec in (preset, listed):
            with pytest.raises(uw.InvalidTreeError) as err:
                uw.build_tree(spec)
            assert err.value.violations == violations


def test_tree_layers_allocate_linearly():
    """build + kernel + spectrum + basis + the first transforms and product
    at 2**16 leaves stay O(n) in memory.

    Measured under 1 kB per leaf (two balls, their ids, the lookup table,
    the plan and the sweep schedules the tree keeps); a dense n x n array
    would be 32 GB.
    """
    n = 1 << 16
    tracemalloc.start()
    try:
        tree = uw.build_tree(padic_preset(2, 16))
        kernel = uw.vladimirov_kernel(tree, 0.5)
        spec = uw.spectrum(tree, kernel)
        basis = uw.build_basis(tree)
        f = np.linspace(-1.0, 1.0, n) + 0j
        back = basis.synthesize(basis.analyze(f))
        product = uw.pdo.pair_matvec(tree, kernel)(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.size == n and len(spec.eigenvalues) == n - 1
    assert back.shape == product.shape == (n,)
    assert peak < 1536 * n, f"{peak / n:.0f} bytes per leaf"


# -- input fixes ----------------------------------------------------------------


def _leaf_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["leaf_id", "re", "im"])
        writer.writerows(rows)
    return path


def test_leaf_listed_twice_is_rejected(tmp_path, capsys):
    tree_file = tmp_path / "tree.json"
    tree_file.write_text('{"preset": {"type": "padic", "p": 2, "depth": 2}}')
    rows = [["r.0.0", "1", "0"], ["r.0.1", "2", "0"], ["r.1.0", "3", "0"],
            ["r.1.1", "4", "0"], ["r.0.0", "5", "0"]]
    initial = _leaf_csv(tmp_path / "init.csv", rows)
    tree = uw.build_tree(uw.load_tree_spec(tree_file))
    with pytest.raises(ValueError, match=r"init\.csv lists leaf 'r\.0\.0' more than once"):
        uw.evolution.read_leaf_values(initial, tree)
    rc = main(["evolve", "--tree", str(tree_file), "--alpha", "0.5", "--initial", str(initial),
               "--times", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "r.0.0" in capsys.readouterr().err


def test_leaf_values_read_in_any_row_order_with_optional_im(tmp_path):
    tree = uw.build_tree(padic_preset(2, 2))
    path = tmp_path / "v.csv"
    path.write_text("im,leaf_id,re\r\n,r.1.1,4\r\n2.5,r.0.0,1e-3\r\n\r\n-0.0,r.1.0,3\r\n")
    with pytest.raises(ValueError, match=r"missing leaves: \['r\.0\.1'\]"):
        uw.evolution.read_leaf_values(path, tree)
    path.write_text("leaf_id,re\nr.1.1,4\nr.0.0,1e-3\nr.1.0,3\nr.0.1,0x1\n")
    with pytest.raises(ValueError, match=r"v\.csv has a re that is not a number on line 5: '0x1'"):
        uw.evolution.read_leaf_values(path, tree)
    path.write_text("leaf_id,re\nr.1.1,4\nr.0.0,1e-3\nr.1.0,3\nr.0.1,-2\n")
    values = uw.evolution.read_leaf_values(path, tree)
    assert values.tolist() == [1e-3, -2.0, 3.0, 4.0]


def _reference_read(path, tree):
    """The earlier reader: one ``csv.DictReader`` row at a time."""
    seen = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            seen[row["leaf_id"]] = complex(float(row["re"]), float(row.get("im") or 0.0))
    return np.array([seen[leaf] for leaf in tree.leaves])


ODD_IDS = ("plain", "a,b", 'q"x', "c\r\nd", " sp ", "x\ty")


@pytest.mark.parametrize(
    "text",
    [
        # canonical order, CRLF, as csv.writer writes it
        "leaf_id,re,im\r\nplain,1.5,-2\r\n\"a,b\",2,0\r\n\"q\"\"x\",3,1e-300\r\n"
        "\"c\r\nd\",4,5\r\n sp ,5,6\r\nx\ty,6,7\r\n",
        # shuffled, LF, blank lines, columns reordered, an extra column
        "re,extra,leaf_id,im\n\n6,z,x\ty,7\n1.5,z,plain,-2\n2,z,\"a,b\",\n3,z,\"q\"\"x\",1e-300\n"
        "4,z,\"c\r\nd\",5\n\n5,z, sp ,6\n",
    ],
)
def test_leaf_values_reader_matches_the_csv_module(tmp_path, text):
    tree = uw.build_tree(
        TreeSpec(
            balls=(BallSpec("r", None, 1.0),) + tuple(BallSpec(i, "r", 0.5) for i in ODD_IDS),
            leaf_measures={i: 1.0 for i in ODD_IDS},
        )
    )
    path = tmp_path / "v.csv"
    path.write_bytes(text.encode())
    values = uw.evolution.read_leaf_values(path, tree)
    assert _same_bits(values, _reference_read(path, tree))


@pytest.mark.parametrize(
    "text",
    [
        "leaf_id,re,im\nr.0.0,1\nr.0.1,2,3\nr.1.0,4,\nr.1.1,5,6,7\n",  # ragged rows
        "leaf_id,re\r\nr.1.1,5\r\nr.0.0,1\r\nr.0.1,2\r\nr.1.0,4\r\n",  # no im column
        "leaf_id,re,im\rr.0.0,1,2\rr.0.1,2,3\rr.1.0,4,5\rr.1.1,5,6\r",  # CR line ends
    ],
)
def test_leaf_values_reader_matches_the_csv_module_on_loose_files(tmp_path, text):
    tree = uw.build_tree(padic_preset(2, 2))
    path = tmp_path / "v.csv"
    path.write_bytes(text.encode())
    assert _same_bits(uw.evolution.read_leaf_values(path, tree), _reference_read(path, tree))


def _reference_read_spectrum(path):
    """The earlier spectrum reader: one ``csv.DictReader`` row at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [(row["ball_id"], repr(float(row["lambda"]))) for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "text",
    [
        # as write_spectrum writes it: CRLF, ids with csv's minimal quoting
        "ball_id,p_I,lambda\r\nplain,2,1.5\r\n\"a,b\",2,2\r\n\"q\"\"x\",2,-0.0\r\n"
        "\"c\r\nd\",2,4e300\r\n sp ,2,5\r\nx\ty,2,nan\r\n",
        # LF, blank lines, columns reordered, an extra column, a row past the header
        "lambda,extra,ball_id\n\n6,z,x\ty\n1.5,z,plain,more\n2,z,\"a,b\"\n3,z,\"q\"\"x\"\n"
        "4,z,\"c\r\nd\"\n\n 5 ,z, sp \n",
        # CR line ends, a row too short for an unread column
        "lambda,ball_id,p_I\r1,r\r1.5,r.0,2\r1.5,r.1\r",
    ],
    ids=["crlf-quoted", "lf-loose", "cr-short"],
)
def test_spectrum_reader_matches_the_csv_module(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    values = [(ball, repr(value)) for ball, value in uw.pdo.read_spectrum(path).items()]
    assert values == _reference_read_spectrum(path)


def test_bad_field_is_reported_on_the_line_the_csv_module_counts(tmp_path):
    # a blank line and a quoted line break before it: the bad field is on line 5
    path = tmp_path / "s.csv"
    path.write_bytes(b'ball_id,lambda\r\n\r\n"c\r\nd",1\r\nr,abc\r\n')
    with pytest.raises(ValueError, match=r"s\.csv has a lambda that is not a number on line 5: 'abc'"):
        uw.pdo.read_spectrum(path)
    path.write_bytes(b'ball_id,lambda\r\n\r\n"c\r\nd",1\r\nr\r\n')
    with pytest.raises(ValueError, match=r"s\.csv has a short row on line 5, without a 'lambda'"):
        uw.pdo.read_spectrum(path)


def _tiny_diameter_tree(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(
        '{"balls": [{"id": "r", "parent": null, "diameter": 1e-200},'
        ' {"id": "a", "parent": "r", "diameter": 1e-250, "measure": 1.0},'
        ' {"id": "b", "parent": "r", "diameter": 1e-250, "measure": 1.0}]}'
    )
    return path


def test_vladimirov_overflow_names_the_ball(tmp_path, capsys):
    path = _tiny_diameter_tree(tmp_path)
    tree = uw.build_tree(uw.load_tree_spec(path))
    with pytest.raises(ValueError, match="overflows at ball 'r'"):
        uw.vladimirov_kernel(tree, 1.0)
    rc = main(["spectrum", "--tree", str(path), "--alpha", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "overflows at ball 'r'" in capsys.readouterr().err


def test_vladimirov_rejects_non_finite_alpha():
    tree = uw.build_tree(padic_preset(2, 1))
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha must be finite"):
            uw.vladimirov_kernel(tree, alpha)


def test_spectrum_names_a_ball_whose_eigenvalue_overflows(capsys, tmp_path):
    tree = uw.build_tree(padic_preset(2, 2, 4.0))
    kernel = uw.make_kernel(tree, {"r": 1e308, "r.0": 1.0, "r.1": 1.0})
    with pytest.raises(ValueError, match="eigenvalue of ball 'r' is not finite"):
        uw.spectrum(tree, kernel)
    tree_file = tmp_path / "tree.json"
    tree_file.write_text('{"preset": {"type": "padic", "p": 2, "depth": 2, "total_measure": 4}}')
    kernel_file = tmp_path / "kernel.json"
    kernel_file.write_text('{"r": 1e308, "r.0": 1e308, "r.1": 1.0}')
    rc = main(["spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "is not finite" in capsys.readouterr().err


def test_potential_deviation_checks_several_times_in_one_call(monkeypatch):
    calls = []
    original = uw.certify.chebyshev_evolve_with_potential

    def spy(values, potential, tree, kernel, config):
        calls.append(config.times)
        return original(values, potential, tree, kernel, config)

    monkeypatch.setattr(uw.certify, "chebyshev_evolve_with_potential", spy)
    tree = uw.build_tree(padic_preset(2, 3))
    rng = np.random.default_rng(3)
    deviation = _potential_deviation(tree, random_kernel(rng, tree), rng)
    assert deviation <= 1e-8
    (times,) = calls
    assert len(times) >= 3 and min(times) < 0 < max(times)
