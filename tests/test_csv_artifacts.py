"""The CSV writers give exactly the bytes of a per-row ``csv.writer``.

Each ``_reference_*`` function below is the plain row-by-row writer the
artifacts were defined by; the library formats whole blocks at a time and
must match it byte for byte, including quoting of awkward ids and the
last bit of every float.
"""

import csv
import math
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

import ultrawave as uw
from ultrawave import artifacts, evolution
from ultrawave.ball_tree import BallSpec, BallValues, TreeSpec, _weighted_norm
from ultrawave.evolution import write_summary, write_trajectory
from ultrawave.pdo import Spectrum, write_spectrum

def _reference_trajectory(path, tree, times, states):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "leaf_id", "re", "im", "abs2"])
        for t, state in zip(times, states):
            v = tree.as_leaf_values(state)
            for leaf, value in zip(tree.leaves, v):
                writer.writerow(
                    [
                        repr(float(t)),
                        leaf,
                        repr(float(value.real)),
                        repr(float(value.imag)),
                        repr(float(abs(value) ** 2)),
                    ]
                )


def _reference_summary(path, tree, times, states, reference_ball):
    outside = np.zeros(tree.n_leaves, dtype=bool)
    if reference_ball is not None:
        outside[:] = True
        outside[tree.leaf_slice(tree.ids_of(reference_ball))] = False
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"])
        for t, state in zip(times, states):
            v = tree.as_leaf_values(state)
            m = uw.mean(tree, v)
            masked = _weighted_norm(v[outside], tree.leaf_measures[outside])
            writer.writerow(
                [
                    repr(float(t)),
                    repr(tree.norm(v)),
                    repr(float(m.real)),
                    repr(float(m.imag)),
                    repr(masked),
                    tree.ball_support(v) or "empty",
                ]
            )


def _reference_spectrum(path, tree, spec):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ball_id", "p_I", "lambda"])
        for ball_id in tree.internal:
            writer.writerow(
                [
                    ball_id,
                    tree.child_count[tree.index(ball_id)],
                    repr(float(spec.eigenvalues[ball_id])),
                ]
            )


#: Ids that csv quotes (comma, quote, CR, LF) or must leave alone (leading
#: space, non-ASCII, the empty string).
ODD_IDS = ("r,oot", ' lead', 'say "hi"', "cr\rlf\n", "ünï ☃", "", '"', "a,b\r\n\"c\"")


@pytest.fixture
def odd_tree():
    root, lead, quote, crlf, uni, empty, bare, mixed = ODD_IDS
    spec = TreeSpec(
        balls=(
            BallSpec(root, None, 1.0),
            BallSpec(lead, root, 0.5),
            BallSpec(uni, root, 0.5),
            BallSpec(bare, root, 0.5),
            BallSpec(quote, lead, 0.25),
            BallSpec(crlf, lead, 0.25),
            BallSpec(empty, uni, 0.25),
            BallSpec(mixed, uni, 0.25),
        ),
        leaf_measures={quote: 0.1, crlf: 0.2, empty: 0.3, mixed: 0.15, bare: 0.25},
    )
    return uw.build_tree(spec)


def _pow_differs_from_product(count):
    """Complex values z with pow(|z|, 2) != |z| * |z| in the last bit."""
    rng = np.random.default_rng(5)
    found = []
    while len(found) < count:
        z = complex(rng.normal(), rng.normal())
        if abs(z) ** 2 != abs(z) * abs(z):
            found.append(z)
    return found


#: Awkward floats: signed zeros, the smallest subnormal, a value repr
#: writes with an exponent, large and negative values, and |z| ~ 1e200,
#: whose abs2 overflows to inf.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, math.pi, 2.2250738585072014e-308]
HUGE = [1e200 + 1e199j, -1e200j, complex(1.7976931348623157e308, 0.0)]


def _states(n):
    values = [complex(a, b) for a in SPECIAL for b in SPECIAL] + HUGE + _pow_differs_from_product(40)
    values += [complex(math.inf, 0.0), complex(math.nan, -0.0), complex(-math.inf, math.inf)]
    values += values[: -len(values) % n]
    return [np.array(values[i : i + n]) for i in range(0, len(values), n)]


TIMES = [-2.5, -0.0, 0.0, 5e-324, 1e-5, 1e16, -1e16, 0.1]


def _assert_same_bytes(write, reference, tmp_path, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        write(ours, *args)
        reference(theirs, *args)
    assert ours.read_bytes() == theirs.read_bytes()


def test_trajectory_bytes_match_csv_writer(odd_tree, tmp_path):
    # 77 times of 5 leaves, over 256 lines (several writes)
    states = (_states(odd_tree.n_leaves) * 3)[:-1]
    times = (TIMES * len(states))[: len(states)]
    _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, odd_tree, times, states)
    assert b",1e+200,1e+199,inf\r\n" in (tmp_path / "ours.csv").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ours.csv", "reference.csv"]


def test_trajectory_abs2_is_pow_not_product(binary_tree, tmp_path):
    values = _pow_differs_from_product(binary_tree.n_leaves)
    write_trajectory(tmp_path / "t.csv", binary_tree, [0.0], [np.array(values)])
    with open(tmp_path / "t.csv", newline="") as fh:
        abs2 = [float(row["abs2"]) for row in csv.DictReader(fh)]
    assert abs2 == [abs(z) ** 2 for z in values]
    assert all(a != abs(z) * abs(z) for a, z in zip(abs2, values))


def test_summary_bytes_match_csv_writer(odd_tree, tmp_path):
    states = [s for s in _states(odd_tree.n_leaves) if np.all(np.isfinite(s))]
    states.append(np.zeros(odd_tree.n_leaves))
    times = (TIMES * len(states))[: len(states)]
    # the reference ball by preorder number, as the CLI passes it
    for reference_ball in (None, odd_tree.index(ODD_IDS[1]), odd_tree.index(ODD_IDS[3])):
        _assert_same_bytes(
            write_summary, _reference_summary, tmp_path, odd_tree, times, states, reference_ball
        )


def test_spectrum_bytes_match_csv_writer(odd_tree, tmp_path):
    values = SPECIAL + [1e200, math.inf, math.nan]
    for shift in range(len(values)):
        eigenvalues = [values[(shift + k) % len(values)] for k in range(len(odd_tree.internal))]
        _assert_same_bytes(
            write_spectrum,
            _reference_spectrum,
            tmp_path,
            odd_tree,
            Spectrum(BallValues(odd_tree, eigenvalues)),
        )


def test_writers_match_csv_writer_across_writes(tmp_path):
    """Files of none, one, two and several writes of 256 lines each: a
    spectrum, and zero, one and three times of 512 leaves."""
    rng = np.random.default_rng(9)
    tree = uw.build_tree(uw.padic_preset(2, 9))  # 512 leaves, 511 internal balls
    spec = uw.spectrum(tree, uw.vladimirov_kernel(tree, 0.5))
    values = rng.normal(size=(3, 512)) + 1j * rng.normal(size=(3, 512))
    _assert_same_bytes(write_spectrum, _reference_spectrum, tmp_path, tree, spec)
    for count in (0, 1, 3):
        times, states = [0.5, -1.0, 2.0][:count], list(values[:count])
        _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, tree, times, states)


def test_large_files_are_written_without_forking(tmp_path, monkeypatch):
    """A trajectory of 2**15 zeros then 2**15 distinct values, and a
    spectrum of 32767 balls, each well over 16384 runs, are written by this
    process alone with the reference writer's bytes."""

    def fork():
        raise AssertionError("no process may be forked")

    monkeypatch.setattr(os, "fork", fork)
    tree = uw.build_tree(uw.padic_preset(2, 15))
    rng = np.random.default_rng(55)
    dense = rng.normal(size=tree.n_leaves) + 1j * rng.normal(size=tree.n_leaves)
    states = [np.zeros(tree.n_leaves, complex), dense]
    _assert_same_bytes(
        write_trajectory, _reference_trajectory, tmp_path, tree, [0.0, 1.0], states
    )
    spec = uw.spectrum(tree, uw.vladimirov_kernel(tree, 0.5))
    _assert_same_bytes(write_spectrum, _reference_spectrum, tmp_path, tree, spec)


#: Consecutive zeros of every sign, each repeated: each sign is a run of its own.
SIGNED_ZEROS = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]


@pytest.mark.parametrize("run_rows", [3, 1024])
def test_runs_of_equal_values_match_csv_writer(tmp_path, monkeypatch, run_rows):
    """Signed zeros side by side, a run whose abs2 overflows, and runs
    longer than a write, across chunk and time boundaries."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    monkeypatch.setattr(evolution, "_RUN_ROWS", run_rows)
    zeros = np.repeat(SIGNED_ZEROS * 4, 2)  # 32 values, runs of 2
    huge = np.full(40, 1e200 + 1e199j)  # abs2 inf on every row
    ramp = np.repeat(np.arange(11) * 0.1 - 0.5, 40)  # runs of 40; 0.5 reaches the next time
    first = np.concatenate([zeros, huge, ramp])
    states = [first, first[::-1].copy(), np.full(512, 0.25 - 2j), np.zeros(512)]
    times = [0.0, -0.0, 1.5, 2.0]
    _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, tree, times, states)
    written = (tmp_path / "ours.csv").read_bytes()
    assert written.count(b",1e+200,1e+199,inf\r\n") == 80
    assert written.count(b",-0.0,-0.0,0.0\r\n") == 2 * 4 * 2  # two times, four runs of 2


def test_long_run_of_odd_ids_matches_csv_writer(odd_tree, tmp_path, monkeypatch):
    """One run of 151 rows of the quoted ids, from the middle of the fourth
    time to the middle of the 34th, between two stretches of 17 distinct
    values, cut by chunks of 16 rows and blocks of 8."""
    rng = np.random.default_rng(17)
    distinct = rng.normal(size=34) + 1j * rng.normal(size=34)
    values = np.concatenate([distinct[:17], np.full(151, 0.25 - 1.5j), distinct[17:]])
    states = list(values.reshape(-1, odd_tree.n_leaves))
    times = [0.5 * k for k in range(len(states))]
    monkeypatch.setattr(evolution, "_RUN_ROWS", 16)
    monkeypatch.setattr(evolution, "_BLOCK_ROWS", 8)
    _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, odd_tree, times, states)
    row = f",0.25,-1.5,{abs(0.25 - 1.5j) ** 2!r}\r\n".encode()
    assert (tmp_path / "ours.csv").read_bytes().count(row) == 151


def test_trajectory_memory_does_not_grow_with_run_length(tmp_path):
    """A 2**16-leaf all-zero state at 4 times is one run of 2**18 rows.
    Besides the quoted ids, which ``csv_fields`` joins and lists once, the
    writer holds under 1 MB of Python objects: no text grows with the run
    (the whole file is 13 MB, the rows of one time 3.3 MB)."""
    tree = uw.build_tree(uw.padic_preset(2, 16))
    states = [np.zeros(tree.n_leaves, complex)] * 4
    ids = sum(map(len, tree.leaves)) + 8 * tree.n_leaves
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_trajectory(tmp_path / "t.csv", tree, [0.0, 1.0, 2.0, 3.0], states)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 12 * 2**20
    assert peak < ids + 2**20


def test_trajectory_writes_hold_about_one_block_of_rows(tmp_path, monkeypatch):
    """A run is cut at every ``_BLOCK_ROWS`` rows, so a write of one run of
    8192 rows holds about a block, not a whole chunk of ``_RUN_ROWS``."""
    lines = []
    write_lines = artifacts._write_lines

    def counted(write, items):
        def counting(data):
            lines.append(data.count(b"\r\n"))
            write(data)

        write_lines(counting, items)

    monkeypatch.setattr(artifacts, "_write_lines", counted)
    tree = uw.build_tree(uw.padic_preset(2, 12))
    write_trajectory(tmp_path / "t.csv", tree, [0.0, 1.0], [np.zeros(tree.n_leaves, complex)] * 2)
    assert sum(lines) == 1 + 2 * tree.n_leaves
    assert max(lines) <= 2 * evolution._BLOCK_ROWS < evolution._RUN_ROWS


#: A value no test state holds; formatting its row raises.
MARKER = complex(7.0, -7.0)


def _write_with_marker(tmp_path, monkeypatch, row, error):
    """Write 3 times of 512 random leaf values with MARKER at ``row``, whose
    abs2 raises ``error``; return the output path."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    states = list(np.random.default_rng(3).normal(size=(3, 512)) + 0j)
    states[row // 512][row % 512] = MARKER

    def abs2(z):
        if z == MARKER:
            raise error
        return abs(z) ** 2

    monkeypatch.setattr(evolution, "_abs2", abs2)
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, tree, [0.0, 1.0, 2.0], states)
    return path


def test_failed_write_leaves_nothing(tmp_path, monkeypatch):
    error = ValueError("cannot format")
    with pytest.raises(ValueError) as raised:
        _write_with_marker(tmp_path, monkeypatch, 1535, error)  # the last row, after several writes
    assert raised.value is error
    assert list(tmp_path.iterdir()) == []


def test_interrupt_leaves_nothing(tmp_path, monkeypatch):
    with pytest.raises(KeyboardInterrupt):
        _write_with_marker(tmp_path, monkeypatch, 700, KeyboardInterrupt())
    assert list(tmp_path.iterdir()) == []


def test_failed_write_to_a_fifo_leaves_the_fifo(tmp_path):
    fifo = tmp_path / "trajectory.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()

    def rows():
        yield from ["x" * 99] * 100  # more than one write
        raise ValueError("cannot format")

    with pytest.raises(ValueError, match="cannot format"):
        artifacts.write_csv(fifo, ["a", "b"], rows())
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received[0].startswith(b"a,b\r\n" + b"x" * 99 + b"\r\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


# -- rewriting an existing output through its side file ------------------------


def _trajectory(tree, count, seed=8):
    rng = np.random.default_rng(seed)
    states = list(rng.normal(size=(count, tree.n_leaves)) + 1j * rng.normal(size=(count, tree.n_leaves)))
    return [0.5 * k for k in range(count)], states


def test_rewrite_over_a_longer_file_matches_csv_writer(tmp_path):
    """Written over a file three times as long, the output is cut at the
    end of its rows."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    path = tmp_path / "ours.csv"
    write_trajectory(path, tree, *_trajectory(tree, 3))
    longer = path.stat().st_size
    times, states = _trajectory(tree, 1, seed=9)
    write_trajectory(path, tree, times, states)
    _reference_trajectory(tmp_path / "reference.csv", tree, times, states)
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert longer > 2 * path.stat().st_size
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ours.csv", "reference.csv"]


def test_rewrite_keeps_the_inode_mode_and_hard_links(tmp_path):
    tree = uw.build_tree(uw.padic_preset(2, 9))
    path, link = tmp_path / "trajectory.csv", tmp_path / "link.csv"
    write_trajectory(path, tree, *_trajectory(tree, 2))
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    write_trajectory(path, tree, *_trajectory(tree, 1, seed=9))
    after = path.stat()
    assert (after.st_ino, after.st_dev, after.st_nlink) == (before.st_ino, before.st_dev, 2)
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert link.read_bytes() == path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "trajectory.csv"]


@pytest.mark.parametrize("error", [ValueError("cannot format"), KeyboardInterrupt()])
def test_failed_rewrite_leaves_no_output_and_no_side_file(tmp_path, monkeypatch, error):
    (tmp_path / "trajectory.csv").write_bytes(b"old rows\r\n" * 10000)
    with pytest.raises(type(error)) as raised:
        _write_with_marker(tmp_path, monkeypatch, 1535, error)
    assert raised.value is error
    assert list(tmp_path.iterdir()) == []


def test_side_file_of_a_killed_run_is_reused(tmp_path):
    """A side file left by a killed run, longer than the new rows and with
    no output beside it, becomes the output."""
    side = tmp_path / ".data.csv.partial"
    side.write_bytes(b"half-written rows\r\n" * 1000)
    inode = side.stat().st_ino
    artifacts.write_csv(tmp_path / "data.csv", ["a", "b"], ["1,2", "3,4"])
    assert (tmp_path / "data.csv").read_bytes() == b"a,b\r\n1,2\r\n3,4\r\n"
    assert (tmp_path / "data.csv").stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
    # beside an existing output, the output's own file takes the side name
    side.write_bytes(b"half-written rows\r\n")
    artifacts.write_csv(tmp_path / "data.csv", ["a"], ["5"])
    assert (tmp_path / "data.csv").read_bytes() == b"a\r\n5\r\n"
    assert (tmp_path / "data.csv").stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_symlinked_output_is_written_through_its_target(tmp_path):
    target, path = tmp_path / "target.csv", tmp_path / "data.csv"
    target.write_bytes(b"old rows\r\n" * 1000)
    path.symlink_to(target)
    artifacts.write_csv(path, ["a", "b"], ["1,2"])
    assert path.is_symlink() and os.readlink(path) == str(target)
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "target.csv"]


def test_output_in_a_missing_directory_is_named_in_the_error(tmp_path):
    path = tmp_path / "missing" / "data.csv"
    with pytest.raises(FileNotFoundError) as raised:
        artifacts.write_csv(path, ["a"], ["1"])
    assert raised.value.filename == str(path)
    assert list(tmp_path.iterdir()) == []
