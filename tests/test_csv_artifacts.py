"""The CSV writers give exactly the bytes of a per-row ``csv.writer``.

Each ``_reference_*`` function below is the plain row-by-row writer the
artifacts were defined by; the library formats whole blocks at a time and
must match it byte for byte, including quoting of awkward ids and the
last bit of every float, whether one process writes the file or several
format row ranges of it.
"""

import csv
import math
import os
import struct
import time

import numpy as np
import pytest

import ultrawave as uw
from ultrawave import artifacts, evolution
from ultrawave.ball_tree import BallSpec, BallValues, TreeSpec
from ultrawave.evolution import write_summary, write_trajectory
from ultrawave.pdo import Spectrum, write_spectrum

#: Processes per file in the tests that split files: 1 is the serial path.
SHARD_COUNTS = (1, 2, 3)


def _force_shards(monkeypatch, shards):
    """Split every file of at least ``shards`` rows into ``shards`` ranges.

    Returns the list that collects one entry per fork in this process.
    """
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(artifacts, "_available_cpus", lambda: shards)
    monkeypatch.setattr(artifacts, "_MIN_ROWS_PER_SHARD", 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        outside[tree.leaf_slice(reference_ball)] = False
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "norm", "mean_re", "mean_im", "outside_mass", "support_ball"])
        for t, state in zip(times, states):
            v = tree.as_leaf_values(state)
            m = uw.mean(tree, v)
            masked = float(np.sqrt(np.sum(np.abs(v[outside]) ** 2 * tree.leaf_measures[outside])))
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


def test_trajectory_bytes_match_csv_writer(odd_tree, tmp_path, monkeypatch):
    # 77 times of 5 leaves, over 256 lines (several writes); 2 and 3 ranges
    # split it at rows 192, 128 and 256, all inside a time
    states = (_states(odd_tree.n_leaves) * 3)[:-1]
    times = (TIMES * len(states))[: len(states)]
    for shards in SHARD_COUNTS:
        forks = _force_shards(monkeypatch, shards)
        _assert_same_bytes(
            write_trajectory, _reference_trajectory, tmp_path, odd_tree, times, states
        )
        assert len(forks) == shards - 1
        assert b",1e+200,1e+199,inf\r\n" in (tmp_path / "ours.csv").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ours.csv", "reference.csv"]
    _assert_no_child_left()


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
    for reference_ball in (None, ODD_IDS[1], ODD_IDS[3]):
        _assert_same_bytes(
            write_summary, _reference_summary, tmp_path, odd_tree, times, states, reference_ball
        )
    # the reference ball by preorder number, as the CLI passes it
    with np.errstate(over="ignore", invalid="ignore"):
        write_summary(tmp_path / "n.csv", odd_tree, times, states, odd_tree.index(ODD_IDS[3]))
        write_summary(tmp_path / "i.csv", odd_tree, times, states, ODD_IDS[3])
    assert (tmp_path / "n.csv").read_bytes() == (tmp_path / "i.csv").read_bytes()


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


def test_writers_match_csv_writer_across_writes(tmp_path, monkeypatch):
    """Files of one, two and several writes of 256 lines each, split into
    1, 2 and 3 ranges, inside a time (one time of 512 leaves, and three
    times in two ranges) and at the end of one (three times in three)."""
    rng = np.random.default_rng(9)
    tree = uw.build_tree(uw.padic_preset(2, 9))  # 512 leaves, 511 internal balls
    spec = uw.spectrum(tree, uw.vladimirov_kernel(tree, 0.5))
    values = rng.normal(size=(3, 512)) + 1j * rng.normal(size=(3, 512))
    for shards in SHARD_COUNTS:
        _force_shards(monkeypatch, shards)
        _assert_same_bytes(write_spectrum, _reference_spectrum, tmp_path, tree, spec)
        for count in (0, 1, 3):
            times, states = [0.5, -1.0, 2.0][:count], list(values[:count])
            _assert_same_bytes(
                write_trajectory, _reference_trajectory, tmp_path, tree, times, states
            )
    _assert_no_child_left()


def test_shards_follow_cpus_row_count_and_fork(monkeypatch):
    monkeypatch.setattr(artifacts, "_available_cpus", lambda: 3)
    monkeypatch.setattr(artifacts, "_MIN_ROWS_PER_SHARD", 4)
    assert artifacts._shards(0) == [(0, 0)]
    assert artifacts._shards(7) == [(0, 7)]  # too few rows for two ranges
    assert artifacts._shards(8) == [(0, 4), (4, 8)]
    assert artifacts._shards(100) == [(0, 33), (33, 66), (66, 100)]  # one range per CPU
    monkeypatch.delattr(os, "fork")
    assert artifacts._shards(100) == [(0, 100)]


def _count_runs(states, start, stop):
    """Runs among rows ``start..stop - 1``, counted row by row: a row begins
    one where its bits differ from the row before."""
    bits = [struct.pack("<dd", z.real, z.imag) for s in states for z in np.asarray(s, complex)]
    return sum(r == start or bits[r] != bits[r - 1] for r in range(start, stop))


def _recorded_shards(monkeypatch):
    """The ranges of the latest ``_shards`` call, kept up to date."""
    ranges = []
    shards = artifacts._shards

    def recorded(*args):
        ranges[:] = shards(*args)
        return ranges

    monkeypatch.setattr(artifacts, "_shards", recorded)
    return ranges


#: Consecutive zeros of every sign, each repeated: each sign is a run of its own.
SIGNED_ZEROS = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]


@pytest.mark.parametrize("run_rows", [3, 1024])
def test_runs_of_equal_values_match_csv_writer(tmp_path, monkeypatch, run_rows):
    """Signed zeros side by side, a run whose abs2 overflows, and runs
    longer than a write, across chunk, time and range boundaries."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    monkeypatch.setattr(evolution, "_RUN_ROWS", run_rows)
    monkeypatch.setattr(artifacts, "_RUN_COUNT_ROWS", 5)
    zeros = np.repeat(SIGNED_ZEROS * 4, 2)  # 32 values, runs of 2
    huge = np.full(40, 1e200 + 1e199j)  # abs2 inf on every row
    ramp = np.repeat(np.arange(11) * 0.1 - 0.5, 40)  # runs of 40; 0.5 reaches the next time
    first = np.concatenate([zeros, huge, ramp])
    states = [first, first[::-1].copy(), np.full(512, 0.25 - 2j), np.zeros(512)]
    times = [0.0, -0.0, 1.5, 2.0]
    runs = _count_runs(states, 0, 4 * 512)
    assert runs == 32 // 2 + 1 + 11 + 10 + 1 + 16 + 1 + 1
    for shards in SHARD_COUNTS:
        forks = _force_shards(monkeypatch, shards)
        ranges = _recorded_shards(monkeypatch)
        _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, tree, times, states)
        assert len(forks) == shards - 1
        shares = [_count_runs(states, start, stop) for start, stop in ranges]
        assert sum(shares) == runs and max(shares) - min(shares) <= 1
    written = (tmp_path / "ours.csv").read_bytes()
    assert written.count(b",1e+200,1e+199,inf\r\n") == 80
    assert written.count(b",-0.0,-0.0,0.0\r\n") == 2 * 4 * 2  # two times, four runs of 2
    _assert_no_child_left()


def test_zeros_then_dense_values_split_into_equal_runs(tmp_path, monkeypatch):
    """A long stretch of zeros, then random values: equal rows would give
    the last range every run, equal runs give each range a third."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    rng = np.random.default_rng(55)
    dense = rng.normal(size=256) + 1j * rng.normal(size=256)
    states = [np.zeros(512, complex), np.concatenate([np.zeros(256), dense])]
    monkeypatch.setattr(artifacts, "_RUN_COUNT_ROWS", 100)
    forks = _force_shards(monkeypatch, 3)
    monkeypatch.setattr(artifacts, "_MIN_ROWS_PER_SHARD", 20)
    ranges = _recorded_shards(monkeypatch)
    times = [0.0, 1.0]
    _assert_same_bytes(write_trajectory, _reference_trajectory, tmp_path, tree, times, states)
    assert len(forks) == 2
    shares = [_count_runs(states, start, stop) for start, stop in ranges]
    assert shares == [85, 86, 86]  # a run of 768 zeros and 256 values
    assert ranges[0][1] - ranges[0][0] > 2 * 512 - 256  # the zeros stay in one range
    _assert_no_child_left()


def _runs_at(firsts):
    """A ``runs`` function for runs that begin at the rows ``firsts``."""
    return lambda start, stop: [row for row in firsts if start <= row < stop]


def test_shards_split_runs_not_rows(monkeypatch):
    monkeypatch.setattr(artifacts, "_available_cpus", lambda: 3)
    monkeypatch.setattr(artifacts, "_MIN_ROWS_PER_SHARD", 4)
    monkeypatch.setattr(artifacts, "_RUN_COUNT_ROWS", 7)
    # one run of 60 rows, then 40 of one row: 13, 14 and 14 runs per range
    long_then_short = _runs_at([0, *range(60, 100)])
    assert artifacts._shards(100, long_then_short) == [(0, 72), (72, 86), (86, 100)]
    assert artifacts._shards(100, _runs_at([0])) == [(0, 100)]
    assert artifacts._shards(100, _runs_at([0, 50, 90])) == [(0, 100)]  # under 4 runs a range

    def uncounted(start, stop):
        pytest.fail("runs counted on one CPU")

    monkeypatch.setattr(artifacts, "_available_cpus", lambda: 1)
    assert artifacts._shards(100, uncounted) == [(0, 100)]


#: A value no test state holds; formatting its row raises.
MARKER = complex(7.0, -7.0)


def _write_with_marker(tmp_path, monkeypatch, row, abs2, states=None):
    """Write 3 times of 512 leaves in 3 ranges, MARKER at ``row``, with
    ``abs2`` formatting the abs2 column; return the output path.  The
    states default to random values, one run per row."""
    tree = uw.build_tree(uw.padic_preset(2, 9))
    if states is None:
        states = list(np.random.default_rng(3).normal(size=(3, 512)) + 0j)
    states[row // 512][row % 512] = MARKER
    forks = _force_shards(monkeypatch, 3)
    monkeypatch.setattr(evolution, "_abs2", abs2)
    path = tmp_path / "trajectory.csv"
    try:
        write_trajectory(path, tree, [0.0, 1.0, 2.0], states)
    finally:
        assert len(forks) == 2
    return path


def test_failed_range_raises_oserror_and_leaves_nothing(tmp_path, monkeypatch):
    def abs2(z):
        if z == MARKER:
            raise ValueError("cannot format")
        return abs(z) ** 2

    with pytest.raises(OSError) as raised:
        _write_with_marker(tmp_path, monkeypatch, 1535, abs2)  # the last range's last row
    assert str(tmp_path / "trajectory.csv") in str(raised.value)
    assert "rows 1024 to 1535" in str(raised.value)
    assert list(tmp_path.iterdir()) == []  # no output and no temporary file
    _assert_no_child_left()


def test_failed_range_names_rows_when_runs_are_fewer(tmp_path, monkeypatch):
    def abs2(z):
        if z == MARKER:
            raise ValueError("cannot format")
        return abs(z) ** 2

    # two times of zeros (one run), then 512 random values: 513 runs, split
    # at runs 171 and 342, which begin rows 1024 + 170 and 1024 + 341
    states = [np.zeros(512, complex), np.zeros(512, complex)]
    states.append(np.random.default_rng(3).normal(size=512) + 0j)
    with pytest.raises(OSError) as raised:
        _write_with_marker(tmp_path, monkeypatch, 1535, abs2, states)
    assert "rows 1365 to 1535" in str(raised.value)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


def test_interrupt_in_own_range_kills_every_forked_process(tmp_path, monkeypatch):
    parent = os.getpid()
    slept = []

    def abs2(z):
        if z == MARKER:
            raise KeyboardInterrupt
        if os.getpid() != parent and not slept:
            slept.append(1)
            time.sleep(20)  # a forked process is still busy when this one is interrupted
        return abs(z) ** 2

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _write_with_marker(tmp_path, monkeypatch, 0, abs2)
    assert time.monotonic() - start < 10  # killed, not waited for
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()
