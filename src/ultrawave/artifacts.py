"""CSV artifacts: the bytes every writer in the package shares.

Each file has exactly the bytes a per-row ``csv.writer`` gives: lines end
in CRLF, ids get ``csv``'s minimal quoting (``csv_fields``) and floats are
written with ``repr``.  ``write_csv`` takes the rows as a function of a row
range, so a large file can be formatted on every available CPU: forked
processes each format one range into an anonymous temporary file, and the
file is joined in row order with the same bytes as from one process.  The
ranges hold equal numbers of runs, the rows a writer formats together, so
they hold equal formatting work.
"""

from __future__ import annotations

import csv
import gc
import os
import shutil
import signal
import tempfile
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import ExitStack, suppress
from functools import partial
from itertools import accumulate, chain, islice
from typing import Iterable


class _Echo:
    """A file stand-in whose ``write`` returns the text it is given."""

    @staticmethod
    def write(text: str) -> str:
        return text


def csv_fields(values: Sequence) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row.

    Strings get ``csv``'s minimal quoting (a comma, a quote, CR or LF
    quotes the field and doubles its quotes), other values their ``str``.
    When no string needs quoting the values come back as they are.
    """
    try:
        joined = "".join(values)
    except TypeError:  # not all strings
        joined = ","
    if not any(c in joined for c in ',"\r\n'):
        return list(values)  # no field needs quoting
    row = csv.writer(_Echo()).writerow
    # the value followed by an empty field formats as "<field>,\r\n"; a
    # string that needs no quoting is returned as is rather than copied
    fields = (row((value, ""))[:-3] for value in values)
    return [value if field == value else field for value, field in zip(values, fields)]


#: Lines joined into one ``write``.  More lines save calls but hold more
#: text at once: writing a 2048-leaf trajectory peaks at about 0.2 MB of
#: Python objects with 256 lines per write, 0.8 MB with 2048.
_CSV_LINES_PER_WRITE = 256

#: Fewest runs worth a process of their own.  A run is one or more rows
#: that a writer formats together (``write_csv``), and most of a row's cost
#: is formatting its floats: a trajectory row that repeats its run's values
#: costs about 0.3 us, a run 2.2-4.5 us.  A fork plus its reap takes
#: 2.7-3.4 ms in a 77 MB process with live OpenBLAS threads (2-vCPU VM,
#: Python 3.11), the time to format about 700 trajectory runs or 1700
#: spectrum rows (1.8 us).  OpenBLAS also stops its threads before every
#: fork, and the next BLAS call starts them again: the process then keeps
#: 0.4-1.2 MB more resident (a 2048-leaf dense spectrum peaked 0.45 MB
#: higher after one 8192-row file was split in two).  8192 runs take 37 ms
#: to format as a trajectory and 15 ms as a spectrum, 5-12 times a fork.
_MIN_ROWS_PER_SHARD = 8192

#: Rows whose runs ``_shards`` asks for in one call while it counts them.
_RUN_COUNT_ROWS = 8192


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shards(count: int, runs=range) -> list[tuple[int, int]]:
    """``count`` rows as contiguous ``(start, stop)`` ranges, one per process.

    ``runs(start, stop)`` gives the rows in ``start..stop - 1`` that begin a
    run, in order; by default every row is a run.  There is one range per
    available CPU while each holds at least ``_MIN_ROWS_PER_SHARD`` runs, and
    one range where ``os.fork`` is missing.  Each range begins with a run and
    holds an equal share of the runs, give or take one.  Runs are counted
    only when the rows alone would allow two ranges.
    """
    shards = min(_available_cpus(), count // _MIN_ROWS_PER_SHARD) if hasattr(os, "fork") else 1
    if shards < 2:
        return [(0, count)]
    # the runs of each block of rows, counted and summed: no list of every run
    blocks = [(a, min(a + _RUN_COUNT_ROWS, count)) for a in range(0, count, _RUN_COUNT_ROWS)]
    ends = list(accumulate(len(runs(*block)) for block in blocks))
    shards = max(min(shards, ends[-1] // _MIN_ROWS_PER_SHARD), 1)

    def first_row(j: int) -> int:
        """The row that begins run ``j``."""
        b = bisect_right(ends, j)
        return int(runs(*blocks[b])[j - (ends[b - 1] if b else 0)])

    bounds = [0, *(first_row(ends[-1] * k // shards) for k in range(1, shards)), count]
    return list(zip(bounds, bounds[1:]))


def write_csv(path, header: Sequence[str], count: int, rows, runs=range) -> None:
    """Write a CSV file with exactly the bytes ``csv.writer`` gives.

    ``rows(start, stop)`` yields rows ``start`` to ``stop - 1`` of the
    ``count`` rows, already formatted: strings through ``csv_fields``,
    floats as ``repr``, fields joined by commas.  Lines end in CRLF and go
    out ``_CSV_LINES_PER_WRITE`` to a ``write``, so rows from a generator
    never hold the whole file in memory.

    ``runs(start, stop)`` returns the rows in ``start..stop - 1`` that begin
    a run, in order: a run's later rows repeat its first row's values, and
    ``rows`` formats them for little more than the first.  By default every
    row is a run.  The rows are split by ``_shards`` into ranges of equal
    numbers of runs, each beginning with a run, so a file of few runs stays
    in one process however many rows it has.  This process writes the header
    and the first range; each later range is formatted by a forked process
    into an anonymous temporary file in the output directory, which this
    process appends in order once that process has exited.  Any failure,
    including an interrupt, kills and reaps every forked process, removes
    the output file and propagates; a range that could not be formatted
    raises ``OSError`` naming the file.
    """
    first, *later = _shards(count, runs)
    directory = os.path.dirname(os.path.abspath(path))
    children = []  # (pid, temporary file, range) of each unreaped process, in row order
    with open(path, "wb") as out, ExitStack() as spools:
        try:
            for shard in later:
                spool = spools.enter_context(tempfile.TemporaryFile(dir=directory))
                children.append((_fork_writer(spool.fileno(), rows, *shard), spool, shard))
            _write_lines(out.write, chain([",".join(csv_fields(header))], rows(*first)))
            while children:
                pid, spool, (start, stop) = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                if status != 0:
                    raise OSError(
                        f"could not write {path}: the process formatting rows {start} "
                        f"to {stop - 1} exited with status {status}"
                    )
                spool.seek(0)
                shutil.copyfileobj(spool, out)
        except BaseException:
            for pid, _, _ in children:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            os.unlink(path)
            raise


def _fork_writer(fd: int, rows, start: int, stop: int) -> int:
    """Fork a process that writes rows ``start`` to ``stop - 1`` to ``fd``.

    Returns its pid.  The process only formats rows and writes them with
    ``os.write``; it calls no BLAS, logging or stdio, runs no collection
    (so no finalizer of an inherited object runs twice), and always leaves
    through ``os._exit``: status 0 once every row is written, 1 on any
    exception.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            gc.disable()
            _write_lines(partial(_write_all, fd), rows(start, stop))
            status = 0
        finally:
            os._exit(status)
    return pid


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _write_lines(write, lines: Iterable[str]) -> None:
    """Each line, CRLF-terminated and UTF-8 encoded, ``_CSV_LINES_PER_WRITE``
    lines to a ``write``."""
    lines = iter(lines)
    while chunk := list(islice(lines, _CSV_LINES_PER_WRITE)):
        write("\r\n".join([*chunk, ""]).encode("utf-8"))
