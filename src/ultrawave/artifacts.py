"""CSV artifacts: the one CSV reader, and the bytes every writer shares.

Every CSV input (leaf values, potentials, an expected spectrum) is read by
``read_csv``: ``csv.reader`` rows, turned into columns found by header
name, blank lines skipped, short rows padded with None and columns past
the header dropped.  ``column`` and ``float_column`` take one column out,
and their ``ValueError`` names the file, the column and, for a short row
or a field that is not a number, its line; the line is found by reading
the file again only once a bad field has shown up.

Each file written has exactly the bytes a per-row ``csv.writer`` gives:
lines end in CRLF, ids get ``csv``'s minimal quoting (``csv_fields``) and
floats are written with ``repr``.  ``write_csv`` writes a file in one
process, in row order, so its bytes do not depend on the number of CPUs.

A regular file, or an absent one, is written under a side name in the same
directory, ``.<name>.partial``, and renamed onto the output once complete.
An existing output is first renamed to the side name and overwritten in
place, so a rerun reuses the file's blocks (and keeps its inode, mode and
hard links) instead of freeing them by truncation and allocating new ones.
After a kill such an output is absent or complete, never half-written.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import os
import stat
from collections.abc import Sequence
from itertools import chain, islice, zip_longest
from typing import Iterable

import numpy as np

from .ball_tree import _is_number


def read_csv(path) -> dict[str, Sequence[str | None]]:
    """Each column of a CSV file by its header name, as ``csv.reader`` reads it.

    A column holds one field per row, in file order.  Blank lines are
    skipped, short rows padded with None and fields past the header
    dropped; a name the header repeats takes its last column, the one the
    ``csv`` module's dict reader keeps.  The cyclic garbage collector is
    paused while the rows are made: they hold no cycles, and its passes
    over them took two thirds of a 2**20-row read (3.3 s against 1.2 s
    without).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [*filter(None, reader)]
        columns = list(zip_longest(*rows))
    finally:
        if enabled:
            gc.enable()
    short = (None,) * len(rows)
    return {name: columns[k] if k < len(columns) else short for k, name in enumerate(header)}


def column(path, columns, name: str) -> Sequence[str]:
    """Column ``name`` of :func:`read_csv`'s ``columns``, a field in every row.

    ``ValueError`` names the file and the column if the header has no
    such column, and the line of the first row too short to reach it.
    """
    if name not in columns:
        raise ValueError(f"{path} has no {name!r} column")
    cells = columns[name]
    if None in cells:
        line = _line(path, cells.index(None))
        raise ValueError(f"{path} has a short row on line {line}, without a {name!r} field")
    return cells


def float_column(path, columns, name: str) -> np.ndarray:
    """:func:`column` ``name``, each field converted as ``float`` converts it.

    ``ValueError`` names the file, the column and the line of the first
    field that is not a number, and the field.
    """
    cells = column(path, columns, name)
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        row = next(k for k, cell in enumerate(cells) if not _is_number(cell))
        raise ValueError(
            f"{path} has a {name} that is not a number on line {_line(path, row)}: "
            f"{cells[row]!r}"
        ) from None


def _line(path, row: int) -> int:
    """The line of a CSV file on which its row ``row`` ends.

    Rows are numbered from 0 after the header, blank lines skipped, as in
    :func:`read_csv`; lines from 1, as ``csv.reader.line_num`` counts them.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        next(islice(filter(None, reader), row, None))
        return reader.line_num


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


#: Characters joined into one ``write``, about 256 rows of a trajectory
#: or a spectrum.  More characters save calls but hold more text at once.
_CSV_CHARS_PER_WRITE = 8192


def write_csv(path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write a CSV file with exactly the bytes ``csv.writer`` gives.

    ``lines`` yields the rows after the header, already formatted: strings
    through ``csv_fields``, floats as ``repr``, fields joined by commas.
    An item is one row, or several rows joined by CRLF.  Lines end in CRLF
    and go out about ``_CSV_CHARS_PER_WRITE`` characters to a ``write``, so
    rows from a generator never hold the whole file in memory.

    The rows go to the side file ``.<name>.partial`` (see ``_open_side``):
    the existing output renamed there, a side file a killed run left, or a
    new one.  They are written from its start without truncating it, the
    file is cut at their end and renamed onto ``path``.  An output that
    exists but is not a regular file (a FIFO, a device, a symlink, whose
    target is written) is opened and truncated as ``open(path, "wb")`` does,
    and so is any output whose side file cannot be renamed or opened.

    If a write fails or is interrupted, the exception propagates unchanged
    and no output is left: the side file is removed, or the output itself
    when it was opened directly and is a regular file.  A FIFO or device is
    left in place.
    """
    items = chain([",".join(csv_fields(header))], lines)
    side = _open_side(path)
    if side is None:
        with open(path, "wb") as out:
            try:
                _write_lines(out.write, items)
            except BaseException:
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                    os.unlink(path)
                raise
        return
    out, side_path = side
    try:
        with out:
            _write_lines(out.write, items)
            out.truncate()
        os.replace(side_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(side_path)
        raise


def _open_side(path):
    """The side file of ``path`` open for writing from its start, and its name.

    The side file is ``.<name>.partial`` in the output's directory.  An
    output that is a regular file is renamed onto it, which keeps the
    file's inode; an absent output reuses a side file a killed run left, or
    creates one.  None, with nothing renamed, when the output exists but
    is not a regular file (checked without following a symlink) or the
    rename fails; None also when the side file cannot be opened or is not
    a regular file.
    """
    head, name = os.path.split(os.fspath(path))
    side = os.path.join(head, f".{name}.partial")
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return None
        os.rename(path, side)
    except FileNotFoundError:
        pass  # no output: write a new side file, or the one a killed run left
    except OSError:
        return None
    try:
        fd = os.open(side, os.O_RDWR | os.O_CREAT | os.O_NOFOLLOW, 0o666)
    except OSError:
        return None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        return None
    return open(fd, "wb"), side


def _write_lines(write, lines: Iterable[str]) -> None:
    """Each item, one line or several CRLF-joined ones, CRLF-terminated and
    UTF-8 encoded; items go out together once they hold
    ``_CSV_CHARS_PER_WRITE`` characters."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= _CSV_CHARS_PER_WRITE:
            write("\r\n".join([*chunk, ""]).encode("utf-8"))
            chunk, size = [], 0
    if chunk:
        write("\r\n".join([*chunk, ""]).encode("utf-8"))
