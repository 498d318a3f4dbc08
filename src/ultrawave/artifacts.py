"""CSV artifacts: the bytes every writer in the package shares.

Each file has exactly the bytes a per-row ``csv.writer`` gives: lines end
in CRLF, ids get ``csv``'s minimal quoting (``csv_fields``) and floats are
written with ``repr``.  ``write_csv`` writes a file in one process, in row
order, so its bytes do not depend on the number of CPUs.
"""

from __future__ import annotations

import csv
import os
import stat
from collections.abc import Sequence
from itertools import chain
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

    If a write fails or is interrupted, the exception propagates unchanged,
    and the output is removed when it is a regular file; a FIFO or device
    is left in place.
    """
    with open(path, "wb") as out:
        try:
            _write_lines(out.write, chain([",".join(csv_fields(header))], lines))
        except BaseException:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                os.unlink(path)
            raise


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
