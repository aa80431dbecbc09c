"""Deterministic JSON/CSV emission.

JSON is rendered with sorted keys and two-space indentation; floats keep
Python's shortest round-trip representation.  CSV files open with the
versioned header comment ``# weightlab-csv v1`` so downstream parsers can
pin the schema.  A CSV field is ``str`` of its Python value, so a float64
is its shortest round-trip repr (``nan``, ``inf`` and ``-inf`` included),
and no field is quoted.

Output goes to stdout when no path is given.  A path only ever holds a
complete file: the text goes to a temporary file beside it, which replaces
the path once everything is written and is removed if the run fails first.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

CSV_HEADER = "# weightlab-csv v1"
CSV_CHUNK_ROWS = 1 << 10  # rows formatted per write, which bounds the string memory


def dump_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[IO[str]]:
    """A text stream for ``path``; devices such as /dev/null are written in place."""
    if path is None:
        yield sys.stdout  # looked up at call time, so redirection works
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    real = os.path.realpath(path)  # a symlink keeps pointing at the file it names
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        exc.filename = path  # name the target, not the temporary file
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    with _output(path) as fh:
        fh.write(text)


def _fields(value: object, start: int, stop: int) -> list:
    """Rows ``start:stop`` of one block entry, as strings."""
    if isinstance(value, np.ndarray):
        return list(map(str, value[start:stop].tolist()))
    if isinstance(value, (list, tuple)):
        return list(map(str, value[start:stop]))
    return [str(value)] * (stop - start)


def write_csv(
    columns: Sequence[str], blocks: Iterable[Sequence[object]], path: Optional[str]
) -> int:
    """Write the header, then each block as it arrives; returns the row count.

    A block holds one entry per column: a 1-D array, list or tuple of that
    block's rows, or a scalar repeated down them (a block of scalars is one
    row).  ``path`` is opened before the first block is drawn.
    """
    rows = 0
    with _output(path) as fh:
        fh.write(f"{CSV_HEADER}\n{','.join(columns)}\n")
        for block in blocks:
            sizes = {len(v) for v in block if isinstance(v, (np.ndarray, list, tuple))}
            if len(block) != len(columns) or len(sizes) > 1:
                raise ValueError(f"a CSV block needs {len(columns)} entries of one length")
            n = sizes.pop() if sizes else 1
            for start in range(0, n, CSV_CHUNK_ROWS):
                stop = min(n, start + CSV_CHUNK_ROWS)
                fields = [_fields(value, start, stop) for value in block]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
            rows += n
    return rows
