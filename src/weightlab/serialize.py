"""Deterministic JSON/CSV emission.

JSON is rendered with sorted keys and two-space indentation; floats keep
Python's shortest round-trip representation.  CSV files open with the
versioned header comment ``# weightlab-csv v1`` so downstream parsers can
pin the schema.  A CSV field is ``str`` of its Python value, so a float64
is its shortest round-trip repr (``nan``, ``inf`` and ``-inf`` included),
and no field is quoted.

Output goes to stdout when no path is given.  A path never holds a partial
file: the text goes to a temporary file beside it, which is removed if the
run fails before everything is written.  The temporary file then lands
without being renamed over an existing file, since ext4 (``auto_da_alloc``)
starts flushing a file renamed over another at once, and the next rename
over it waits for that flush: an existing target is first renamed aside to
a private ``.*.tmp`` name, the temporary file takes the freed path, and the
old file is unlinked, or renamed back if that fails.  So the path is
briefly absent between the two renames, and, as nothing is fsynced, a file
written just before a power loss may be lost.
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
        _land(tmp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):  # gone once it has landed
            os.unlink(tmp)
        raise


def _land(tmp: str, real: str) -> None:
    """Rename ``tmp`` to ``real``, moving an existing ``real`` aside first."""
    aside = f"{tmp[:-len('.tmp')]}.old.tmp"
    try:
        os.rename(real, aside)
    except FileNotFoundError:
        os.rename(tmp, real)
        return
    try:
        os.rename(tmp, real)
    except BaseException:
        os.rename(aside, real)
        raise
    os.unlink(aside)


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
