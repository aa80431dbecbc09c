"""Dyadic addressing and tree aggregation on [0, 1).

The carrier is a dyadic grid of depth ``L``: the finest level has ``N = 2**L``
half-open cells ``[i/N, (i+1)/N)``. A :class:`DyadicCube` addresses the
interval ``[index * 2**-level, (index + 1) * 2**-level)`` for any
``0 <= level <= L``; inside the family kernels it is one int64 *heap id*
``2**level - 1 + index`` (:func:`cube_ids`), an encoding only this module
knows.  Per-cube data is one *heap* indexed by heap id, each level a view
(:func:`heap_levels`); a set of finest cells is a boolean mask (:meth:`DyadicGrid.check_mask`).
Every per-cube scan reads the one level walk, :func:`level_blocks`, a block at a time.

Aggregation follows a fixed left-to-right pairwise tree order (each parent total
is ``left + right``, in a heap or in place: :func:`level_sums`), which makes
every derived average bit-stable across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LevelOverflowError, WrongLengthError


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Half-open dyadic interval ``[index * 2**-level, (index+1) * 2**-level)``."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"cube level must be >= 0, got {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(
                f"cube index must lie in [0, 2**{self.level}), got {self.index}"
            )

    @property
    def heap_id(self) -> int:
        """Position ``2**level - 1 + index`` in an array indexed by heap id."""
        return (1 << self.level) - 1 + self.index

    @property
    def measure(self) -> float:
        """Lebesgue measure |Q| = 2**-level (exact float for level <= 1074)."""
        return 2.0 ** (-self.level)

    def interval(self) -> Tuple[float, float]:
        """Endpoints (a, b) of the half-open interval; exact dyadic floats."""
        width = 2.0 ** (-self.level)
        return self.index * width, (self.index + 1) * width

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise LevelOverflowError("the root cube has no parent")
        return DyadicCube(self.level - 1, self.index >> 1)

    def children(self, depth: int) -> Tuple["DyadicCube", "DyadicCube"]:
        """The two halves of this cube; errors at the finest level ``depth``."""
        if self.level >= depth:
            raise LevelOverflowError(
                f"cube at level {self.level} has no children within depth {depth}"
            )
        return (
            DyadicCube(self.level + 1, 2 * self.index),
            DyadicCube(self.level + 1, 2 * self.index + 1),
        )

    def contains(self, other: "DyadicCube") -> bool:
        """Set containment other ⊆ self (true when other refines self)."""
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def cell_range(self, depth: int) -> Tuple[int, int]:
        """Half-open range [start, stop) of finest-cell indices at grid depth."""
        if self.level > depth:
            raise LevelOverflowError(
                f"cube level {self.level} exceeds grid depth {depth}"
            )
        shift = depth - self.level
        return self.index << shift, (self.index + 1) << shift


@dataclass(frozen=True)
class DyadicGrid:
    """Finite dyadic grid on [0, 1): finest level ``depth``, ``2**depth`` cells."""

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"grid depth must be >= 1, got {self.depth}")

    @property
    def n_cells(self) -> int:
        return 1 << self.depth

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.depth)

    @property
    def cube_count(self) -> int:
        """Number of dyadic cubes with level <= depth: 2**(depth+1) - 1."""
        return (1 << (self.depth + 1)) - 1

    def cubes(self) -> Iterator[DyadicCube]:
        """All cubes in deterministic (level, index) order, coarse to fine."""
        for level in range(self.depth + 1):
            for index in range(1 << level):
                yield DyadicCube(level, index)

    def root(self) -> DyadicCube:
        return DyadicCube(0, 0)

    def check_values(self, values: Sequence[float] | np.ndarray) -> np.ndarray:
        """Validate and return a float64 per-cell vector of length 2**depth."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.n_cells,):
            raise WrongLengthError(
                f"expected {self.n_cells} per-cell values, got shape {arr.shape}"
            )
        return arr

    def check_mask(self, mask: Sequence[bool] | np.ndarray) -> np.ndarray:
        """Validate and return a per-cell mask of length 2**depth, cast to bool."""
        arr = np.asarray(mask, dtype=bool)
        if arr.shape != (self.n_cells,):
            raise WrongLengthError(f"expected {self.n_cells} mask cells, got shape {arr.shape}")
        return arr


def tree_totals(grid: DyadicGrid, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Per-cube totals for every cube of the grid, by pairwise tree reduction.

    Returns a ``float64[2N - 1]`` heap holding at heap id ``2**k - 1 + i`` the
    sum of ``values`` over the finest cells of cube ``(k, i)``; the finest
    level is a copy of the input and each coarser level is reduced in place
    from child pairs (fixed left-to-right order, hence deterministic and
    exactly additive).
    """
    heap = np.empty(grid.cube_count, dtype=np.float64)
    heap_levels(heap)[-1][...] = grid.check_values(values)
    return sum_pairs(heap)


def sum_pairs(heap: np.ndarray) -> np.ndarray:
    """Fill a heap's coarser levels from its finest one, in place, child pair by pair."""
    levels = heap_levels(heap)
    for parent, child in zip(levels[-2::-1], levels[:0:-1]):
        _add_pairs(child, parent)
    return heap


def _add_pairs(child: np.ndarray, parent: np.ndarray) -> None:
    """``parent[i] = child[2i] + child[2i+1]``: the one summation order of every tree of totals."""
    np.add(child[0::2], child[1::2], out=parent)


def to_averages(heap: np.ndarray) -> np.ndarray:
    """Turn a heap of cube totals into cube averages in place (level ``k``
    times ``2**k``, exact) and return it."""
    for level, view in enumerate(heap_levels(heap)):
        view *= float(1 << level)
    return heap


# --- heap ids: sorting them sorts by (level, index), and a parent is (id - 1) >> 1 ----


def cube_ids(
    cubes: Sequence[DyadicCube] | np.ndarray, grid: Optional[DyadicGrid] = None
) -> np.ndarray:
    """Heap ids of a :class:`DyadicCube` sequence or an int array, as int64 in
    the same order.  With ``grid`` given, a cube below it raises
    :class:`LevelOverflowError`."""
    if not isinstance(cubes, np.ndarray):
        cubes = list(cubes)
        if cubes and isinstance(cubes[0], DyadicCube):
            cubes = [c.heap_id for c in cubes]
    try:
        ids = np.asarray(cubes, dtype=np.int64)
    except OverflowError:
        raise LevelOverflowError("cube too deep for an int64 heap id") from None
    if ids.size and ids.min() < 0:
        raise ValueError(f"heap ids must be >= 0, got {int(ids.min())}")
    if grid is not None and ids.size and ids.max() >= grid.cube_count:
        level = split_ids(ids[ids >= grid.cube_count][:1])[0][0]
        raise LevelOverflowError(f"cube level {level} exceeds grid depth {grid.depth}")
    return ids


def split_ids(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(levels, indices)`` of heap ids; the level is exact, as
    ``2**level <= id + 1 < 2**(level + 1)``."""
    levels = np.frexp(ids + 1)[1].astype(np.int64) - 1
    return levels, ids + 1 - np.left_shift(1, levels)


def id_cubes(ids: np.ndarray) -> List[DyadicCube]:
    """The :class:`DyadicCube` of each heap id, for the edges only."""
    levels, indices = split_ids(np.asarray(ids, dtype=np.int64))
    return [DyadicCube(k, i) for k, i in zip(levels.tolist(), indices.tolist())]


def id_cell_ranges(ids: np.ndarray, depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open finest-cell ranges ``[start, stop)`` of heap ids at ``depth``."""
    levels, indices = split_ids(ids)
    shift = depth - levels
    return indices << shift, (indices + 1) << shift


def ancestor_hits(ids: np.ndarray) -> Iterator[np.ndarray]:
    """Walk ascending, duplicate-free heap ids up the tree a generation a step.

    Step ``u`` yields the mask ``hit``: ``hit[j]`` says whether the cube ``u``
    levels above cube ``j`` is in the set.  At most ``L`` steps of one binary
    search per cube: ``O(n·L)`` searches.
    """
    if ids.size == 0:
        return
    up = ids
    for _ in range(int(split_ids(ids[-1:])[0][0])):
        up = (up - 1) >> 1  # the root's parent is -1, which never hits
        pos = np.minimum(np.searchsorted(ids, up), ids.size - 1)
        yield ids[pos] == up


def ancestor_max(heap: np.ndarray) -> np.ndarray:
    """Per finest cell, the largest value of a per-cube heap over the cell's
    ancestors, taken top-down one level at a time."""
    levels = heap_levels(heap)
    m = levels[0]
    for vals in levels[1:]:
        m = np.maximum(np.repeat(m, 2), vals)
    return m


def heap_levels(heap: np.ndarray) -> List[np.ndarray]:
    """The per-level views of an array indexed by heap id, coarse to fine."""
    depth = (heap.size + 1).bit_length() - 2
    return [heap[(1 << k) - 1 : (2 << k) - 1] for k in range(depth + 1)]


# cubes per block of a level walk (a block buffer is 128 KiB).  At L = 20 on a 2-core
# Xeon, the walks took about 1.6x as long in blocks of 2**12 and were within 10 % in
# blocks of 2**16, which take four times the scratch
BLOCK = 1 << 14
_Blocks = Tuple[int, int, Tuple[np.ndarray, ...]]  # (level, first cube's index, source blocks)


def _blocks(size: int) -> Iterator[slice]:
    """The slices of at most :data:`BLOCK` cubes that tile a level of ``size`` cubes, in order."""
    return (slice(i, min(i + BLOCK, size)) for i in range(0, size, BLOCK))


def level_sums(totals: np.ndarray) -> Iterator[np.ndarray]:
    """The levels of tree totals over a finest level ``totals``, fine to coarse, each
    reduced in place over the last: ``left + right`` a block of parents at a time."""
    yield totals
    while totals.size > 1:
        for at in _blocks(totals.size // 2):  # a block's parents sit before its unread children
            _add_pairs(totals[2 * at.start : 2 * at.stop], totals[at])
        totals = totals[: totals.size // 2]
        yield totals


def level_blocks(grid: DyadicGrid, levels: Iterable[Tuple[np.ndarray, ...]]) -> Iterator[_Blocks]:
    """``(level, first index, averages)`` a block of at most :data:`BLOCK` cubes at a time over
    tuples of same-level totals, in their order: each source's totals times ``2**level``, formed
    in one reused buffer per source."""
    buffers: List[np.ndarray] = []
    for sources in levels:
        n = sources[0].size
        buffers = buffers or [np.empty(min(BLOCK, grid.n_cells)) for _ in sources]
        for at in _blocks(n):
            averages = (np.multiply(src[at], float(n), out=buf[: at.stop - at.start])
                        for src, buf in zip(sources, buffers))
            yield n.bit_length() - 1, at.start, tuple(averages)
