"""Dyadic addressing, tree aggregation, and cell-set arithmetic on [0, 1).

The carrier is a dyadic grid of depth ``L``: the finest level has ``N = 2**L``
half-open cells ``[i/N, (i+1)/N)``. A :class:`DyadicCube` addresses the
interval ``[index * 2**-level, (index + 1) * 2**-level)`` for any
``0 <= level <= L``; inside the family kernels it is one int64 *heap id*
``2**level - 1 + index`` (:func:`cube_ids`), an encoding only this module
knows.  Cell sets are boolean membership vectors over the finest cells, so
Lebesgue measure and set algebra are exact integer arithmetic divided by
``N``.

Aggregation follows a fixed left-to-right pairwise tree order (each parent
total is ``left + right``), which makes every derived average bit-stable
across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LevelOverflowError, SubsetError, WrongLengthError


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


def tree_totals(grid: DyadicGrid, values: Sequence[float] | np.ndarray) -> List[np.ndarray]:
    """Per-cube totals for every cube of the grid, by pairwise tree reduction.

    Returns ``totals`` with ``totals[k][i]`` = sum of ``values`` over the
    finest cells of cube ``(k, i)``; ``totals[depth]`` is the input itself and
    each coarser level is the elementwise sum of child pairs (fixed
    left-to-right order, hence deterministic and exactly additive).
    """
    arr = grid.check_values(values)
    totals: List[np.ndarray] = [arr]
    for _ in range(grid.depth):
        arr = arr[0::2] + arr[1::2]
        totals.append(arr)
    totals.reverse()
    return totals


def cube_total(totals: List[np.ndarray], cube: DyadicCube) -> float:
    """Look up one cube's total in a :func:`tree_totals` pyramid."""
    return float(totals[cube.level][cube.index])


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
            cubes = [(1 << c.level) - 1 + c.index for c in cubes]
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


def level_ids(level: int, indices: np.ndarray) -> np.ndarray:
    """Heap ids of the cubes ``(level, i)`` for ``i`` in ``indices``."""
    return np.asarray(indices, dtype=np.int64) + ((1 << level) - 1)


def id_cubes(ids: np.ndarray) -> List[DyadicCube]:
    """The :class:`DyadicCube` of each heap id, for the edges only."""
    levels, indices = split_ids(np.asarray(ids, dtype=np.int64))
    return [DyadicCube(k, i) for k, i in zip(levels.tolist(), indices.tolist())]


def id_cell_ranges(ids: np.ndarray, depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open finest-cell ranges ``[start, stop)`` of heap ids at ``depth``."""
    levels, indices = split_ids(ids)
    shift = depth - levels
    return indices << shift, (indices + 1) << shift


def ancestor_hits(ids: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Walk ascending, duplicate-free heap ids up the tree a generation a step.

    Step ``u`` yields ``(hit, pos)``: ``hit[j]`` says whether the cube ``u``
    levels above cube ``j`` is in the set, and then it is ``ids[pos[j]]``.
    At most ``L`` steps of one binary search per cube: ``O(n·L)`` searches.
    """
    if ids.size == 0:
        return
    up = ids
    for _ in range(int(split_ids(ids[-1:])[0][0])):
        up = (up - 1) >> 1  # the root's parent is -1, which never hits
        pos = np.minimum(np.searchsorted(ids, up), ids.size - 1)
        yield ids[pos] == up, pos


def cube_totals(totals: List[np.ndarray], ids: np.ndarray) -> np.ndarray:
    """Many cubes' totals in a :func:`tree_totals` pyramid, by heap id."""
    return np.concatenate(totals)[ids]


def heap_levels(heap: np.ndarray) -> List[np.ndarray]:
    """The per-level views of an array indexed by heap id, coarse to fine."""
    depth = (heap.size + 1).bit_length() - 2
    return np.split(heap, (1 << np.arange(1, depth + 1)) - 1)


@dataclass(frozen=True)
class CellSet:
    """Subset of the finest cells, stored as a read-only boolean mask."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def empty(cls, grid: DyadicGrid) -> "CellSet":
        return cls(np.zeros(grid.n_cells, dtype=bool))

    @classmethod
    def full(cls, grid: DyadicGrid) -> "CellSet":
        return cls(np.ones(grid.n_cells, dtype=bool))

    @classmethod
    def from_indices(cls, grid: DyadicGrid, indices: Sequence[int]) -> "CellSet":
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[np.asarray(indices, dtype=np.int64)] = True
        return cls(mask)

    @classmethod
    def from_cube(cls, grid: DyadicGrid, cube: DyadicCube) -> "CellSet":
        start, stop = cube.cell_range(grid.depth)
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[start:stop] = True
        return cls(mask)

    @classmethod
    def from_ranges(cls, grid: DyadicGrid, ranges: Sequence[Sequence[int]]) -> "CellSet":
        """Build from half-open cell-index ranges [[start, stop), ...]."""
        mask = np.zeros(grid.n_cells, dtype=bool)
        for start, stop in ranges:
            if not 0 <= start <= stop <= grid.n_cells:
                raise SubsetError(
                    f"cell range [{start}, {stop}) outside grid of {grid.n_cells} cells"
                )
            mask[start:stop] = True
        return cls(mask)

    def to_ranges(self) -> List[List[int]]:
        """Maximal half-open runs of member cells, as [start, stop) pairs."""
        padded = np.concatenate(([False], self.mask, [False]))
        flips = np.flatnonzero(padded[1:] != padded[:-1])
        return [[int(flips[i]), int(flips[i + 1])] for i in range(0, len(flips), 2)]

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def n_cells(self) -> int:
        return int(self.mask.shape[0])

    def measure(self) -> float:
        """Lebesgue measure = (member cell count) / (total cell count)."""
        return self.cell_count / self.n_cells

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def union(self, other: "CellSet") -> "CellSet":
        return CellSet(self.mask | other.mask)

    def intersect(self, other: "CellSet") -> "CellSet":
        return CellSet(self.mask & other.mask)

    def difference(self, other: "CellSet") -> "CellSet":
        return CellSet(self.mask & ~other.mask)

    def complement(self) -> "CellSet":
        return CellSet(~self.mask)

    def restrict_to_cube(self, grid: DyadicGrid, cube: DyadicCube) -> "CellSet":
        start, stop = cube.cell_range(grid.depth)
        mask = np.zeros_like(self.mask)
        mask[start:stop] = self.mask[start:stop]
        return CellSet(mask)

    def within_cube(self, grid: DyadicGrid, cube: DyadicCube) -> bool:
        start, stop = cube.cell_range(grid.depth)
        outside = self.mask.copy()
        outside[start:stop] = False
        return not bool(outside.any())

    def intersects_cube(self, grid: DyadicGrid, cube: DyadicCube) -> bool:
        start, stop = cube.cell_range(grid.depth)
        return bool(self.mask[start:stop].any())

