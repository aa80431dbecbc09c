"""Dyadic addressing, tree aggregation, and cell-set arithmetic on [0, 1).

The carrier is a dyadic grid of depth ``L``: the finest level has ``N = 2**L``
half-open cells ``[i/N, (i+1)/N)``. A :class:`DyadicCube` addresses the
interval ``[index * 2**-level, (index + 1) * 2**-level)`` for any
``0 <= level <= L``. Cell sets are boolean membership vectors over the finest
cells, so Lebesgue measure and set algebra are exact integer arithmetic
divided by ``N``.

Aggregation follows a fixed left-to-right pairwise tree order (each parent
total is ``left + right``), which makes every derived average bit-stable
across runs and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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

