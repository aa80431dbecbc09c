"""Half-witness sparse cube families and the quadratic sparse form.

A family of dyadic cubes is *1/2-sparse* when each cube ``Q`` owns a witness
cell set ``E_Q ⊆ Q`` with ``|E_Q| > |Q|/2`` (strict) and the witnesses are
pairwise disjoint.  Disjoint witnesses partition part of the grid, so a
family stores them as one owner array: ``owner[k]`` is the position of the
cube whose witness holds cell ``k``, or -1.  The builders and the proof
tracer derive witnesses by one rule, :func:`paint_owner`: a cell belongs to
its deepest family cube.  Construction routes:

* :func:`build_sparse_random` — seeded top-down selection; a selected cube
  claims every not-yet-claimed cell inside it provided those are strictly
  more than half of it, else it is dropped (so the result is always valid).
* :func:`build_sparse_cz` — stopping-time selection driven by a nonnegative
  density: a child cube stops when its average strictly exceeds ``ratio``
  times the average over the most recent stopping ancestor; witnesses are the
  stopping cubes minus their maximal stopping descendants. For ``ratio ≥ 2``
  the mass argument guarantees validity; the builder verifies and raises
  otherwise.

The quadratic form of interest is
``Σ_Q ⟨|f|⟩_{p0,Q}² · ⟨|g|⟩_{q0*,Q} · |Q|`` — evaluated with exact per-cube
moments, over any cube collection (validity of the collection is the
caller's concern; the form itself is just a positive sum).

Every kernel here addresses cubes by heap id (see :mod:`weightlab.grid`), so
it gathers per-cube quantities from pyramids instead of looping over cubes,
and a cube below the grid raises :class:`~weightlab.errors.LevelOverflowError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import SparsityViolationError, SubsetError
from .grid import (
    CellSet, DyadicCube, DyadicGrid, ancestor_hits, cube_ids, cube_totals, id_cell_ranges,
    id_cubes, level_ids, split_ids, tree_totals,
)
from .profiles import ExponentProfile
from .weights import Weight, masked_moment_cells


@dataclass(frozen=True)
class SparseFamily:
    """Cube collection, as heap ids in family order, with its witnesses held
    in one owner array.

    ``owner[k]`` is the position in ``ids`` of the cube whose witness holds
    finest cell ``k``, or -1 when no witness does, so the witnesses are
    pairwise disjoint by construction.  The constructor also takes a
    :class:`DyadicCube` sequence; both arrays are read-only.
    """

    ids: np.ndarray
    owner: np.ndarray

    def __post_init__(self) -> None:
        ids = np.array(cube_ids(self.ids))  # the family's own copies
        owner = np.array(self.owner, dtype=np.int32)
        if owner.ndim != 1 or np.any((owner < -1) | (owner >= ids.size)):
            raise ValueError("owner entries must be -1 or positions in cubes")
        ids.setflags(write=False)
        owner.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "owner", owner)

    @property
    def cubes(self) -> Tuple[DyadicCube, ...]:
        return tuple(id_cubes(self.ids))

    def witness(self, cube: DyadicCube) -> CellSet:
        pos = np.flatnonzero(self.ids == cube_ids([cube])[0])
        if pos.size == 0:
            raise KeyError(f"cube {cube} not in family")
        return CellSet(self.owner == pos[0])

    def witness_sizes(self) -> np.ndarray:
        """Cell count of every witness, in family order."""
        return np.bincount(self.owner[self.owner >= 0], minlength=len(self))

    def __len__(self) -> int:
        return int(self.ids.size)

    def to_jsonable(self) -> List[dict]:
        # maximal runs of one owner, grouped by owner in cell order
        owner = self.owner
        edges = np.flatnonzero(owner[1:] != owner[:-1]) + 1
        starts = np.concatenate(([0], edges)).tolist()
        stops = np.concatenate((edges, [owner.size])).tolist()
        ranges: List[List[List[int]]] = [[] for _ in range(len(self))]
        for pos, start, stop in zip(owner[starts].tolist(), starts, stops):
            if pos >= 0:
                ranges[pos].append([start, stop])
        levels, indices = split_ids(self.ids)
        return [
            {"level": k, "index": i, "witness": r}
            for k, i, r in zip(levels.tolist(), indices.tolist(), ranges)
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @classmethod
    def from_jsonable(cls, data: Sequence[dict], grid: DyadicGrid) -> "SparseFamily":
        """Load cubes and witness cell ranges; overlapping witnesses raise
        :class:`SparsityViolationError` at the first shared cell found."""
        cubes = []
        owner = np.full(grid.n_cells, -1, dtype=np.int32)
        try:
            entries = list(data)
            for pos, entry in enumerate(entries):
                cubes.append(DyadicCube(int(entry["level"]), int(entry["index"])))
                for start, stop in entry["witness"]:
                    if not 0 <= start <= stop <= grid.n_cells:
                        raise SubsetError(
                            f"cell range [{start}, {stop}) outside grid of "
                            f"{grid.n_cells} cells"
                        )
                    cells = owner[start:stop]
                    taken = (cells >= 0) & (cells != pos)
                    if taken.any():
                        raise SparsityViolationError(
                            f"witnesses overlap at cell {start + int(taken.argmax())}"
                        )
                    cells[:] = pos
        except (TypeError, KeyError) as exc:
            raise ValueError(
                "family JSON must be a list of objects with "
                "'level', 'index', and 'witness' keys"
            ) from exc
        return cls(cubes, owner)

    @classmethod
    def from_json(cls, text: str, grid: DyadicGrid) -> "SparseFamily":
        return cls.from_jsonable(json.loads(text), grid)


def paint_owner(cubes: Sequence[DyadicCube] | np.ndarray, grid: DyadicGrid) -> np.ndarray:
    """Owner array giving every cell to its deepest cube of ``cubes`` (-1 when
    none contains it): cubes are painted coarse to fine over their whole cell
    ranges, one level at a time.  A cube listed twice keeps only its later
    position."""
    ids = cube_ids(cubes, grid)
    # np.unique keeps the first occurrence, so run it on the reversed ids
    unique, first = np.unique(ids[::-1], return_index=True)
    last = (ids.size - 1 - first).astype(np.int32)
    levels, indices = split_ids(unique)
    owner = np.full(grid.n_cells, -1, dtype=np.int32)
    for level in np.unique(levels).tolist():
        at = levels == level
        owner.reshape(1 << level, -1)[indices[at]] = last[at, None]
    return owner


def _painted_family(ids: np.ndarray, grid: DyadicGrid) -> SparseFamily:
    """Family with the deepest-cube witnesses; raises unless it is 1/2-sparse."""
    family = SparseFamily(ids, paint_owner(ids, grid))
    report = verify_sparsity(family, grid)
    if not report.ok:
        raise SparsityViolationError(report.first_violation or "invalid family")
    return family


@dataclass(frozen=True)
class SparsityReport:
    ok: bool
    first_violation: Optional[str] = None


def verify_sparsity(family: SparseFamily, grid: DyadicGrid) -> SparsityReport:
    """Exact check: witness containment and strict half measure, reported for
    the first failing cube in family order (disjointness holds by
    construction of the owner array)."""
    if family.owner.size != grid.n_cells:
        return SparsityReport(False, "witnesses sized for a different grid")
    start, stop = id_cell_ranges(cube_ids(family.ids, grid), grid.depth)
    cells = np.flatnonzero(family.owner >= 0)
    pos = family.owner[cells]
    outside = (cells < start[pos]) | (cells >= stop[pos])
    leaves = np.bincount(pos[outside], minlength=len(family)) > 0
    sizes = family.witness_sizes()
    extent = stop - start
    failing = np.flatnonzero(leaves | (2 * sizes <= extent))
    if failing.size == 0:
        return SparsityReport(True, None)
    first = int(failing[0])
    cube = id_cubes(family.ids[first : first + 1])[0]
    if leaves[first]:
        return SparsityReport(False, f"witness of {cube} leaves the cube")
    return SparsityReport(
        False,
        f"witness of {cube} has measure {sizes[first]}/{extent[first]}"
        " of the cube (strictly more than half is required)",
    )


def build_sparse_random(
    grid: DyadicGrid, max_level: int, density: float, seed: int
) -> SparseFamily:
    """Seeded top-down random family; always returns a valid one.

    Cubes of level 0..max_level are visited coarse-to-fine in index order and
    selected with probability ``density``.  A selected cube claims all cells
    inside it that no earlier cube claimed, provided they are strictly more
    than half of it, otherwise it is dropped.  Inside a kept cube no cell is
    left to claim, so a selected cube is kept exactly when no kept cube
    contains it, and its witness is the whole cube.  Each level takes one
    draw of ``2**level`` numbers, the same stream as one draw per cube.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if max_level > grid.depth:
        raise ValueError(f"max_level {max_level} exceeds grid depth {grid.depth}")
    rng = np.random.default_rng(seed)
    covered = np.zeros(1, dtype=bool)  # cubes of the level inside a kept cube
    ids: List[np.ndarray] = []
    for level in range(max_level + 1):
        kept = (rng.random(1 << level) < density) & ~covered
        ids.append(level_ids(level, np.flatnonzero(kept)))
        covered = np.repeat(covered | kept, 2)
    return _painted_family(np.concatenate(ids), grid)  # valid by construction


def build_sparse_cz(
    f: Sequence[float] | np.ndarray, grid: DyadicGrid, ratio: float = 2.0
) -> SparseFamily:
    """Stopping-time family: children whose average first strictly exceeds
    ``ratio`` times the last stopping ancestor's average become stopping cubes.

    The witness of a stopping cube is the cube minus its maximal stopping
    descendants; sparsity is verified and a violation raises (possible when
    ``ratio`` is too close to 1).
    """
    if not ratio > 1.0:
        raise ValueError(f"stopping ratio must be > 1, got {ratio}")
    values = grid.check_values(f)
    if np.any(values < 0.0):
        raise ValueError("stopping-time construction needs nonnegative cell values")
    if not np.any(values > 0.0):
        raise SparsityViolationError("density is identically zero")
    totals = tree_totals(grid, values)

    # level by level: the average of each cube's most recent stopping ancestor
    ids: List[np.ndarray] = [level_ids(0, [0])]
    anchor = totals[0]
    for level in range(1, grid.depth + 1):
        averages = totals[level] * float(1 << level)
        inherited = np.repeat(anchor, 2)
        stops = averages > ratio * inherited
        anchor = np.where(stops, averages, inherited)
        ids.append(level_ids(level, np.flatnonzero(stops)))

    return _painted_family(np.concatenate(ids), grid)


def sparse_form(
    f: Sequence[float] | np.ndarray,
    g: Optional[Sequence[float] | np.ndarray],
    profile: ExponentProfile,
    cubes: Sequence[DyadicCube] | np.ndarray | SparseFamily,
    grid: DyadicGrid,
    g_weight: Optional[Weight] = None,
    g_cells: Optional[CellSet] = None,
) -> float:
    """``Σ_Q ⟨|f|⟩_{p0,Q}² ⟨|g|⟩_{q0*,Q} |Q|`` with exact per-cube moments.

    ``g`` is either a per-cell vector, or — when ``g_weight`` is given — the
    composition ``1_E · w`` with ``E = g_cells`` (default: all of [0,1)).
    The cube collection may be any sequence of cubes or heap ids; a
    :class:`SparseFamily` passes its own.
    """
    p0 = profile.p0
    q = profile.q0_star
    ids = cube_ids(cubes.ids if isinstance(cubes, SparseFamily) else cubes, grid)
    levels = split_ids(ids)[0]
    scale = np.ldexp(1.0, levels)
    f_moments = np.abs(grid.check_values(f)) ** p0 * grid.cell_measure
    f_avg = (cube_totals(tree_totals(grid, f_moments), ids) * scale) ** (1.0 / p0)
    if g_weight is not None:
        g_moments = (
            masked_moment_cells(grid, g_cells, g_weight, q)
            if g_cells is not None
            else g_weight.cell_integrals(grid, q)
        )
    elif g is None:
        raise ValueError("either per-cell g values or a weight must be given")
    else:
        g_moments = np.abs(grid.check_values(g)) ** q * grid.cell_measure
    g_avg = (cube_totals(tree_totals(grid, g_moments), ids) * scale) ** (1.0 / q)
    return math.fsum((f_avg * f_avg * g_avg * np.ldexp(1.0, -levels)).tolist())


def carleson_packing_ok(family: SparseFamily, grid: DyadicGrid) -> bool:
    """Disjoint-witness packing: Σ_{Q ⊆ Q0} |E_Q| ≤ |Q0| for every family cube
    (Lerner–Nazarov, *Intuitive dyadic calculus*, 2019); each |E_Q| is added
    to the family cubes among Q's ancestors, one generation at a time."""
    unique, inverse = np.unique(cube_ids(family.ids, grid), return_inverse=True)
    own = np.zeros(unique.size, dtype=np.int64)
    np.add.at(own, inverse, family.witness_sizes())
    packed = own.copy()
    for hit, pos in ancestor_hits(unique):
        np.add.at(packed, pos[hit], own[hit])
    start, stop = id_cell_ranges(unique, grid.depth)
    return bool(np.all(packed <= stop - start))
