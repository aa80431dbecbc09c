"""Half-witness sparse cube families and the quadratic sparse form.

A family of dyadic cubes is *1/2-sparse* when each cube ``Q`` owns a witness
cell set ``E_Q ⊆ Q`` with ``|E_Q| > |Q|/2`` (strict) and the witnesses are
pairwise disjoint.  Disjoint witnesses partition part of the grid, so a
family stores them as one owner array: ``owner[k]`` is the position of the
cube whose witness holds cell ``k``, or -1.  The builders and the proof
tracer derive witnesses by one rule, :func:`paint_owner`: a cell belongs to
its deepest family cube.  A family is built by :func:`stopping_family`, or
read from JSON by :meth:`SparseFamily.from_json`:

* :func:`stopping_family` — stopping-time selection on a heap of nonnegative
  cube totals: a child cube stops when its average strictly exceeds ``ratio``
  times the average over the most recent stopping ancestor; witnesses are the
  stopping cubes minus their maximal stopping descendants. For ``ratio ≥ 2``
  the mass argument guarantees validity; the builder runs
  :func:`verify_sparsity` on its family all the same.  :func:`build_sparse_cz`
  runs it on a density, the tracer on ``|fσ|^{p0}``.
* :meth:`SparseFamily.from_json` — cubes and witness cell ranges as written
  by :meth:`SparseFamily.to_json`; overlapping witnesses are refused, and
  :func:`verify_sparsity` checks the rest.

Either way a family that is not 1/2-sparse raises one error,
:class:`~weightlab.errors.SparsityViolationError`, naming the first violation.
The check and the JSON writer read the owner array as its maximal runs of one
owner: one comparison pass over the cells, then arrays the size of the run
count, not of the grid.  A negative density cell, a ratio ``≤ 1``, an owner
entry outside ``[-1, len)`` or family JSON that is not a list of cube objects
raises :class:`~weightlab.errors.ConfigError`, which is also a ``ValueError``.

The quadratic form of interest is
``Σ_Q ⟨|f|⟩_{p0,Q}² · ⟨|g|⟩_{q0*,Q} · |Q|`` for two per-cell vectors — evaluated
with exact per-cube moments, over any cube collection (validity of the
collection is the caller's concern; the form itself is just a positive sum).
The proof tracer forms its weighted g-side ``⟨1_{G'}w⟩_{q0*,Q}`` itself, from
the weight's moment store.

Every kernel here addresses cubes by heap id (see :mod:`weightlab.grid`), so
it gathers per-cube quantities from pyramids instead of looping over cubes,
and a cube below the grid raises :class:`~weightlab.errors.LevelOverflowError`.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SparsityViolationError, SubsetError, WeightlabError
from .grid import (
    DyadicCube, DyadicGrid, cube_ids, heap_levels, id_cell_ranges, id_cubes, split_ids, tree_totals,
)
from .profiles import ExponentProfile


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
        if owner.ndim != 1 or owner.size and not -1 <= owner.min() <= owner.max() < ids.size:
            raise ConfigError("owner entries must be -1 or positions in cubes")
        ids.setflags(write=False)
        owner.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "owner", owner)

    def __len__(self) -> int:
        return int(self.ids.size)

    def to_jsonable(self) -> List[dict]:
        ranges: List[List[List[int]]] = [[] for _ in range(len(self))]
        for start, stop, pos in zip(*(a.tolist() for a in _owner_runs(self.owner))):
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
        :class:`SparsityViolationError` at the first shared cell found.

        Entries are read in file order, and the first bad one stops the read;
        the ranges read before it are then checked for overlap, so errors
        come in file order.  A missing key, or a field that is not an integer (a float,
        a bool or a string), raises :class:`ConfigError` naming the expected layout.
        """
        ids: List[int] = []
        ranges: List[int] = []  # start, stop and position of each witness range
        failure: Optional[Exception] = None
        try:
            for pos, entry in enumerate(list(data)):
                level, index = entry["level"], entry["index"]
                # plain ints skip _json_int: a call per field slowed the read by 25 %
                if type(level) is not int or type(index) is not int:
                    level, index = _json_int(level), _json_int(index)
                if level < 0 or index < 0 or index >> level:
                    DyadicCube(level, index)  # raises, naming the bad field
                # past level 63 the id overflows int64 either way; 2**level is never formed
                ids.append((1 << min(level, 64)) - 1 + index)
                for start, stop in entry["witness"]:
                    if not 0 <= start <= stop <= grid.n_cells:
                        raise SubsetError(
                            f"cell range [{start}, {stop}) outside grid of "
                            f"{grid.n_cells} cells"
                        )
                    if type(start) is not int or type(stop) is not int:
                        start, stop = _json_int(start), _json_int(stop)
                    ranges += start, stop, pos
        except (TypeError, KeyError, ValueError, OverflowError, SubsetError) as exc:
            failure = exc
        start, stop, pos = np.array(ranges, dtype=np.int64).reshape(-1, 3).T
        del ranges
        owner = _paint_ranges(start, stop, pos, grid.n_cells)
        if owner is None:
            raise _first_overlap(start, stop, pos, grid.n_cells)
        if isinstance(failure, WeightlabError):  # a bad cube or witness range, named
            raise failure
        if failure is not None:  # a missing key, a field not an integer, a witness not a pair
            raise ConfigError(
                "family JSON must be a list of objects with "
                "'level', 'index', and 'witness' keys"
            ) from failure
        return cls(ids, owner)

    @classmethod
    def from_json(cls, text: str, grid: DyadicGrid) -> "SparseFamily":
        return cls.from_jsonable(json.loads(text), grid)


def _json_int(value: object) -> int:
    """An integer field of family JSON: a bool, a float or a string raises ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer field")
    return operator.index(value)


def _paint_ranges(
    start: np.ndarray, stop: np.ndarray, pos: np.ndarray, n_cells: int
) -> Optional[np.ndarray]:
    """Owner array of cell ranges ``[start, stop)`` held by positions ``pos``,
    or None when two positions share a cell.

    Sorted by start, the non-empty ranges merge into runs of overlapping
    ranges; two positions share a cell exactly when they meet in one run.
    """
    kept = np.flatnonzero(start < stop)
    order = kept[np.argsort(start[kept])]
    start, stop, pos = start[order], stop[order], pos[order]
    owner = np.zeros(n_cells + 1, dtype=np.int32)  # position + 1, differenced
    if start.size:
        reach = np.maximum.accumulate(stop)
        heads = np.flatnonzero(np.concatenate(([True], start[1:] >= reach[:-1])))
        run_pos = np.minimum.reduceat(pos, heads)
        if np.any(np.maximum.reduceat(pos, heads) != run_pos):
            return None
        owner[start[heads]] += run_pos + 1
        owner[reach[np.append(heads[1:], start.size) - 1]] -= run_pos + 1
    np.cumsum(owner, out=owner)
    owner -= 1
    return owner[:-1]


def _first_overlap(
    start: np.ndarray, stop: np.ndarray, pos: np.ndarray, n_cells: int
) -> SparsityViolationError:
    """The overlap error of the first range that shares a cell with an
    earlier range of another position, found by bisecting on the prefix."""
    lo, hi = 0, start.size  # the ranges before lo paint; those up to hi do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _paint_ranges(start[:mid], stop[:mid], pos[:mid], n_cells) is None:
            hi = mid
        else:
            lo = mid
    owner = _paint_ranges(start[:lo], stop[:lo], pos[:lo], n_cells)
    cells = owner[start[lo] : stop[lo]]
    taken = (cells >= 0) & (cells != pos[lo])
    return SparsityViolationError(f"witnesses overlap at cell {start[lo] + int(taken.argmax())}")


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


def _owner_runs(owner: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, stop, position)`` of the maximal runs ``[start, stop)`` of one
    owner, in cell order; runs of no owner (-1) are left out."""
    edges = np.flatnonzero(owner[1:] != owner[:-1]) + 1
    start = np.concatenate(([0], edges))
    stop = np.concatenate((edges, [owner.size]))
    pos = owner[start]
    kept = pos >= 0
    return start[kept], stop[kept], pos[kept]


def verify_sparsity(family: SparseFamily, grid: DyadicGrid) -> None:
    """Exact check of witness containment and strict half measure on the owner
    array's runs (disjointness holds by its construction): raises
    :class:`SparsityViolationError` for the first failing cube in family order,
    and :class:`~weightlab.errors.LevelOverflowError` for a cube below the grid."""
    if family.owner.size != grid.n_cells:
        raise SparsityViolationError("witnesses sized for a different grid")
    cube_start, cube_stop = id_cell_ranges(cube_ids(family.ids, grid), grid.depth)
    start, stop, pos = _owner_runs(family.owner)
    leaves = np.zeros(len(family), dtype=bool)
    leaves[pos[(start < cube_start[pos]) | (stop > cube_stop[pos])]] = True
    sizes = np.bincount(pos, weights=stop - start, minlength=len(family)).astype(np.int64)
    extent = cube_stop - cube_start
    failing = np.flatnonzero(leaves | (2 * sizes <= extent))
    if failing.size == 0:
        return
    first = int(failing[0])
    cube = id_cubes(family.ids[first : first + 1])[0]
    if leaves[first]:
        raise SparsityViolationError(f"witness of {cube} leaves the cube")
    raise SparsityViolationError(
        f"witness of {cube} has measure {sizes[first]}/{extent[first]}"
        " of the cube (strictly more than half is required)"
    )


def build_sparse_cz(
    f: Sequence[float] | np.ndarray, grid: DyadicGrid, ratio: float = 2.0
) -> SparseFamily:
    """:func:`stopping_family` of a nonnegative density's tree of cell totals."""
    values = grid.check_values(f)
    if np.any(values < 0.0):
        raise ConfigError("stopping-time construction needs nonnegative cell values")
    with np.errstate(over="ignore"):  # a root total past the double range is refused
        return stopping_family(tree_totals(grid, values), grid, ratio)


def stopping_family(totals: np.ndarray, grid: DyadicGrid, ratio: float = 2.0) -> SparseFamily:
    """Stopping-time family of a grid's heap of nonnegative cube totals, its root finite and
    positive: a child whose average first strictly exceeds ``ratio`` times the last stopping
    ancestor's stops and owns its cells outside deeper stopping cubes.  Its total is compared
    with its share of that ancestor's total, so ``totals`` is only read and no power-of-two
    scale of it changes a decision.  A ``ratio ≤ 1`` or a non-finite root raises
    :class:`ConfigError`; a zero root, or a family that :func:`verify_sparsity` finds not
    1/2-sparse (``ratio`` near 1), raises :class:`SparsityViolationError`."""
    if not ratio > 1.0:
        raise ConfigError(f"stopping ratio must be > 1, got {ratio}")
    if not 0.0 < totals[0] < math.inf:  # bounds every total, as they are nonnegative
        raise (SparsityViolationError("density is identically zero") if totals[0] == 0.0
               else ConfigError(f"the root total must be finite and positive, got {totals[0]}"))
    # level by level: each cube's share of its most recent stopping ancestor's total
    stops = np.zeros(totals.size, dtype=bool)  # by heap id; the root always stops
    stops[0] = True
    anchor = totals[:1]
    for tot, stop in zip(heap_levels(totals)[1:], heap_levels(stops)[1:]):
        anchor = np.repeat(anchor, 2)
        anchor *= 0.5  # a child's share, exact above the subnormal range
        np.greater(tot, ratio * anchor, out=stop)
        np.copyto(anchor, tot, where=stop)
    del anchor  # before the family is painted
    ids = np.flatnonzero(stops)
    family = SparseFamily(ids, paint_owner(ids, grid))
    verify_sparsity(family, grid)
    return family


def sparse_form(
    f: Sequence[float] | np.ndarray,
    g: Sequence[float] | np.ndarray,
    profile: ExponentProfile,
    cubes: Sequence[DyadicCube] | np.ndarray | SparseFamily,
    grid: DyadicGrid,
) -> float:
    """``Σ_Q ⟨|f|⟩_{p0,Q}² ⟨|g|⟩_{q0*,Q} |Q|`` with exact per-cube moments of
    the per-cell vectors ``f`` and ``g``.

    The cube collection may be any sequence of cubes or heap ids; a
    :class:`SparseFamily` passes its own.  A value past the double range
    raises :class:`ConfigError`.
    """
    ids = cube_ids(cubes.ids if isinstance(cubes, SparseFamily) else cubes, grid)
    levels = split_ids(ids)[0]
    scale = np.ldexp(1.0, levels)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        f_moments = np.abs(grid.check_values(f)) ** profile.p0 * grid.cell_measure
        f_avg = (tree_totals(grid, f_moments)[ids] * scale) ** (1.0 / profile.p0)
        g_moments = np.abs(grid.check_values(g)) ** profile.q0_star * grid.cell_measure
        g_avg = (tree_totals(grid, g_moments)[ids] * scale) ** (1.0 / profile.q0_star)
        terms = f_avg * f_avg * g_avg * np.ldexp(1.0, -levels)
    try:
        value = math.fsum(terms.tolist())
    except OverflowError:  # finite terms whose sum passes the double range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"the sparse form of f and g leaves the double range (got {value})")
    return value
