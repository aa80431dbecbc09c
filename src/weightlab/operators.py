"""Dyadic model operators and exact weighted norms.

* :func:`dyadic_square_function` — the martingale square function
  ``Sf(x) = (Σ_{Q ∋ x, 1 ≤ level ≤ L} |⟨f⟩_Q − ⟨f⟩_parent(Q)|²)^{1/2}``;
  it satisfies the exact Plancherel identity
  ``‖Sf‖²_{L²(dx)} = ‖f‖²_{L²(dx)} − ⟨f⟩²`` on the finite grid.
* :func:`maximal_p0` — the dyadic L^{p0}-average maximal function, optionally
  restricted to a given cube collection (0 where no cube covers the point).
* :func:`maximal_weighted` — the maximal function of w-averages
  ``sup_Q (1/w(Q)) ∫_Q |g| w``; its weak (1,1) bound holds with constant 1.
* :func:`weak_lp_norm` / :func:`strong_lp_norm` — exact L^{p,∞}(w) and
  L^p(w) norms of piecewise-constant functions by level-set enumeration (no
  λ grid: the supremum of ``λ·w({|h| ≥ λ})^{1/p}`` over the right-continuous
  tail is attained at the distinct values of |h|).

The abstract restricted-range operator is modeled by this square function;
its (p0, q0) window enters downstream only through the exponents of the
sparse form and the bound formulas, never through the model operator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._parallel import ordered_map
from .grid import CellSet, DyadicCube, DyadicGrid, cube_ids, heap_levels, tree_totals
from .weights import (
    Weight,
    composed_moment_cells,
    dual_weight,
    weighted_l2_norm_sq,
)


def square_function_from_cell_integrals(
    cell_integrals: np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Square function of the function whose exact finest-cell integrals are
    given (signed); useful for compositions like f·σ with non-constant σ."""
    totals = tree_totals(grid, np.asarray(cell_integrals, dtype=np.float64))
    averages = [totals[k] * float(1 << k) for k in range(grid.depth + 1)]
    # sq = Σ of squared jumps along each level-k cube's ancestor chain, top-down
    sq = np.zeros(1, dtype=np.float64)
    for k in range(1, grid.depth + 1):
        d = averages[k] - np.repeat(averages[k - 1], 2)
        sq = np.repeat(sq, 2) + d * d
    return np.sqrt(sq)


def dyadic_square_function(
    f: Sequence[float] | np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Per-cell values of the martingale square function of ``f``."""
    values = grid.check_values(f)
    return square_function_from_cell_integrals(values * grid.cell_measure, grid)


def _level_norm_inputs(
    h: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p: float,
    level: Optional[int],
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Validated exponent, ``|h|`` per level-``level`` cube and those cubes'
    w-masses (``level`` defaults to the finest level)."""
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    if level is None:
        level = grid.depth
    elif not 1 <= level <= grid.depth:
        raise ValueError(f"level must lie in 1..{grid.depth}, got {level}")
    values = np.abs(DyadicGrid(level).check_values(h))
    return p, values, w.pyramid(grid, 1.0)[level]


def strong_lp_norm(
    h: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p: float,
    *,
    level: Optional[int] = None,
) -> float:
    """Exact ``(∫ |h|^p w)^{1/p}`` for ``h`` constant on the cubes of
    ``level`` (default: the finest cells), given one value per such cube."""
    p, values, cellw = _level_norm_inputs(h, w, grid, p, level)
    return float(np.sum(values**p * cellw)) ** (1.0 / p)


def weak_lp_norm(
    h: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p: float,
    *,
    level: Optional[int] = None,
) -> float:
    """Exact ``sup_λ λ · w({|h| ≥ λ})^{1/p}`` by level-set enumeration, for
    ``h`` given as in :func:`strong_lp_norm`."""
    p, values, cellw = _level_norm_inputs(h, w, grid, p, level)
    order = np.argsort(values, kind="stable")[::-1]  # descending |h|
    sorted_vals = values[order]
    tail_measure = np.cumsum(cellw[order])
    # candidate λ = each distinct value of |h|; the tail mass w({|h| ≥ λ}) is
    # the cumulative sum at the end of that value's run
    boundaries = np.flatnonzero(np.diff(np.concatenate((sorted_vals, [-1.0]))) != 0.0)
    lam, tail = sorted_vals[boundaries], tail_measure[boundaries]
    return float(np.max(lam * tail ** (1.0 / p), where=lam > 0.0, initial=0.0))


def _ancestor_max(per_level: List[np.ndarray]) -> np.ndarray:
    """Per finest cell, the largest ``per_level[k][i]`` over the cell's
    ancestors ``(k, i)``, taken top-down one level at a time."""
    m = per_level[0]
    for vals in per_level[1:]:
        m = np.maximum(np.repeat(m, 2), vals)
    return m


def maximal_p0(
    f: Sequence[float] | np.ndarray,
    grid: DyadicGrid,
    p0: float = 1.0,
    restriction: Optional[Sequence[DyadicCube] | np.ndarray] = None,
    weight: Optional[Weight] = None,
) -> np.ndarray:
    """Dyadic maximal function of L^{p0} averages, per finest cell.

    With ``weight`` given, the averaged function is the composition
    ``|f|·weight`` (exact cell moments); with ``restriction`` given, the
    supremum runs only over that cube collection (cubes or heap ids) and is 0
    where no cube covers the cell.
    """
    p0 = float(p0)
    if p0 < 1.0:
        raise ValueError(f"maximal-function exponent must be >= 1, got {p0}")
    if weight is not None:
        moment_cells = composed_moment_cells(grid, f, weight, p0)
    else:
        moment_cells = np.abs(grid.check_values(f)) ** p0 * grid.cell_measure
    totals = tree_totals(grid, moment_cells)
    averages = [totals[k] * float(1 << k) for k in range(grid.depth + 1)]
    if restriction is not None:  # averages are >= 0, so zeroing a cube drops it
        member = np.zeros(grid.cube_count, dtype=bool)
        member[cube_ids(restriction, grid)] = True
        averages = [np.where(m, a, 0.0) for m, a in zip(heap_levels(member), averages)]
    return _ancestor_max(averages) ** (1.0 / p0)


def maximal_weighted(
    g: Sequence[float] | np.ndarray, w: Weight, grid: DyadicGrid
) -> np.ndarray:
    """Weighted maximal function ``sup_{Q ∋ x} (1/w(Q)) ∫_Q |g| w`` per cell."""
    gvals = np.abs(grid.check_values(g))
    den = w.pyramid(grid, 1.0)
    num = tree_totals(grid, gvals * den[grid.depth])
    return _ancestor_max([num[k] / den[k] for k in range(grid.depth + 1)])


# --- test-function corpus ----------------------------------------------------------


@dataclass(frozen=True)
class CorpusFunction:
    """A test function constant on the cubes of level ``depth``: ``cells``
    holds its ``2**depth`` values, on a grid of depth ``grid_depth``."""

    name: str
    depth: int
    cells: np.ndarray
    grid_depth: int

    @property
    def values(self) -> np.ndarray:
        """The dense per-cell vector on the full grid (built on each access)."""
        return np.repeat(self.cells, 1 << (self.grid_depth - self.depth))


def function_corpus(
    grid: DyadicGrid,
    seed: int = 2024,
    n_random: int = 64,
    structured_max_level: int = 6,
) -> List[CorpusFunction]:
    """Versioned test corpus: Haar atoms, cube indicators, seeded noise.

    Haar atoms are L²-normalised (value ±|Q|^{-1/2} on the two halves of a
    cube) for cubes of level ≤ min(structured_max_level, depth−1); indicators
    cover cubes of level ≤ min(structured_max_level, depth); random entries
    are standard normal vectors from a seeded generator.  Each function is
    stored at its natural depth: ``level + 1`` for the atom of a level-``level``
    cube, ``max(level, 1)`` for an indicator and the grid depth for noise.
    """
    out: List[CorpusFunction] = []
    atom_levels = min(structured_max_level, grid.depth - 1)
    for level in range(atom_levels + 1):
        for index in range(1 << level):
            cells = np.zeros(2 << level, dtype=np.float64)
            amp = DyadicCube(level, index).measure ** -0.5
            cells[2 * index] = amp
            cells[2 * index + 1] = -amp
            out.append(CorpusFunction(f"haar[{level},{index}]", level + 1, cells, grid.depth))
    ind_levels = min(structured_max_level, grid.depth)
    for level in range(ind_levels + 1):
        depth = max(level, 1)
        for index in range(1 << level):
            cells = np.zeros(1 << depth, dtype=np.float64)
            start, stop = DyadicCube(level, index).cell_range(depth)
            cells[start:stop] = 1.0
            out.append(CorpusFunction(f"indicator[{level},{index}]", depth, cells, grid.depth))
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        cells = rng.standard_normal(grid.n_cells)
        out.append(CorpusFunction(f"random[{i}]", grid.depth, cells, grid.depth))
    return out


@dataclass(frozen=True)
class OperatorNormRow:
    name: str
    strong_norm: float
    weak_norm_sf: float
    ratio: float


def empirical_weak_operator_norm(
    w: Weight,
    grid: DyadicGrid,
    p: float = 2.0,
    corpus: Optional[List[CorpusFunction]] = None,
) -> Tuple[float, List[OperatorNormRow]]:
    """Largest corpus ratio ‖Sf‖_{L^{p,∞}(w)} / ‖f‖_{L^p(w)} (a lower bound
    on the weak operator norm), with one row per test function.

    Each function is evaluated at its natural depth ``d``: its square
    function is constant on level-``d`` cubes too, so both norms read the
    level-``d`` masses of the weight's pyramid."""
    if corpus is None:
        corpus = function_corpus(grid)

    def evaluate(fn: CorpusFunction) -> OperatorNormRow:
        d = fn.depth
        strong = strong_lp_norm(fn.cells, w, grid, p, level=d)
        sf = dyadic_square_function(fn.cells, DyadicGrid(d))
        weak = weak_lp_norm(sf, w, grid, p, level=d)
        ratio = weak / strong if strong > 0.0 else 0.0
        return OperatorNormRow(fn.name, strong, weak, ratio)

    rows = ordered_map(evaluate, corpus)
    best = max((row.ratio for row in rows), default=0.0)
    return best, rows


def empirical_maximal_weak_constant(
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    ap_sqrt: float,
    corpus: Optional[List[CorpusFunction]] = None,
) -> float:
    """Empirical constant C in ‖M_{p0}f‖_{L^{2,∞}(w)} ≤ C·[w]^{1/2}_{A_{2/p0}}‖f‖_{L²(w)}.

    ``ap_sqrt`` is the square root of the A_{2/p0} characteristic of ``w``.
    Each function is evaluated at its natural depth ``d``: cubes finer than
    ``d`` only repeat a cell's value, so ``M_{p0}f`` is constant there too.
    """
    if corpus is None:
        corpus = function_corpus(grid)

    def evaluate(fn: CorpusFunction) -> float:
        d = fn.depth
        strong = strong_lp_norm(fn.cells, w, grid, 2.0, level=d)
        if strong == 0.0:
            return 0.0
        weak = weak_lp_norm(maximal_p0(fn.cells, DyadicGrid(d), p0), w, grid, 2.0, level=d)
        return weak / (ap_sqrt * strong)

    return max(ordered_map(evaluate, corpus), default=0.0)


# --- consistency scaffold between the weak norm and the good-subset pairing --------


@dataclass(frozen=True)
class EquivalenceScaffold:
    """Two-sided consistency data between the weak norm of S(fσ) and the
    good-subset pairing ∫_{G'} S(fσ)² w (both normalised by ‖f‖²_{L²(σ)})."""

    n2_sq: float
    pairing_sup: float
    tested_sets: int

    @property
    def consistent_within_16(self) -> bool:
        if self.n2_sq == 0.0:
            return self.pairing_sup == 0.0
        r = self.pairing_sup / self.n2_sq
        return (1.0 / 16.0) * (1.0 - 1e-12) <= r <= 16.0 * (1.0 + 1e-12)


def equivalence_scaffold(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    extra_sets: Sequence[CellSet] = (),
) -> EquivalenceScaffold:
    """Probe the passage from a weak L²(w) bound for S(fσ) to a pairing bound
    on a large good subset.

    For each candidate set G (every level set {S(fσ) ≥ v} of the square
    function, the whole space, and any ``extra_sets``) the good subset is
    G' = G ∖ {S(fσ) > t} with threshold t = 2·N₂·‖f‖_{L²(σ)}/√w(G), where
    N₂ = ‖S(fσ)‖_{L^{2,∞}(w)}/‖f‖_{L²(σ)}.  Chebyshev forces w(G') ≥ ¾·w(G)
    and ∫_{G'} S(fσ)² w ≤ 4·N₂²·‖f‖², while the level set attaining N₂ gives
    back ≥ ¾·N₂²·‖f‖²; the reported supremum must therefore agree with N₂²
    within a factor of 16 (with margin — the structural window is [3/4, 4]).
    """
    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    norm_sq = weighted_l2_norm_sq(grid, fvals, sigma)
    if norm_sq == 0.0:
        return EquivalenceScaffold(0.0, 0.0, 0)
    norm = math.sqrt(norm_sq)
    sf = square_function_from_cell_integrals(
        fvals * sigma.pyramid(grid, 1.0)[grid.depth], grid
    )
    n2 = weak_lp_norm(sf, w, grid, 2.0) / norm
    cellw = w.pyramid(grid, 1.0)[grid.depth]
    sf_sq_w = sf * sf * cellw

    masks: List[np.ndarray] = []
    positive_values = np.unique(sf[sf > 0.0])[::-1]
    for v in positive_values:
        masks.append(sf >= v)
    masks.append(np.ones(grid.n_cells, dtype=bool))
    for cells in extra_sets:
        masks.append(cells.mask.copy())

    pairing_sup = 0.0
    tested = 0
    for mask in masks:
        w_g = float(np.sum(cellw, where=mask))
        if w_g <= 0.0:
            continue
        tested += 1
        threshold = 2.0 * n2 * norm / math.sqrt(w_g)
        good = mask & (sf <= threshold)
        pairing = float(np.sum(sf_sq_w, where=good))
        pairing_sup = max(pairing_sup, pairing / norm_sq)
    return EquivalenceScaffold(n2 * n2, pairing_sup, tested)
