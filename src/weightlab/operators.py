"""Dyadic model operators and exact weighted norms.

* :func:`dyadic_square_function` — the martingale square function
  ``Sf(x) = (Σ_{Q ∋ x, 1 ≤ level ≤ L} |⟨f⟩_Q − ⟨f⟩_parent(Q)|²)^{1/2}``;
  it satisfies the exact Plancherel identity
  ``‖Sf‖²_{L²(dx)} = ‖f‖²_{L²(dx)} − ⟨f⟩²`` on the finite grid.  Siblings
  share every jump (the last is ``±(a − b)/2``), so ``Sf`` lives one level up.
* :func:`maximal_weighted` — the maximal function of w-averages
  ``sup_Q (1/w(Q)) ∫_Q |g| w``; its weak (1,1) bound holds with constant 1.
* :func:`weak_lp_norm` / :func:`strong_lp_norm` — exact L^{p,∞}(w) and
  L^p(w) norms of piecewise-constant functions by level-set enumeration (no
  λ grid: the supremum of ``λ·w({|h| ≥ λ})^{1/p}`` over the right-continuous
  tail is attained at the distinct values of |h|).  Each level set is a prefix
  of one descending order of |h|, which corpus scans share across weights.

The abstract restricted-range operator is modeled by this square function;
its (p0, q0) window enters downstream only through the exponents of the
sparse form and the bound formulas, never through the model operator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._parallel import ordered_map
from .errors import WrongLengthError
from .grid import DyadicCube, DyadicGrid, ancestor_max, heap_levels, to_averages, tree_totals
from .weights import Weight


def square_function_from_cell_integrals(
    cell_integrals: np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Square function of the function whose exact finest-cell integrals are
    given (signed), one value per sibling pair of cells (level ``L − 1``);
    useful for compositions like f·σ with non-constant σ."""
    averages = heap_levels(to_averages(tree_totals(grid, cell_integrals)))
    # sq = Σ of squared jumps along each level-k cube's ancestor chain, top-down;
    # one side of the sibling pairs at a time keeps numpy's inner loops long
    sq = np.zeros(1, dtype=np.float64)
    for parent, child in zip(averages[:-2], averages[1:-1]):
        sq, above = np.empty(child.size), sq
        for side in (0, 1):
            jump = child[side::2] - parent
            np.add(above, jump * jump, out=sq[side::2])
    pairs = averages[-1].reshape(-1, 2)  # both siblings jump by ±(a − b)/2
    half = (pairs[:, 0] - pairs[:, 1]) / 2.0
    return np.sqrt(sq + half * half)


def dyadic_square_function(
    f: Sequence[float] | np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Per-cell values of the martingale square function of ``f``, equal on siblings."""
    values = grid.check_values(f)
    return np.repeat(square_function_from_cell_integrals(values * grid.cell_measure, grid), 2)


def _norm_exponent(p: float) -> float:
    """``p`` as a float, refused unless positive and finite."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValueError(f"norm exponent must be positive and finite, got {p}")
    return p


def _level_norm_inputs(
    h: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p: float,
    level: Optional[int],
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Validated exponent, ``|h|`` per level-``level`` cube and those cubes'
    w-masses (``level`` defaults to the finest level)."""
    p = _norm_exponent(p)
    if level is None:
        level = grid.depth
    elif not 0 <= level <= grid.depth:
        raise ValueError(f"level must lie in 0..{grid.depth}, got {level}")
    values = np.abs(np.asarray(h, dtype=np.float64))
    if values.shape != (1 << level,):
        raise WrongLengthError(f"expected {1 << level} per-cube values, got shape {values.shape}")
    return p, values, heap_levels(w.pyramid(grid, 1.0))[level]


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


def _level_sets(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The descending order ``np.argsort(values, kind="stable")[::-1]`` of
    non-negative ``values``, held contiguous, the end of each run of equal
    values in it and each run's value ``λ``: the level sets ``{values ≥ λ}``
    are prefixes of that order.  An unstable sort ranks the values, then one
    int64 sort of ``−(run · n + index)`` orders each tie run by index; on
    unsorted input that takes a quarter to a half of the time."""
    order = np.argsort(values)
    ranked = values[order]
    step = ranked[1:] != ranked[:-1]
    if ranked.size and np.isnan(ranked[-1]):
        step &= ~np.isnan(ranked[:-1])  # the NaNs, sorted last, are one run
    run = np.zeros(values.size, dtype=np.int64)
    np.cumsum(step, out=run[1:])
    run *= -values.size
    np.subtract(run, order, out=order)  # the keys, sorted in place
    order.sort()
    np.subtract(run[::-1], order, out=order)
    ends = np.flatnonzero(np.append(step[::-1], values.size > 0))  # the last value ends a run
    return order, ends, ranked[::-1][ends]


def _weak_norm(lam: np.ndarray, tail: np.ndarray, p: float) -> float:
    """``sup_λ λ · w({h ≥ λ})^{1/p}`` over the :func:`_level_sets` values ``λ``
    of ``h``, given each tail mass: the cumulative sum at the end of λ's run."""
    return float(np.max(lam * tail ** (1.0 / p), where=lam > 0.0, initial=0.0))


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
    order, ends, lam = _level_sets(values)
    return _weak_norm(lam, np.cumsum(cellw[order])[ends], p)


def maximal_weighted(
    g: Sequence[float] | np.ndarray, w: Weight, grid: DyadicGrid
) -> np.ndarray:
    """Weighted maximal function ``sup_{Q ∋ x} (1/w(Q)) ∫_Q |g| w`` per cell."""
    gvals = np.abs(grid.check_values(g))
    den = w.pyramid(grid, 1.0)
    num = tree_totals(grid, gvals * heap_levels(den)[-1])
    return ancestor_max(np.divide(num, den, out=num))


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


def _corpus_stream(
    grid: DyadicGrid,
    seed: int = 2024,
    n_random: int = 64,
    structured_max_level: int = 6,
) -> Iterator[CorpusFunction]:
    """The functions of :func:`function_corpus`, in its order, each built only
    when it is drawn.  The generator keeps no reference to a function it has
    yielded, so a scan holds only the functions it is evaluating."""
    atom_levels = min(structured_max_level, grid.depth - 1)
    for level in range(atom_levels + 1):
        for index in range(1 << level):
            cells = np.zeros(2 << level, dtype=np.float64)
            amp = DyadicCube(level, index).measure ** -0.5
            cells[2 * index] = amp
            cells[2 * index + 1] = -amp
            yield CorpusFunction(f"haar[{level},{index}]", level + 1, cells, grid.depth)
    ind_levels = min(structured_max_level, grid.depth)
    for level in range(ind_levels + 1):
        depth = max(level, 1)
        for index in range(1 << level):
            cells = np.zeros(1 << depth, dtype=np.float64)
            start, stop = DyadicCube(level, index).cell_range(depth)
            cells[start:stop] = 1.0
            yield CorpusFunction(f"indicator[{level},{index}]", depth, cells, grid.depth)
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        # no local names the vector, so the previous one is freed before the next draw
        yield CorpusFunction(
            f"random[{i}]", grid.depth, rng.standard_normal(grid.n_cells), grid.depth
        )


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
    are standard normal vectors, drawn in order from one seeded generator.
    Each function is stored at its natural depth: ``level + 1`` for the atom
    of a level-``level`` cube, ``max(level, 1)`` for an indicator and the grid
    depth for noise.  This list holds all ``n_random`` noise vectors
    (``8·n_random·2^L`` bytes); the scans draw the same functions lazily from
    :func:`_corpus_stream` instead, one per worker at a time.
    """
    return list(_corpus_stream(grid, seed, n_random, structured_max_level))


@dataclass(frozen=True)
class OperatorNormRow:
    name: str
    strong_norm: float
    weak_norm_sf: float
    ratio: float


def empirical_weak_operator_norm(
    weights: Sequence[Weight],
    grid: DyadicGrid,
    p: float = 2.0,
    corpus: Optional[Iterable[CorpusFunction]] = None,
) -> List[Tuple[float, List[OperatorNormRow]]]:
    """Per weight, from one scan of the corpus (by default the seed-2024 corpus,
    drawn lazily): the largest ratio ‖Sf‖_{L^{p,∞}(w)} / ‖f‖_{L^p(w)} (a lower
    bound on the weak operator norm) and one row per test function.

    ``f`` is constant on level-``d`` cubes and ``Sf`` one level up, so the
    level sets of ``Sf`` are built once per function and the norms read each
    weight's masses on those two levels.  ``corpus`` may be any iterable: each
    function is drawn when a worker is free and dropped once its norms are done."""

    def evaluate(fn: CorpusFunction) -> Tuple[str, List[Tuple[float, float, float]]]:
        d = fn.depth
        sf = square_function_from_cell_integrals(fn.cells * 2.0**-d, DyadicGrid(d))
        order, ends, lam = _level_sets(sf)
        strong = [strong_lp_norm(fn.cells, w, grid, p, level=d) for w in weights]
        masses = (heap_levels(w.pyramid(grid, 1.0))[d - 1][order] for w in weights)
        weak = [_weak_norm(lam, np.cumsum(m)[ends], p) for m in masses]
        return fn.name, [(s, wk, wk / s if s > 0.0 else 0.0) for s, wk in zip(strong, weak)]

    scanned = ordered_map(evaluate, _corpus_stream(grid) if corpus is None else corpus)
    scans = []
    for k in range(len(weights)):
        rows = [OperatorNormRow(name, *norms[k]) for name, norms in scanned]
        scans.append((max((row.ratio for row in rows), default=0.0), rows))
    return scans

