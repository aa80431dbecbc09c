"""Shared corpora and brute-force oracles used across the test modules.

Everything here is deterministic: weight corpora are built from fixed seeds
and the oracles recompute quantities by direct loops so the fast vectorised
implementations are checked against independent arithmetic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from weightlab import (
    AverageComparisonCheck,
    CellSet,
    DyadicCube,
    DyadicGrid,
    GehringProfile,
    PowerWeight,
    SparsityReport,
    TabulatedWeight,
    Weight,
    composed_moment_cells,
    epsilon_range,
    gamma_at_quarter_epsilon,
    rh_constant,
    tree_totals,
    unit_weight,
)

POWER_ALPHAS = (-0.375, -0.25, -0.125, 0.125, 0.25, 0.375)
TABULATED_SEED = 20240915
TABULATED_NATIVE_DEPTH = 6


def seeded_tabulated_weights(
    count: int, depth: int = TABULATED_NATIVE_DEPTH, seed: int = TABULATED_SEED
) -> List[TabulatedWeight]:
    """Deterministic tabulated weights: mostly mild uniform cell values in
    [1/2, 2], every fourth one log-normal for larger characteristics."""
    rng = np.random.default_rng(seed)
    out: List[TabulatedWeight] = []
    for i in range(count):
        if i % 4 == 3:
            values = np.exp(rng.standard_normal(1 << depth))
        else:
            values = rng.uniform(0.5, 2.0, 1 << depth)
        out.append(TabulatedWeight(values))
    return out


def standard_weight_corpus(n_tabulated: int = 20) -> List[Weight]:
    """Unit weight, the six reference power weights, and seeded tabulated
    weights — the corpus the verification scans run over."""
    corpus: List[Weight] = [unit_weight()]
    corpus.extend(PowerWeight(alpha) for alpha in POWER_ALPHAS)
    corpus.extend(seeded_tabulated_weights(n_tabulated))
    return corpus


def weight_label(i: int, w: Weight) -> str:
    return f"{i:02d}:{w.describe()}"


# --- brute-force oracles ---------------------------------------------------------------


def brute_cube_average(
    grid: DyadicGrid, cell_values: np.ndarray, cube: DyadicCube
) -> float:
    """Average over a cube of a function given by per-cell values."""
    start, stop = cube.cell_range(grid.depth)
    return float(np.mean(cell_values[start:stop]))


def brute_a_infty(w: Weight, grid: DyadicGrid) -> Tuple[float, DyadicCube]:
    """Fujii–Wilson constant by direct loops: for each cube Q average the
    pointwise sup of the weight's averages over dyadic cubes between the
    cell and Q, then divide by the weight's mass on Q."""
    cellw = w.cell_integrals(grid, 1.0)
    best = -np.inf
    best_cube = grid.root()
    for cube in grid.cubes():
        start, stop = cube.cell_range(grid.depth)
        total = float(np.sum(cellw[start:stop]))
        acc = 0.0
        for cell in range(start, stop):
            m = 0.0
            for level in range(cube.level, grid.depth + 1):
                anc = DyadicCube(level, cell >> (grid.depth - level))
                a, b = anc.cell_range(grid.depth)
                m = max(m, float(np.sum(cellw[a:b])) / anc.measure)
            acc += m * grid.cell_measure
        value = acc / total
        if value > best:
            best = value
            best_cube = cube
    return best, best_cube


def brute_weak_lp_norm(
    h: np.ndarray, cell_masses: np.ndarray, p: float
) -> float:
    """sup_λ λ · w({|h| ≥ λ})^{1/p} over all candidate levels λ = |h_i|."""
    mags = np.abs(np.asarray(h, dtype=np.float64))
    best = 0.0
    for lam in np.unique(mags):
        if lam <= 0.0:
            continue
        mass = float(np.sum(cell_masses[mags >= lam]))
        best = max(best, float(lam) * mass ** (1.0 / p))
    return best


def random_cellset(
    grid: DyadicGrid, rng: np.random.Generator, density: float = 0.5
) -> CellSet:
    return CellSet(rng.random(grid.n_cells) < density)


def left_edge_cube(level: int) -> DyadicCube:
    return DyadicCube(level, 0)


def geometric_tail_partial(x: float, terms: int, weighted: bool = False) -> float:
    """Partial sums of Σ 2^{−s/x} (or Σ s·2^{−s/x}), to check the closed forms."""
    total = 0.0
    for s in range(terms):
        term = 2.0 ** (-s / x)
        total += s * term if weighted else term
    return total


def verify_average_comparison(
    w: Weight,
    q0_star: float,
    epsilon: float,
    cube: DyadicCube,
    s: int,
    good_cells: CellSet,
    grid: DyadicGrid,
    rh: Optional[float] = None,
    epsilon_max: Optional[float] = None,
) -> AverageComparisonCheck:
    """Standalone recomputation of the tracer's indicator-average comparison
    for one cube, from masked cell moments."""
    if epsilon_max is None:
        epsilon_max = epsilon_range(w, q0_star, grid)
    geh = GehringProfile(q0_star, epsilon, epsilon_max)
    if rh is None:
        rh = rh_constant(w, q0_star, grid)
    masked = w.cell_integrals(grid, q0_star) * good_cells.mask
    start, stop = cube.cell_range(grid.depth)
    scale = float(1 << cube.level)
    lhs = (float(np.sum(masked[start:stop])) * scale) ** (1.0 / q0_star)
    w_avg = float(np.sum(w.cell_integrals(grid, 1.0)[start:stop])) * scale
    rhs_strict = (
        2.0 ** (1.0 / (geh.theta * q0_star))
        * rh ** (2.0 - geh.gamma)
        * 2.0 ** (-s * geh.gamma)
        * w_avg
    )
    slack = 2.0**geh.gamma
    rhs = rhs_strict * slack
    return AverageComparisonCheck(
        cube=cube,
        s=s,
        lhs=lhs,
        rhs_strict=rhs_strict,
        slack_factor=slack,
        ratio_strict=lhs / rhs_strict if rhs_strict > 0.0 else 0.0,
        ratio=lhs / rhs if rhs > 0.0 else 0.0,
    )


def gamma_quarter_region_max(
    q0_star_range: Tuple[float, float] = (1.5, 10.0),
    a_range: Tuple[float, float] = (1.0, 100.0),
    samples: int = 64,
) -> float:
    """Max of γ at ε = 1/(4A) over a (q0*, A) product grid.

    Over q0* ∈ [3/2, 10] × A ∈ [1, 100] the maximum is 2/9 < 1/4, attained
    at the corner (3/2, 1); the bound fails for q0* close to 1, so the
    sampled region deliberately starts at 3/2.
    """
    q_grid = np.linspace(q0_star_range[0], q0_star_range[1], samples)
    a_grid = np.linspace(a_range[0], a_range[1], samples)
    worst = 0.0
    for q0s in q_grid:
        for a in a_grid:
            worst = max(worst, gamma_at_quarter_epsilon(float(q0s), float(a)))
    return worst


# --- dense-mask family oracles: one N-cell mask per cube, all-pairs loops ------------


def oracle_peel_layers(cubes: Sequence[DyadicCube]) -> List[List[DyadicCube]]:
    """Layers by repeatedly removing the maximal cubes (all-pairs test)."""
    remaining = sorted(set(cubes))
    layers: List[List[DyadicCube]] = []
    while remaining:
        maximal = [
            c
            for c in remaining
            if not any(o != c and o.contains(c) for o in remaining)
        ]
        layers.append(maximal)
        kept = set(maximal)
        remaining = [c for c in remaining if c not in kept]
    return layers


def oracle_layer_witnesses(
    layers: Sequence[Sequence[DyadicCube]], grid: DyadicGrid
) -> Dict[DyadicCube, CellSet]:
    """Witness E_Q = Q minus the next layer's cubes inside Q."""
    out: Dict[DyadicCube, CellSet] = {}
    for j, layer in enumerate(layers):
        next_layer = layers[j + 1] if j + 1 < len(layers) else []
        for cube in layer:
            cells = CellSet.from_cube(grid, cube)
            for sub in next_layer:
                if cube.contains(sub):
                    cells = cells.difference(CellSet.from_cube(grid, sub))
            out[cube] = cells
    return out


def dense_witnesses(family) -> List[CellSet]:
    """A family's witnesses as one dense mask per cube, in cube order."""
    return [CellSet(family.owner == pos) for pos in range(len(family))]


def oracle_verify_sparsity(
    cubes: Sequence[DyadicCube], witnesses: Sequence[CellSet], grid: DyadicGrid
) -> SparsityReport:
    """Containment, strict half measure and disjointness on dense masks."""
    coverage = np.zeros(grid.n_cells, dtype=np.int64)
    for cube, cells in zip(cubes, witnesses):
        if not cells.within_cube(grid, cube):
            return SparsityReport(False, f"witness of {cube} leaves the cube")
        start, stop = cube.cell_range(grid.depth)
        if 2 * cells.cell_count <= stop - start:
            return SparsityReport(
                False,
                f"witness of {cube} has measure {cells.cell_count}/{stop - start}"
                " of the cube (strictly more than half is required)",
            )
        coverage += cells.mask
    if np.any(coverage > 1):
        cell = int(np.argmax(coverage > 1))
        return SparsityReport(False, f"witnesses overlap at cell {cell}")
    return SparsityReport(True, None)


def oracle_carleson_packing_ok(
    cubes: Sequence[DyadicCube], witnesses: Sequence[CellSet], grid: DyadicGrid
) -> bool:
    """Σ_{Q ⊆ Q0} |E_Q| ≤ |Q0| for every family cube, by all-pairs loops."""
    for outer in cubes:
        start, stop = outer.cell_range(grid.depth)
        packed = sum(
            cells.cell_count
            for cube, cells in zip(cubes, witnesses)
            if outer.contains(cube)
        )
        if packed > stop - start:
            return False
    return True


def oracle_bin_witness_stats(
    bin_cubes: Sequence[DyadicCube],
    avg_fsigma: Sequence[float],
    f_sq_sigma: np.ndarray,
    p0_moments: np.ndarray,
    p0: float,
    grid: DyadicGrid,
) -> Tuple[float, float]:
    """(witness_mass, comparability_max) of one tracer bin, one masked sum
    per cube over the dense layer witnesses."""
    witnesses = oracle_layer_witnesses(oracle_peel_layers(bin_cubes), grid)
    witness_mass = math.fsum(
        float(np.sum(f_sq_sigma, where=cells.mask)) for cells in witnesses.values()
    )
    comparability = 0.0
    for cube, avg in zip(bin_cubes, avg_fsigma):
        total = float(np.sum(p0_moments, where=witnesses[cube].mask))
        restricted = (total * float(1 << cube.level)) ** (1.0 / p0)
        comparability = max(comparability, avg / restricted) if restricted > 0.0 else math.inf
    return witness_mass, comparability


# --- ancestor-matrix oracles: every ancestor's value copied onto every cell ----------


def ancestor_value_matrix(grid: DyadicGrid, per_level: List[np.ndarray]) -> np.ndarray:
    """Expand per-cube values to a (depth+1, n_cells) per-cell matrix.

    Row ``k`` holds, for every finest cell, the value attached to its level-k
    ancestor. Input ``per_level[k]`` must have length ``2**k``.
    """
    rows = np.empty((grid.depth + 1, grid.n_cells), dtype=np.float64)
    for level, vals in enumerate(per_level):
        rows[level] = np.repeat(np.asarray(vals, dtype=np.float64), 1 << (grid.depth - level))
    return rows


def _level_averages(grid: DyadicGrid, totals: List[np.ndarray]) -> List[np.ndarray]:
    return [totals[k] * float(1 << k) for k in range(grid.depth + 1)]


def oracle_a_infty_fw_per_level(w: Weight, grid: DyadicGrid) -> List[np.ndarray]:
    """Fujii–Wilson per-level arrays from suffix running maxima of the matrix."""
    pyr = w.pyramid(grid, 1.0)
    avg_rows = ancestor_value_matrix(grid, w.level_averages(grid, 1.0))
    suffix_max = np.maximum.accumulate(avg_rows[::-1], axis=0)[::-1]
    out: List[np.ndarray] = []
    for level in range(grid.depth + 1):
        integrals = suffix_max[level].reshape(1 << level, -1).sum(axis=1) * grid.cell_measure
        out.append(integrals / pyr[level])
    return out


def oracle_square_function_from_cell_integrals(
    cell_integrals: np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Square function as the column sums of squared matrix-row differences."""
    totals = tree_totals(grid, np.asarray(cell_integrals, dtype=np.float64))
    rows = ancestor_value_matrix(grid, _level_averages(grid, totals))
    diffs = rows[1:] - rows[:-1]
    return np.sqrt(np.sum(diffs * diffs, axis=0))


def oracle_maximal_p0(
    f: np.ndarray, grid: DyadicGrid, p0: float, weight: Optional[Weight] = None
) -> np.ndarray:
    """Unrestricted L^{p0} maximal function as the column maxima of the matrix."""
    if weight is not None:
        moment_cells = composed_moment_cells(grid, f, weight, p0)
    else:
        moment_cells = np.abs(grid.check_values(f)) ** p0 * grid.cell_measure
    rows = ancestor_value_matrix(grid, _level_averages(grid, tree_totals(grid, moment_cells)))
    return rows.max(axis=0) ** (1.0 / p0)


def oracle_maximal_weighted(g: np.ndarray, w: Weight, grid: DyadicGrid) -> np.ndarray:
    """Weighted maximal function as the column maxima of the ratio matrix."""
    num = tree_totals(grid, np.abs(grid.check_values(g)) * w.cell_integrals(grid, 1.0))
    den = w.pyramid(grid, 1.0)
    rows = ancestor_value_matrix(grid, [num[k] / den[k] for k in range(grid.depth + 1)])
    return rows.max(axis=0)


def oracle_weak_lp_norm(h: np.ndarray, w: Weight, grid: DyadicGrid, p: float) -> float:
    """Weak norm by a Python loop over the level sets, in descending order."""
    values = np.abs(grid.check_values(h))
    cellw = w.cell_integrals(grid, 1.0)
    order = np.argsort(values, kind="stable")[::-1]
    sorted_vals = values[order]
    tail_measure = np.cumsum(cellw[order])
    boundaries = np.flatnonzero(np.diff(np.concatenate((sorted_vals, [-1.0]))) != 0.0)
    best = 0.0
    for b in boundaries:
        lam = float(sorted_vals[b])
        if lam <= 0.0:
            break
        best = max(best, lam * float(tail_measure[b]) ** (1.0 / p))
    return best


# --- cold-copy power oracles: a power as a new weight with its own data and store ----


def cold_power(w: Weight, s: float) -> Weight:
    """``w**s`` built as an independent weight: copied values (rounded once by
    the power, again by each moment) and an empty pyramid store."""
    if isinstance(w, PowerWeight):
        return PowerWeight(w.alpha * float(s))
    return TabulatedWeight(w.values ** float(s))


def longdouble_power_pyramid(alpha: float, t: float, depth: int) -> List[np.ndarray]:
    """Per-level cube integrals of ``x**(alpha*t)`` as antiderivative differences
    in long double; the cancellation costs ``log2(2**level / e)`` of its extra bits."""
    e = np.longdouble(alpha) * np.longdouble(t) + 1
    out = []
    for level in range(depth + 1):
        edges = np.arange((1 << level) + 1, dtype=np.longdouble) / (1 << level)
        out.append(np.diff(edges**e / e))
    return out


# --- per-cube sharp reverse Hölder oracle -----------------------------------------------


def oracle_sharp_rh(
    w: Weight, t: float, rh: float, grid: DyadicGrid
) -> List[Tuple[int, int, float, float, float]]:
    """``(level, index, lhs, rhs, ratio)`` of the sharp reverse Hölder inequality
    at moment ``t`` on every cube, coarse to fine, in Python floats one cube at a
    time: ``lhs = ⨍_Q w^t``, ``rhs = 2·rh^t·(⨍_Q w)^t``, ratio 0 where lhs is 0."""
    rows = []
    for cube in grid.cubes():
        scale = float(1 << cube.level)
        lhs = w.cube_integral(grid, cube, t) * scale
        mean = w.cube_integral(grid, cube, 1.0) * scale
        rhs = 2.0 * rh**t * mean**t
        rows.append((cube.level, cube.index, lhs, rhs, 0.0 if lhs == 0.0 else lhs / rhs))
    return rows
