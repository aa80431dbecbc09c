"""Shared corpora and brute-force oracles used across the test modules.

Everything here is deterministic: weight corpora are built from fixed seeds
and the oracles recompute quantities by direct loops so the fast vectorised
implementations are checked against independent arithmetic.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from weightlab import (
    CellSet,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    GehringProfile,
    OperatorNormRow,
    PowerWeight,
    SparseFamily,
    SparsityReport,
    TabulatedWeight,
    Weight,
    a_infty_fw,
    build_good_set,
    composed_moment_cells,
    dyadic_square_function,
    epsilon_range,
    gamma_at_quarter_epsilon,
    maximal_p0,
    dual_weight,
    rh_constant,
    strong_lp_norm,
    tree_totals,
    unit_weight,
    weak_lp_norm,
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


class AverageComparison(NamedTuple):
    """⟨1_{G'}w⟩_{q0*,Q} against its reverse-Hölder envelope."""

    lhs: float
    rhs_strict: float
    ratio_strict: float


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
) -> AverageComparison:
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
    return AverageComparison(lhs, rhs_strict, lhs / rhs_strict if rhs_strict > 0.0 else 0.0)


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


# --- DyadicCube family oracles: one dataclass per cube, Python loops --------------------


def oracle_paint_owner(cubes: Sequence[DyadicCube], grid: DyadicGrid) -> np.ndarray:
    """Owner array painted one cube at a time, coarse to fine over whole cell
    ranges; a cube listed twice keeps only its later position."""
    owner = np.full(grid.n_cells, -1, dtype=np.int32)
    for pos in sorted(range(len(cubes)), key=lambda i: cubes[i].level):
        start, stop = cubes[pos].cell_range(grid.depth)
        owner[start:stop] = pos
    return owner


def keyed_peel_layers(cubes: Sequence[DyadicCube]) -> List[List[DyadicCube]]:
    """Layers by counting each cube's strict ancestors in a (level, index) set."""
    unique = sorted(set(cubes))
    keys = {(c.level, c.index) for c in unique}
    layers: List[List[DyadicCube]] = []
    for cube in unique:
        layer = sum(
            (cube.level - up, cube.index >> up) in keys
            for up in range(1, cube.level + 1)
        )
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(cube)
    return layers


def oracle_build_sparse_random(
    grid: DyadicGrid, max_level: int, density: float, seed: int
) -> SparseFamily:
    """The seeded random family with one draw and one ancestor scan per cube."""
    rng = np.random.default_rng(seed)
    kept = set()
    cubes: List[DyadicCube] = []
    for level in range(max_level + 1):
        for index in range(1 << level):
            if rng.random() >= density:
                continue
            if any((level - up, index >> up) in kept for up in range(1, level + 1)):
                continue
            kept.add((level, index))
            cubes.append(DyadicCube(level, index))
    return SparseFamily(tuple(cubes), oracle_paint_owner(cubes, grid))


def oracle_trace_proof(
    f: np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    profile: ExponentProfile,
    family: Sequence[DyadicCube],
    good_cells: Optional[CellSet] = None,
) -> dict:
    """The trace's per-cube rows, buckets and bins, one cube at a time.

    ``rows`` holds ``(cube, avg_fsigma, indicator_avg, weight_mass,
    good_mass, r, s, rhs_strict, ratio_strict)`` in (level, index) order.
    """
    p0, q0s = profile.p0, profile.q0_star
    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    gs = build_good_set(f, w, grid, p0, list(family), good_cells)
    cellw = w.pyramid(grid, 1.0)[grid.depth]
    rh = rh_constant(w, q0s, grid)
    a_inf = a_infty_fw(w, grid)
    eps_max = epsilon_range(w, q0s, grid)
    geh = GehringProfile(q0s, eps_max, eps_max)
    two_pow = 2.0 ** (1.0 / (geh.theta * q0s))
    rh_pow = rh ** (2.0 - geh.gamma)

    p0_moments = composed_moment_cells(grid, fvals, sigma, p0)
    p0_totals = tree_totals(grid, p0_moments)
    gp_mask = gs.good_prime.mask
    ind_q_totals = tree_totals(grid, w.cell_integrals(grid, q0s) * gp_mask)
    gp_w_totals = tree_totals(grid, cellw * gp_mask)
    w_totals = tree_totals(grid, cellw)

    out: dict = {"rows": [], "zero": [], "overflow": [], "clamped": [], "bins": {}}
    members: Dict[Tuple[int, int], list] = {}
    for cube in sorted(set(family)):
        scale = float(1 << cube.level)
        a1 = float(p0_totals[cube.level][cube.index] * scale) ** (1.0 / p0)
        w_q = float(w_totals[cube.level][cube.index])
        gp_q = float(gp_w_totals[cube.level][cube.index])
        b_q = float(ind_q_totals[cube.level][cube.index] * scale) ** (1.0 / q0s)
        if gp_q <= 0.0:
            out["zero"].append(cube)
            continue
        if a1 <= 0.0:
            out["overflow"].append(cube)
            continue
        r_raw = math.floor(-math.log2(a1 / gs.threshold))
        if r_raw < 0:
            out["clamped"].append(cube)
        r = max(0, r_raw)
        s = max(0, math.floor(-math.log2(gp_q / w_q)))
        rhs = two_pow * rh_pow * 2.0 ** (-s * geh.gamma) * (w_q / cube.measure)
        row = (cube, a1, b_q, w_q, gp_q, r, s, rhs, b_q / rhs if rhs > 0.0 else 0.0)
        out["rows"].append(row)
        members.setdefault((r, s), []).append(row)

    f_sq_sigma = fvals * fvals * sigma.pyramid(grid, 1.0)[grid.depth]
    for key, rows in sorted(members.items()):
        cubes = [row[0] for row in rows]
        owner = oracle_paint_owner(cubes, grid)
        owned = owner >= 0
        restricted = np.bincount(owner[owned], weights=p0_moments[owned], minlength=len(rows))
        comparability = 0.0
        for row, total in zip(rows, restricted.tolist()):
            avg = (total * float(1 << row[0].level)) ** (1.0 / p0)
            comparability = max(comparability, row[1] / avg) if avg > 0.0 else math.inf
        out["bins"][key] = {
            "cubes": cubes,
            "layer_sizes": tuple(len(layer) for layer in keyed_peel_layers(cubes)),
            "quad_sum": math.fsum(row[1] ** 2 * row[2] * row[0].measure for row in rows),
            "mass_lhs": math.fsum(row[3] for row in rows),
            "witness_mass": float(np.sum(f_sq_sigma[owned])),
            "comparability_max": comparability,
        }
    return out


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


def oracle_restricted_maximal_p0(
    f: np.ndarray,
    grid: DyadicGrid,
    p0: float,
    restriction: Sequence[DyadicCube],
    weight: Optional[Weight] = None,
) -> np.ndarray:
    """Restricted L^{p0} maximal function by a loop over the cubes, each
    raising its cells to its average (0 where no cube covers a cell)."""
    if weight is not None:
        moment_cells = composed_moment_cells(grid, f, weight, p0)
    else:
        moment_cells = np.abs(grid.check_values(f)) ** p0 * grid.cell_measure
    totals = tree_totals(grid, moment_cells)
    out = np.zeros(grid.n_cells, dtype=np.float64)
    for cube in restriction:
        avg = totals[cube.level][cube.index] * float(1 << cube.level)
        start, stop = cube.cell_range(grid.depth)
        np.maximum(out[start:stop], avg, out=out[start:stop])
    return out ** (1.0 / p0)


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


# --- dense corpus oracles: every corpus function as a full 2**L vector -------------------


def dense_corpus_values(
    grid: DyadicGrid,
    seed: int = 2024,
    n_random: int = 64,
    structured_max_level: int = 6,
) -> List[Tuple[str, np.ndarray]]:
    """``(name, values)`` of the function corpus, each built directly as a
    ``2**depth`` vector by painting cell ranges of the finest level."""
    out: List[Tuple[str, np.ndarray]] = []
    atom_levels = min(structured_max_level, grid.depth - 1)
    for level in range(atom_levels + 1):
        for index in range(1 << level):
            cube = DyadicCube(level, index)
            left, right = cube.children(grid.depth)
            vals = np.zeros(grid.n_cells, dtype=np.float64)
            amp = cube.measure**-0.5
            a0, a1 = left.cell_range(grid.depth)
            b0, b1 = right.cell_range(grid.depth)
            vals[a0:a1] = amp
            vals[b0:b1] = -amp
            out.append((f"haar[{level},{index}]", vals))
    ind_levels = min(structured_max_level, grid.depth)
    for level in range(ind_levels + 1):
        for index in range(1 << level):
            vals = np.zeros(grid.n_cells, dtype=np.float64)
            start, stop = DyadicCube(level, index).cell_range(grid.depth)
            vals[start:stop] = 1.0
            out.append((f"indicator[{level},{index}]", vals))
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        out.append((f"random[{i}]", rng.standard_normal(grid.n_cells)))
    return out


def oracle_corpus_rows(w: Weight, grid: DyadicGrid, p: float, corpus) -> List[OperatorNormRow]:
    """Operator-norm rows with every function, its square function and both
    norms evaluated on the finest cells."""
    rows: List[OperatorNormRow] = []
    for fn in corpus:
        strong = strong_lp_norm(fn.values, w, grid, p)
        weak = weak_lp_norm(dyadic_square_function(fn.values, grid), w, grid, p)
        rows.append(OperatorNormRow(fn.name, strong, weak, weak / strong if strong > 0.0 else 0.0))
    return rows


def oracle_maximal_weak_constant(
    w: Weight, grid: DyadicGrid, p0: float, ap_sqrt: float, corpus
) -> float:
    """Empirical maximal-function constant with every function on the finest cells."""
    best = 0.0
    for fn in corpus:
        strong = strong_lp_norm(fn.values, w, grid, 2.0)
        if strong > 0.0:
            weak = weak_lp_norm(maximal_p0(fn.values, grid, p0), w, grid, 2.0)
            best = max(best, weak / (ap_sqrt * strong))
    return best


# --- row-at-a-time CSV rendering ------------------------------------------------------------

CSV_HEADER = "# weightlab-csv v1"


def _format_field(value: object) -> str:
    if isinstance(value, float):
        value = float(value)  # numpy scalars are float subclasses with a noisy repr
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def dump_csv(columns: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = [CSV_HEADER, ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_field(v) for v in row))
    return "\n".join(lines) + "\n"
