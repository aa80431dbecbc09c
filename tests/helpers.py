"""Shared corpora and oracles used across the test modules.

Everything here is deterministic: weight corpora are built from fixed seeds.
Each quantity has at most one oracle per role:

- a same-operations oracle (``oracle_*``) forms the quantity in the library's
  own floating-point operations, in another layout (dense masks, one array per
  level, an ancestor matrix, a loop over cubes), so a test can pin its bits
  (or a stated few ulps, where the library's form rounds apart by design);
- a reference (``brute_*``, ``fsum_*``) forms it by direct loops or correctly
  rounded sums (``math.fsum``), so a test can bound the library's rounding.

A new kernel form is checked against these; it does not add an oracle of its own.
"""

from __future__ import annotations

import math
import operator
import tracemalloc
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from weightlab import (
    ConfigError,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    PowerWeight,
    SparseFamily,
    SparsityViolationError,
    TabulatedWeight,
    Weight,
    WeightlabError,
    ap_constant,
    build_sparse_cz,
    dual_weight,
    epsilon_range,
    gehring,
    heap_levels,
    rh_constant,
    strong_lp_norm,
    unit_weight,
    weak_lp_norm,
)
from weightlab import grid as grid_module
from weightlab.bounds import BoundsReport
from weightlab.characteristics import ap_moment
from weightlab.errors import SubsetError
from weightlab.gehring import EpsilonSearchResult, InequalityCheck
from weightlab.grid import to_averages, tree_totals
from weightlab.operators import OperatorNormRow, square_function_from_cell_integrals
from weightlab.profiles import GehringProfile, gamma_rate
from weightlab.tracer import PerCubeScan, build_good_set
from weightlab.weights import composed_moment_cells

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


# --- brute-force oracles ---------------------------------------------------------------


def brute_a_infty(w: Weight, grid: DyadicGrid) -> Tuple[float, DyadicCube]:
    """Fujii–Wilson constant by direct loops: for each cube Q average the
    pointwise sup of the weight's averages over dyadic cubes between the
    cell and Q, then divide by the weight's mass on Q."""
    cellw = w.cell_integrals(grid, 1.0)
    best = -np.inf
    best_cube = DyadicCube(0, 0)
    for cube in every_cube(grid):
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


def random_cellset(
    grid: DyadicGrid, rng: np.random.Generator, density: float = 0.5
) -> np.ndarray:
    return rng.random(grid.n_cells) < density


def every_cube(grid: DyadicGrid) -> List[DyadicCube]:
    """Every dyadic cube of the grid, coarsest level first."""
    return [DyadicCube(k, i) for k in range(grid.depth + 1) for i in range(1 << k)]


def contains(outer: DyadicCube, inner: DyadicCube) -> bool:
    """Set containment ``inner ⊆ outer``: ``inner`` is ``outer`` or refines it."""
    shift = inner.level - outer.level
    return shift >= 0 and inner.index >> shift == outer.index


def cube_mask(grid: DyadicGrid, cube: DyadicCube) -> np.ndarray:
    """Boolean mask of the finest cells of ``cube``."""
    start, stop = cube.cell_range(grid.depth)
    mask = np.zeros(grid.n_cells, dtype=bool)
    mask[start:stop] = True
    return mask


def within_cube(mask: np.ndarray, grid: DyadicGrid, cube: DyadicCube) -> bool:
    start, stop = cube.cell_range(grid.depth)
    return not (mask[:start].any() or mask[stop:].any())


def mask_ranges(mask: np.ndarray) -> List[List[int]]:
    """Maximal half-open runs of member cells, as ``[start, stop)`` pairs."""
    padded = np.concatenate(([False], mask, [False]))
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    return [[int(flips[i]), int(flips[i + 1])] for i in range(0, len(flips), 2)]


def ranges_mask(grid: DyadicGrid, ranges: Sequence[Sequence[int]]) -> np.ndarray:
    """Boolean mask of the cells in half-open ``[start, stop)`` ranges."""
    mask = np.zeros(grid.n_cells, dtype=bool)
    for start, stop in ranges:
        mask[start:stop] = True
    return mask


def geometric_tail_partial(x: float, terms: int, weighted: bool = False) -> float:
    """Partial sums of Σ 2^{−s/x} (or Σ s·2^{−s/x}), to check the closed forms."""
    total = 0.0
    for s in range(terms):
        term = 2.0 ** (-s / x)
        total += s * term if weighted else term
    return total


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
            worst = max(worst, gamma_rate(float(q0s), 1.0 / (4.0 * float(a))))
    return worst


def oracle_bounds_jsonable(report: BoundsReport) -> dict:
    """The bounds report's JSON form, every field listed by hand."""
    return {
        "p0": report.p0,
        "q0": report.q0 if math.isfinite(report.q0) else "inf",
        "q0_star": report.q0_star,
        "ap_char": report.ap_char,
        "rh_char": report.rh_char,
        "a_infty_char": report.a_infty_char,
        "a_infty_pow_char": report.a_infty_pow_char,
        "epsilon": report.epsilon,
        "gamma": report.gamma,
        "eta": report.eta,
        "weak_bound": report.weak_bound,
        "strong_bound": report.strong_bound,
        "bridge_index": report.bridge_index,
        "comparison": {
            "weak_a_exponent": report.comparison.weak_a_exponent,
            "strong_a_exponent": report.comparison.strong_a_exponent,
            "weak_rh_exponent": report.comparison.weak_rh_exponent,
            "strong_rh_exponent": report.comparison.strong_rh_exponent,
            "a_winner": report.comparison.a_winner,
            "note": report.comparison.note,
        },
        "loss_chain": {
            "direct_exponent": report.loss_chain.direct_exponent,
            "extrapolated_exponent": report.loss_chain.extrapolated_exponent,
            "exponent_gap": report.loss_chain.exponent_gap,
            "direct_value": report.loss_chain.direct_value,
            "extrapolated_value": report.loss_chain.extrapolated_value,
        },
    }


# --- dense-mask family oracles: one N-cell mask per cube, all-pairs loops ------------


def oracle_peel_layers(cubes: Sequence[DyadicCube]) -> List[List[DyadicCube]]:
    """Layers by repeatedly removing the maximal cubes (all-pairs test)."""
    remaining = sorted(set(cubes))
    layers: List[List[DyadicCube]] = []
    while remaining:
        maximal = [
            c
            for c in remaining
            if not any(o != c and contains(o, c) for o in remaining)
        ]
        layers.append(maximal)
        kept = set(maximal)
        remaining = [c for c in remaining if c not in kept]
    return layers


def oracle_layer_witnesses(
    layers: Sequence[Sequence[DyadicCube]], grid: DyadicGrid
) -> Dict[DyadicCube, np.ndarray]:
    """Witness E_Q = Q minus the next layer's cubes inside Q."""
    out: Dict[DyadicCube, np.ndarray] = {}
    for j, layer in enumerate(layers):
        next_layer = layers[j + 1] if j + 1 < len(layers) else []
        for cube in layer:
            mask = cube_mask(grid, cube)
            for sub in next_layer:
                if contains(cube, sub):
                    mask &= ~cube_mask(grid, sub)
            out[cube] = mask
    return out


def dense_witnesses(family) -> List[np.ndarray]:
    """A family's witnesses as one dense mask per cube, in cube order."""
    return [family.owner == pos for pos in range(len(family))]


def oracle_verify_sparsity(
    cubes: Sequence[DyadicCube], witnesses: Sequence[np.ndarray], grid: DyadicGrid
) -> Optional[str]:
    """The first violation of containment, strict half measure or
    disjointness on dense masks, or None when the family is 1/2-sparse."""
    if any(cells.size != grid.n_cells for cells in witnesses):
        return "witnesses sized for a different grid"
    coverage = np.zeros(grid.n_cells, dtype=np.int64)
    for cube, cells in zip(cubes, witnesses):
        if not within_cube(cells, grid, cube):
            return f"witness of {cube} leaves the cube"
        start, stop = cube.cell_range(grid.depth)
        size = int(np.count_nonzero(cells))
        if 2 * size <= stop - start:
            return (
                f"witness of {cube} has measure {size}/{stop - start}"
                " of the cube (strictly more than half is required)"
            )
        coverage += cells
    if np.any(coverage > 1):
        return f"witnesses overlap at cell {int(np.argmax(coverage > 1))}"
    return None


def oracle_carleson_packing_ok(
    cubes: Sequence[DyadicCube], witnesses: Sequence[np.ndarray], grid: DyadicGrid
) -> bool:
    """Σ_{Q ⊆ Q0} |E_Q| ≤ |Q0| for every family cube, by all-pairs loops."""
    for outer in cubes:
        start, stop = outer.cell_range(grid.depth)
        packed = sum(
            int(np.count_nonzero(cells))
            for cube, cells in zip(cubes, witnesses)
            if contains(outer, cube)
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
        float(np.sum(f_sq_sigma, where=cells)) for cells in witnesses.values()
    )
    comparability = 0.0
    for cube, avg in zip(bin_cubes, avg_fsigma):
        total = float(np.sum(p0_moments, where=witnesses[cube]))
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


def oracle_default_trace_family(
    f: np.ndarray, w: Weight, grid: DyadicGrid, p0: float, ratio: float = 2.0
) -> np.ndarray:
    """Heap ids of the trace's default family by the density route: the cell
    moments of ``|fσ|^{p0}`` divided by the cell measure, summed into a tree of their own."""
    moments = composed_moment_cells(grid, f, dual_weight(w, 2.0), p0)
    return build_sparse_cz(moments / grid.cell_measure, grid, ratio=ratio).ids


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


def oracle_family_from_jsonable(data: Sequence[dict], grid: DyadicGrid) -> SparseFamily:
    """Family JSON loaded one entry at a time: a ``DyadicCube`` per entry, and
    each witness range checked for overlap and painted by a slice of the owner
    array, so errors come in file order."""
    cubes = []
    owner = np.full(grid.n_cells, -1, dtype=np.int32)
    try:
        entries = list(data)
        for pos, entry in enumerate(entries):
            cubes.append(DyadicCube(exact_int(entry["level"]), exact_int(entry["index"])))
            for start, stop in entry["witness"]:
                if not 0 <= start <= stop <= grid.n_cells:
                    raise SubsetError(
                        f"cell range [{start}, {stop}) outside grid of "
                        f"{grid.n_cells} cells"
                    )
                cells = owner[exact_int(start) : exact_int(stop)]
                taken = (cells >= 0) & (cells != pos)
                if taken.any():
                    raise SparsityViolationError(
                        f"witnesses overlap at cell {start + int(taken.argmax())}"
                    )
                cells[:] = pos
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        if isinstance(exc, WeightlabError):  # a bad cube, named by DyadicCube
            raise
        raise ConfigError(
            "family JSON must be a list of objects with "
            "'level', 'index', and 'witness' keys"
        ) from exc
    return SparseFamily(cubes, owner)


def exact_int(value: object) -> int:
    """A JSON integer field: a bool, a float or a string raises ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def good_set(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    family: Optional[Sequence[DyadicCube] | np.ndarray] = None,
    good_cells: Optional[np.ndarray] = None,
    ratio: float = 2.0,
):
    """:func:`build_good_set` at ``[w]_{A_{2/p0}}``, computed here as
    :func:`~weightlab.tracer.trace_proof` reads it from ``evaluate_bounds``."""
    ap = ap_constant(w, 2.0 / p0, grid)
    return build_good_set(f, w, grid, p0, ap, family, good_cells, ratio)


def oracle_trace_proof(
    f: np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    profile: ExponentProfile,
    family: Sequence[DyadicCube],
    good_cells: Optional[np.ndarray] = None,
) -> dict:
    """The trace's per-cube rows, buckets and bins, one cube at a time.

    ``rows`` holds ``(cube, avg_fsigma, indicator_avg, weight_mass,
    good_mass, r, s, rhs_strict, ratio_strict)`` in (level, index) order.
    """
    p0, q0s = profile.p0, profile.q0_star
    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    gs = good_set(f, w, grid, p0, list(family), good_cells)
    w_totals = heap_levels(w.pyramid(grid, 1.0))
    cellw = w_totals[grid.depth]
    rh = rh_constant(w, q0s, grid)
    eps_max = epsilon_range(w, q0s, grid)
    geh = GehringProfile(q0s, eps_max, eps_max)
    two_pow = 2.0 ** (1.0 / (geh.theta * q0s))
    rh_pow = rh ** (2.0 - geh.gamma)

    p0_moments = composed_moment_cells(grid, fvals, sigma, p0)
    p0_totals = oracle_tree_totals(grid, p0_moments)
    gp_mask = gs.good_prime
    ind_q_totals = oracle_tree_totals(grid, w.cell_integrals(grid, q0s) * gp_mask)
    gp_w_totals = oracle_tree_totals(grid, cellw * gp_mask)

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

    f_sq_sigma = fvals * fvals * heap_levels(sigma.pyramid(grid, 1.0))[grid.depth]
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
            "layer_sizes": tuple(len(layer) for layer in oracle_peel_layers(cubes)),
            "quad_sum": math.fsum(row[1] ** 2 * row[2] * row[0].measure for row in rows),
            "mass_lhs": math.fsum(row[3] for row in rows),
            "witness_mass": float(np.sum(f_sq_sigma[owned])),
            "comparability_max": comparability,
        }
    return out


# --- correctly rounded references ---------------------------------------------------------


def fsum_cube_total(cells: np.ndarray, cube: DyadicCube, depth: int) -> float:
    """The sum of a cube's cell values, correctly rounded (``math.fsum``)."""
    start, stop = cube.cell_range(depth)
    return math.fsum(cells[start:stop].tolist())


def _fsum_longdouble(terms: np.ndarray) -> np.longdouble:
    """The sum of ``np.longdouble`` terms to about ``2**-106`` relative: ``math.fsum``
    of each term's two double parts, and of what its rounding to a double left."""
    hi = terms.astype(np.float64)
    parts = hi.tolist() + (terms - hi).astype(np.float64).tolist()
    total = math.fsum(parts)
    return np.longdouble(total) + np.longdouble(math.fsum(parts + [-total]))


def fsum_sharp_rh(
    values: np.ndarray, t: float, rh: float, cube: DyadicCube
) -> Tuple[float, float]:
    """``(⨍_Q w^t, ratio)`` of the sharp reverse Hölder inequality for the tabulated
    weight ``values`` at its own depth, near correctly rounded: the cell integrals of
    ``w^t`` and ``w`` in ``np.longdouble``, summed by ``math.fsum``, and the rest of
    ``ratio = ⨍_Q w^t / (2·rh^t·⟨w⟩_Q^t)`` in ``np.longdouble``."""
    start, stop = cube.cell_range(values.size.bit_length() - 1)
    cells = values[start:stop].astype(np.longdouble)
    t_ld, size = np.longdouble(t), np.longdouble(stop - start)
    lhs = _fsum_longdouble(cells**t_ld) / size  # the cell length cancels
    mean = _fsum_longdouble(cells) / size
    ratio = lhs / (2 * np.longdouble(rh) ** t_ld * mean**t_ld)
    return float(lhs), float(ratio)


# --- list-form pyramids: one array per level, the layout before the heap ------------


def oracle_tree_totals(grid: DyadicGrid, values: np.ndarray) -> List[np.ndarray]:
    """``totals[k][i]`` = sum of ``values`` over the finest cells of cube ``(k, i)``:
    ``totals[depth]`` is the input and each coarser level the elementwise sum of
    child pairs, in the same left-to-right order as the library's heap."""
    arr = grid.check_values(values)
    totals: List[np.ndarray] = [arr]
    for _ in range(grid.depth):
        arr = arr[0::2] + arr[1::2]
        totals.append(arr)
    totals.reverse()
    return totals


def oracle_a_infty_heap(w: Weight, grid: DyadicGrid) -> np.ndarray:
    """Heap of (1/w(Q)) ∫_Q M(w·1_Q): a per-cell running maximum raised from
    the finest cells to the root, written over a fresh averages heap."""
    out = w.level_averages(grid, 1.0)
    levels = heap_levels(out)
    running = levels[-1].copy()
    with np.errstate(all="ignore"):
        for avg, mass in zip(levels[::-1], heap_levels(w.pyramid(grid, 1.0))[::-1]):
            rows = running.reshape(avg.size, -1)
            np.maximum(rows, avg[:, None], out=rows)
            np.divide(rows.sum(axis=1) * grid.cell_measure, mass, out=avg)
    return out


def oracle_level_maxima(levels: Iterable[np.ndarray]) -> List[Tuple[float, int]]:
    """Each level's first largest non-NaN value and its heap id, ``-inf`` at the
    level's first cube when every value is NaN."""
    out = []
    for vals in levels:
        finite = np.where(np.isnan(vals), -math.inf, vals)
        at = int(np.argmax(finite))
        out.append((float(finite[at]), vals.size - 1 + at))
    return out


def oracle_heap_sup(heap: np.ndarray) -> Tuple[float, DyadicCube]:
    """Supremum over a whole heap of per-cube values, NaN cubes skipped, and the
    first cube in heap order that attains it."""
    finite = np.where(np.isnan(heap), -math.inf, heap)
    at = int(np.argmax(finite))
    level = (at + 1).bit_length() - 1
    return float(finite[at]), DyadicCube(level, at + 1 - (1 << level))


def walked_levels(walk: Iterable[Tuple[int, int, np.ndarray]]) -> List[np.ndarray]:
    """A level walk's values, level by level in walk order: its blocks, copied out of
    the reused buffers and joined, after checking that they tile each level in order
    and that none holds more than ``grid.BLOCK`` cubes."""
    levels: List[Tuple[int, List[np.ndarray]]] = []
    for level, start, values in walk:
        if start == 0:
            levels.append((level, []))
        blocks = levels[-1][1]
        assert levels[-1][0] == level and start == sum(b.size for b in blocks)
        assert 0 < values.size <= grid_module.BLOCK
        blocks.append(values.copy())
    return [np.concatenate(blocks) for _, blocks in levels]


def traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` allocates at its peak above what is already held."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def oracle_power_levels(w: PowerWeight, grid: DyadicGrid, t: float) -> List[np.ndarray]:
    """Per-level cube integrals of ``x**(alpha*t)`` from the antiderivative, each
    level its own array, in the same floating-point operations as the library."""
    e = w.alpha * float(t) + 1.0
    if e == 1.0:
        return [np.full(1 << k, 0.5**k) for k in range(grid.depth + 1)]
    n = grid.n_cells
    right = np.arange(1, n + 1, dtype=np.float64)
    right /= n
    np.power(right, e, out=right)
    right /= e
    gap = np.arange(n, dtype=np.float64)
    rest = gap[1:]
    np.reciprocal(rest, out=rest)
    np.log1p(rest, out=rest)
    rest *= -e
    np.expm1(rest, out=rest)
    np.negative(rest, out=rest)
    gap[0] = 1.0
    return [
        right[(1 << (grid.depth - k)) - 1 :: 1 << (grid.depth - k)] * gap[: 1 << k]
        for k in range(grid.depth + 1)
    ]


# --- ancestor-matrix oracles: every ancestor's value copied onto every cell ----------


def oracle_percube_ap_holder_scan(
    w: Weight,
    p0: float,
    grid: DyadicGrid,
    f: Optional[np.ndarray] = None,
    cells: Optional[np.ndarray] = None,
) -> PerCubeScan:
    """The per-cube scan in heap form: fresh averages heaps of ``⟨w⟩`` and
    ``⟨σ⟩_{L^φ}`` (at A_{2/p0}'s dual moment and power), the tree totals of the two
    masked cell vectors and whole ratio heaps, each supremum the first maximum in
    heap order with NaN cubes skipped.  ``[w]_{A_{2/p0}}`` and its cube are the
    supremum of the per-cube A heap, the worst A ratio that of the heap over it."""
    profile = ExponentProfile(float(p0), math.inf)
    p0, (moment, power) = profile.p0, ap_moment(profile.ap_index)
    sigma = dual_weight(w, 2.0)
    fvals = np.ones(grid.n_cells) if f is None else grid.check_values(f)
    mask = cells if cells is not None else np.ones(grid.n_cells, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma_norm = w.level_averages(grid, moment)
        sigma_norm **= power
        a_heap = w.level_averages(grid, 1.0) * sigma_norm
        ap, ap_cube = oracle_heap_sup(a_heap)
        ap_ratio = oracle_heap_sup(a_heap / ap)[0]
        lhs = to_averages(tree_totals(grid, composed_moment_cells(grid, fvals, sigma, p0) * mask))
        lhs **= profile.ap_index
        f2s = fvals * fvals * heap_levels(sigma.pyramid(grid, 1.0))[-1] * mask
        rhs = to_averages(tree_totals(grid, f2s)) * sigma_norm
        h_ratios = np.where(rhs > 0.0, lhs / rhs, np.where(lhs > 0.0, np.inf, 0.0))
    h_ratios[np.isnan(h_ratios)] = np.inf
    return PerCubeScan(ap, ap_ratio, ap_cube, *oracle_heap_sup(h_ratios))


def ancestor_value_matrix(grid: DyadicGrid, per_level: List[np.ndarray]) -> np.ndarray:
    """Expand per-cube values to a (depth+1, n_cells) per-cell matrix.

    Row ``k`` holds, for every finest cell, the value attached to its level-k
    ancestor. Input ``per_level[k]`` must have length ``2**k``.
    """
    rows = np.empty((grid.depth + 1, grid.n_cells), dtype=np.float64)
    for level, vals in enumerate(per_level):
        rows[level] = np.repeat(np.asarray(vals, dtype=np.float64), 1 << (grid.depth - level))
    return rows


def oracle_averages(grid: DyadicGrid, totals: List[np.ndarray]) -> List[np.ndarray]:
    return [totals[k] * float(1 << k) for k in range(grid.depth + 1)]


def oracle_square_function_from_cell_integrals(
    cell_integrals: np.ndarray, grid: DyadicGrid
) -> np.ndarray:
    """Square function as the column sums of squared matrix-row differences."""
    totals = oracle_tree_totals(grid, np.asarray(cell_integrals, dtype=np.float64))
    rows = ancestor_value_matrix(grid, oracle_averages(grid, totals))
    diffs = rows[1:] - rows[:-1]
    return np.sqrt(np.sum(diffs * diffs, axis=0))


def oracle_restricted_maximal_p0(
    f: np.ndarray,
    grid: DyadicGrid,
    p0: float,
    restriction: Sequence[DyadicCube],
    weight: Weight,
) -> np.ndarray:
    """Restricted L^{p0} maximal function of ``|f|·weight``: a loop over the
    cubes sets each one's average in per-level arrays of zeros, and the column
    maxima of their ancestor matrix give each cell its largest (0 where no cube
    covers it).  Over every cube it is the unrestricted maximal function."""
    totals = oracle_tree_totals(grid, composed_moment_cells(grid, f, weight, p0))
    kept = [np.zeros(1 << k) for k in range(grid.depth + 1)]
    for cube in restriction:
        kept[cube.level][cube.index] = totals[cube.level][cube.index] * float(1 << cube.level)
    return ancestor_value_matrix(grid, kept).max(axis=0) ** (1.0 / p0)


def oracle_maximal_weighted(g: np.ndarray, w: Weight, grid: DyadicGrid) -> np.ndarray:
    """Weighted maximal function as the column maxima of the ratio matrix."""
    num = oracle_tree_totals(grid, np.abs(grid.check_values(g)) * w.cell_integrals(grid, 1.0))
    den = heap_levels(w.pyramid(grid, 1.0))
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


# --- sharp reverse Hölder oracle ---------------------------------------------------------


def oracle_sharp_rh_levels(
    w: Weight, t: float, rh: float, grid: DyadicGrid
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(level, lhs, rhs, ratio)`` of the sharp reverse Hölder inequality one full
    level at a time, coarse to fine, ``lhs`` a view of a fresh averages heap of
    ``w^t`` and ``rhs``, ``ratio`` fresh per level, in the same floating-point
    operations as the library.  An unverified cube reads ``inf``."""
    t = float(t)
    try:
        factor = 2.0 * rh**t
    except OverflowError:
        factor = math.inf
    moments = heap_levels(to_averages(w.cube_totals(grid, t)))
    means = heap_levels(w.pyramid(grid, 1.0))
    for k, lhs in enumerate(moments):
        rhs = np.multiply(means[k], float(1 << k))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.power(rhs, t, out=rhs)
            rhs *= factor
            ratio = lhs / rhs
        ratio[np.isnan(ratio) | np.isinf(rhs)] = np.inf
        yield k, lhs, rhs, ratio


def oracle_max_epsilon_empirical(
    w: Weight,
    p: float,
    grid: DyadicGrid,
    factor: float = 2.0,
    rel_precision: float = 1e-4,
) -> EpsilonSearchResult:
    """The ε search with one kernel pass per bisection probe: the same probes,
    in the same order, as ``max_epsilon_empirical``, each answered by running
    ``gehring.sharp_rh_levels`` (looked up on the module, so a test can count or
    replace it; the search's own probe is ``gehring._worst_ratio``)."""
    p = float(p)
    cap = gehring.EPSILON_CAP
    if isinstance(w, PowerWeight) and w.alpha < 0.0:
        cap = min(cap, (-1.0 / w.alpha) - p)

    def passes(eps: float) -> bool:
        levels = gehring.sharp_rh_levels(w, p + eps, rh, grid)
        worst = max(float(ratio.max()) for *_, ratio in levels)
        return worst <= (factor / 2.0) * (1.0 + 1e-12)

    rh = rh_constant(w, p, grid)
    proven = epsilon_range(w, p, grid)
    shrink = 1.0 - 1e-9
    cap_hit = passes(cap * shrink)
    lo = cap * shrink
    if not cap_hit:
        lo, hi = min(1e-12, cap * shrink / 2.0), cap * shrink
        if not passes(lo):  # no ε passes
            lo = hi = 0.0
        while hi - lo > rel_precision * max(lo, 1e-12):
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
    return EpsilonSearchResult(
        epsilon_empirical=lo,
        cap=cap,
        cap_hit=cap_hit,
        proven_epsilon=proven,
        conjectured_scale=1.0 / rh**p,
        rh=rh,
        factor=factor,
        depth=grid.depth,
    )


def subset_draws(
    grid: DyadicGrid, epsilons: Sequence[float], n_samples: int, seed: int
) -> Iterator[Tuple[DyadicCube, np.ndarray, float]]:
    """The draws of ``random_subset_checks``, one sample at a time:
    ``(cube, E as a full 2**L cell mask, ε)``."""
    rng = np.random.default_rng(seed)
    for i in range(n_samples):
        level = int(rng.integers(0, grid.depth + 1))
        index = int(rng.integers(0, 1 << level))
        cube = DyadicCube(level, index)
        start, stop = cube.cell_range(grid.depth)
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[start:stop] = rng.random(stop - start) < 0.5
        yield cube, mask, float(epsilons[i % len(epsilons)])


def oracle_random_subset_checks(
    w: Weight,
    q0_star: float,
    epsilons: Sequence[float],
    grid: DyadicGrid,
    n_samples: int,
    seed: int,
) -> List[Tuple[DyadicCube, float, InequalityCheck]]:
    """The subset scan one sample at a time: the draws of :func:`subset_draws`,
    each ``w(E)`` summed as ``np.sum(..., where=mask)`` over all cells, not the
    pairwise sum over the cube's slice that the scan forms, and the sides formed
    at one ``[w]_{RH_{q0*}}`` and ``ε_max``."""
    rh = rh_constant(w, q0_star, grid)
    eps_max = epsilon_range(w, q0_star, grid)
    wq = w.power(q0_star)
    cells = heap_levels(w.pyramid(grid, 1.0))[-1]
    cells_q = heap_levels(wq.pyramid(grid, 1.0))[-1]
    out = []
    for cube, mask, eps in subset_draws(grid, epsilons, n_samples, seed):
        lhs, rhs = gehring._subset_sides(
            GehringProfile(float(q0_star), eps, eps_max), rh,
            float(np.sum(cells_q, where=mask)), wq.cube_integral(grid, cube),
            float(np.sum(cells, where=mask)), w.cube_integral(grid, cube),
        )
        out.append((cube, eps, InequalityCheck(lhs=float(lhs), rhs=float(rhs))))
    return out


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
            start, stop = cube.cell_range(grid.depth)
            mid = (start + stop) // 2
            vals = np.zeros(grid.n_cells, dtype=np.float64)
            amp = cube.measure**-0.5
            vals[start:mid] = amp
            vals[mid:stop] = -amp
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


def oracle_corpus_rows(
    weights: Sequence[Weight], grid: DyadicGrid, p: float, corpus
) -> List[List[OperatorNormRow]]:
    """Operator-norm rows of each weight, with every function, its matrix square
    function (formed once for all the weights) and both norms evaluated on the
    finest cells."""
    out: List[List[OperatorNormRow]] = [[] for _ in weights]
    for fn in corpus:
        values = fn.values
        sf = oracle_square_function_from_cell_integrals(values * grid.cell_measure, grid)
        for rows, w in zip(out, weights):
            strong = strong_lp_norm(values, w, grid, p)
            weak = weak_lp_norm(sf, w, grid, p)
            ratio = weak / strong if strong > 0.0 else 0.0
            rows.append(OperatorNormRow(fn.name, strong, weak, ratio))
    return out


# --- per-weight corpus scans ------------------------------------------------------------


def oracle_natural_depth_rows(
    w: Weight, grid: DyadicGrid, p: float, corpus
) -> Tuple[float, List[OperatorNormRow]]:
    """Operator-norm rows of one weight, each function at its natural depth
    ``d`` and its square function one level up: the square function and its
    level sets rebuilt for this weight alone."""
    rows: List[OperatorNormRow] = []
    for fn in corpus:
        d = fn.depth
        at_d = DyadicGrid(d)
        strong = strong_lp_norm(fn.cells, w, grid, p, level=d)
        sf = square_function_from_cell_integrals(fn.cells * at_d.cell_measure, at_d)
        weak = weak_lp_norm(sf, w, grid, p, level=d - 1)
        rows.append(OperatorNormRow(fn.name, strong, weak, weak / strong if strong > 0.0 else 0.0))
    return max((row.ratio for row in rows), default=0.0), rows


# --- value files read a line at a time -----------------------------------------------------


def oracle_read_value_file(path: str, grid: DyadicGrid, positive: bool) -> np.ndarray:
    """Value file parsed by Python's ``float``, one stripped non-blank line at a time."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read value file {path!r}: {exc}") from exc
    lines = [ln for ln in lines if ln]
    if len(lines) != grid.n_cells:
        raise ConfigError(
            f"value file {path!r} has {len(lines)} entries; depth {grid.depth} "
            f"needs exactly {grid.n_cells}"
        )
    try:
        values = np.array([float(ln) for ln in lines], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"value file {path!r}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"value file {path!r} contains non-finite entries")
    if positive and not np.all(values > 0.0):
        raise ConfigError(f"value file {path!r} must be strictly positive")
    return values


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
