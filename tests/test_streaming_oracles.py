"""Level-recursion kernels against the ancestor-matrix oracles in ``helpers``.

The oracles copy every ancestor's value onto every cell, an (L+1)×N matrix,
and reduce it over levels; the library walks the tree one level at a time.
Sums run in the same order and maxima are exact, so the two must agree bit
for bit.  The exception is the square function: the library takes both
siblings' last jump as ``±(a − b)/2`` and returns one value per sibling pair,
where the matrix subtracts the parent from each child, so the two agree to a
few ulps.  The weak norm's candidate levels are reduced by numpy instead of a
Python loop, so its power of each tail mass may differ from the loop
oracle's in the last ulp.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    every_cube,
    oracle_a_infty_fw_per_level,
    oracle_level_maxima,
    oracle_maximal_p0,
    oracle_maximal_weighted,
    oracle_restricted_maximal_p0,
    oracle_square_function_from_cell_integrals,
    oracle_tree_totals,
    oracle_weak_lp_norm,
    seeded_tabulated_weights,
    walked_levels,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    default_trace_family,
    dual_weight,
    dyadic_square_function,
    function_corpus,
    id_cubes,
    maximal_weighted,
    unit_weight,
    weak_lp_norm,
)
from weightlab.characteristics import _a_infty_levels, a_infty_fw_per_level
from weightlab.grid import cube_ids, heap_levels, tree_totals
from weightlab.operators import square_function_from_cell_integrals
from weightlab.tracer import _restricted_maximal, build_good_set
from weightlab.weights import composed_moment_cells

DEPTHS = (6, 8, 10)


# tabulated weights (refined by repetition, so full of ties) and power
# weights, including the constant weight
WEIGHTS = [*seeded_tabulated_weights(4), PowerWeight(-0.375), PowerWeight(0.25), unit_weight()]
WEIGHT_IDS = [f"{i}:{w.describe()}" for i, w in enumerate(WEIGHTS)]


def _corpus(grid: DyadicGrid):
    """Haar atoms, cube indicators (exact zeros and ties) and noise."""
    return [fn.values for fn in function_corpus(grid, n_random=8, structured_max_level=3)]


def _assert_levels_equal(got, want):
    assert len(got) == len(want)
    for level, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"level {level} differs"


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_a_infty_per_level_matches_matrix(w, depth):
    grid = DyadicGrid(depth)
    want = oracle_a_infty_fw_per_level(w, grid)
    _assert_levels_equal(_a_infty_walk(w, grid), want)
    assert a_infty_fw_per_level(w, grid) == oracle_level_maxima(want)


def _a_infty_walk(w, grid: DyadicGrid):
    """The A∞ walk's levels coarse to fine, copied out of its reused buffers."""
    return walked_levels(_a_infty_levels(w, grid))[::-1]


@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_a_infty_leaves_cached_pyramid_intact(w):
    grid = DyadicGrid(7)
    before = [level.copy() for level in heap_levels(w.pyramid(grid, 1.0))]
    first = _a_infty_walk(w, grid)
    _assert_levels_equal(heap_levels(w.pyramid(grid, 1.0)), before)
    _assert_levels_equal(_a_infty_walk(w, grid), first)


def _assert_matches_both_siblings(cells: np.ndarray, grid: DyadicGrid):
    """One value per sibling pair, each within 4 ulps of both of the matrix
    oracle's values for the pair (their last jumps round apart)."""
    got = square_function_from_cell_integrals(cells, grid)
    want = oracle_square_function_from_cell_integrals(cells, grid)
    assert got.shape == (grid.n_cells // 2,)
    for sibling in (want[0::2], want[1::2]):
        ulps = 4.0 * np.spacing(np.maximum(got, sibling))
        assert np.all(np.abs(got - sibling) <= ulps)


@pytest.mark.parametrize("depth", DEPTHS)
def test_square_function_matches_matrix_on_corpus(depth):
    grid = DyadicGrid(depth)
    for values in _corpus(grid):
        _assert_matches_both_siblings(values * grid.cell_measure, grid)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_square_function_of_f_sigma_matches_matrix(w, depth):
    grid = DyadicGrid(depth)
    sigma_cells = dual_weight(w, 2.0).cell_integrals(grid, 1.0)
    for values in _corpus(grid):
        _assert_matches_both_siblings(values * sigma_cells, grid)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("p0", (1.0, 1.5))
@pytest.mark.parametrize("w", [None] + WEIGHTS, ids=["unweighted"] + WEIGHT_IDS)
def test_maximal_p0_matches_matrix(w, p0, depth):
    # restricted to every cube, the good set's maximal function is the
    # unrestricted one, which the matrix oracle forms independently
    grid = DyadicGrid(depth)
    every = cube_ids(every_cube(grid), grid)
    for values in _corpus(grid):
        if w is None:
            moment_cells = np.abs(values) ** p0 * grid.cell_measure
        else:
            moment_cells = composed_moment_cells(grid, values, w, p0)
        assert np.array_equal(
            _restricted_maximal(tree_totals(grid, moment_cells), every, p0),
            oracle_maximal_p0(values, grid, p0, weight=w),
        )


def _restrictions(values, w, grid, p0, rng):
    """The trace's stopping family for ``values``, a random draw of cubes
    with repeats, every cube, and no cube."""
    every = every_cube(grid)
    drawn = [every[j] for j in rng.integers(0, len(every), size=3 * grid.depth)]
    return [default_trace_family(values, w, grid, p0), drawn + drawn[:5], every, []]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("p0", (1.0, 1.5))
@pytest.mark.parametrize("w", [None] + WEIGHTS, ids=["unweighted"] + WEIGHT_IDS)
def test_restricted_maximal_p0_matches_cube_loop(w, p0, depth):
    grid = DyadicGrid(depth)
    rng = np.random.default_rng(depth)
    w = w or unit_weight()
    for values in _corpus(grid)[-4:]:  # the last indicators and noise
        totals = tree_totals(grid, composed_moment_cells(grid, values, w, p0))
        for family in _restrictions(values, w, grid, p0, rng):
            assert np.array_equal(
                _restricted_maximal(totals, cube_ids(family, grid), p0),
                oracle_restricted_maximal_p0(values, grid, p0, id_cubes(cube_ids(family)), w),
            )


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("p0", (1.0, 1.5))
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_good_set_heap_matches_tree_oracle(w, p0, depth):
    # the one pyramid of |fσ|^{p0} totals that the good set and the bins read
    grid = DyadicGrid(depth)
    sigma = dual_weight(w, 2.0)
    for values in _corpus(grid)[-4:]:
        gs = build_good_set(values, w, grid, p0, [DyadicCube(0, 0)])
        assert not gs.p0_totals.flags.writeable
        _assert_levels_equal(
            heap_levels(gs.p0_totals),
            oracle_tree_totals(grid, composed_moment_cells(grid, values, sigma, p0)),
        )


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_maximal_weighted_matches_matrix(w, depth):
    grid = DyadicGrid(depth)
    for values in _corpus(grid):
        assert np.array_equal(
            maximal_weighted(values, w, grid), oracle_maximal_weighted(values, w, grid)
        )


def _assert_within_one_power_ulp(got: float, want: float):
    """numpy's power may differ from Python's by 1 ulp; carried through the
    product with λ and its rounding, that is at most 3 ulps of the norm."""
    assert abs(got - want) <= 3.0 * np.spacing(want), (got, want)


@pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_weak_norm_matches_loop_on_square_functions(w, p):
    grid = DyadicGrid(8)
    for values in _corpus(grid):
        sf = dyadic_square_function(values, grid)
        _assert_within_one_power_ulp(weak_lp_norm(sf, w, grid, p), oracle_weak_lp_norm(sf, w, grid, p))


@pytest.mark.parametrize("p", (1.0, 2.0, 3.0))
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_weak_norm_matches_loop_with_ties_and_zeros(w, p):
    grid = DyadicGrid(8)
    rng = np.random.default_rng(7)
    cases = [
        rng.integers(-3, 4, grid.n_cells).astype(np.float64),  # ties, zeros, signs
        np.where(rng.random(grid.n_cells) < 0.9, 0.0, 2.5),  # one level, mostly zero
        np.full(grid.n_cells, -1.25),  # a single level set
        rng.standard_normal(grid.n_cells),
    ]
    for h in cases:
        _assert_within_one_power_ulp(weak_lp_norm(h, w, grid, p), oracle_weak_lp_norm(h, w, grid, p))


@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_weak_norm_of_zero_is_zero(w):
    grid = DyadicGrid(6)
    zero = np.zeros(grid.n_cells)
    assert weak_lp_norm(zero, w, grid, 2.0) == 0.0 == oracle_weak_lp_norm(zero, w, grid, 2.0)
