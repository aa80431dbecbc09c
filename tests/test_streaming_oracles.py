"""Level-recursion kernels against the ancestor-matrix oracles in ``helpers``.

The oracles copy every ancestor's value onto every cell, an (L+1)×N matrix,
and reduce it over levels; the library walks the tree one level at a time.
Sums run in the same order and maxima are exact, so the two must agree bit
for bit.  The weak norm's candidate levels are reduced by numpy instead of a
Python loop, so its power of each tail mass may differ from the loop
oracle's in the last ulp.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    oracle_a_infty_fw_per_level,
    oracle_maximal_p0,
    oracle_maximal_weighted,
    oracle_restricted_maximal_p0,
    oracle_square_function_from_cell_integrals,
    oracle_weak_lp_norm,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    LevelOverflowError,
    PowerWeight,
    cube_ids,
    default_trace_family,
    dual_weight,
    function_corpus,
    id_cubes,
    maximal_p0,
    maximal_weighted,
    square_function_from_cell_integrals,
    unit_weight,
    weak_lp_norm,
)
from weightlab.characteristics import a_infty_fw_per_level

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
    _assert_levels_equal(a_infty_fw_per_level(w, grid), oracle_a_infty_fw_per_level(w, grid))


@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_a_infty_leaves_cached_pyramid_intact(w):
    grid = DyadicGrid(7)
    before = [level.copy() for level in w.pyramid(grid, 1.0)]
    first = a_infty_fw_per_level(w, grid)
    _assert_levels_equal(w.pyramid(grid, 1.0), before)
    _assert_levels_equal(a_infty_fw_per_level(w, grid), first)


@pytest.mark.parametrize("depth", DEPTHS)
def test_square_function_matches_matrix_on_corpus(depth):
    grid = DyadicGrid(depth)
    for values in _corpus(grid):
        cells = values * grid.cell_measure
        assert np.array_equal(
            square_function_from_cell_integrals(cells, grid),
            oracle_square_function_from_cell_integrals(cells, grid),
        )


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("w", WEIGHTS, ids=WEIGHT_IDS)
def test_square_function_of_f_sigma_matches_matrix(w, depth):
    grid = DyadicGrid(depth)
    sigma_cells = dual_weight(w, 2.0).cell_integrals(grid, 1.0)
    for values in _corpus(grid):
        cells = values * sigma_cells
        assert np.array_equal(
            square_function_from_cell_integrals(cells, grid),
            oracle_square_function_from_cell_integrals(cells, grid),
        )


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("p0", (1.0, 1.5))
@pytest.mark.parametrize("w", [None] + WEIGHTS, ids=["unweighted"] + WEIGHT_IDS)
def test_maximal_p0_matches_matrix(w, p0, depth):
    grid = DyadicGrid(depth)
    for values in _corpus(grid):
        assert np.array_equal(
            maximal_p0(values, grid, p0, weight=w),
            oracle_maximal_p0(values, grid, p0, weight=w),
        )


def _restrictions(values, w, grid, p0, rng):
    """The trace's stopping family for ``values``, a random draw of cubes
    with repeats, every cube, and no cube."""
    every = [DyadicCube(k, i) for k in range(grid.depth + 1) for i in range(1 << k)]
    drawn = [every[j] for j in rng.integers(0, len(every), size=3 * grid.depth)]
    return [default_trace_family(values, w, grid, p0), drawn + drawn[:5], every, []]


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("p0", (1.0, 1.5))
@pytest.mark.parametrize("w", [None] + WEIGHTS, ids=["unweighted"] + WEIGHT_IDS)
def test_restricted_maximal_p0_matches_cube_loop(w, p0, depth):
    grid = DyadicGrid(depth)
    rng = np.random.default_rng(depth)
    for values in _corpus(grid)[-4:]:  # the last indicators and noise
        for family in _restrictions(values, w or unit_weight(), grid, p0, rng):
            assert np.array_equal(
                maximal_p0(values, grid, p0, restriction=family, weight=w),
                oracle_restricted_maximal_p0(
                    values, grid, p0, id_cubes(cube_ids(family)), weight=w
                ),
            )


def test_restricted_maximal_p0_rejects_a_cube_below_the_grid():
    grid = DyadicGrid(4)
    with pytest.raises(LevelOverflowError):
        maximal_p0(np.ones(grid.n_cells), grid, restriction=[DyadicCube(0, 0), DyadicCube(5, 3)])


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
        sf = square_function_from_cell_integrals(values * grid.cell_measure, grid)
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
