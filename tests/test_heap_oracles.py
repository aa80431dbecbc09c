"""Heap pyramids against the list-form oracles, and the level-walk suprema.

A pyramid is one array indexed by heap id ``2**k - 1 + i``.  The oracles in
``helpers`` keep the layout it replaced, one array per level: the heaps must
be the concatenation of those levels bit for bit.  The suprema walk the
levels in blocks of at most ``grid.BLOCK`` cubes in reused buffers; each
level's blocks, joined, must equal the level-form oracles' (built from those
level lists, not from the store's pyramid) bit for bit, and the supremum must
pick the same cube as the heap argmax (the first maximum, coarser level
first), including the exact ties of ``x**alpha`` on the left-edge cubes.
With the block cut to 4 cubes, NaN cubes, all-NaN levels and ties fall across
block boundaries.  A tracemalloc
guard holds ``A_p`` and ``RH_q`` to a few blocks above the moment store, and a
``math.fsum`` reference holds stored totals to the pairwise-summation bound.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    every_cube,
    fsum_cube_total,
    oracle_a_infty_heap,
    oracle_averages,
    oracle_heap_sup,
    oracle_level_maxima,
    oracle_power_levels,
    oracle_tree_totals,
    seeded_tabulated_weights,
    traced_peak,
    walked_levels,
)
import weightlab
from weightlab import (
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    dual_weight,
    heap_levels,
    pow_weight,
)
from weightlab.characteristics import (
    _a_infty_levels,
    a_infty_fw,
    a_infty_fw_per_level,
    ap_constant,
    ap_per_level,
    level_maxima,
    power_levels,
    rh_constant,
    rh_per_level,
    sup_with_argmax,
)
from weightlab import grid as grid_module
from weightlab.grid import tree_totals

DEPTHS = (1, 4, 8, 12)
MOMENTS = (-1.0, 0.5, 1.0, 2.0)
ALPHAS = (-0.25, 0.0, 0.5)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_heap_is_levels(heap: np.ndarray, levels) -> None:
    assert heap.dtype == np.float64 and heap.shape == (2 * levels[-1].size - 1,)
    np.testing.assert_array_equal(_bits(heap), _bits(np.concatenate(levels)))


def _weights():
    """Tabulated weights and x**alpha, each with a power view and a dual view."""
    out = []
    bases = [TabulatedWeight([0.5, 3.0]), *seeded_tabulated_weights(2)]
    for w in [*bases, *(PowerWeight(a) for a in ALPHAS)]:
        out += [w, pow_weight(w, 0.5), dual_weight(w, 3.0)]
    return out


WEIGHTS = _weights()
WEIGHT_IDS = [f"{i}:{w.describe()}" for i, w in enumerate(WEIGHTS)]


def _oracle_levels(w, grid: DyadicGrid, t: float):
    """The pyramid of ``w`` at moment ``t`` computed level by level."""
    if isinstance(w, PowerWeight):
        return oracle_power_levels(w, grid, t)
    return oracle_tree_totals(grid, w.cell_integrals(grid, t))


# --- heaps are the concatenated levels, bit for bit ---------------------------------------


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", ["normal", "wide"])
def test_tree_totals_is_the_level_list(depth, kind):
    grid = DyadicGrid(depth)
    rng = np.random.default_rng([depth, len(kind)])
    values = rng.standard_normal(grid.n_cells)
    if kind == "wide":  # overflow to inf, cancellation, subnormals
        values *= 10.0 ** rng.integers(-320, 308, grid.n_cells)
    with np.errstate(over="ignore", invalid="ignore"):
        heap = tree_totals(grid, values)
        _assert_heap_is_levels(heap, oracle_tree_totals(grid, values))
    assert not np.shares_memory(heap, values)


@pytest.mark.parametrize("depth,sampled", [(12, None), (16, 64)])
def test_pyramid_totals_are_within_pairwise_rounding_of_fsum(depth, sampled):
    # positive terms summed pairwise through depth levels: at most depth·2**-53
    # relative (1.8e-15 at L = 16), far below the verifiers' 1e-12 slack
    grid = DyadicGrid(depth)
    rng = np.random.default_rng([depth, 10])
    w = TabulatedWeight(np.exp(2.0 * rng.standard_normal(grid.n_cells)))
    cubes = every_cube(grid)
    if sampled:  # every cube of the coarse levels, `sampled` of each finer one
        cubes = [DyadicCube(k, int(i)) for k in range(depth + 1)
                 for i in rng.choice(1 << k, min(sampled, 1 << k), replace=False)]
    for t in (1.0, 3.0, 6.0):
        cells, pyramid = w.cell_integrals(grid, t), w.pyramid(grid, t)
        for cube in cubes:
            exact = fsum_cube_total(cells, cube, depth)
            assert abs(pyramid[cube.heap_id] - exact) <= depth * 2.0**-53 * exact, (t, cube)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_pyramids_and_averages_are_the_level_lists(i, depth):
    w = WEIGHTS[i]
    grid = DyadicGrid(max(depth, getattr(w, "native_depth", 1)))
    for t in MOMENTS:
        if not w.moment_admissible(t):
            continue
        levels = _oracle_levels(w, grid, t)
        pyr = w.pyramid(grid, t)
        _assert_heap_is_levels(pyr, levels)
        _assert_heap_is_levels(w.cube_totals(grid, t), levels)
        np.testing.assert_array_equal(_bits(w.cell_integrals(grid, t)), _bits(levels[-1]))
        averages = w.level_averages(grid, t)
        _assert_heap_is_levels(averages, oracle_averages(grid, levels))
        assert averages.flags.writeable and not np.shares_memory(averages, pyr)
        assert not pyr.flags.writeable
        assert all(not level.flags.writeable for level in heap_levels(pyr))


# --- the level walks against the heap oracles ---------------------------------------------


def _oracle_ap(w, p: float, grid: DyadicGrid):
    """The A_p quantity ⟨w⟩_Q (⨍_Q w^{1-p'})^{p-1} of every cube, one array per level."""
    dual_exp = 1.0 - p / (p - 1.0)
    wavg = oracle_averages(grid, _oracle_levels(w, grid, 1.0))
    savg = oracle_averages(grid, _oracle_levels(w, grid, dual_exp))
    with np.errstate(all="ignore"):
        return [wavg[k] * savg[k] ** (p - 1.0) for k in range(grid.depth + 1)]


def _oracle_rh(w, q: float, grid: DyadicGrid):
    """The RH_q quantity (⨍_Q w^q)^{1/q} / ⟨w⟩_Q of every cube, one array per level."""
    wavg = oracle_averages(grid, _oracle_levels(w, grid, 1.0))
    qavg = oracle_averages(grid, _oracle_levels(w, grid, q))
    with np.errstate(all="ignore"):
        return [qavg[k] ** (1.0 / q) / wavg[k] for k in range(grid.depth + 1)]


def _ap_levels(w, p: float, grid: DyadicGrid):
    return power_levels(w, grid, 1.0 - p / (p - 1.0), p - 1.0, np.multiply)


def _rh_levels(w, q: float, grid: DyadicGrid):
    return power_levels(w, grid, q, 1.0 / q, np.divide)


def _check_suprema(w, grid: DyadicGrid) -> None:
    cases = [(_ap_levels, ap_per_level, _oracle_ap, p) for p in (2.0, 3.0)]
    cases += [(_rh_levels, rh_per_level, _oracle_rh, q)
              for q in (1.5, 2.0) if w.moment_admissible(q)]
    for walk, kernel, oracle, x in cases:
        levels = oracle(w, x, grid)
        heap = np.concatenate(levels)
        _assert_heap_is_levels(heap, walked_levels(walk(w, x, grid)))
        maxima = kernel(w, x, grid)
        assert maxima == oracle_level_maxima(levels), (kernel.__name__, x)
        assert sup_with_argmax(maxima) == oracle_heap_sup(heap)


def _check_a_infty(w, grid: DyadicGrid) -> None:
    heap = oracle_a_infty_heap(w, grid)
    _assert_heap_is_levels(heap, walked_levels(_a_infty_levels(w, grid))[::-1])
    maxima = a_infty_fw_per_level(w, grid)
    assert maxima == oracle_level_maxima(heap_levels(heap))
    assert sup_with_argmax(maxima) == oracle_heap_sup(heap)


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_suprema_match_the_level_oracle(i, depth):
    _check_suprema(WEIGHTS[i], DyadicGrid(depth))


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_a_infty_walk_matches_the_heap_oracle(i, depth):
    _check_a_infty(WEIGHTS[i], DyadicGrid(depth))


@pytest.mark.parametrize("depth", [6, 10])
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_walks_in_blocks_of_four_match_the_heap_oracles(i, depth, monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", 4)
    _check_suprema(WEIGHTS[i], DyadicGrid(depth))
    _check_a_infty(WEIGHTS[i], DyadicGrid(depth))


def _subnormal_cell(cell: int) -> np.ndarray:
    """16 cells of mild values with the subnormal 5e-324 at ``cell``: there
    ``⟨w⟩`` underflows to 0 and ``w^{-1}`` overflows, so ``A_2`` reads 0·inf
    and ``RH_2`` 0/0 (NaN) on the finest cube."""
    values = np.linspace(0.5, 2.0, 16)
    values[cell] = 5e-324
    return values


# name -> 16 cell values, walked in blocks of 4 cubes
BLOCK_CASES = {
    "nan-in-a-later-block": _subnormal_cell(9),
    "all-nan-levels": np.full(16, 5e-324),
    "ties-across-blocks": np.tile([0.5, 2.0, 1.0, 3.0], 4),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_boundaries_match_the_heap_oracles(case, monkeypatch):
    monkeypatch.setattr(grid_module, "BLOCK", 4)
    w, grid = TabulatedWeight(BLOCK_CASES[case]), DyadicGrid(4)
    heaps = [(ap_per_level, np.concatenate(_oracle_ap(w, 2.0, grid)), (w, 2.0, grid)),
             (rh_per_level, np.concatenate(_oracle_rh(w, 2.0, grid)), (w, 2.0, grid)),
             (a_infty_fw_per_level, oracle_a_infty_heap(w, grid), (w, grid))]
    for kernel, heap, args in heaps:
        levels = heap_levels(heap)
        maxima = kernel(*args)
        assert maxima == oracle_level_maxima(levels), kernel.__name__
        assert sup_with_argmax(maxima) == oracle_heap_sup(heap)
        if case == "ties-across-blocks":  # each block of the finest level repeats the first
            value, at = maxima[-1]
            assert at - DyadicCube(4, 0).heap_id < 4 and value in levels[-1][4:]
    finest = heap_levels(heaps[1][1])[-1]  # RH_2 on the 16 finest cubes
    if case == "nan-in-a-later-block":
        assert np.isnan(finest).tolist() == [i == 9 for i in range(16)]
    elif case == "all-nan-levels":
        assert np.all(np.isnan(finest))
        assert rh_per_level(w, 2.0, grid)[-1] == (-math.inf, DyadicCube(4, 0).heap_id)


@pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1, 16)[0],
                                  lambda: PowerWeight(-0.25)], ids=["tabulated", "power"])
def test_fine_levels_span_several_real_blocks(make):
    grid = DyadicGrid(16)
    assert grid.n_cells == 4 * grid_module.BLOCK
    _check_suprema(make(), grid)
    _check_a_infty(make(), grid)


@pytest.mark.parametrize("alpha", [-0.25, 0.5])
def test_left_edge_ties_of_a_power_weight_break_toward_the_root(alpha):
    # x**alpha is scale invariant, so every left-edge cube (k, 0) has the same
    # A_p and RH_q quantity up to rounding, with exact ties among them; the
    # walk and the oracle pick the same first maximum
    w, grid = PowerWeight(alpha), DyadicGrid(10)
    heap = np.concatenate(_oracle_ap(w, 2.0, grid))
    edge = heap[[DyadicCube(k, 0).heap_id for k in range(grid.depth + 1)]]
    assert np.unique(edge).size < edge.size  # exact ties do occur
    for kernel, oracle, x in ((ap_per_level, _oracle_ap, 2.0),
                              (ap_per_level, _oracle_ap, 3.0),
                              (rh_per_level, _oracle_rh, 1.5)):
        heap = np.concatenate(oracle(w, x, grid))
        got = sup_with_argmax(kernel(w, x, grid))
        assert got == oracle_heap_sup(heap)


def test_a_infty_argmax_matches_the_level_oracle():
    for w in WEIGHTS:
        heap = oracle_a_infty_heap(w, DyadicGrid(8))
        got = sup_with_argmax(a_infty_fw_per_level(w, DyadicGrid(8)))
        assert got == oracle_heap_sup(heap)


# --- NaN cubes are skipped one at a time ---------------------------------------------------


def _fold(heap: np.ndarray):
    """The supremum of a heap of per-cube values through the fold, each level one block."""
    return sup_with_argmax(level_maxima((k, 0, v) for k, v in enumerate(heap_levels(heap))))


def test_a_nan_cube_does_not_hide_its_level():
    heap = np.array([1.0, math.nan, 5.0, 0.0, 2.0, math.nan, 3.0])
    assert _fold(heap.copy()) == (5.0, DyadicCube(1, 1))
    assert oracle_heap_sup(heap) == (5.0, DyadicCube(1, 1))


def test_an_all_nan_heap_reports_minus_inf_at_the_root():
    assert _fold(np.full(7, math.nan)) == (-math.inf, DyadicCube(0, 0))


def test_subnormal_weight_characteristics_are_quiet(tmp_path):
    # 5e-324**2 and 5e-324/4 underflow to 0 and 5e-324**-1 overflows, so the
    # first cell's quantities are 0/0 and 0*inf: NaN, never reported
    wfile = tmp_path / "w.txt"
    wfile.write_text("5e-324\n1\n3\n1\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(weightlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "weightlab.cli", "char", "--weight-file", str(wfile),
         "--L", "2", "-q", "2"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["ap"]["2.0"], report["ap_argmax"]["2.0"]) == (math.inf, [0, 0])
    assert (report["rh"]["2.0"], report["rh_argmax"]["2.0"]) == (1.4142135623730951, [1, 0])
    assert (report["a_infty"], report["a_infty_argmax"]) == (1.5, [0, 0])


# --- memory: A_p and RH_q hold a few blocks above the moment store, whatever N is --------


@pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1)[0],
                                  lambda: seeded_tabulated_weights(1, 12)[0],
                                  lambda: PowerWeight(-0.25)],
                         ids=["tabulated-refined", "tabulated-native", "power"])
def test_suprema_peak_a_few_blocks_above_the_store(make, monkeypatch):
    # A_p and RH_q: two block buffers and the pyramids' level views, at depth
    # 12 and at depth 16 alike; two N-double level buffers would be 2N doubles.
    # a_infty_fw: its N-double running maximum and one block, plus numpy's ufunc
    # buffer for the broadcast maximum, a fixed np.getbufsize() doubles.  The
    # block is cut to 2**10 cubes so that it is small beside N.
    monkeypatch.setattr(grid_module, "BLOCK", 1 << 10)
    w = make()
    runs = ((ap_constant, 2.0), (ap_constant, 3.0), (rh_constant, 2.0), (rh_constant, 1.5))
    budget = 4 * grid_module.BLOCK * 8
    for grid in (DyadicGrid(12), DyadicGrid(16)):
        for fn, x in runs:  # fill the moment store first
            fn(w, x, grid)
        for fn, x in runs:
            peak = traced_peak(fn, w, x, grid)
            assert peak <= budget, (fn.__name__, x, grid.depth, peak, budget)
    budget = 1.1 * grid.n_cells * 8 + np.getbufsize() * 8
    peak = traced_peak(a_infty_fw, w, grid)
    assert peak <= budget, ("a_infty_fw", peak, budget)
