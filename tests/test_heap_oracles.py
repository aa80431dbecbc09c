"""Heap pyramids against the list-form oracles, and the level-walk suprema.

A pyramid is one array indexed by heap id ``2**k - 1 + i``.  The oracles in
``helpers`` keep the layout it replaced, one array per level: the heaps must
be the concatenation of those levels bit for bit.  The suprema walk the
levels in one reused buffer; each level's values must equal the heap-form
oracles' (two fresh averages heaps) bit for bit, and the supremum must pick
the same cube as the heap argmax (the first maximum, coarser level first),
including the exact ties of ``x**alpha`` on the left-edge cubes.  A
tracemalloc guard holds the suprema to two levels above the moment store.
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
    oracle_a_infty_heap,
    oracle_ap_heap,
    oracle_averages,
    oracle_heap_sup,
    oracle_level_maxima,
    oracle_power_levels,
    oracle_rh_heap,
    oracle_sup,
    oracle_tree_totals,
    seeded_tabulated_weights,
    traced_peak,
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
    _level_maxima,
    _power_levels,
    _sup_with_argmax,
    a_infty_fw,
    a_infty_fw_per_level,
    ap_constant,
    ap_per_level,
    rh_constant,
    rh_per_level,
)
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
    dual_exp = 1.0 - p / (p - 1.0)
    wavg = oracle_averages(grid, _oracle_levels(w, grid, 1.0))
    savg = oracle_averages(grid, _oracle_levels(w, grid, dual_exp))
    return [wavg[k] * savg[k] ** (p - 1.0) for k in range(grid.depth + 1)]


def _oracle_rh(w, q: float, grid: DyadicGrid):
    wavg = oracle_averages(grid, _oracle_levels(w, grid, 1.0))
    qavg = oracle_averages(grid, _oracle_levels(w, grid, q))
    return [qavg[k] ** (1.0 / q) / wavg[k] for k in range(grid.depth + 1)]


def _walked(levels):
    """A level walk's values, copied out of its reused buffer level by level."""
    return [values.copy() for values in levels]


def _ap_levels(w, p: float, grid: DyadicGrid):
    return _power_levels(w, grid, 1.0 - p / (p - 1.0), p - 1.0, np.multiply)


def _rh_levels(w, q: float, grid: DyadicGrid):
    return _power_levels(w, grid, q, 1.0 / q, np.divide)


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_suprema_match_the_level_oracle(i, depth):
    w, grid = WEIGHTS[i], DyadicGrid(depth)
    cases = [(_ap_levels, ap_per_level, oracle_ap_heap, _oracle_ap, p) for p in (2.0, 3.0)]
    cases += [(_rh_levels, rh_per_level, oracle_rh_heap, _oracle_rh, q)
              for q in (1.5, 2.0) if w.moment_admissible(q)]
    for walk, kernel, heap_oracle, level_oracle, x in cases:
        heap, levels = heap_oracle(w, x, grid), level_oracle(w, x, grid)
        _assert_heap_is_levels(heap, levels)
        _assert_heap_is_levels(heap, _walked(walk(w, x, grid)))
        maxima = kernel(w, x, grid)
        assert maxima == oracle_level_maxima(levels), (kernel.__name__, x)
        assert _sup_with_argmax(maxima) == oracle_sup(levels) == oracle_heap_sup(heap)


@pytest.mark.parametrize("depth", [6, 12])
@pytest.mark.parametrize("i", range(len(WEIGHTS)), ids=WEIGHT_IDS)
def test_a_infty_walk_matches_the_heap_oracle(i, depth):
    w, grid = WEIGHTS[i], DyadicGrid(depth)
    heap = oracle_a_infty_heap(w, grid)
    _assert_heap_is_levels(heap, _walked(_a_infty_levels(w, grid))[::-1])
    maxima = a_infty_fw_per_level(w, grid)
    assert maxima == oracle_level_maxima(heap_levels(heap))
    assert _sup_with_argmax(maxima) == oracle_sup(heap_levels(heap)) == oracle_heap_sup(heap)


@pytest.mark.parametrize("alpha", [-0.25, 0.5])
def test_left_edge_ties_of_a_power_weight_break_toward_the_root(alpha):
    # x**alpha is scale invariant, so every left-edge cube (k, 0) has the same
    # A_p and RH_q quantity up to rounding, with exact ties among them; the
    # walk and both oracles pick the same first maximum
    w, grid = PowerWeight(alpha), DyadicGrid(10)
    heap = oracle_ap_heap(w, 2.0, grid)
    edge = heap[[DyadicCube(k, 0).heap_id for k in range(grid.depth + 1)]]
    assert np.unique(edge).size < edge.size  # exact ties do occur
    for kernel, oracle, x in ((ap_per_level, oracle_ap_heap, 2.0),
                              (ap_per_level, oracle_ap_heap, 3.0),
                              (rh_per_level, oracle_rh_heap, 1.5)):
        heap = oracle(w, x, grid)
        got = _sup_with_argmax(kernel(w, x, grid))
        assert got == oracle_sup(heap_levels(heap)) == oracle_heap_sup(heap)


def test_a_infty_argmax_matches_the_level_oracle():
    for w in WEIGHTS:
        heap = oracle_a_infty_heap(w, DyadicGrid(8))
        got = _sup_with_argmax(a_infty_fw_per_level(w, DyadicGrid(8)))
        assert got == oracle_sup(heap_levels(heap)) == oracle_heap_sup(heap)


# --- NaN cubes are skipped one at a time ---------------------------------------------------


def test_a_nan_cube_does_not_hide_its_level():
    heap = np.array([1.0, math.nan, 5.0, 0.0, 2.0, math.nan, 3.0])
    assert _sup_with_argmax(_level_maxima(heap_levels(heap.copy()))) == (5.0, DyadicCube(1, 1))
    assert oracle_heap_sup(heap) == (5.0, DyadicCube(1, 1))
    # the level-by-level form dropped level 1 whole, as its first maximum is NaN
    dropped = oracle_sup(heap_levels(np.array([1.0, math.nan, 5.0])))
    assert dropped == (1.0, DyadicCube(0, 0))


def test_an_all_nan_heap_reports_minus_inf_at_the_root():
    levels = heap_levels(np.full(7, math.nan))
    assert _sup_with_argmax(_level_maxima(levels)) == (-math.inf, DyadicCube(0, 0))


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


# --- memory: the suprema hold two levels above the moment store -----------------------------


@pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1)[0], lambda: PowerWeight(-0.25)],
                         ids=["tabulated", "power"])
def test_suprema_peak_at_two_levels_above_the_store(make):
    # two N-double level buffers (a_infty_fw: its running maximum and one);
    # a fresh averages heap alone is 2N doubles.  a_infty_fw's broadcast
    # maximum also takes numpy's ufunc buffer, a fixed np.getbufsize() doubles
    grid = DyadicGrid(14)
    w = make()
    budget = 2.1 * grid.n_cells * 8
    runs = ((ap_constant, 2.0), (ap_constant, 3.0), (rh_constant, 2.0), (rh_constant, 1.5))
    for fn, x in runs:  # fill the moment store first
        fn(w, x, grid)
    for fn, x in runs:
        peak = traced_peak(fn, w, x, grid)
        assert peak <= budget, (fn.__name__, x, peak, budget)
    peak = traced_peak(a_infty_fw, w, grid)
    assert peak <= budget + np.getbufsize() * 8, ("a_infty_fw", peak, budget)
