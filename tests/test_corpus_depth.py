"""Corpus functions at their natural depth against the dense evaluation.

Each corpus function is stored on the cells of its natural level ``d`` and
evaluated there, reading level ``d`` of the weight's pyramid.  The oracles in
``helpers`` expand every function to the finest cells and evaluate it there;
sums over level-``d`` totals replace sums over cells, so the two agree up to
rounding.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    TABULATED_NATIVE_DEPTH,
    dense_corpus_values,
    oracle_corpus_rows,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicGrid,
    PowerWeight,
    empirical_weak_operator_norm,
    function_corpus,
    strong_lp_norm,
    unit_weight,
    weak_lp_norm,
)
from weightlab.errors import WrongLengthError

DEPTHS = (1, 2, 6, 10)
REL = 1e-13


def _weights(depth):
    tabulated = seeded_tabulated_weights(4, depth=min(depth, TABULATED_NATIVE_DEPTH))
    return [*tabulated, PowerWeight(-0.375), PowerWeight(0.25), unit_weight()]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("depth", DEPTHS)
def test_natural_depths(depth):
    for fn in function_corpus(DyadicGrid(depth), n_random=2):
        kind, _, rest = fn.name.partition("[")
        level = int(rest.split(",")[0].rstrip("]"))
        want = {"haar": level + 1, "indicator": max(level, 1), "random": depth}[kind]
        assert fn.depth == want
        assert fn.cells.shape == (1 << want,)
        assert fn.grid_depth == depth


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("max_level", (6, 2))
def test_values_are_bit_identical_to_the_dense_construction(depth, max_level):
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid, seed=9, n_random=3, structured_max_level=max_level)
    dense = dense_corpus_values(grid, seed=9, n_random=3, structured_max_level=max_level)
    assert [fn.name for fn in corpus] == [name for name, _ in dense]
    for fn, (_, values) in zip(corpus, dense):
        assert fn.values.dtype == np.float64
        assert fn.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("depth", DEPTHS)
def test_rows_match_the_dense_oracle(depth):
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid, n_random=8)
    for w in _weights(depth):
        for p in (2.0, 1.5):
            [(best, rows)] = empirical_weak_operator_norm([w], grid, p=p, corpus=corpus)
            want = oracle_corpus_rows(w, grid, p, corpus)
            assert [r.name for r in rows] == [r.name for r in want]
            for got, ref in zip(rows, want):
                assert _close(got.strong_norm, ref.strong_norm), (w.describe(), got, ref)
                assert _close(got.weak_norm_sf, ref.weak_norm_sf), (w.describe(), got, ref)
                assert _close(got.ratio, ref.ratio), (w.describe(), got, ref)
            assert _close(best, max(r.ratio for r in want))


@pytest.mark.parametrize("norm", (strong_lp_norm, weak_lp_norm))
def test_norms_check_lengths_and_levels(norm):
    grid = DyadicGrid(6)
    w = PowerWeight(-0.25)
    # the default call takes the finest cells only, never a coarser vector
    with pytest.raises(WrongLengthError):
        norm(np.ones(32), w, grid, 2.0)
    with pytest.raises(WrongLengthError):
        norm(np.ones(128), w, grid, 2.0)
    # a declared level takes exactly 2**level values
    with pytest.raises(WrongLengthError):
        norm(np.ones(16), w, grid, 2.0, level=3)
    with pytest.raises(WrongLengthError):
        norm(np.ones(64), w, grid, 2.0, level=3)
    for level in (-1, 7):
        with pytest.raises(ValueError):
            norm(np.ones(8), w, grid, 2.0, level=level)
    # the exponent must be positive and finite
    for p in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            norm(np.ones(64), w, grid, p)
    # a level-3 vector gives the norm of its expansion to the finest cells
    h = np.arange(1.0, 9.0)
    dense = norm(np.repeat(h, 8), w, grid, 2.0)
    assert _close(norm(h, w, grid, 2.0, level=3), dense)
    assert norm(np.repeat(h, 8), w, grid, 2.0, level=6) == dense


@pytest.mark.parametrize("norm", (strong_lp_norm, weak_lp_norm))
def test_norms_at_level_zero_read_the_root_mass(norm):
    # a level-0 value is a constant function: both norms are |h|·w([0, 1))^{1/p}
    grid = DyadicGrid(6)
    for w in _weights(6):
        root = float(w.pyramid(grid, 1.0)[0])
        for p in (1.0, 1.5, 2.0):
            want = 2.5 * root ** (1.0 / p)
            assert _close(norm([-2.5], w, grid, p, level=0), want)
            assert _close(norm(np.full(grid.n_cells, 2.5), w, grid, p), want)
        assert norm([0.0], w, grid, 2.0, level=0) == 0.0
        with pytest.raises(WrongLengthError):
            norm(np.ones(2), w, grid, 2.0, level=0)


def test_corpus_allocates_no_dense_structured_vector():
    # the 64 random vectors of 2**16 doubles (32 MiB) are the only dense ones
    random_block = 64 * (1 << 16) * 8
    tracemalloc.start()
    try:
        corpus = function_corpus(DyadicGrid(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 318
    assert peak <= 1.1 * random_block
