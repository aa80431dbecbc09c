"""One corpus scan for every weight, and the scaffold by prefix sums.

``empirical_weak_operator_norm`` builds each corpus function's square
function and level sets once and evaluates every weight from them.  The
oracle in ``helpers`` rebuilds them for each weight alone; both do the same
arithmetic on the same values, so the rows must be bit-identical.

``equivalence_scaffold`` reads every candidate set off one descending order
of ``S(fσ)`` by prefix sums.  Its oracle builds one ``N``-cell mask per level
set and sums under it: ``n2_sq`` and the set count are equal, the pairing
supremum agrees up to the rounding of the two summation orders.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import (
    TABULATED_NATIVE_DEPTH,
    oracle_equivalence_scaffold,
    oracle_natural_depth_maximal_constant,
    oracle_natural_depth_rows,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicGrid,
    PowerWeight,
    ap_constant,
    empirical_maximal_weak_constant,
    empirical_weak_operator_norm,
    equivalence_scaffold,
    function_corpus,
    unit_weight,
)

SWEEP_ALPHAS = np.linspace(-0.375, 0.375, 7)  # the default sweep, with alpha 0 the unit weight


def _weights(depth):
    sweep = [unit_weight() if a == 0.0 else PowerWeight(float(a)) for a in SWEEP_ALPHAS]
    return sweep + seeded_tabulated_weights(4, depth=min(depth, TABULATED_NATIVE_DEPTH))


@pytest.mark.parametrize("p, threads", [(2.0, "1"), (1.5, "1"), (2.0, "2")])
@pytest.mark.parametrize("depth", (2, 6, 10, 12))
def test_rows_are_bit_identical_to_the_per_weight_oracle(depth, p, threads, monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", threads)
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid)
    weights = _weights(depth)
    scans = empirical_weak_operator_norm(weights, grid, p=p, corpus=corpus)
    assert len(scans) == len(weights)
    for w, (best, rows) in zip(weights, scans):
        want_best, want_rows = oracle_natural_depth_rows(w, grid, p, corpus)
        assert rows == want_rows, w.describe()
        assert best == want_best, w.describe()


@pytest.mark.parametrize("depth", (2, 6, 10, 12))
def test_maximal_constant_is_bit_identical_to_the_per_weight_oracle(depth):
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid, n_random=16)
    for w in _weights(depth):
        ap_sqrt = ap_constant(w, 2.0, grid) ** 0.5  # A_{4/3} diverges for x^0.375
        for p0 in (1.0, 1.5):
            got = empirical_maximal_weak_constant(w, grid, p0, ap_sqrt, corpus=corpus)
            assert got == oracle_natural_depth_maximal_constant(w, grid, p0, ap_sqrt, corpus)


def test_empty_weight_list_and_empty_corpus():
    grid = DyadicGrid(4)
    assert empirical_weak_operator_norm([], grid) == []
    weights = [unit_weight(), PowerWeight(-0.25)]
    assert empirical_weak_operator_norm(weights, grid, corpus=[]) == [(0.0, []), (0.0, [])]


def _scaffold_functions(grid):
    rng = np.random.default_rng(63)
    quarter = np.zeros(grid.n_cells)
    quarter[: grid.n_cells // 4] = 1.0
    sparse = np.where(rng.random(grid.n_cells) < 0.05, rng.standard_normal(grid.n_cells), 0.0)
    return [
        np.ones(grid.n_cells),  # S(fσ) = 0 for the unit weight: one tested set
        quarter,
        np.abs(rng.standard_normal(grid.n_cells)) + 0.1,
        rng.standard_normal(grid.n_cells),
        sparse,
        np.zeros(grid.n_cells),
    ]


@pytest.mark.parametrize("depth", (6, 10, 12))
def test_scaffold_matches_the_mask_oracle(depth):
    grid = DyadicGrid(depth)
    weights = [unit_weight(), PowerWeight(-0.25), PowerWeight(0.375),
               *seeded_tabulated_weights(2, depth=min(depth, TABULATED_NATIVE_DEPTH))]
    for w in weights:
        for f in _scaffold_functions(grid):
            got = equivalence_scaffold(f, w, grid)
            want = oracle_equivalence_scaffold(f, w, grid)
            assert got.n2_sq == want.n2_sq
            assert got.tested_sets == want.tested_sets
            assert abs(got.pairing_sup - want.pairing_sup) <= 1e-13 * abs(want.pairing_sup)
            assert got.consistent_within_16 == want.consistent_within_16


def test_scaffold_memory_is_linear():
    grid = DyadicGrid(16)  # one mask per level set would hold 2**16 masks of 2**16 bools
    f = np.abs(np.random.default_rng(64).standard_normal(grid.n_cells)) + 0.1
    w = PowerWeight(-0.25)
    tracemalloc.start()
    try:
        scaffold = equivalence_scaffold(f, w, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scaffold.tested_sets > 1000 and scaffold.consistent_within_16
    assert peak <= 10 * (1 << 20), peak / (1 << 20)
