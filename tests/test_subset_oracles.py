"""The subset scan and the subset bound against the oracle that masks all ``2**L`` cells.

``random_subset_checks`` and ``verify_subset_bound`` sum each subset over its
cube's slice of the finest cells and read the cube's measures from the
pyramids; the oracle (``helpers.oracle_random_subset_checks``) builds a full
cell mask per sample and measures it with ``np.sum(cells, where=mask)``.
``helpers.subset_draws`` repeats the scan's
draws for the oracle and for ``verify_subset_bound``, so cubes, ``ε`` values
and empty draws agree exactly; the sums round differently, so the sides agree
to a pinned relative tolerance.
"""

from __future__ import annotations

import pytest

from helpers import (
    TABULATED_NATIVE_DEPTH,
    oracle_random_subset_checks,
    seeded_tabulated_weights,
    standard_weight_corpus,
    subset_draws,
)
from weightlab import DyadicGrid, epsilon_range, random_subset_checks
from weightlab.gehring import verify_subset_bound

REL = 1e-13
SEEDS = (3, 11, 2024)
SAMPLES = 100


def corpus_at(depth: int):
    """The standard corpus; below the tabulated weights' native depth they are
    seeded at the grid's own depth instead."""
    if depth >= TABULATED_NATIVE_DEPTH:
        return standard_weight_corpus()
    return standard_weight_corpus(n_tabulated=0) + seeded_tabulated_weights(20, depth)


def relative_move(got: float, want: float) -> float:
    """0 for equal values; a zero on one side only is a move of 1."""
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(got), abs(want))


@pytest.mark.parametrize("depth", [4, 8, 12])
def test_subset_rows_match_the_masked_oracle(depth):
    grid = DyadicGrid(depth)
    empty = 0
    for w in corpus_at(depth):
        eps_max = epsilon_range(w, 2.0, grid)
        epsilons = [eps_max * frac for frac in (0.25, 0.5, 1.0)]
        for seed in SEEDS:
            rows = random_subset_checks(w, 2.0, epsilons, grid, SAMPLES, seed)
            want = oracle_random_subset_checks(w, 2.0, epsilons, grid, SAMPLES, seed)
            assert [row[:2] for row in rows] == [row[:2] for row in want]
            for (*_, got), (*_, expected) in zip(rows, want):
                if expected.lhs == 0.0:  # an empty draw: both sides and the ratio 0
                    empty += 1
                    assert (got.lhs, got.rhs, got.ratio) == (0.0, 0.0, 0.0)
                    assert (expected.rhs, expected.ratio) == (0.0, 0.0)
                    continue
                for a, b in ((got.lhs, expected.lhs), (got.rhs, expected.rhs),
                             (got.ratio, expected.ratio)):
                    assert relative_move(a, b) <= REL, (w.describe(), seed, got, expected)
    assert empty > 0


@pytest.mark.parametrize("depth", [4, 8, 12])
def test_subset_bound_matches_the_where_sum_oracle(depth):
    grid = DyadicGrid(depth)
    checked = 0
    for w in corpus_at(depth):
        epsilons = [epsilon_range(w, 2.0, grid) * frac for frac in (0.25, 1.0)]
        want = oracle_random_subset_checks(w, 2.0, epsilons, grid, SAMPLES, 5)
        for (cube, mask, eps), (*_, b) in zip(subset_draws(grid, epsilons, SAMPLES, 5), want):
            a = verify_subset_bound(w, 2.0, eps, cube, mask, grid)
            assert relative_move(a.lhs, b.lhs) <= REL, (w.describe(), a, b)
            assert relative_move(a.rhs, b.rhs) <= REL, (w.describe(), a, b)
            checked += a.lhs > 0.0
    assert checked > 0
