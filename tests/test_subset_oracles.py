"""The subset scan against the per-sample oracle that masks all ``2**L`` cells.

``random_subset_checks`` sums each subset over its cube's slice of the finest
cells and reads the cube's measures from the pyramids; the oracle
(``helpers.oracle_random_subset_checks``) builds a full cell mask per sample
and calls ``verify_subset_bound``.  Both make the same draws, so cubes, ``ε``
values and empty draws agree exactly; the sums round differently, so the
sides agree to a pinned relative tolerance.
"""

from __future__ import annotations

import pytest

from helpers import (
    TABULATED_NATIVE_DEPTH,
    oracle_random_subset_checks,
    seeded_tabulated_weights,
    standard_weight_corpus,
)
from weightlab import DyadicGrid, epsilon_range, random_subset_checks

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
