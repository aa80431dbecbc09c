"""Model operators: square function, maximal functions, exact weighted norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    every_cube, good_set, oracle_restricted_maximal_p0, oracle_weak_lp_norm,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    Weight,
    dyadic_square_function,
    empirical_weak_operator_norm,
    function_corpus,
    maximal_weighted,
    strong_lp_norm,
    unit_weight,
    weak_lp_norm,
)
from weightlab.grid import cube_ids
from weightlab.operators import _level_sets
from weightlab.tracer import _restricted_maximal, build_good_set


class TestSquareFunction:
    def test_two_cell_hand_value(self):
        # averages: root (a+b)/2, children a and b; both increments |a-b|/2
        g = DyadicGrid(1)
        sf = dyadic_square_function(np.array([3.0, 7.0]), g)
        np.testing.assert_allclose(sf, [2.0, 2.0])

    def test_haar_atom_support(self, grid6):
        # a normalised two-sided jump on cube Q concentrates all increments
        # at Q's children, so Sf is constant |Q|^(-1/2) on Q and zero outside
        cube = DyadicCube(2, 1)
        vals = np.zeros(grid6.n_cells)
        s, t = cube.cell_range(grid6.depth)
        half = (t - s) // 2
        amp = cube.measure**-0.5
        vals[s : s + half] = amp
        vals[s + half : t] = -amp
        sf = dyadic_square_function(vals, grid6)
        np.testing.assert_allclose(sf[s:t], amp, rtol=1e-12)
        np.testing.assert_allclose(sf[:s], 0.0, atol=1e-14)
        np.testing.assert_allclose(sf[t:], 0.0, atol=1e-14)

    def test_plancherel_identity(self, grid8):
        # sum of squared increments plus the square of the mean equals ||f||^2
        for fn in function_corpus(grid8, n_random=16):
            f = fn.values
            sf = dyadic_square_function(f, grid8)
            lhs = float(np.mean(sf**2) + np.mean(f) ** 2)
            rhs = float(np.mean(f**2))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 6, 10])
    def test_constant_on_sibling_pairs(self, depth):
        # both children jump from their parent by ±(a − b)/2 and share every coarser jump
        grid = DyadicGrid(depth)
        for fn in function_corpus(grid, n_random=4):
            sf = dyadic_square_function(fn.values, grid)
            assert sf.shape == (grid.n_cells,)
            assert np.array_equal(sf[0::2], sf[1::2]), fn.name

    def test_constant_function_has_zero_square_function(self, grid6):
        sf = dyadic_square_function(np.full(grid6.n_cells, 5.0), grid6)
        np.testing.assert_allclose(sf, 0.0, atol=1e-14)


def _good_set_maximal(f, grid, family, p0=1.0):
    """The family-restricted maximal function of ``f`` on the unit weight,
    read from :func:`build_good_set`'s heap; G' is where it is at most T."""
    gs = good_set(f, unit_weight(), grid, p0, family)
    m = _restricted_maximal(gs.p0_totals, cube_ids(family, grid), p0)
    assert np.array_equal(gs.good_prime, m <= gs.threshold)
    return m


class TestMaximalFunctions:
    def test_hand_example(self):
        g = DyadicGrid(2)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(_good_set_maximal(f, g, every_cube(g)), [1.0, 0.5, 0.25, 0.25])

    def test_p0_is_power_of_plain_maximal(self, grid6):
        rng = np.random.default_rng(31)
        f = rng.standard_normal(grid6.n_cells)
        every = every_cube(grid6)
        direct = _good_set_maximal(f, grid6, every, p0=1.5)
        via_power = _good_set_maximal(np.abs(f) ** 1.5, grid6, every) ** (1 / 1.5)
        np.testing.assert_allclose(direct, via_power, rtol=1e-12)

    def test_restricted_to_root_is_global_average(self, grid6):
        rng = np.random.default_rng(32)
        f = np.abs(rng.standard_normal(grid6.n_cells))
        got = _good_set_maximal(f, grid6, [DyadicCube(0, 0)])
        np.testing.assert_allclose(got, np.mean(f), rtol=1e-12)

    def test_restriction_leaves_uncovered_cells_at_zero(self, grid6):
        f = np.ones(grid6.n_cells)
        got = _good_set_maximal(f, grid6, [DyadicCube(1, 0)])
        half = grid6.n_cells // 2
        np.testing.assert_allclose(got[:half], 1.0)
        np.testing.assert_allclose(got[half:], 0.0)

    def test_dominates_the_function(self, grid6):
        rng = np.random.default_rng(33)
        f = rng.standard_normal(grid6.n_cells)
        m = _good_set_maximal(f, grid6, every_cube(grid6))
        assert np.all(m >= np.abs(f) - 1e-12)

    def test_weighted_maximal_unit_weight_matches_plain(self, grid6):
        rng = np.random.default_rng(34)
        gvals = np.abs(rng.standard_normal(grid6.n_cells))
        np.testing.assert_allclose(
            maximal_weighted(gvals, unit_weight(), grid6),
            oracle_restricted_maximal_p0(gvals, grid6, 1.0, every_cube(grid6), unit_weight()),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("p0", [0.5, 2.0, float("nan")])
    def test_exponent_below_one_or_nan_rejected(self, grid6, p0, monkeypatch):
        def no_moments(*args):
            raise AssertionError("a moment was formed before the exponent check")

        monkeypatch.setattr(Weight, "pyramid", no_moments)
        with pytest.raises(ValueError):  # the unit weight's [w]_{A_{2/p0}} is 1: no moment formed
            build_good_set(np.ones(grid6.n_cells), unit_weight(), grid6, p0, 1.0,
                           [DyadicCube(0, 0)])


class TestWeakNorm:
    @pytest.mark.parametrize("norm", [weak_lp_norm, strong_lp_norm])
    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_exponent_rejected(self, grid6, norm, p):
        with pytest.raises(ValueError):
            norm(np.ones(grid6.n_cells), unit_weight(), grid6, p)

    def test_two_value_hand_example(self):
        # values {1, 2} on halves, unit weight, p = 2:
        # lambda = 2 gives 2 * sqrt(1/2) = sqrt(2) > 1 from lambda = 1
        g = DyadicGrid(1)
        h = np.array([1.0, 2.0])
        got = weak_lp_norm(h, unit_weight(), g, 2.0)
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_matches_brute_force(self, grid6):
        rng = np.random.default_rng(41)
        for w in seeded_tabulated_weights(3):
            for _ in range(5):
                h = rng.standard_normal(grid6.n_cells)
                for p in (1.0, 2.0, 3.0):
                    got = weak_lp_norm(h, w, grid6, p)
                    expected = oracle_weak_lp_norm(h, w, grid6, p)
                    assert got == pytest.approx(expected, rel=1e-12)

    def test_weak_below_strong(self, grid6):
        rng = np.random.default_rng(42)
        w = seeded_tabulated_weights(1)[0]
        for _ in range(20):
            h = rng.standard_normal(grid6.n_cells)
            assert weak_lp_norm(h, w, grid6, 2.0) <= strong_lp_norm(
                h, w, grid6, 2.0
            ) * (1 + 1e-12)

    @given(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan]), min_size=0, max_size=300
        )
    )
    def test_descending_order_is_the_reversed_stable_argsort(self, values):
        # few distinct values, so nearly every entry sits in a tie run
        values = np.array(values, dtype=np.float64)
        order, ends, lam = _level_sets(values)
        np.testing.assert_array_equal(order, np.argsort(values, kind="stable")[::-1])
        assert order.flags.c_contiguous  # the gathers through it read forward
        # each run of equal values ends where the next value differs (the NaNs are one run)
        ranked = values[order]
        differs = (ranked[1:] != ranked[:-1]) & ~(np.isnan(ranked[1:]) & np.isnan(ranked[:-1]))
        np.testing.assert_array_equal(ends, np.flatnonzero(np.append(differs, values.size > 0)))
        np.testing.assert_array_equal(lam, ranked[ends])

    @pytest.mark.parametrize("distinct", [1, 2, 7, 1000, 1 << 20])
    def test_descending_order_on_large_tie_runs(self, distinct):
        values = np.abs(np.random.default_rng(distinct).integers(0, distinct, 1 << 16) - 3.0)
        values[::7] = np.nan  # an unstable sort leaves the NaNs out of index order
        np.testing.assert_array_equal(
            _level_sets(values)[0], np.argsort(values, kind="stable")[::-1]
        )

    def test_indicator_saturates_weak_equals_strong(self, grid6):
        h = np.zeros(grid6.n_cells)
        h[:16] = 3.0
        w = unit_weight()
        assert weak_lp_norm(h, w, grid6, 2.0) == pytest.approx(
            strong_lp_norm(h, w, grid6, 2.0), rel=1e-14
        )


class TestWeightedMaximalWeakType:
    def test_weak_1_1_constant_at_most_one(self, grid6):
        # the weighted maximal function is weak (1,1) with constant exactly 1
        rng = np.random.default_rng(51)
        for w in seeded_tabulated_weights(4):
            for _ in range(25):
                gvals = np.abs(rng.standard_normal(grid6.n_cells))
                m = maximal_weighted(gvals, w, grid6)
                weak = weak_lp_norm(m, w, grid6, 1.0)
                l1 = float(np.sum(gvals * w.cell_integrals(grid6, 1.0)))
                assert weak <= l1 * (1 + 1e-12)


class TestOperatorNormScans:
    def test_rows_cover_the_corpus(self, grid6):
        w = unit_weight()
        corpus = function_corpus(grid6, n_random=8)
        [(best, rows)] = empirical_weak_operator_norm([w], grid6, corpus=corpus)
        assert len(rows) == len(corpus)
        assert best == pytest.approx(max(r.ratio for r in rows))
        assert best >= 0.99  # atoms already give ratio ~ 1 for the unit weight
