"""Weights: tabulated refinement, exact power moments, duals, compositions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import longdouble_power_pyramid
from weightlab import (
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    dual_weight,
    heap_levels,
    pow_weight,
    unit_weight,
)
from weightlab.errors import DivergentMomentError, WrongLengthError
from weightlab.weights import (
    composed_moment_cells,
    conjugate_exponent,
    measure,
    weighted_l2_norm_sq,
)


class TestTabulatedWeight:
    def test_requires_power_of_two_length(self):
        with pytest.raises(WrongLengthError):
            TabulatedWeight([1.0, 2.0, 3.0])

    def test_requires_strict_positivity(self):
        with pytest.raises(Exception):
            TabulatedWeight([1.0, 0.0])
        with pytest.raises(Exception):
            TabulatedWeight([1.0, -2.0])

    def test_cell_integrals_native_depth(self):
        w = TabulatedWeight([1.0, 3.0, 2.0, 6.0])
        g = DyadicGrid(2)
        np.testing.assert_allclose(
            w.cell_integrals(g, 1.0), np.array([1.0, 3.0, 2.0, 6.0]) / 4
        )

    def test_refinement_repeats_cell_values(self):
        vals = np.array([1.0, 3.0, 2.0, 6.0])
        w = TabulatedWeight(vals)
        g = DyadicGrid(4)  # two levels below the native resolution
        expected = np.repeat(vals, 4) / 16
        np.testing.assert_allclose(w.cell_integrals(g, 1.0), expected)

    def test_moment_is_pointwise_power(self):
        vals = np.array([1.0, 4.0])
        w = TabulatedWeight(vals)
        g = DyadicGrid(1)
        np.testing.assert_allclose(w.cell_integrals(g, 0.5), np.array([1.0, 2.0]) / 2)
        np.testing.assert_allclose(w.cell_integrals(g, -1.0), np.array([1.0, 0.25]) / 2)

    def test_coarser_grid_than_native_depth_is_rejected(self):
        # moments do not coarsen unambiguously, so this must be an error
        w = TabulatedWeight([1.0, 3.0, 2.0, 6.0])
        with pytest.raises(WrongLengthError):
            w.cell_integrals(DyadicGrid(1), 1.0)


class TestPowerWeight:
    def test_admissibility(self):
        w = PowerWeight(-0.5)
        assert w.moment_admissible(1.0)
        assert not w.moment_admissible(2.0)  # alpha*t = -1 diverges
        with pytest.raises(DivergentMomentError):
            w.require_moment(2.0)

    def test_alpha_must_keep_mass_finite(self):
        with pytest.raises(Exception):
            PowerWeight(-1.0)

    def test_exact_antiderivative_on_interior_cube(self):
        # midpoint-rule refinement converges to the closed-form moment
        w = PowerWeight(0.6)
        g = DyadicGrid(3)
        cube = DyadicCube(3, 5)
        a, b = cube.interval()
        n = 1 << 14
        xs = a + (np.arange(n) + 0.5) * (b - a) / n
        riemann = float(np.sum(xs**0.6) * (b - a) / n)
        assert w.cube_integral(g, cube, 1.0) == pytest.approx(riemann, rel=1e-8)

    def test_left_edge_cube_scaling_is_exact(self):
        # integral over [0, 2^-k) of x^(alpha t) scales by 2^-(alpha t + 1) per level
        w = PowerWeight(-0.25)
        g = DyadicGrid(8)
        t = 2.0
        e = -0.25 * t + 1.0
        for k in range(1, 8):
            top = w.cube_integral(g, DyadicCube(k - 1, 0), t)
            bottom = w.cube_integral(g, DyadicCube(k, 0), t)
            assert bottom / top == pytest.approx(2.0**-e, rel=1e-13)

    def test_total_mass(self):
        w = PowerWeight(0.5)
        g = DyadicGrid(6)
        assert w.cube_integral(g, DyadicCube(0, 0), 1.0) == pytest.approx(2 / 3, rel=1e-14)

    @pytest.mark.parametrize(
        "depth, alpha, t",
        [(d, a, t) for d in (12, 16) for a in (-0.25, 0.5) for t in (-1.0, 1.0, 2.0)]
        # e = 53.8 and 61: i**(e-1) and 2**(-k*e) leave the double range
        + [(20, 0.8, 66.0), (20, 3.0, 20.0)],
    )
    def test_cube_integrals_do_not_cancel_at_depth(self, depth, alpha, t):
        # antiderivative differences lose log2(cell index) bits: 1e-11 at depth 16
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("the long double oracle needs an extended-precision long double")
        w = PowerWeight(alpha)
        grid = DyadicGrid(depth)
        got = heap_levels(w.pyramid(grid, t))
        np.testing.assert_array_equal(got[depth], w.cell_integrals(grid, t))
        tiny = np.finfo(np.float64).tiny  # below it a double has no relative precision
        for level, ref in enumerate(longdouble_power_pyramid(alpha, t, depth)):
            assert np.all(np.isfinite(got[level])), level
            err = np.abs(got[level] - ref) / np.maximum(ref, tiny)
            assert float(np.max(err)) <= 1e-12, level

    def test_power_compose(self):
        w = PowerWeight(0.25)
        g = DyadicGrid(5)
        np.testing.assert_allclose(
            w.power(2.0).cell_integrals(g, 1.0), w.cell_integrals(g, 2.0), rtol=1e-14
        )


class TestUnitWeight:
    def test_integrals_equal_measures(self, grid6):
        w = unit_weight()
        for cube in grid6.cubes():
            assert w.cube_integral(grid6, cube, 1.0) == pytest.approx(cube.measure)
            # e = 1 (any moment of 1, moment 0 of x^a) gives the lengths exactly
            assert w.cube_integral(grid6, cube, 3.0) == cube.measure
            assert PowerWeight(0.5).cube_integral(grid6, cube, 0.0) == cube.measure
        full = np.ones(grid6.n_cells, bool)
        assert measure(w, grid6, full) == pytest.approx(1.0)

    def test_measure_checks_its_mask(self, grid6):
        w = PowerWeight(0.5)
        for wrong in (np.ones(8, bool), np.ones((2, grid6.n_cells // 2), bool)):
            with pytest.raises(WrongLengthError):
                measure(w, grid6, wrong)
        ints = np.arange(grid6.n_cells) % 3  # 2 marks a cell of E, it does not double it
        assert measure(w, grid6, ints) == measure(w, grid6, ints > 0)


class TestDuals:
    def test_conjugate_exponent(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.5) == 3.0
        assert conjugate_exponent(3.0) == 1.5
        assert conjugate_exponent(float("inf")) == 1.0
        for bad in (1.0, 0.5, float("nan")):
            with pytest.raises(ValueError):
                conjugate_exponent(bad)

    def test_dual_at_p2_is_reciprocal(self, grid6):
        vals = np.random.default_rng(3).uniform(0.5, 2.0, 64)
        w = TabulatedWeight(vals)
        sigma = dual_weight(w, 2.0)
        np.testing.assert_allclose(
            sigma.cell_integrals(grid6, 1.0), (1.0 / vals) / 64, rtol=1e-14
        )

    def test_dual_at_p3(self, grid6):
        vals = np.random.default_rng(4).uniform(0.5, 2.0, 64)
        w = TabulatedWeight(vals)
        sigma = dual_weight(w, 3.0)  # w^(1-p') = w^(-1/2)
        np.testing.assert_allclose(
            sigma.cell_integrals(grid6, 1.0), vals**-0.5 / 64, rtol=1e-14
        )

    def test_power_weight_dual_is_power(self, grid8):
        sigma = dual_weight(PowerWeight(0.5), 2.0)
        np.testing.assert_allclose(
            sigma.cell_integrals(grid8, 1.0),
            PowerWeight(-0.5).cell_integrals(grid8, 1.0),
            rtol=1e-14,
        )


class TestAveragesAndCompositions:
    def test_lp_average_matches_cell_arithmetic(self, grid6):
        vals = np.random.default_rng(5).uniform(0.5, 2.0, 64)
        w = TabulatedWeight(vals)
        cube = DyadicCube(2, 3)
        start, stop = cube.cell_range(6)
        direct = float(np.mean(vals[start:stop] ** 1.7)) ** (1 / 1.7)
        mean_t = w.cube_integral(grid6, cube, 1.7) * float(1 << cube.level)
        assert mean_t ** (1 / 1.7) == pytest.approx(direct, rel=1e-12)

    def test_composed_moment_cells(self, grid6):
        rng = np.random.default_rng(6)
        f = rng.standard_normal(64)
        vals = rng.uniform(0.5, 2.0, 64)
        w = TabulatedWeight(vals)
        got = composed_moment_cells(grid6, f, w, 1.5)
        expected = (np.abs(f) * vals) ** 1.5 / 64
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_weighted_l2_norm(self, grid6):
        rng = np.random.default_rng(8)
        f = rng.standard_normal(64)
        vals = rng.uniform(0.5, 2.0, 64)
        w = TabulatedWeight(vals)
        assert weighted_l2_norm_sq(grid6, f, w) == pytest.approx(
            float(np.sum(f**2 * vals) / 64), rel=1e-12
        )

    @given(st.floats(0.1, 4.0), st.integers(0, 5))
    def test_pow_weight_moments_compose(self, s, seed):
        g = DyadicGrid(4)
        vals = np.random.default_rng(seed).uniform(0.5, 2.0, 16)
        w = TabulatedWeight(vals)
        ws = pow_weight(w, s)
        np.testing.assert_allclose(
            ws.cell_integrals(g, 1.0), w.cell_integrals(g, s), rtol=1e-12
        )
