"""Powers of a weight as views on the base weight's data and moment store."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from helpers import cold_power, seeded_tabulated_weights, standard_weight_corpus, traced_peak
from weightlab import (
    DyadicGrid,
    ExponentProfile,
    PowerWeight,
    TabulatedWeight,
    dual_weight,
    evaluate_bounds,
    pow_weight,
)
from weightlab.errors import DivergentMomentError
from weightlab.grid import heap_levels
from weightlab.serialize import dump_json
from weightlab.weights import conjugate_exponent

# w**-1, w**2, w**{q0*} (window q0 = 6) and σ = w**{1-p'} (p = 3)
POWERS = (-1.0, 2.0, ExponentProfile(1.0, 6.0).q0_star, 1.0 - conjugate_exponent(3.0))
MOMENTS = (-1.0, 1.0, 2.0)
CORPUS = standard_weight_corpus(n_tabulated=4)


def _same_bytes(a, b) -> bool:
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestViewsShareTheStore:
    def test_power_shares_data_and_store(self):
        w = seeded_tabulated_weights(1)[0]
        for view in (pow_weight(w, 2.0), dual_weight(w, 3.0), pow_weight(w, 2.0).power(0.5)):
            assert type(view) is TabulatedWeight
            assert view._base is w._base
            assert view._pyramids is w._pyramids
        p = PowerWeight(-0.25)
        assert dual_weight(p, 2.0)._pyramids is p._pyramids
        assert dual_weight(p, 2.0).alpha == 0.25

    def test_view_moment_is_base_moment(self, grid6):
        for w in (seeded_tabulated_weights(1)[0], PowerWeight(0.25)):
            assert pow_weight(w, 2.0).pyramid(grid6, 1.0) is w.pyramid(grid6, 2.0)
            assert dual_weight(w, 2.0).pyramid(grid6, -2.0) is w.pyramid(grid6, 2.0)

    def test_values_are_derived(self):
        w = seeded_tabulated_weights(1)[0]
        assert w.values is w._base
        np.testing.assert_array_equal(pow_weight(w, -0.5).values, w._base**-0.5)
        with pytest.raises(AttributeError):
            w.values = w._base

    def test_invalid_powers_are_refused(self):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            TabulatedWeight([1e200, 1.0]).power(2.0)
        with pytest.raises(ValueError):
            TabulatedWeight([1e-200, 1.0]).power(2.0)
        with pytest.raises(DivergentMomentError):
            PowerWeight(-0.5).power(2.0)  # x**-1 is not locally integrable

    def test_power_out_of_the_double_range_is_named_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"w\*\*2 .* 1e\+200\*\*2 = inf"):
                TabulatedWeight([1e200, 1.0]).power(2.0)
            with pytest.raises(ValueError, match=r"w\*\*-2 .* 1e-200\*\*-2 = inf"):
                TabulatedWeight([1e-200, 1.0]).power(-2.0)
            with pytest.raises(ValueError, match=r"w\*\*2 .* 1e-200\*\*2 = 0"):
                TabulatedWeight([1e-200, 1.0]).power(2.0)

    def test_refined_cell_integrals_repeat_the_base_without_a_temporary(self):
        # the base values go straight into out, each repeated over its cells;
        # an np.repeat of them first would take N doubles more
        w = seeded_tabulated_weights(1)[0]
        for depth in (w.native_depth, w.native_depth + 2, w.native_depth + 10):
            grid = DyadicGrid(depth)
            out = np.empty(grid.n_cells)
            assert w.cell_integrals(grid, 1.0, out) is out
            repeated = np.repeat(w._base, grid.n_cells // w._base.size)
            np.testing.assert_array_equal(out, repeated * grid.cell_measure)
        assert traced_peak(w.cell_integrals, grid, 2.0, out) < 0.1 * grid.n_cells * 8

    def test_stored_pyramids_are_read_only(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        sigma = dual_weight(w, 2.0)
        before = [level.copy() for level in heap_levels(w.pyramid(grid6, -1.0))]
        for level in heap_levels(sigma.pyramid(grid6, 1.0)):
            with pytest.raises(ValueError):
                level[0] = 0.0
            with pytest.raises(ValueError):
                level *= 2.0
        assert _same_bytes(heap_levels(w.pyramid(grid6, -1.0)), before)


@pytest.mark.parametrize("depth", [6, 10])
@pytest.mark.parametrize("s", POWERS)
@pytest.mark.parametrize("i", range(len(CORPUS)), ids=lambda i: CORPUS[i].describe())
def test_views_agree_with_cold_copies(depth, s, i):
    grid = DyadicGrid(depth)
    w = CORPUS[i]
    if isinstance(w, PowerWeight) and w.alpha * s <= -1.0:
        pytest.skip("w**s is not locally integrable")
    views = {
        "view": pow_weight(w, s),
        "view of a view": pow_weight(pow_weight(w, 2.0), s / 2.0),
    }
    oracle = cold_power(w, s)
    for name, view in views.items():
        assert view.describe() == oracle.describe(), name
        for t in MOMENTS:
            assert view.moment_admissible(t) == oracle.moment_admissible(t), (name, t)
            if not oracle.moment_admissible(t):
                continue
            for got, want in zip(
                heap_levels(view.pyramid(grid, t)), heap_levels(oracle.pyramid(grid, t))
            ):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=name)


class TestFillOrder:
    def test_pyramids_do_not_depend_on_who_fills_them(self, grid8):
        base_first, view_first = (seeded_tabulated_weights(4)[3] for _ in range(2))
        for s in POWERS:
            for t in MOMENTS:
                view_pyr = pow_weight(view_first, s).pyramid(grid8, t)
                base_pyr = base_first.pyramid(grid8, s * t)
                assert _same_bytes(heap_levels(view_pyr), heap_levels(base_pyr))
                assert view_first.pyramid(grid8, s * t) is view_pyr

    @pytest.mark.parametrize(
        "make",
        [lambda: PowerWeight(-0.25), lambda: seeded_tabulated_weights(4)[3]],
        ids=["power", "tabulated"],
    )
    def test_bounds_json_does_not_depend_on_who_fills_the_store(self, grid8, make):
        w_base = make()
        expected = dump_json(evaluate_bounds(w_base, grid8, 1.0, 4.0).to_jsonable())
        w_views = make()
        for depth, u in w_base._pyramids:
            assert depth == grid8.depth
            pow_weight(w_views, u / 2.0).pyramid(grid8, 2.0)  # fills key u through a view
        assert w_views._pyramids.keys() == w_base._pyramids.keys()
        assert dump_json(evaluate_bounds(w_views, grid8, 1.0, 4.0).to_jsonable()) == expected
        for key, pyr in w_base._pyramids.items():
            assert _same_bytes(heap_levels(w_views._pyramids[key]), heap_levels(pyr))
