"""Instrumented pigeonhole argument: frozen hand traces, layer peeling, scans."""

from __future__ import annotations

import decimal
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    contains,
    cube_mask,
    every_cube,
    geometric_tail_partial,
    good_set,
    oracle_percube_ap_holder_scan,
    oracle_trace_proof,
    seeded_tabulated_weights,
    traced_peak,
    within_cube,
)
from weightlab import (
    ConfigError,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    PowerWeight,
    TabulatedWeight,
    ap_constant,
    build_sparse_cz,
    default_trace_family,
    dual_weight,
    id_cubes,
    percube_ap_holder_scan,
    trace_proof,
    unit_weight,
    verify_sparsity,
)
from weightlab import grid as grid_module
from weightlab.errors import (
    EmptyGoodSetError, EpsilonOutOfRangeError, WrongLengthError, ZeroFunctionError,
)
from weightlab.gehring import verify_subset_bound
from weightlab.sparse import paint_owner, stopping_family
from weightlab.tracer import (
    build_good_set,
    geometric_tail_sum,
    geometric_weighted_tail_sum,
    peel_layers,
)

P14 = ExponentProfile(p0=1.0, q0=4.0)


class TestGeometricSeries:
    @given(st.floats(0.5, 50.0))
    def test_tail_sum_matches_partial_sums(self, x):
        closed = geometric_tail_sum(x)
        partial = geometric_tail_partial(x, terms=4000)
        assert closed == pytest.approx(partial, rel=1e-10)

    @given(st.floats(0.5, 50.0))
    def test_weighted_tail_sum_matches_partial_sums(self, x):
        closed = geometric_weighted_tail_sum(x)
        partial = geometric_tail_partial(x, terms=4000, weighted=True)
        assert closed == pytest.approx(partial, rel=1e-8)

    def test_spot_values(self):
        assert geometric_tail_sum(1.0) == pytest.approx(2.0, rel=1e-14)
        assert geometric_weighted_tail_sum(1.0) == pytest.approx(2.0, rel=1e-14)

    @given(st.floats(1.0, 50.0))
    def test_tail_sum_linear_envelope(self, x):
        # 2^(1/x)/(2^(1/x)-1) <= 2x for x >= 1
        assert geometric_tail_sum(x) <= 2.0 * x * (1 + 1e-12)

    def test_within_8_ulps_of_a_decimal_reference(self):
        # 2^{1/x} − 1 must not be taken from 2^{1/x} rounded to a double: at
        # x = 1e15 that keeps about 2 bits of it
        xs = np.concatenate([np.geomspace(1.0, 1e15, 301),
                             10.0 ** np.random.default_rng(15).uniform(0.0, 15.0, 300)])
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ln2 = decimal.Decimal(2).ln()
            for x in xs.tolist():
                g = (ln2 / decimal.Decimal(x)).exp()
                for got, want in ((geometric_tail_sum(x), float(g / (g - 1))),
                                  (geometric_weighted_tail_sum(x), float(g / (g - 1) ** 2))):
                    assert abs(got - want) <= 8 * math.ulp(want), (x, got, want)

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_finite_or_inf_for_every_positive_scale(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total, weighted = geometric_tail_sum(x), geometric_weighted_tail_sum(x)
        assert total >= 1.0 and weighted >= 0.0  # NaN fails both

    @pytest.mark.parametrize("x, total, weighted", [
        (5e-324, 1.0, 0.0),  # 2^{1/x} passes the double range
        (9e-4, 1.0, 0.0),
        (1e160, 1e160 / math.log(2.0), math.inf),  # (2^{1/x} − 1)² underflows
        (1.7976931348623157e308, math.inf, math.inf),  # and 1/(2^{1/x} − 1) overflows
    ])
    def test_range_ends_read_their_limits(self, x, total, weighted):
        assert geometric_tail_sum(x) == pytest.approx(total, rel=1e-15)
        assert geometric_weighted_tail_sum(x) == weighted


@pytest.fixture(scope="module")
def worked_root_trace():
    g = DyadicGrid(6)
    return trace_proof(np.ones(g.n_cells), unit_weight(), g, P14, [DyadicCube(0, 0)])


@pytest.fixture(scope="module")
def two_bin_trace():
    g = DyadicGrid(4)
    f = np.zeros(g.n_cells)
    f[: g.n_cells // 2] = 1.0
    return trace_proof(f, unit_weight(), g, P14, [DyadicCube(0, 0), DyadicCube(1, 0)])


class TestWorkedRootTrace:
    """Unit weight, constant function, single-cube family: every quantity is
    computable by hand and frozen here."""

    @pytest.fixture()
    def trace(self, worked_root_trace):
        return worked_root_trace

    def test_window_quantities(self, trace):
        assert trace.bounds.q0_star == 2.0
        assert trace.bounds.epsilon == pytest.approx(2 / 3, rel=1e-14)
        assert trace.epsilon_max == pytest.approx(2 / 3, rel=1e-14)
        assert trace.theta == pytest.approx(5 / 3, rel=1e-14)
        assert trace.theta_conj == pytest.approx(5 / 2, rel=1e-14)
        assert trace.bounds.gamma == pytest.approx(1 / 5, rel=1e-14)

    def test_good_set(self, trace):
        assert trace.k_factor == 4.0
        assert trace.threshold == pytest.approx(4.0, rel=1e-14)
        assert trace.good_fraction == pytest.approx(1.0, rel=1e-14)
        assert trace.f_norm_sq == pytest.approx(1.0, rel=1e-14)

    def test_single_bin_with_frozen_ratios(self, trace):
        assert sorted(trace.bins) == [(2, 0)]
        b = trace.bins[(2, 0)]
        assert b.quad_sum == pytest.approx(1.0, rel=1e-14)
        assert b.ratio_via_mass == pytest.approx(1 / (4 * 2**0.3), rel=1e-12)
        assert b.ratio_via_disjoint == pytest.approx(2**-0.3, rel=1e-12)
        assert b.min_ratio <= 1.0
        assert b.comparability_max == pytest.approx(1.0, rel=1e-12)

    def test_average_comparison(self, trace):
        assert len(trace.traced) == 1
        chk = trace.traced
        assert chk.indicator_avg[0] == pytest.approx(1.0, rel=1e-14)
        assert chk.rhs_strict[0] == pytest.approx(2**0.3, rel=1e-13)
        assert chk.ratio_strict[0] == pytest.approx(2**-0.3, rel=1e-13)
        assert 2.0**trace.bounds.gamma == pytest.approx(2**0.2, rel=1e-14)
        assert chk.ratio_strict[0] <= 1.0 + 1e-12

    def test_envelope_and_constant(self, trace):
        assert trace.quad_total == pytest.approx(1.0, rel=1e-14)
        assert trace.envelope == pytest.approx(9 / 4, rel=1e-14)
        assert trace.c0 == pytest.approx(4 / 9, rel=1e-13)

    def test_series_fields(self, trace):
        assert trace.series_scale == pytest.approx(5.0, rel=1e-14)
        assert trace.series_sum == pytest.approx(
            2**0.2 / (2**0.2 - 1), rel=1e-12
        )

    def test_no_anomalous_buckets(self, trace):
        assert trace.zero_bucket.size == 0
        assert trace.overflow_bucket.size == 0
        assert trace.clamped.size == 0

    def test_json_payload(self, trace):
        payload = json.loads(json.dumps(trace.to_jsonable()))
        assert "r=2,s=0" in payload["bins"]
        assert payload["bin_width_slacks"] == {"r": 4.0, "s": 2.0}
        assert payload["c0"] == pytest.approx(4 / 9, rel=1e-12)


class TestTwoBinTrace:
    """Half-indicator against the unit weight with a two-cube family:
    the cubes land in distinct bins and the constant is exactly 2/3."""

    @pytest.fixture()
    def trace(self, two_bin_trace):
        return two_bin_trace

    def test_threshold(self, trace):
        # K * sqrt(ap) * ||f|| / sqrt(w(G)) = 4 * 1 * sqrt(1/2) / 1
        assert trace.threshold == pytest.approx(2 * math.sqrt(2.0), rel=1e-14)
        assert trace.f_norm_sq == pytest.approx(0.5, rel=1e-14)
        assert trace.good_fraction == pytest.approx(1.0, rel=1e-14)

    def test_bins(self, trace):
        assert sorted(trace.bins) == [(1, 0), (2, 0)]
        root_bin = trace.bins[(2, 0)]
        half_bin = trace.bins[(1, 0)]
        assert id_cubes(root_bin.cubes) == [DyadicCube(0, 0)]
        assert id_cubes(half_bin.cubes) == [DyadicCube(1, 0)]
        assert root_bin.quad_sum == pytest.approx(0.25, rel=1e-14)
        assert half_bin.quad_sum == pytest.approx(0.5, rel=1e-14)

    def test_constant(self, trace):
        assert trace.quad_total == pytest.approx(0.75, rel=1e-14)
        assert trace.envelope == pytest.approx(9 / 8, rel=1e-14)
        assert trace.c0 == pytest.approx(2 / 3, rel=1e-13)

    def test_all_gates_pass(self, trace):
        assert trace.worst_average_ratio <= 1 + 1e-12
        assert trace.worst_bin_min_ratio <= 1 + 1e-12
        assert trace.worst_mass_ratio <= 1 + 1e-12


class TestFullTreeLayerCounting:
    def test_depth_three_tree_saturates_the_mass_bound(self):
        # all 15 cubes of the depth-3 tree fall into one bin; the layer
        # counting lhs is Σ|Q| = 4 and the rhs is exactly 4: ratio 1
        g = DyadicGrid(3)
        trace = trace_proof(
            np.ones(g.n_cells), unit_weight(), g, P14, every_cube(g)
        )
        assert sorted(trace.bins) == [(2, 0)]
        b = trace.bins[(2, 0)]
        assert len(b.cubes) == 15
        assert b.mass_lhs == pytest.approx(4.0, rel=1e-14)
        assert b.mass_rhs == pytest.approx(4.0, rel=1e-14)
        assert b.mass_ratio == pytest.approx(1.0, rel=1e-13)
        # the grouped-mass cap still holds; the disjoint-witness route
        # legitimately fails here because the full tree is not sparse
        assert b.ratio_via_mass <= 1 + 1e-12
        assert b.ratio_via_disjoint > 1.0
        assert b.min_ratio <= 1 + 1e-12
        assert b.layer_sizes == (1, 2, 4, 8)


class TestLayerPeeling:
    def test_hand_family(self):
        cubes = [
            DyadicCube(0, 0),
            DyadicCube(1, 0),
            DyadicCube(1, 1),
            DyadicCube(2, 0),
            DyadicCube(3, 1),
        ]
        layers = [id_cubes(layer) for layer in peel_layers(cubes)]
        assert [(c.level, c.index) for c in layers[0]] == [(0, 0)]
        assert [(c.level, c.index) for c in layers[1]] == [(1, 0), (1, 1)]
        assert [(c.level, c.index) for c in layers[2]] == [(2, 0)]
        assert [(c.level, c.index) for c in layers[3]] == [(3, 1)]

    @given(st.sets(st.integers(0, 30), min_size=1, max_size=12))
    def test_layers_partition_and_nest(self, raw):
        # map integers to cubes of a depth-4 grid deterministically
        cubes = []
        for n in sorted(raw):
            level = n % 5
            cubes.append(DyadicCube(level, (n * 7) % (1 << level)))
        cubes = sorted(set(cubes))
        layers = [id_cubes(layer) for layer in peel_layers(cubes)]
        flat = [c for layer in layers for c in layer]
        assert sorted(flat) == cubes
        for layer in layers:
            for a in layer:
                for b in layer:
                    assert a == b or not contains(a, b)
        for upper, lower in zip(layers, layers[1:]):
            for c in lower:
                assert any(contains(p, c) for p in upper)

    def test_layer_witnesses_are_disjoint_and_contained(self):
        g = DyadicGrid(4)
        cubes = [DyadicCube(0, 0), DyadicCube(1, 0), DyadicCube(2, 0), DyadicCube(2, 2)]
        owner = paint_owner(cubes, g)
        wit = {cube: owner == pos for pos, cube in enumerate(cubes)}
        assert set(wit) == set(cubes)
        total = np.zeros(g.n_cells, dtype=int)
        for cube, cells in wit.items():
            assert within_cube(cells, g, cube)
            total += cells
        assert total.max() <= 1
        # the root loses every next-layer cube inside it: both (1,0) and (2,2)
        removed = cube_mask(g, DyadicCube(1, 0)) | cube_mask(g, DyadicCube(2, 2))
        np.testing.assert_array_equal(wit[DyadicCube(0, 0)], ~removed)


class TestGoodSet:
    def test_k_stays_at_four_on_reference_weights(self, grid6):
        # the restricted maximal function obeys the clean weak (2,inf) bound,
        # so the initial K = 4 always retains three quarters of the mass
        for w in [unit_weight(), PowerWeight(-0.25)] + seeded_tabulated_weights(4):
            f = np.ones(grid6.n_cells)
            family = default_trace_family(f, w, grid6, p0=1.0)
            gs = good_set(f, w, grid6, 1.0, family)
            assert gs.k_factor == 4.0
            assert gs.good_fraction >= 0.75 * (1 - 1e-12)

    def test_zero_function_rejected(self, grid6):
        with pytest.raises(ZeroFunctionError):
            good_set(np.zeros(grid6.n_cells), unit_weight(), grid6, 1.0, [DyadicCube(0, 0)])

    def test_function_with_an_infinite_norm_rejected(self, grid6):
        # f² = 1e400 is past the double range, so ‖f‖²_{L²(σ)} cannot be formed
        f = np.full(grid6.n_cells, 1e200)
        with pytest.raises(ConfigError, match="not finite"):
            good_set(f, unit_weight(), grid6, 1.0, [DyadicCube(0, 0)])

    def test_function_with_an_underflowing_norm_rejected(self, grid6):
        # f² = 1e-400 is below the double range: f is not 0, but its norm reads 0
        f = np.full(grid6.n_cells, 1e-200)
        with pytest.raises(ConfigError, match="underflows to 0"):
            good_set(f, unit_weight(), grid6, 1.0, [DyadicCube(0, 0)])
        with pytest.raises(ConfigError, match="underflows to 0"):
            default_trace_family(f, unit_weight(), grid6, 1.0)

    def test_partly_zero_function_with_an_underflowing_norm_is_not_called_zero(self, grid6):
        # one cell of 1e-200 and the rest 0: f is not 0, so the refusal names the underflow
        f = np.zeros(grid6.n_cells)
        f[5] = 1e-200
        with pytest.raises(ConfigError, match="underflows to 0"):
            good_set(f, PowerWeight(-0.25), grid6, 1.0, [DyadicCube(0, 0)])

    def test_small_function_with_a_representable_norm_is_traced(self, grid6):
        # f² = 1e-300 is still a normal double: the norm check lets f through
        f = np.full(grid6.n_cells, 1e-150)
        family = default_trace_family(f, unit_weight(), grid6, 1.0)
        gs = good_set(f, unit_weight(), grid6, 1.0, family)
        assert gs.good_fraction >= 0.75 * (1 - 1e-12)

    def test_default_family_checks_the_norm_before_the_moments(self, grid6):
        # |f|^1.5 = 1e375 would overflow (an error under this suite's warning
        # filter) had the norm check not refused f first
        f = np.full(grid6.n_cells, 1e250)
        with pytest.raises(ConfigError, match="not finite"):
            default_trace_family(f, unit_weight(), grid6, 1.5)
        with pytest.raises(ZeroFunctionError):
            default_trace_family(np.zeros(grid6.n_cells), unit_weight(), grid6, 1.0)

    def test_empty_good_region_rejected(self, grid6):
        with pytest.raises(EmptyGoodSetError):
            good_set(
                np.ones(grid6.n_cells),
                unit_weight(),
                grid6,
                1.0,
                [DyadicCube(0, 0)],
                good_cells=np.zeros(grid6.n_cells, dtype=bool),
            )

    def test_threshold_formula(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        f = np.ones(grid6.n_cells)
        gs = good_set(f, w, grid6, 1.0, [DyadicCube(0, 0)])
        ap = ap_constant(w, 2.0, grid6)
        expected = 4.0 * math.sqrt(ap) * math.sqrt(gs.f_norm_sq) / math.sqrt(gs.good_mass)
        assert gs.threshold == pytest.approx(expected, rel=1e-12)


class TestTraceValidation:
    def test_empty_family_rejected(self, grid6):
        with pytest.raises(ConfigError):
            trace_proof(np.ones(grid6.n_cells), unit_weight(), grid6, P14, [])

    def test_infinite_window_rejected(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=float("inf"))
        with pytest.raises(ConfigError):
            trace_proof(
                np.ones(grid6.n_cells), unit_weight(), grid6, prof, [DyadicCube(0, 0)]
            )

    def test_oversized_epsilon_rejected(self, grid6):
        with pytest.raises(EpsilonOutOfRangeError):
            trace_proof(
                np.ones(grid6.n_cells),
                unit_weight(),
                grid6,
                P14,
                [DyadicCube(0, 0)],
                epsilon=10.0,
            )

    def test_zero_bucket_collects_cubes_outside_good_region(self, grid6):
        f = np.ones(grid6.n_cells)
        left = cube_mask(grid6, DyadicCube(1, 0))
        trace = trace_proof(
            f,
            unit_weight(),
            grid6,
            P14,
            [DyadicCube(1, 0), DyadicCube(1, 1)],
            good_cells=left,
        )
        assert id_cubes(trace.zero_bucket) == [DyadicCube(1, 1)]

    def test_overflow_bucket_collects_flat_cubes(self, grid6):
        f = np.zeros(grid6.n_cells)
        f[: grid6.n_cells // 2] = 1.0
        trace = trace_proof(
            f, unit_weight(), grid6, P14, [DyadicCube(1, 0), DyadicCube(1, 1)]
        )
        assert id_cubes(trace.overflow_bucket) == [DyadicCube(1, 1)]


class TestEpsilonOverride:
    def test_half_range_epsilon_changes_gamma_consistently(self, grid6):
        f = np.ones(grid6.n_cells)
        full = trace_proof(f, unit_weight(), grid6, P14, [DyadicCube(0, 0)])
        eps = full.epsilon_max / 2
        half = trace_proof(
            f, unit_weight(), grid6, P14, [DyadicCube(0, 0)], epsilon=eps
        )
        assert half.bounds.epsilon == pytest.approx(eps, rel=1e-14)
        expected_gamma = eps / (2.0 * (2.0 + eps - 1.0))
        assert half.bounds.gamma == pytest.approx(expected_gamma, rel=1e-13)
        assert half.c0 > 0.0


class TestStandaloneAverageComparison:
    def test_agrees_with_inline_rows(self, grid10):
        w = seeded_tabulated_weights(4)[3]  # a log-normal one
        f = np.ones(grid10.n_cells)
        family = default_trace_family(f, w, grid10, p0=1.0)
        chk = trace_proof(f, w, grid10, P14, family).traced
        assert len(chk) >= 1
        rows = oracle_trace_proof(f, w, grid10, P14, id_cubes(family))["rows"]
        assert id_cubes(chk.ids) == [row[0] for row in rows]
        assert chk.s.tolist() == [row[6] for row in rows]
        for column, j in (("indicator_avg", 2), ("rhs_strict", 7), ("ratio_strict", 8)):
            want = np.array([row[j] for row in rows])
            assert np.all(np.abs(getattr(chk, column) - want) <= 4 * np.spacing(want)), column


class TestDefaultTraceFamily:
    def test_family_is_valid_and_contains_root(self, grid8):
        w = PowerWeight(0.375)
        f = np.ones(grid8.n_cells)
        family = default_trace_family(f, w, grid8, p0=1.0)
        assert DyadicCube(0, 0) in id_cubes(family)
        # the same stopping construction, audited directly
        sigma = dual_weight(w, 2.0)
        from weightlab.weights import composed_moment_cells

        moments = composed_moment_cells(grid8, f, sigma, 1.0) / grid8.cell_measure
        rebuilt = build_sparse_cz(moments, grid8, ratio=2.0)
        assert id_cubes(rebuilt.ids) == id_cubes(family)
        assert verify_sparsity(rebuilt, grid8) is None

    @pytest.mark.parametrize("p0", [-1.0, math.nan, 1e6])
    def test_window_exponent_checked_as_for_the_good_set(self, grid6, p0):
        f = np.random.default_rng(3).standard_normal(grid6.n_cells)
        for w in (unit_weight(), PowerWeight(-0.25)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=r"p0 must lie in \[1, 2\)"):
                    default_trace_family(f, w, grid6, p0)

    def test_good_set_stops_the_default_family_on_its_own_heap(self):
        # the stopping rule reads the heap of |fσ|^{p0} totals a level at a time:
        # no density copy and no second tree (11.5 N doubles when it built both,
        # 8.5 while the sparsity check gathered per cell)
        w, grid = PowerWeight(-0.25), DyadicGrid(16)
        f = np.random.default_rng(16).standard_normal(grid.n_cells)
        good_set(f, w, grid, 1.25)  # fill the moment store
        peak = traced_peak(build_good_set, f, w, grid, 1.25, ap_constant(w, 1.6, grid))
        assert peak <= 7.5 * grid.n_cells * 8, peak / (grid.n_cells * 8)

    def test_trace_reads_the_bins_without_masked_copies(self):
        # each bin's witness moments are one bincount over every cell, and the
        # 1_{G'}·w^{q0*} cells go straight into their tree: 9.36 N doubles when
        # the bins loop gathered owner[owned] and p0_moments[owned]
        w, grid = PowerWeight(-0.25), DyadicGrid(16)
        f = np.random.default_rng(16).standard_normal(grid.n_cells)
        profile = ExponentProfile(1.25, 4.0)
        trace_proof(f, w, grid, profile)  # fill the moment store
        peak = traced_peak(trace_proof, f, w, grid, profile)
        assert peak <= 8.0 * grid.n_cells * 8, peak / (grid.n_cells * 8)

    @staticmethod
    def trace_heap():
        """The |fσ|^{p0} heap of a trace at L = 16, its moment store filled."""
        w, grid = PowerWeight(-0.25), DyadicGrid(16)
        f = np.random.default_rng(16).standard_normal(grid.n_cells)
        return good_set(f, w, grid, 1.25).p0_totals, grid

    def test_sparsity_check_reads_the_owner_runs(self):
        # 3.5 N doubles when the check gathered per cell
        heap, grid = self.trace_heap()
        family = stopping_family(heap, grid)
        peak = traced_peak(verify_sparsity, family, grid)
        assert peak <= 2.5 * grid.n_cells * 8, peak / (grid.n_cells * 8)

    def test_stopping_rule_drops_its_levels_before_painting(self):
        # 6.5 N doubles when the last level's shares and the per-cell check met
        heap, grid = self.trace_heap()
        peak = traced_peak(stopping_family, heap, grid)
        assert peak <= 3.5 * grid.n_cells * 8, peak / (grid.n_cells * 8)


class TestPerCubeScan:
    def test_reference_weights_pass(self, grid8):
        for w in [unit_weight(), PowerWeight(0.25)] + seeded_tabulated_weights(3):
            for p0 in (1.0, 1.25):
                scan = percube_ap_holder_scan(w, p0, grid8)
                assert scan.worst_ap_ratio <= 1 + 1e-12
                assert scan.worst_holder_ratio <= 1 + 1e-12

    def test_with_function_and_subset(self, grid8):
        rng = np.random.default_rng(71)
        w = seeded_tabulated_weights(1)[0]
        f = np.abs(rng.standard_normal(grid8.n_cells)) + 0.05
        cells = rng.random(grid8.n_cells) < 0.5
        scan = percube_ap_holder_scan(w, 1.25, grid8, f=f, cells=cells)
        assert scan.worst_ap_ratio <= 1 + 1e-12
        assert scan.worst_holder_ratio <= 1 + 1e-12

    def test_overflowing_holder_sides_leave_the_scan_unverified(self):
        # f² = 1e400 overflows both Hölder sides, so every cube's ratio is
        # inf/inf: unverified (inf), which must not pass
        scan = percube_ap_holder_scan(unit_weight(), 1.0, DyadicGrid(3), f=np.full(8, 1e200))
        assert scan.worst_ap_ratio == 1.0
        assert scan.worst_holder_ratio == math.inf
        assert scan.worst_holder_cube == DyadicCube(0, 0)

    def test_sup_is_attained_so_worst_ratio_is_one(self):
        # the scan normalises by the characteristic, whose defining sup is
        # attained at some cube, so the worst ratio must be exactly 1
        from weightlab import TabulatedWeight

        g = DyadicGrid(1)
        scan = percube_ap_holder_scan(TabulatedWeight([1.0, 4.0]), 1.0, g)
        assert scan.worst_ap_ratio == 1.0
        assert scan.worst_ap_cube == DyadicCube(0, 0)


# six weights for the scan against its heap-form oracle; tabulated ones at their depth
SCAN_WEIGHTS = {
    "unit": lambda depth: unit_weight(),
    "x^-1/4": lambda depth: PowerWeight(-0.25),
    "x^1/4": lambda depth: PowerWeight(0.25),
    **{f"tab{i}": (lambda depth, i=i: seeded_tabulated_weights(4, depth)[i]) for i in (0, 1, 3)},
}


def _scan_inputs(grid: DyadicGrid):
    """No ``f`` and no ``E``, then a seeded signed ``f`` with a random ``E``."""
    rng = np.random.default_rng(grid.depth)
    return [(None, None), (rng.standard_normal(grid.n_cells), rng.random(grid.n_cells) < 0.5)]


class TestPerCubeScanWalk:
    """The level walk against the heap-form scan of ``oracle_percube_ap_holder_scan``:
    values and argmax cubes bit for bit."""

    @pytest.mark.parametrize("depth", [6, 10])
    @pytest.mark.parametrize("name", list(SCAN_WEIGHTS))
    def test_walk_in_blocks_of_four_is_the_heap_oracle(self, name, depth, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", 4)
        grid, w = DyadicGrid(depth), SCAN_WEIGHTS[name](depth)
        for p0 in (1.0, 1.25, 1.5):
            for f, cells in _scan_inputs(grid):
                got = percube_ap_holder_scan(w, p0, grid, f=f, cells=cells)
                assert got == oracle_percube_ap_holder_scan(w, p0, grid, f=f, cells=cells)

    @pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1, 16)[0],
                                      lambda: PowerWeight(-0.25)], ids=["tabulated", "power"])
    def test_walk_over_several_real_blocks_is_the_heap_oracle(self, make):
        grid, w = DyadicGrid(16), make()
        assert grid.n_cells == 4 * grid_module.BLOCK
        for f, cells in _scan_inputs(grid):
            got = percube_ap_holder_scan(w, 1.25, grid, f=f, cells=cells)
            assert got == oracle_percube_ap_holder_scan(w, 1.25, grid, f=f, cells=cells)

    def test_block_boundaries_match_the_heap_oracle(self, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", 4)
        grid = DyadicGrid(4)
        # f² overflows: every Hölder ratio is inf/inf, unverified, at the root first
        args = (unit_weight(), 1.0, DyadicGrid(3), np.full(8, 1e200), None)
        scan = percube_ap_holder_scan(*args)
        assert scan == oracle_percube_ap_holder_scan(*args)
        assert (scan.worst_holder_ratio, scan.worst_holder_cube) == (math.inf, DyadicCube(0, 0))
        # cell 9 of 1e-200 makes w^{-3} and so [w]_{A_{4/3}} infinite: the A ratio of
        # every cube above cell 9 is inf/inf (NaN, skipped), in the third block of level 4
        values = np.ones(16)
        values[9] = 1e-200
        scan = percube_ap_holder_scan(TabulatedWeight(values), 1.5, grid)
        assert scan == oracle_percube_ap_holder_scan(TabulatedWeight(values), 1.5, grid)
        assert (scan.ap_char, scan.worst_ap_ratio) == (math.inf, 0.0)
        # w and f repeat every four cells, so each block of the finest level repeats
        # the first, where the worst Hölder ratio lies: the tie goes to the first block
        w, f = TabulatedWeight(np.tile([0.5, 2.0, 1.0, 3.0], 4)), np.tile([1.0, 3.0, 2.0, 0.5], 4)
        for p0 in (1.0, 1.5):
            scan = percube_ap_holder_scan(w, p0, grid, f=f)
            assert scan == oracle_percube_ap_holder_scan(w, p0, grid, f=f)
            assert scan.worst_holder_cube.level == 4 and scan.worst_holder_cube.index < 4

    def test_scan_peaks_at_a_few_cell_vectors_above_the_store(self):
        # the two masked cell vectors and the mask, reduced in place, and the
        # walk's block buffers; the heap form held about 16 N doubles
        w, grid = PowerWeight(-0.25), DyadicGrid(16)
        percube_ap_holder_scan(w, 1.25, grid)  # fill the moment store
        peak = traced_peak(percube_ap_holder_scan, w, 1.25, grid)
        assert peak <= 6 * grid.n_cells * 8, peak / (grid.n_cells * 8)

    def test_scan_without_f_peaks_no_higher_than_with_f(self):
        # without f the masked cell vectors are σ's stored moments times the mask, with
        # f they are scaled in place by |f|^{p0} and f²: no vector of ones, no fresh square
        w, grid = PowerWeight(-0.25), DyadicGrid(16)
        ones = np.ones(grid.n_cells)
        with_f = percube_ap_holder_scan(w, 1.25, grid, ones)  # also fills the moment store
        assert percube_ap_holder_scan(w, 1.25, grid) == with_f
        peak_f = traced_peak(percube_ap_holder_scan, w, 1.25, grid, ones)
        peak = traced_peak(percube_ap_holder_scan, w, 1.25, grid)
        n8 = grid.n_cells * 8  # the peaks move by a few hundred bytes of Python objects
        assert peak <= peak_f + 0.01 * n8 and peak_f <= 3.95 * n8, (peak / n8, peak_f / n8)


class TestCellMasks:
    """Every cell-mask input goes through ``DyadicGrid.check_mask``."""

    def test_scan_refuses_a_mask_of_the_wrong_length(self):
        with pytest.raises(WrongLengthError):
            percube_ap_holder_scan(unit_weight(), 1.0, DyadicGrid(3), cells=np.ones(4, bool))

    def test_scan_reads_an_int_mask_as_bool(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        f = np.random.default_rng(2).standard_normal(grid6.n_cells)
        cells = np.arange(grid6.n_cells) % 3  # 0, 1, 2: the 2s are cells of E, not weights
        got = percube_ap_holder_scan(w, 1.25, grid6, f=f, cells=cells)
        assert got == percube_ap_holder_scan(w, 1.25, grid6, f=f, cells=cells > 0)

    def test_good_set_refuses_a_mask_of_the_wrong_length(self, grid6):
        with pytest.raises(WrongLengthError):
            good_set(np.ones(grid6.n_cells), unit_weight(), grid6, 1.0,
                           good_cells=np.ones(8, bool))

    def test_trace_reads_an_int_mask_as_bool(self, grid6):
        w, f = seeded_tabulated_weights(1)[0], np.ones(grid6.n_cells)
        good = np.array([0, 1] * (grid6.n_cells // 2))
        got = trace_proof(f, w, grid6, P14, good_cells=good).to_jsonable()
        assert got == trace_proof(f, w, grid6, P14, good_cells=good > 0).to_jsonable()


class TestMomentStore:
    def test_cell_integrals_run_once_per_stored_pyramid(self, grid6, monkeypatch):
        # at p0 = 1 the trace reads three stored pyramids: w, σ = w^-1 and w^{q0*}
        calls = []
        cell_integrals = TabulatedWeight.cell_integrals
        monkeypatch.setattr(
            TabulatedWeight,
            "cell_integrals",
            lambda self, *args: calls.append(args) or cell_integrals(self, *args),
        )
        w = seeded_tabulated_weights(1)[0]
        f = np.random.default_rng(4).standard_normal(grid6.n_cells)
        family = default_trace_family(f, w, grid6, P14.p0)
        trace_proof(f, w, grid6, P14, family)
        assert len(calls) == len(w._pyramids) == 3

    @pytest.mark.parametrize("p0", [1.25, 1.5])
    def test_a_trace_and_a_scan_fill_one_pyramid_per_moment(self, grid6, p0):
        # the scan's A_{2/p0} fold and Hölder half read the store key of the trace's
        # [w]_{A_{2/p0}}: no second pyramid an ulp away from it
        w = seeded_tabulated_weights(1)[0]
        f = np.random.default_rng(5).standard_normal(grid6.n_cells)
        trace_proof(f, w, grid6, ExponentProfile(p0, 4.0))
        percube_ap_holder_scan(w, p0, grid6, f=f)
        keys = sorted(w._pyramids)
        assert not [(a, b) for a, b in zip(keys, keys[1:])
                    if a[0] == b[0] and math.isclose(a[1], b[1], rel_tol=1e-12)], keys

    def test_cell_masks_stay_writable_and_unchanged(self, grid6):
        rng = np.random.default_rng(12)
        w = seeded_tabulated_weights(1)[0]
        f = np.ones(grid6.n_cells)
        good = rng.random(grid6.n_cells) < 0.9
        cells = rng.random(grid6.n_cells) < 0.5
        sub = cube_mask(grid6, DyadicCube(1, 0)) & cells
        before = [good.copy(), cells.copy(), sub.copy()]
        trace_proof(f, w, grid6, P14, default_trace_family(f, w, grid6, 1.0), good_cells=good)
        percube_ap_holder_scan(w, 1.0, grid6, f=f, cells=cells)
        verify_subset_bound(w, 2.0, 0.1, DyadicCube(1, 0), sub, grid6)
        for mask, copy in zip((good, cells, sub), before):
            np.testing.assert_array_equal(mask, copy)
            assert mask.flags.writeable
            mask[0] = not mask[0]
