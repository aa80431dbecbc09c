"""Instrumented pigeonhole argument: frozen hand traces, layer peeling, scans."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    geometric_tail_partial,
    seeded_tabulated_weights,
    verify_average_comparison,
)
from weightlab import (
    CellSet,
    ConfigError,
    DyadicCube,
    DyadicGrid,
    EmptyGoodSetError,
    EpsilonOutOfRangeError,
    ExponentProfile,
    PowerWeight,
    ZeroFunctionError,
    build_good_set,
    build_sparse_cz,
    default_trace_family,
    dual_weight,
    geometric_tail_sum,
    geometric_weighted_tail_sum,
    id_cubes,
    peel_layers,
    percube_ap_holder_scan,
    trace_proof,
    unit_weight,
    verify_sparsity,
)
from weightlab.sparse import paint_owner

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
        assert trace.q0_star == 2.0
        assert trace.epsilon == pytest.approx(2 / 3, rel=1e-14)
        assert trace.epsilon_max == pytest.approx(2 / 3, rel=1e-14)
        assert trace.theta == pytest.approx(5 / 3, rel=1e-14)
        assert trace.theta_conj == pytest.approx(5 / 2, rel=1e-14)
        assert trace.gamma == pytest.approx(1 / 5, rel=1e-14)

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
        assert 2.0**trace.gamma == pytest.approx(2**0.2, rel=1e-14)
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
            np.ones(g.n_cells), unit_weight(), g, P14, list(g.cubes())
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
                    assert a == b or not a.contains(b)
        for upper, lower in zip(layers, layers[1:]):
            for c in lower:
                assert any(p.contains(c) for p in upper)

    def test_layer_witnesses_are_disjoint_and_contained(self):
        g = DyadicGrid(4)
        cubes = [DyadicCube(0, 0), DyadicCube(1, 0), DyadicCube(2, 0), DyadicCube(2, 2)]
        owner = paint_owner(cubes, g)
        wit = {cube: CellSet(owner == pos) for pos, cube in enumerate(cubes)}
        assert set(wit) == set(cubes)
        total = np.zeros(g.n_cells, dtype=int)
        for cube, cells in wit.items():
            assert cells.within_cube(g, cube)
            total += cells.mask
        assert total.max() <= 1
        # the root loses every next-layer cube inside it: both (1,0) and (2,2)
        removed = CellSet.from_cube(g, DyadicCube(1, 0)).union(
            CellSet.from_cube(g, DyadicCube(2, 2))
        )
        np.testing.assert_array_equal(wit[DyadicCube(0, 0)].mask, ~removed.mask)


class TestGoodSet:
    def test_k_stays_at_four_on_reference_weights(self, grid6):
        # the restricted maximal function obeys the clean weak (2,inf) bound,
        # so the initial K = 4 always retains three quarters of the mass
        for w in [unit_weight(), PowerWeight(-0.25)] + seeded_tabulated_weights(4):
            f = np.ones(grid6.n_cells)
            family = default_trace_family(f, w, grid6, p0=1.0)
            gs = build_good_set(f, w, grid6, 1.0, family)
            assert gs.k_factor == 4.0
            assert gs.good_fraction >= 0.75 * (1 - 1e-12)

    def test_zero_function_rejected(self, grid6):
        with pytest.raises(ZeroFunctionError):
            build_good_set(np.zeros(grid6.n_cells), unit_weight(), grid6, 1.0, [DyadicCube(0, 0)])

    def test_empty_good_region_rejected(self, grid6):
        with pytest.raises(EmptyGoodSetError):
            build_good_set(
                np.ones(grid6.n_cells),
                unit_weight(),
                grid6,
                1.0,
                [DyadicCube(0, 0)],
                good_cells=CellSet.empty(grid6),
            )

    def test_threshold_formula(self, grid6):
        from weightlab import ap_constant

        w = seeded_tabulated_weights(1)[0]
        f = np.ones(grid6.n_cells)
        gs = build_good_set(f, w, grid6, 1.0, [DyadicCube(0, 0)])
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
        left = CellSet.from_cube(grid6, DyadicCube(1, 0))
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
        assert half.epsilon == pytest.approx(eps, rel=1e-14)
        expected_gamma = eps / (2.0 * (2.0 + eps - 1.0))
        assert half.gamma == pytest.approx(expected_gamma, rel=1e-13)
        assert half.c0 > 0.0


class TestStandaloneAverageComparison:
    def test_agrees_with_inline_rows(self, grid10):
        w = seeded_tabulated_weights(4)[3]  # a log-normal one
        f = np.ones(grid10.n_cells)
        family = default_trace_family(f, w, grid10, p0=1.0)
        gs = build_good_set(f, w, grid10, 1.0, family)
        trace = trace_proof(f, w, grid10, P14, family)
        chk = trace.traced
        assert len(chk) >= 1
        for j, cube in enumerate(id_cubes(chk.ids)):
            redo = verify_average_comparison(
                w, 2.0, trace.epsilon, cube, int(chk.s[j]), gs.good_prime, grid10
            )
            assert redo.lhs == pytest.approx(chk.indicator_avg[j], rel=1e-12)
            assert redo.rhs_strict == pytest.approx(chk.rhs_strict[j], rel=1e-12)
            assert redo.ratio_strict == pytest.approx(chk.ratio_strict[j], rel=1e-12)


class TestDefaultTraceFamily:
    def test_family_is_valid_and_contains_root(self, grid8):
        w = PowerWeight(0.375)
        f = np.ones(grid8.n_cells)
        family = default_trace_family(f, w, grid8, p0=1.0)
        assert DyadicCube(0, 0) in id_cubes(family)
        # the same stopping construction, audited directly
        sigma = dual_weight(w, 2.0)
        from weightlab import composed_moment_cells

        moments = composed_moment_cells(grid8, f, sigma, 1.0) / grid8.cell_measure
        rebuilt = build_sparse_cz(moments, grid8, ratio=2.0)
        assert list(rebuilt.cubes) == id_cubes(family)
        assert verify_sparsity(rebuilt, grid8).ok


class TestPerCubeScan:
    def test_reference_weights_pass(self, grid8):
        for w in [unit_weight(), PowerWeight(0.25)] + seeded_tabulated_weights(3):
            for p0 in (1.0, 1.25):
                scan = percube_ap_holder_scan(w, p0, grid8)
                assert scan.passed
                assert scan.worst_ap_ratio <= 1 + 1e-12

    def test_with_function_and_subset(self, grid8):
        rng = np.random.default_rng(71)
        w = seeded_tabulated_weights(1)[0]
        f = np.abs(rng.standard_normal(grid8.n_cells)) + 0.05
        cells = CellSet(rng.random(grid8.n_cells) < 0.5)
        scan = percube_ap_holder_scan(w, 1.25, grid8, f=f, cells=cells)
        assert scan.passed
        assert scan.worst_holder_ratio <= 1 + 1e-12

    def test_sup_is_attained_so_worst_ratio_is_one(self):
        # the scan normalises by the characteristic, whose defining sup is
        # attained at some cube, so the worst ratio must be exactly 1
        from weightlab import TabulatedWeight

        g = DyadicGrid(1)
        scan = percube_ap_holder_scan(TabulatedWeight([1.0, 4.0]), 1.0, g)
        assert scan.worst_ap_ratio == pytest.approx(1.0, rel=1e-12)
        assert scan.worst_ap_cube == DyadicCube(0, 0)
