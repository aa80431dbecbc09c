"""Self-improving integrability: proven ranges, the sharp RH kernel, subset bounds."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cube_mask,
    oracle_max_epsilon_empirical,
    oracle_sharp_rh,
    oracle_sharp_rh_levels,
    oracle_worst_ratio,
    seeded_tabulated_weights,
    standard_weight_corpus,
    traced_peak,
    walked_levels,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    epsilon_range,
    gehring,
    pow_weight,
    random_subset_checks,
    rh_constant,
    sharp_rh_levels,
    sharp_rh_max_ratio,
    unit_weight,
    weights,
)
from weightlab import grid as grid_module
from weightlab.errors import SubsetError
from weightlab.gehring import InequalityCheck, max_epsilon_empirical, verify_subset_bound
from weightlab.profiles import DIMENSIONAL_FACTOR, GehringProfile


class TestEpsilonRange:
    def test_unit_weight_values(self, grid8):
        # q0*/(4*[w^{q0*}]_Ainf - 1) with the dimensional factor 4 = 2^(1+1)
        assert DIMENSIONAL_FACTOR == 4.0
        assert epsilon_range(unit_weight(), 2.0, grid8) == pytest.approx(2 / 3, rel=1e-14)
        assert epsilon_range(unit_weight(), 1.5, grid8) == pytest.approx(0.5, rel=1e-14)

    def test_shrinks_for_rougher_weights(self, grid8):
        rough = PowerWeight(-0.375)
        assert epsilon_range(rough, 2.0, grid8) < epsilon_range(unit_weight(), 2.0, grid8)

    def test_nonincreasing_in_depth(self):
        w = PowerWeight(-0.25)
        values = [epsilon_range(w, 2.0, DyadicGrid(L)) for L in (4, 6, 8, 10)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def kernel_rows(w, t, rh, grid):
    """The kernel's cubes as ``(level, index, lhs, rhs, ratio)``, coarse to fine,
    after checking that its blocks tile every level once, coarse to fine."""
    rows = []
    for k, start, lhs, rhs, ratio in sharp_rh_levels(w, t, rh, grid):
        assert lhs.shape == rhs.shape == ratio.shape and 0 < lhs.size <= grid_module.BLOCK
        sides = zip(lhs.tolist(), rhs.tolist(), ratio.tolist())
        rows.extend((k, start + i, a, b, r) for i, (a, b, r) in enumerate(sides))
    assert [row[:2] for row in rows] == [(c.level, c.index) for c in grid.cubes()]
    return rows


def kernel_levels(w, t, rh, grid):
    """The kernel's ``(lhs, rhs, ratio)`` per level, coarse to fine: its blocks copied out
    of the reused buffers and joined, after checking that they tile each level in order."""
    walks = ([], [], [])
    for k, start, *sides in sharp_rh_levels(w, t, rh, grid):
        for walk, side in zip(walks, sides):
            walk.append((k, start, side.copy()))
    return list(zip(*(walked_levels(walk) for walk in walks)))


def assert_kernel_is_the_level_oracle(w, t, rh, grid):
    oracle = list(oracle_sharp_rh_levels(w, t, rh, grid))
    got = kernel_levels(w, t, rh, grid)
    assert len(got) == len(oracle) == grid.depth + 1
    for sides, (_, *want) in zip(got, oracle):
        for a, b in zip(sides, want):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def kernel_worst(w, t, rh, grid):
    """The largest ratio of :func:`sharp_rh_levels` over every cube."""
    return max(float(ratio.max()) for *_, ratio in sharp_rh_levels(w, t, rh, grid))


def assert_within_ulps(actual, expected, ulps):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.all(np.abs(actual - expected) <= ulps * np.spacing(np.abs(expected)))


# name -> weight at a depth; tabulated weights are seeded at that native depth
ORACLE_WEIGHTS = {
    "unit": lambda depth: unit_weight(),
    "x^-1/4": lambda depth: PowerWeight(-0.25),
    "x^0.8": lambda depth: PowerWeight(0.8),
    **{
        f"tab{i}": (lambda depth, i=i: seeded_tabulated_weights(4, depth)[i])
        for i in range(4)
    },
}


class TestSharpReverseHolder:
    def test_unit_weight_ratio_is_half(self, grid6):
        w, t = unit_weight(), 2.0 + 2 / 3
        rh = rh_constant(w, 2.0, grid6)
        for rows in (kernel_rows(w, t, rh, grid6), oracle_sharp_rh(w, t, rh, grid6)):
            assert len(rows) == 127
            for *_, lhs, rhs, ratio in rows:
                assert lhs == pytest.approx(1.0, rel=1e-14)
                assert rhs == pytest.approx(2.0, rel=1e-14)
                assert ratio == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("depth", [6, 10])
    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_kernel_matches_per_cube_oracle(self, name, depth):
        grid = DyadicGrid(depth)
        w = ORACLE_WEIGHTS[name](depth)
        rh = rh_constant(w, 2.0, grid)
        eps_max = epsilon_range(w, 2.0, grid)
        for t in (2.0 + eps_max / 2, 2.0 + eps_max, 3.5):
            got = kernel_rows(w, t, rh, grid)
            want = oracle_sharp_rh(w, t, rh, grid)
            assert [r[:2] for r in got] == [r[:2] for r in want]
            got_sides, want_sides = np.array(got)[:, 2:], np.array(want)[:, 2:]
            assert np.array_equal(got_sides[:, 0], want_sides[:, 0])
            assert_within_ulps(got_sides[:, 1:], want_sides[:, 1:], 4)

    def test_max_ratio_agrees_with_per_cube_scan(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        eps = epsilon_range(w, 2.0, grid6)
        rows = oracle_sharp_rh(w, 2.0 + eps, rh_constant(w, 2.0, grid6), grid6)
        expected = max(ratio for *_, ratio in rows)
        assert_within_ulps(sharp_rh_max_ratio(w, 2.0, eps, grid6), expected, 4)

    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_probe_is_the_kernels_worst_ratio(self, name):
        grid = DyadicGrid(10)
        w = ORACLE_WEIGHTS[name](10)
        rh = rh_constant(w, 2.0, grid)
        for t in (2.0, 2.0 + epsilon_range(w, 2.0, grid), 3.5, 9.0):
            if not w.moment_admissible(t):
                continue
            assert gehring._worst_ratio(w, t, rh, grid) == kernel_worst(w, t, rh, grid)

    @pytest.mark.parametrize("case", ["lognormal-20", "x^-1/4-at-its-cap", "x^0.7"])
    def test_probe_is_the_kernels_worst_ratio_at_the_extremes(self, case):
        # σ = 20 overflows w^t in some cells (inf/inf, unverified) and leaves
        # huge finite ratios in others; x^{-1/4} diverges at t = 4
        make, depth, moments = {
            "lognormal-20": (lambda: _lognormal(20.0, 12), 12, (2.0 + 1e-9, 6.0, 30.0, 66.0)),
            "x^-1/4-at-its-cap": (lambda: PowerWeight(-0.25), 16,
                                  (2.0 + 1e-9, 3.9, 4.0 - 4e-9, 4.0 - 1e-12)),
            "x^0.7": (lambda: PowerWeight(0.7), 12, (2.0 + 1e-9, 20.0, 66.0)),
        }[case]
        w, grid = make(), DyadicGrid(depth)
        rh = rh_constant(w, 2.0, grid)
        worst = [gehring._worst_ratio(w, t, rh, grid) for t in moments]
        assert worst == [kernel_worst(w, t, rh, grid) for t in moments]
        assert all(r > 0.0 for r in worst)
        if case == "lognormal-20":
            assert worst[-1] == math.inf and math.isfinite(worst[0])

    @pytest.mark.parametrize("depth", [6, 10])
    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_probe_in_blocks_of_four_is_the_heap_oracle(self, name, depth, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", 4)
        grid = DyadicGrid(depth)
        w = ORACLE_WEIGHTS[name](depth)
        rh = rh_constant(w, 2.0, grid)
        for t in (2.0, 2.0 + epsilon_range(w, 2.0, grid), 3.5, 9.0):
            if w.moment_admissible(t):
                assert gehring._worst_ratio(w, t, rh, grid) == oracle_worst_ratio(w, t, rh, grid)

    @pytest.mark.parametrize("depth", [1, 6, 10])
    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_kernel_in_blocks_of_four_is_the_level_oracle(self, name, depth, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", 4)
        grid, w = DyadicGrid(depth), ORACLE_WEIGHTS[name](depth)
        rh = rh_constant(w, 2.0, grid)
        for t in (2.0, 2.0 + epsilon_range(w, 2.0, grid), 3.5):
            assert_kernel_is_the_level_oracle(w, t, rh, grid)

    @pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1, 16)[0],
                                      lambda: PowerWeight(-0.25)], ids=["tabulated", "power"])
    def test_kernel_over_several_real_blocks_is_the_level_oracle(self, make):
        grid, w = DyadicGrid(16), make()
        assert grid.n_cells == 4 * grid_module.BLOCK
        assert_kernel_is_the_level_oracle(w, 2.5, rh_constant(w, 2.0, grid), grid)

    @pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1, 16)[0],
                                      lambda: PowerWeight(-0.25)], ids=["tabulated", "power"])
    def test_one_kernel_epsilon_peaks_at_its_heap_and_a_few_blocks(self, make):
        # the uncached heap of w^t (2N doubles; a power weight builds it with one
        # N-double temporary) and the blocks, consumed block by block as the CSV
        # writer does; full-level rhs and ratio arrays would add 2N doubles
        grid, w = DyadicGrid(16), make()
        rh = rh_constant(w, 2.0, grid)  # fill the moment store

        def consume():
            for _, start, lhs, rhs, ratio in sharp_rh_levels(w, 2.1, rh, grid):
                float(ratio.max()), np.arange(start, start + lhs.size)

        peak = traced_peak(consume)
        assert peak <= 3.5 * grid.n_cells * 8, peak / (grid.n_cells * 8)

    def test_probe_reads_an_infinite_rhs_in_a_later_block(self, monkeypatch):
        # one large cell, 13, in the last of four blocks: there w^t is finite but
        # 2·rh^t·w^t overflows (rh = 4), so lhs/rhs = 0 on that cube alone, no pass
        monkeypatch.setattr(grid_module, "BLOCK", 4)
        values = np.ones(16)
        values[13] = 1e100
        w, grid, t = TabulatedWeight(values), DyadicGrid(4), 3.065
        rh = rh_constant(w, 2.0, grid)
        for k, start, lhs, rhs, _ in sharp_rh_levels(w, t, rh, grid):
            assert np.isinf(rhs).tolist() == [k == 4 and start + i == 13 for i in range(rhs.size)]
            assert np.all(np.isfinite(lhs))
        assert_kernel_is_the_level_oracle(w, t, rh, grid)
        assert gehring._worst_ratio(w, t, rh, grid) == oracle_worst_ratio(w, t, rh, grid) == math.inf

    @pytest.mark.parametrize("make", [lambda: seeded_tabulated_weights(1, 16)[0],
                                      lambda: PowerWeight(-0.25)], ids=["tabulated", "power"])
    def test_probe_over_several_real_blocks_is_the_heap_oracle(self, make):
        grid, w = DyadicGrid(16), make()
        assert grid.n_cells == 4 * grid_module.BLOCK
        rh = rh_constant(w, 2.0, grid)
        for t in (2.0, 2.5, 3.5):
            assert gehring._worst_ratio(w, t, rh, grid) == oracle_worst_ratio(w, t, rh, grid)

    @pytest.mark.parametrize("make, levels", [(lambda: seeded_tabulated_weights(1)[0], 1.1),
                                              (lambda: seeded_tabulated_weights(1, 16)[0], 1.1),
                                              (lambda: PowerWeight(-0.25), 3.1)],
                             ids=["tabulated-refined", "tabulated-native", "power"])
    def test_one_probe_peaks_at_one_level_above_the_store(self, make, levels, monkeypatch):
        # a tabulated weight, refined from depth 6 or at its own depth 16: its
        # cell integrals in one N-double buffer, reduced in place level by level,
        # and two block buffers.  A power weight reads its uncached heap (2N
        # doubles), built with one N-double temporary.  The block is cut to
        # 2**10 cubes so that it is small beside N
        monkeypatch.setattr(grid_module, "BLOCK", 1 << 10)
        grid, w = DyadicGrid(16), make()
        sharp_rh_max_ratio(w, 2.0, 0.1, grid)  # fill the moment store
        peak = traced_peak(sharp_rh_max_ratio, w, 2.0, 0.1, grid)
        assert peak <= levels * grid.n_cells * 8, peak

    def test_cube_with_both_sides_underflowing_fails(self):
        # cells 0-31 are tiny: every cube inside them has moment and mean^t 0
        values = np.ones(64)
        values[0:32:2], values[1:32:2] = 1e-200, 3e-200
        w, grid = TabulatedWeight(values), DyadicGrid(6)
        assert sharp_rh_max_ratio(w, 2.0, 0.1, grid) == math.inf
        rh = rh_constant(w, 2.0, grid)
        for k, _, lhs, rhs, ratio in sharp_rh_levels(w, 2.1, rh, grid):
            unverified = (lhs == 0.0) & (rhs == 0.0)
            assert unverified.any() == (k > 0)
            assert np.all(ratio[unverified] == math.inf)
            assert np.all(np.isfinite(ratio[~unverified]))

    def test_fresh_epsilon_leaves_pyramid_store_unchanged(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        sharp_rh_max_ratio(w, 2.0, 0.1, grid6)
        store = dict(w._pyramids)
        for eps in (0.2, 0.05):
            sharp_rh_max_ratio(w, 2.0, eps, grid6)
            assert w._pyramids == store
        assert sorted(t for _, t in store) == [1.0, 2.0]

    def test_never_violated_on_corpus(self, grid6):
        for w in standard_weight_corpus(n_tabulated=6):
            eps_max = epsilon_range(w, 2.0, grid6)
            for frac in (0.25, 1.0):
                assert sharp_rh_max_ratio(w, 2.0, eps_max * frac, grid6) <= 1 + 1e-12


class TestSubsetBound:
    @pytest.mark.parametrize("cube", [DyadicCube(1, 1), DyadicCube(6, 0), DyadicCube(6, 63),
                                      DyadicCube(2, 0), DyadicCube(2, 3), DyadicCube(0, 0)])
    def test_requires_containment(self, grid6, cube):
        # the cube itself, the empty set, and the cube plus one cell at either
        # edge of the cube or of the grid
        start, stop = cube.cell_range(grid6.depth)
        cases = [(cube_mask(grid6, cube), True), (np.zeros(grid6.n_cells, dtype=bool), True)]
        for cell in (0, start - 1, stop, grid6.n_cells - 1):
            if 0 <= cell < grid6.n_cells:
                mask = cube_mask(grid6, cube)
                mask[cell] = True
                cases.append((mask, start <= cell < stop))
        if cube == DyadicCube(1, 1):
            cases += [(cube_mask(grid6, DyadicCube(2, 2)), True),
                      (cube_mask(grid6, DyadicCube(2, 0)), False),
                      (cube_mask(grid6, DyadicCube(1, 0)), False)]
        for mask, contained in cases:
            if contained:
                verify_subset_bound(unit_weight(), 2.0, 0.5, cube, mask, grid6)
            else:
                with pytest.raises(SubsetError):
                    verify_subset_bound(unit_weight(), 2.0, 0.5, cube, mask, grid6)

    def test_empty_subset_has_zero_ratio(self, grid6):
        chk = verify_subset_bound(
            unit_weight(), 2.0, 0.5, DyadicCube(1, 1),
            np.zeros(grid6.n_cells, dtype=bool), grid6,
        )
        assert chk.lhs == 0.0 and chk.ratio == 0.0

    def test_full_subset_unit_weight(self, grid6):
        # E = Q makes both mass fractions 1; the bound is 2^(1/theta) * rh^(...)
        eps = 2 / 3  # theta = 5/3 at q0* = 2
        chk = verify_subset_bound(
            unit_weight(), 2.0, eps, DyadicCube(1, 0),
            cube_mask(grid6, DyadicCube(1, 0)), grid6,
        )
        assert chk.lhs == pytest.approx(1.0, rel=1e-14)
        assert chk.rhs == pytest.approx(2.0 ** (3 / 5), rel=1e-14)

    def test_random_subsets_never_violate(self, grid6):
        for w in [unit_weight(), PowerWeight(-0.25)] + seeded_tabulated_weights(3):
            eps = epsilon_range(w, 2.0, grid6)
            rows = random_subset_checks(w, 2.0, [eps], grid6, 200, seed=5)
            assert max(chk.ratio for *_, chk in rows) <= 1 + 1e-12

    def test_check_rows_cycle_epsilons(self, grid6):
        eps_list = [0.2, 0.4, 0.6]
        rows = random_subset_checks(unit_weight(), 2.0, eps_list, grid6, 7, seed=3)
        assert len(rows) == 7
        assert [eps for _, eps, _ in rows] == [0.2, 0.4, 0.6, 0.2, 0.4, 0.6, 0.2]
        assert all(chk.ratio <= 1 + 1e-12 for _, _, chk in rows)

    def test_subset_samples_build_no_pyramid_per_sample(self, grid6, monkeypatch):
        # every pyramid built lands in w's store, which does not grow with the samples
        built, sum_pairs = [], weights.sum_pairs
        monkeypatch.setattr(
            weights, "sum_pairs", lambda *args: built.append(1) or sum_pairs(*args)
        )
        stores = []
        for n_samples in (1, 200):
            w = seeded_tabulated_weights(1)[0]
            built.clear()
            random_subset_checks(w, 2.0, [0.05, 0.1], grid6, n_samples, seed=3)
            assert len(built) == len(w._pyramids)
            stores.append(sorted(w._pyramids))
        assert stores[0] == stores[1]

    def test_subset_samples_make_no_view_or_cell_set_per_sample(self, grid6, monkeypatch):
        # a sample sums its cube's slice: the w^q view is made before the draws,
        # and no mask over all 2**L cells is measured for a sample
        calls = []
        monkeypatch.setattr(
            gehring, "pow_weight", lambda *args: calls.append(1) or pow_weight(*args)
        )

        def no_full_measure(*args, **kwargs):
            raise AssertionError("a sample measured a mask over all cells")

        monkeypatch.setattr(gehring, "measure", no_full_measure)
        counts = []
        for n_samples in (1, 200):
            calls.clear()
            w = seeded_tabulated_weights(1)[0]
            random_subset_checks(w, 2.0, [0.05, 0.1], grid6, n_samples, seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1]


# 1 and 2.3e-162 alternating: w^2 of a tiny cell times the cell length 1/16
# underflows to 0, so a one-cell cube on a tiny cell has w^q(Q) = 0
TINY_VALUES = [1.0, 2.3e-162] * 8


class TestUnverifiedSubsetRows:
    @pytest.mark.parametrize(
        "lhs, rhs, ratio",
        [
            (0.0, 0.0, 0.0),  # an empty draw
            (0.0, 2.0, 0.0),
            (1.0, 2.0, 0.5),
            (1.0, 0.0, math.inf),
            (math.nan, 2.0, math.inf),
            (math.nan, 0.0, math.inf),
            (0.0, math.nan, math.inf),
            (1.0, math.nan, math.inf),
            (math.inf, math.inf, math.inf),
            (math.inf, 2.0, math.inf),
            (1.0, math.inf, math.inf),  # an rhs past the double range: lhs/inf = 0
            (0.0, math.inf, math.inf),
        ],
    )
    def test_ratio_rule(self, lhs, rhs, ratio):
        chk = InequalityCheck(lhs=lhs, rhs=rhs)
        assert chk.ratio == ratio
        assert chk.passed == (ratio <= 1.0)

    def test_underflowed_cube_is_unverified_not_an_error(self):
        w, grid = TabulatedWeight(TINY_VALUES), DyadicGrid(4)
        tiny = DyadicCube(4, 1)
        chk = verify_subset_bound(w, 2.0, 0.2, tiny, cube_mask(grid, tiny), grid)
        assert math.isnan(chk.lhs) and chk.ratio == math.inf and not chk.passed
        nothing = np.zeros(grid.n_cells, dtype=bool)
        empty = verify_subset_bound(w, 2.0, 0.2, DyadicCube(4, 0), nothing, grid)
        assert (empty.lhs, empty.rhs, empty.ratio) == (0.0, 0.0, 0.0)

    def test_random_subsets_report_underflowed_cubes_as_failing(self):
        w, grid = TabulatedWeight(TINY_VALUES), DyadicGrid(4)
        eps = epsilon_range(w, 2.0, grid)
        rows = random_subset_checks(w, 2.0, [eps], grid, 50, seed=2024)
        on_tiny = [chk for cube, _, chk in rows if cube.level == 4 and cube.index % 2]
        others = [chk for cube, _, chk in rows if not (cube.level == 4 and cube.index % 2)]
        assert on_tiny and all(chk.ratio == math.inf for chk in on_tiny)
        assert all(0.0 <= chk.ratio <= 1.0 for chk in others)
        assert any(chk.lhs == chk.rhs == chk.ratio == 0.0 for chk in others)

    def test_cli_exits_one_without_a_traceback(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("".join(f"{v}\n" for v in TINY_VALUES), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(weights.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "verify-gehring", "--weight-file",
             str(wfile), "--L", "4", "--eps-grid", "1", "--subsets", "50"],
            capture_output=True, text=True, check=False, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith("worst ratio=inf\n")
        ratios = [ln.split(",")[-1] for ln in proc.stdout.splitlines() if ln.startswith("subset,")]
        assert len(ratios) == 50 and "inf" in ratios and "nan" not in ratios


# rh**3000 and rh**(3000+ε) overflow a double for x^{1/2}, whose RH_3000 is about 1.5
OVERFLOW_Q0_STAR = 3000.0


class TestOverflowingGehringConstant:
    def test_kernel_leaves_every_cube_unverified(self):
        w, grid = PowerWeight(0.5), DyadicGrid(6)
        rh = rh_constant(w, OVERFLOW_Q0_STAR, grid)
        eps = epsilon_range(w, OVERFLOW_Q0_STAR, grid)
        for _, _, lhs, rhs, ratio in sharp_rh_levels(w, OVERFLOW_Q0_STAR + eps, rh, grid):
            assert not np.any(np.isfinite(rhs)) and np.all(ratio == math.inf)
        assert gehring._worst_ratio(w, OVERFLOW_Q0_STAR + eps, rh, grid) == math.inf
        rows = random_subset_checks(w, OVERFLOW_Q0_STAR, [eps], grid, 20, seed=1)
        assert all(chk.ratio == math.inf and not chk.passed for *_, chk in rows)
        # the ε search's probes fail instead of raising, and none passes
        found = max_epsilon_empirical(w, OVERFLOW_Q0_STAR, grid)
        assert not found.cap_hit and found.epsilon_empirical == 0.0
        assert found.conjectured_scale == 0.0

    def test_cli_exits_one_without_a_traceback(self):
        src = os.path.dirname(os.path.dirname(weights.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "verify-gehring", "--power", "0.5",
             "--L", "6", "--q0-star", "3000", "--eps-grid", "1", "--subsets", "5"],
            capture_output=True, text=True, check=False, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("verify-gehring: 132 checks, ")
        assert proc.stderr.endswith("worst ratio=inf\n") and proc.stderr.count("\n") == 1
        ratios = {ln.split(",")[-1] for ln in proc.stdout.splitlines()[2:]}
        assert ratios == {"inf"}


def test_overflowing_power_exits_two_with_one_error_line(tmp_path):
    # 1e6**60 is beyond the double range, so w**60 cannot be formed
    wfile = tmp_path / "w.txt"
    wfile.write_text("".join(f"{v}\n" for v in [1.0] * 15 + [1e6]), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(weights.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "weightlab.cli", "verify-gehring", "--weight-file",
         str(wfile), "--L", "4", "--q0-star", "60"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "w**60" in lines[0] and "1e+06**60 = inf" in lines[0]


class TestGehringProfileHelper:
    @given(st.floats(1.05, 6.0), st.floats(0.05, 0.95))
    def test_gamma_identity(self, q0_star, eps_frac):
        g = DyadicGrid(4)
        eps = eps_frac * epsilon_range(unit_weight(), q0_star, g)
        prof = GehringProfile(q0_star, eps, epsilon_range(unit_weight(), q0_star, g))
        theta_conj = prof.theta / (prof.theta - 1.0)
        assert prof.gamma == pytest.approx(1.0 / (theta_conj * q0_star), rel=1e-12)
        assert prof.theta > 1.0
        assert 0.0 < prof.gamma <= 1.0


class TestEmpiricalEpsilonSearch:
    def test_unit_weight_hits_the_cap(self, grid6):
        res = max_epsilon_empirical(unit_weight(), 2.0, grid6)
        assert res.cap_hit
        assert res.epsilon_empirical == pytest.approx(64.0, rel=1e-6)
        assert res.proven_epsilon == pytest.approx(2 / 3, rel=1e-12)
        assert res.conjectured_scale == 1.0

    def test_negative_power_terminates_before_divergence(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert not res.cap_hit
        assert res.cap == pytest.approx(2.0, rel=1e-12)  # moment divergence at 4
        assert res.proven_epsilon * (1 - 1e-9) <= res.epsilon_empirical < res.cap
        assert res.rh == rh_constant(w, 2.0, grid6)

    def test_search_respects_monotone_predicate(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6, rel_precision=1e-5)
        eps = res.epsilon_empirical
        assert sharp_rh_max_ratio(w, 2.0, eps, grid6) <= 1 + 1e-9
        assert sharp_rh_max_ratio(w, 2.0, min(eps * 1.01, res.cap * (1 - 1e-9)), grid6) > 1

    def test_search_caches_no_pyramid_per_step(self, grid6):
        w = seeded_tabulated_weights(1)[0]
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert not res.cap_hit
        assert sorted(t for _, t in w._pyramids) == [1.0, 2.0]

    def test_large_first_probe_is_not_taken_for_a_pass(self):
        # the first probe t = p + 64 has e = 1.4*66 + 1 = 93.4: at depth 12 it
        # lies beyond the double range of i**(e-1) and 2**(-k*e). Every left-edge
        # cube of x^1.4 has ratio 3.8**(t/2) / (2*(1.4*t + 1)), so t passes while
        # that is at most 1.
        res = max_epsilon_empirical(PowerWeight(1.4), 2.0, DyadicGrid(12))
        lo, hi = 2.0, 66.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 0.5 * mid * math.log(3.8) <= math.log(2.0 * (1.4 * mid + 1.0)):
                lo = mid
            else:
                hi = mid
        assert not res.cap_hit
        assert res.epsilon_empirical == pytest.approx(lo - 2.0, rel=1e-3)

    def test_improvement_probe_reports_conjectured_scale(self, grid6):
        w = PowerWeight(-0.25)
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert res.conjectured_scale == pytest.approx(1.0 / res.rh**2.0, rel=1e-12)
        # the empirical range should dominate the proven closed-form range
        assert res.epsilon_empirical >= res.proven_epsilon * (1 - 1e-9)

    def test_a_search_in_which_no_probe_passes_reports_zero(self, grid6):
        # at t = p the worst ratio is 1/2, attained, so factor 1/2 (threshold
        # 1/4) fails even the smallest probe
        w = PowerWeight(0.25)
        res = max_epsilon_empirical(w, 2.0, grid6, factor=0.5)
        assert not res.cap_hit and res.epsilon_empirical == 0.0
        assert res == oracle_max_epsilon_empirical(w, 2.0, grid6, factor=0.5)


def _lognormal(sigma: float, depth: int, seed: int = 31) -> TabulatedWeight:
    rng = np.random.default_rng([seed, depth])
    return TabulatedWeight(np.exp(sigma * rng.standard_normal(1 << depth)))


SEARCH_CASES = [
    *[(f"lognormal-{sigma}-L{depth}-f{factor}", _lognormal(sigma, depth), depth, factor)
      for sigma, depth, factor in [
          (0.1, 4, 2.0), (0.1, 12, 1.5), (0.5, 6, 1.0), (0.5, 12, 2.0), (1.0, 8, 4.0),
          (1.0, 10, 1.5), (2.0, 4, 2.0), (2.0, 12, 1.0), (3.0, 8, 2.0), (4.0, 10, 4.0),
          (4.0, 12, 2.0),
      ]],
    *[(f"x^{alpha}-L{depth}-f{factor}", PowerWeight(alpha), depth, factor)
      for alpha, depth, factor in [
          (-0.25, 8, 2.0), (-0.25, 12, 1.0), (0.0, 6, 2.0), (0.5, 10, 4.0), (1.4, 12, 2.0),
          (2.0, 8, 1.5), (3.0, 10, 2.0), (5.0, 6, 4.0), (8.0, 12, 2.0), (8.0, 8, 1.0),
      ]],
]


class TestConvexityVerdict:
    """The certificate alone, on synthetic values of a convex ``F``."""

    def test_chord_below_the_threshold_certifies_a_pass(self):
        assert gehring._convexity_verdict({1.0: -1.0, 3.0: -0.5}, 2.0, 0.0) is True

    def test_chord_at_the_threshold_decides_nothing(self):
        assert gehring._convexity_verdict({1.0: 0.0, 3.0: 0.0}, 2.0, 0.0) is None
        assert gehring._convexity_verdict({1.0: -1.0, 3.0: 1.0}, 2.0, 0.0) is None
        assert gehring._convexity_verdict({1.0: -1e-10, 3.0: -1e-10}, 2.0, 0.0) is None

    def test_secant_beyond_two_points_certifies_a_failure(self):
        assert gehring._convexity_verdict({1.0: 0.0, 2.0: 1.0}, 3.0, 1.5) is False
        assert gehring._convexity_verdict({2.0: 1.0, 3.0: 0.0}, 1.0, 1.5) is False

    def test_secant_at_the_threshold_decides_nothing(self):
        assert gehring._convexity_verdict({1.0: 0.0, 2.0: 1.0}, 3.0, 2.0) is None

    def test_secant_is_not_used_inside_its_own_interval(self):
        # the secant of (1, 0) and (3, 10) reads 5 at t = 2, above the
        # threshold 4, but a convex F may dip anywhere below it there
        assert gehring._convexity_verdict({1.0: 0.0, 3.0: 10.0}, 2.0, 4.0) is None
        # at t = 3 the pair (1, 2) beyond t reads 10 and may decide; the pair
        # (1, 4) around it reads 13.3 and may not
        points = {1.0: 0.0, 2.0: 5.0, 4.0: 20.0}
        assert gehring._convexity_verdict(points, 3.0, 9.0) is False
        assert gehring._convexity_verdict(points, 3.0, 11.0) is None

    def test_slack_grows_with_the_extrapolation(self):
        # the secant reads 1e-8 at t = 2, above the threshold 0 by more than
        # 1e-9 but not by the slack of a thousandfold extrapolation
        assert gehring._convexity_verdict({1.0: 0.0, 1.001: 1e-11}, 2.0, 0.0) is None
        assert gehring._convexity_verdict({1.0: 0.0, 1.001: 1e-5}, 2.0, 0.0) is False

    def test_fewer_points_decide_nothing(self):
        assert gehring._convexity_verdict({}, 2.0, 0.0) is None
        assert gehring._convexity_verdict({1.0: 5.0}, 2.0, 0.0) is None
        assert gehring._convexity_verdict({1.0: -5.0}, 0.5, 0.0) is None

    def test_unusable_kernel_passes_add_no_point(self, monkeypatch, grid6):
        # a fake kernel for F(t) = log(1/2) + ((t − 2)/8)², whose 3rd, 5th and
        # 6th passes give inf, NaN and 0 instead
        spoil = {2: math.inf, 4: math.nan, 5: 0.0}
        calls, spoiled, seen = [], {}, []

        def fake(w, t, rh, grid):
            if len(calls) in spoil:
                spoiled[t] = spoil[len(calls)]
            calls.append(t)
            return spoiled.get(t, 0.5 * math.exp(((t - 2) / 8) ** 2))

        def fake_levels(w, t, rh, grid):  # the same F for the oracle's bisection
            yield 0, 0, None, None, np.array([fake(w, t, rh, grid)])

        verdict = gehring._convexity_verdict

        def spy(points, t, log_threshold):
            seen.append(points)
            return verdict(points, t, log_threshold)

        monkeypatch.setattr(gehring, "_worst_ratio", fake)
        monkeypatch.setattr(gehring, "sharp_rh_levels", fake_levels)
        monkeypatch.setattr(gehring, "_convexity_verdict", spy)
        w = PowerWeight(0.5)
        res = max_epsilon_empirical(w, 2.0, grid6)
        assert len(spoiled) == 3
        points = seen[-1]  # the search's one dict, as the last pass left it
        assert set(points) == set(calls) - set(spoiled)
        assert all(math.isfinite(f) for f in points.values())
        spoil.clear()
        assert res == oracle_max_epsilon_empirical(w, 2.0, grid6)


class TestCertifiedSearch:
    """The search against the plain bisection of ``oracle_max_epsilon_empirical``."""

    @pytest.mark.parametrize(
        "w,depth,factor", [case[1:] for case in SEARCH_CASES], ids=[case[0] for case in SEARCH_CASES]
    )
    def test_result_is_bit_identical_to_the_plain_bisection(self, w, depth, factor):
        grid = DyadicGrid(depth)
        res = max_epsilon_empirical(w, 2.0, grid, factor)
        want = oracle_max_epsilon_empirical(w, 2.0, grid, factor)
        assert repr(res) == repr(want)

    @pytest.mark.parametrize("case", SEARCH_CASES[::3], ids=[case[0] for case in SEARCH_CASES[::3]])
    def test_every_certified_answer_agrees_with_the_kernel(self, case, monkeypatch):
        _, w, depth, factor = case
        grid = DyadicGrid(depth)
        rh = rh_constant(w, 2.0, grid)
        verdict = gehring._convexity_verdict
        certified = []

        def checked(points, t, log_threshold):
            answer = verdict(points, t, log_threshold)
            if answer is not None:
                worst = kernel_worst(w, t, rh, grid)
                certified.append((t, answer, worst <= (factor / 2.0) * (1.0 + 1e-12)))
            return answer

        monkeypatch.setattr(gehring, "_convexity_verdict", checked)
        max_epsilon_empirical(w, 2.0, grid, factor)
        assert certified
        assert [(t, a) for t, a, _ in certified] == [(t, k) for t, _, k in certified]

    def test_certificates_spare_most_kernel_passes(self, monkeypatch):
        w, grid = _lognormal(0.5, 16), DyadicGrid(16)
        calls, kernel, probe = [], gehring.sharp_rh_levels, gehring._worst_ratio
        monkeypatch.setattr(
            gehring, "sharp_rh_levels", lambda *args: calls.append(1) or kernel(*args)
        )
        want = oracle_max_epsilon_empirical(w, 2.0, grid)
        plain = len(calls)
        calls.clear()
        monkeypatch.setattr(gehring, "_worst_ratio", lambda *args: calls.append(1) or probe(*args))
        assert max_epsilon_empirical(w, 2.0, grid) == want
        assert plain == 22 and 1 <= len(calls) <= 8
