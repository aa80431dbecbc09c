"""Dyadic grid, cube arithmetic, exact tree sums, and cell-set algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ancestor_value_matrix, every_cube, oracle_tree_totals
from weightlab import DyadicCube, DyadicGrid, LevelOverflowError, heap_levels, id_cubes
from weightlab import grid as grid_module
from weightlab.errors import WrongLengthError
from weightlab.grid import cube_ids, level_blocks, level_sums, split_ids, tree_totals

# a cube at any level 0..40, so ids run up to 2**41 - 2
CUBES = st.integers(0, 40).flatmap(
    lambda k: st.builds(DyadicCube, st.just(k), st.integers(0, (1 << k) - 1))
)


class TestDyadicCube:
    def test_measure(self):
        c = DyadicCube(3, 5)
        assert c.measure == 1 / 8

    def test_root(self):
        r = DyadicCube(0, 0)
        assert r.measure == 1.0

    def test_cell_range(self):
        assert DyadicCube(2, 1).cell_range(4) == (4, 8)
        assert DyadicCube(4, 7).cell_range(4) == (7, 8)

    def test_invalid_index_rejected(self):
        with pytest.raises((ValueError, LevelOverflowError)):
            DyadicCube(2, 4)
        with pytest.raises((ValueError, LevelOverflowError)):
            DyadicCube(-1, 0)

    def test_ordering_is_level_then_index(self):
        cubes = [DyadicCube(2, 3), DyadicCube(1, 0), DyadicCube(2, 0)]
        assert sorted(cubes) == [DyadicCube(1, 0), DyadicCube(2, 0), DyadicCube(2, 3)]

    @given(st.integers(1, 8), st.data())
    def test_parent_has_twice_the_measure(self, level, data):
        c = DyadicCube(level, data.draw(st.integers(0, (1 << level) - 1)))
        assert DyadicCube(level - 1, c.index >> 1).measure == 2 * c.measure


class TestDyadicGrid:
    def test_counts(self):
        g = DyadicGrid(5)
        assert g.n_cells == 32
        assert g.cell_measure == 1 / 32
        assert g.cube_count == 63

    def test_depth_must_be_positive(self):
        with pytest.raises((ValueError, LevelOverflowError)):
            DyadicGrid(0)

    def test_check_values_length(self):
        g = DyadicGrid(3)
        with pytest.raises(Exception):
            g.check_values([1.0] * 7)
        out = g.check_values([1.0] * 8)
        assert out.shape == (8,)


    def test_check_mask(self):
        g = DyadicGrid(3)
        for wrong in ([True] * 7, np.ones((2, 4), bool), np.ones(16, bool)):
            with pytest.raises(WrongLengthError):
                g.check_mask(wrong)
        bools = np.arange(8) % 2 == 1
        assert g.check_mask(bools) is bools
        cast = g.check_mask(np.array([0, 1, 0, 2, 0, -1, 0, 1]))
        assert cast.dtype == bool and cast.tolist() == bools.tolist()


class TestLevelWalk:
    """``level_sums`` reduces a finest level in place, fine to coarse, and
    ``level_blocks`` cuts tuples of same-level totals into blocks of averages."""

    @pytest.mark.parametrize("depth", [1, 3, 6])
    @pytest.mark.parametrize("block", [1, 4, 1 << 14])
    def test_level_sums_are_the_tree_levels(self, depth, block, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", block)
        values = np.random.default_rng(depth).standard_normal(1 << depth)
        want = oracle_tree_totals(DyadicGrid(depth), values)[::-1]
        buffer = values.copy()
        got = [level.copy() for level in level_sums(buffer)]
        assert len(got) == depth + 1
        for level, expected in zip(got, want):
            np.testing.assert_array_equal(level, expected)
        assert buffer[0] == want[-1][0]  # reduced in place, the root in the first cell

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("block", [1, 2, 1 << 14])
    def test_level_blocks_tile_each_level_with_averages(self, depth, block, monkeypatch):
        monkeypatch.setattr(grid_module, "BLOCK", block)
        grid = DyadicGrid(depth)
        rng = np.random.default_rng(depth)
        first, second = (heap_levels(tree_totals(grid, rng.standard_normal(grid.n_cells)))
                         for _ in range(2))
        seen, buffers = [], set()
        for k, start, (a, b) in level_blocks(grid, zip(first[::-1], second[::-1])):
            assert 0 < a.size == b.size <= block
            stop = start + a.size
            np.testing.assert_array_equal(a, first[k][start:stop] * float(1 << k))
            np.testing.assert_array_equal(b, second[k][start:stop] * float(1 << k))
            seen += [(k, i) for i in range(start, stop)]
            buffers.add((a.base.ctypes.data, b.base.ctypes.data))
        # fine to coarse, as given, each cube once; one reused buffer per source
        assert seen == [(k, i) for k in range(depth, -1, -1) for i in range(1 << k)]
        assert len(buffers) == 1


class TestTreeTotals:
    def test_matches_direct_slice_sums(self, grid8):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(grid8.n_cells)
        totals = tree_totals(grid8, vals)
        for cube in every_cube(grid8):
            start, stop = cube.cell_range(grid8.depth)
            direct = float(np.sum(vals[start:stop]))
            assert totals[cube.heap_id] == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_pairwise_consistency_is_exact(self, grid8):
        rng = np.random.default_rng(8)
        totals = heap_levels(tree_totals(grid8, rng.standard_normal(grid8.n_cells)))
        for k in range(grid8.depth):
            np.testing.assert_array_equal(
                totals[k], totals[k + 1][0::2] + totals[k + 1][1::2]
            )

    def test_reruns_are_bit_identical(self, grid8):
        vals = np.random.default_rng(9).standard_normal(grid8.n_cells)
        a = heap_levels(tree_totals(grid8, vals))
        b = heap_levels(tree_totals(grid8, vals))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestAncestorValueMatrix:
    def test_matches_per_cell_lookup(self, grid6):
        rng = np.random.default_rng(13)
        per_level = [rng.standard_normal(1 << k) for k in range(grid6.depth + 1)]
        mat = ancestor_value_matrix(grid6, per_level)
        assert mat.shape == (grid6.depth + 1, grid6.n_cells)
        for level in range(grid6.depth + 1):
            for cell in range(grid6.n_cells):
                anc = cell >> (grid6.depth - level)
                assert mat[level, cell] == per_level[level][anc]


class TestHeapIds:
    @given(st.lists(CUBES, max_size=20))
    def test_round_trip(self, cubes):
        assert id_cubes(cube_ids(cubes)) == cubes

    @given(CUBES.filter(lambda c: c.level > 0))
    def test_parent_is_a_shift(self, cube):
        (cid,) = cube_ids([cube]).tolist()
        parent = DyadicCube(cube.level - 1, cube.index >> 1)
        assert id_cubes(np.array([(cid - 1) >> 1])) == [parent]

    @given(CUBES)
    def test_level_from_frexp_is_exact(self, cube):
        assert split_ids(cube_ids([cube]))[0].tolist() == [cube.level]

    def test_level_is_exact_at_both_ends_of_every_level(self):
        ends = [DyadicCube(k, i) for k in range(41) for i in {0, (1 << k) - 1}]
        assert split_ids(cube_ids(ends))[0].tolist() == [c.level for c in ends]

    @given(st.lists(CUBES, max_size=30))
    def test_sorting_ids_sorts_cubes(self, cubes):
        assert id_cubes(np.sort(cube_ids(cubes))) == sorted(cubes)

    def test_int_arrays_pass_through(self):
        ids = np.array([0, 5, 2])
        assert cube_ids(ids).dtype == np.int64
        assert cube_ids(ids).tolist() == [0, 5, 2]
        assert cube_ids([]).shape == (0,)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            cube_ids(np.array([3, -1]))

    def test_cube_below_the_grid_raises(self):
        g = DyadicGrid(3)
        assert cube_ids([DyadicCube(3, 7)], g).tolist() == [14]
        with pytest.raises(LevelOverflowError, match="level 4 exceeds grid depth 3"):
            cube_ids([DyadicCube(0, 0), DyadicCube(4, 0)], g)

    def test_gather_reads_the_pyramid_in_heap_order(self):
        g = DyadicGrid(4)
        totals = tree_totals(g, np.arange(16.0))
        cubes = [DyadicCube(3, 5), DyadicCube(0, 0), DyadicCube(4, 15), DyadicCube(2, 1)]
        got = totals[cube_ids(cubes)]
        assert got.tolist() == [heap_levels(totals)[c.level][c.index] for c in cubes]
