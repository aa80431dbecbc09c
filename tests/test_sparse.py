"""Sparse families: validity, builders, serialisation, and the quadratic form."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cube_mask,
    dense_witnesses,
    oracle_build_sparse_random,
    oracle_carleson_packing_ok,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    SparseFamily,
    SparsityViolationError,
    WeightlabError,
    build_sparse_cz,
    sparse_form,
    verify_sparsity,
)
from weightlab.grid import tree_totals
from weightlab.sparse import paint_owner, stopping_family


def full_cube_family(grid: DyadicGrid, cubes) -> SparseFamily:
    return SparseFamily(tuple(cubes), paint_owner(cubes, grid))


def owner_of(grid: DyadicGrid, witnesses) -> np.ndarray:
    """Owner array from disjoint witness cell sets, in cube order."""
    owner = np.full(grid.n_cells, -1)
    for pos, cells in enumerate(witnesses):
        owner[cells] = pos
    return owner


class TestVerifySparsity:
    def test_single_cube_with_itself_as_witness(self, grid6):
        fam = full_cube_family(grid6, [DyadicCube(1, 0)])
        assert verify_sparsity(fam, grid6) is None

    def test_nested_disjoint_witnesses(self, grid6):
        root = DyadicCube(0, 0)
        child = DyadicCube(1, 0)
        witness_root = cube_mask(grid6, DyadicCube(1, 1))  # right half
        witness_child = cube_mask(grid6, child)  # left half
        fam = SparseFamily((root, child), owner_of(grid6, [witness_root, witness_child]))
        # root witness is exactly half: strict sparsity must fail
        with pytest.raises(SparsityViolationError, match="strictly more than half"):
            verify_sparsity(fam, grid6)

    def test_strict_majority_passes(self, grid6):
        root = DyadicCube(0, 0)
        child = DyadicCube(2, 0)
        witness_root = ~cube_mask(grid6, child)  # 3/4 of root
        witness_child = cube_mask(grid6, child)
        fam = SparseFamily((root, child), owner_of(grid6, [witness_root, witness_child]))
        assert verify_sparsity(fam, grid6) is None
        assert oracle_carleson_packing_ok(fam.cubes, dense_witnesses(fam), grid6)

    def test_witness_outside_cube_fails(self, grid6):
        fam = SparseFamily(
            (DyadicCube(1, 0),),
            owner_of(grid6, [cube_mask(grid6, DyadicCube(1, 1))]),
        )
        with pytest.raises(SparsityViolationError, match="leaves"):
            verify_sparsity(fam, grid6)

    def test_overlapping_witnesses_fail(self, grid6):
        # an owner array cannot hold overlapping witnesses: loading rejects them
        payload = [
            {"level": 0, "index": 0, "witness": [[0, 64]]},
            {"level": 1, "index": 0, "witness": [[0, 32]]},
        ]
        with pytest.raises(SparsityViolationError, match="overlap at cell 0"):
            SparseFamily.from_jsonable(payload, grid6)

    def test_owner_must_name_family_positions(self, grid6):
        with pytest.raises(ValueError, match="owner"):
            SparseFamily((DyadicCube(0, 0),), np.full(grid6.n_cells, 1))

    def test_owner_is_read_only(self, grid6):
        fam = full_cube_family(grid6, [DyadicCube(0, 0)])
        with pytest.raises(ValueError):
            fam.owner[0] = -1


class TestBuilders:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_builder_output_is_valid(self, seed, grid6):
        fam = oracle_build_sparse_random(grid6, max_level=4, density=0.5, seed=seed)
        assert len(fam) >= 1
        assert verify_sparsity(fam, grid6) is None
        assert oracle_carleson_packing_ok(fam.cubes, dense_witnesses(fam), grid6)

    def test_cz_hand_example(self):
        # f = indicator of the first of 8 cells, stopping ratio 2:
        # global average 1/8; the maximal cube with average > 1/4 is (2,0);
        # inside it the recursion stops (child average 1 is not > 1).
        g = DyadicGrid(3)
        f = np.zeros(8)
        f[0] = 1.0
        fam = build_sparse_cz(f, g, ratio=2.0)
        assert [(c.level, c.index) for c in fam.cubes] == [(0, 0), (2, 0)]
        assert verify_sparsity(fam, g) is None
        # the root witness is the root minus the selected subcube
        root_witness = fam.owner == fam.cubes.index(DyadicCube(0, 0))
        np.testing.assert_array_equal(
            root_witness, np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=bool)
        )

    def test_cz_constant_data_keeps_only_the_root(self, grid6):
        fam = build_sparse_cz(np.ones(grid6.n_cells), grid6, ratio=2.0)
        assert [(c.level, c.index) for c in fam.cubes] == [(0, 0)]

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_cz_output_is_always_sparse(self, seed, grid8):
        rng = np.random.default_rng(seed)
        data = np.exp(rng.standard_normal(grid8.n_cells))
        fam = build_sparse_cz(data, grid8, ratio=2.0)
        assert verify_sparsity(fam, grid8) is None
        assert oracle_carleson_packing_ok(fam.cubes, dense_witnesses(fam), grid8)

    def test_cz_stopping_condition(self, grid8):
        # every non-root family cube strictly exceeds the ratio against its
        # stopping parent; every family cube's children do not
        rng = np.random.default_rng(13)
        data = np.exp(rng.standard_normal(grid8.n_cells))
        fam = build_sparse_cz(data, grid8, ratio=2.0)
        cubes = set(fam.cubes)

        def avg(cube):
            s, t = cube.cell_range(grid8.depth)
            return float(np.mean(data[s:t]))

        for cube in fam.cubes:
            if cube.level == 0:
                continue
            ancestors = [c for c in cubes if c != cube and c.contains(cube)]
            parent = max(ancestors, key=lambda c: c.level)
            assert avg(cube) > 2.0 * avg(parent)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_cz_refuses_a_non_finite_cell(self, grid6, bad):
        # a NaN cell passes the sign check; the root total catches both
        data = np.ones(grid6.n_cells)
        data[5] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            build_sparse_cz(data, grid6)

    def test_cz_refuses_a_density_whose_total_overflows(self, grid6):
        # every cell is finite, but 64 cells of 1e308 sum past the double range
        with pytest.raises(ValueError, match="finite and positive, got inf"):
            build_sparse_cz(np.full(grid6.n_cells, 1e308), grid6)

    def test_cz_refuses_a_zero_density(self, grid6):
        with pytest.raises(SparsityViolationError, match="identically zero"):
            build_sparse_cz(np.zeros(grid6.n_cells), grid6)

    def test_stopping_family_reads_a_heap_and_ignores_a_power_of_two_scale(self, grid8):
        data = np.exp(np.random.default_rng(14).standard_normal(grid8.n_cells))
        want = build_sparse_cz(data, grid8, ratio=3.0)
        for scale in (1.0, 2.0**-8, 2.0**40):
            totals = tree_totals(grid8, data * scale)
            totals.setflags(write=False)  # the rule only reads the heap
            got = stopping_family(totals, grid8, ratio=3.0)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.owner, want.owner)


def _owner_family(value: int):
    return lambda g: SparseFamily((DyadicCube(0, 0),), np.full(g.n_cells, value))


def _with_cell(value: float):
    def call(g):
        data = np.ones(g.n_cells)
        data[3] = value
        return build_sparse_cz(data, g)
    return call


REFUSALS = {
    "negative density cell": (_with_cell(-1.0), "nonnegative cell values"),
    "ratio 1": (lambda g: build_sparse_cz(np.ones(g.n_cells), g, ratio=1.0), "ratio must be > 1"),
    "ratio nan": (lambda g: stopping_family(tree_totals(g, np.ones(g.n_cells)), g, math.nan),
                  "ratio must be > 1"),
    "infinite root total": (_with_cell(math.inf), "finite and positive, got inf"),
    "nan root total": (_with_cell(math.nan), "finite and positive, got nan"),
    "owner past the family": (_owner_family(1), "owner entries"),
    "owner below -1": (_owner_family(-2), "owner entries"),
    "malformed family JSON": (lambda g: SparseFamily.from_json('[{"level": 0}]', g),
                              "family JSON"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_is_a_weightlab_error_and_a_value_error(name, grid6):
    call, message = REFUSALS[name]
    with pytest.raises(WeightlabError, match=message) as info:
        call(grid6)
    assert isinstance(info.value, ValueError)


class TestSerialisation:
    def test_json_round_trip(self, grid6):
        fam = oracle_build_sparse_random(grid6, max_level=3, density=0.6, seed=4)
        again = SparseFamily.from_json(fam.to_json(), grid6)
        assert again.cubes == fam.cubes
        np.testing.assert_array_equal(again.owner, fam.owner)

    def test_jsonable_schema(self, grid6):
        fam = full_cube_family(grid6, [DyadicCube(1, 1)])
        payload = fam.to_jsonable()
        assert payload == [
            {"level": 1, "index": 1, "witness": [[32, 64]]}
        ]
        text = json.dumps(payload)
        assert SparseFamily.from_json(text, grid6).cubes == (DyadicCube(1, 1),)

    @pytest.mark.parametrize(
        "payload",
        [
            {"depth": 4, "cubes": [[0, 0]]},  # dict, not a list of objects
            [[0, 0]],  # bare pairs instead of objects
            [{"level": 0}],  # missing keys
        ],
    )
    def test_malformed_payload_rejected(self, grid6, payload):
        with pytest.raises(ValueError, match="family JSON"):
            SparseFamily.from_json(json.dumps(payload), grid6)


class TestSparseForm:
    def test_full_tree_unit_data(self):
        # every average is 1, so the form counts sum_Q |Q| = L + 1 telescoping
        g = DyadicGrid(3)
        prof = ExponentProfile(p0=1.0, q0=4.0)
        ones = np.ones(8)
        value = sparse_form(ones, ones, prof, list(g.cubes()), g)
        assert value == pytest.approx(4.0, rel=1e-12)

    def test_single_root_scalars(self):
        g = DyadicGrid(3)
        prof = ExponentProfile(p0=1.0, q0=4.0)
        f = np.full(8, 2.0)
        gvals = np.full(8, 3.0)
        value = sparse_form(f, gvals, prof, [DyadicCube(0, 0)], g)
        assert value == pytest.approx(12.0, rel=1e-13)

    def test_unit_root_value(self):
        g = DyadicGrid(3)
        prof = ExponentProfile(p0=1.0, q0=4.0)
        ones = np.ones(8)
        assert sparse_form(ones, ones, prof, [DyadicCube(0, 0)], g) == pytest.approx(1.0)

    @given(st.floats(0.1, 8.0), st.floats(0.1, 8.0))
    def test_homogeneity_quadratic_in_f_linear_in_g(self, cf, cg):
        g = DyadicGrid(4)
        prof = ExponentProfile(p0=1.25, q0=4.0)
        rng = np.random.default_rng(20)
        f = rng.standard_normal(16)
        gv = rng.standard_normal(16)
        fam = list(g.cubes())[:7]
        base = sparse_form(f, gv, prof, fam, g)
        scaled = sparse_form(cf * f, cg * gv, prof, fam, g)
        assert scaled == pytest.approx(cf**2 * cg * base, rel=1e-9)

    def test_monotone_in_the_family(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        rng = np.random.default_rng(21)
        f = rng.standard_normal(64)
        gv = rng.standard_normal(64)
        cubes = list(grid6.cubes())
        small = sparse_form(f, gv, prof, cubes[:5], grid6)
        large = sparse_form(f, gv, prof, cubes[:20], grid6)
        assert large >= small * (1 - 1e-12)

    def test_zero_function_gives_zero(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        assert sparse_form(
            np.zeros(64), np.ones(64), prof, [DyadicCube(0, 0)], grid6
        ) == 0.0

    def test_sparse_family_object_is_accepted(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        fam = oracle_build_sparse_random(grid6, max_level=3, density=0.5, seed=6)
        ones = np.ones(64)
        a = sparse_form(ones, ones, prof, fam, grid6)
        b = sparse_form(ones, ones, prof, list(fam.cubes), grid6)
        assert a == pytest.approx(b, rel=1e-14)
