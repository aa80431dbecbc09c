"""Sparse families: validity, builders, serialisation, and the quadratic form."""

from __future__ import annotations

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
    dense_witnesses,
    every_cube,
    oracle_build_sparse_random,
    oracle_carleson_packing_ok,
    traced_peak,
)
from weightlab import (
    ConfigError,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    SparseFamily,
    SparsityViolationError,
    TabulatedWeight,
    WeightlabError,
    ap_constant,
    build_sparse_cz,
    check_factorization,
    dual_weight,
    random_subset_checks,
    rh_constant,
    sparse_form,
    strong_lp_norm,
    unit_weight,
    verify_sparsity,
    weak_lp_norm,
)
from weightlab.grid import cube_ids, id_cubes, tree_totals
from weightlab.tracer import geometric_tail_sum, geometric_weighted_tail_sum
from weightlab.weights import conjugate_exponent
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
        assert oracle_carleson_packing_ok(id_cubes(fam.ids), dense_witnesses(fam), grid6)

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
        assert oracle_carleson_packing_ok(id_cubes(fam.ids), dense_witnesses(fam), grid6)

    def test_cz_hand_example(self):
        # f = indicator of the first of 8 cells, stopping ratio 2:
        # global average 1/8; the maximal cube with average > 1/4 is (2,0);
        # inside it the recursion stops (child average 1 is not > 1).
        g = DyadicGrid(3)
        f = np.zeros(8)
        f[0] = 1.0
        fam = build_sparse_cz(f, g, ratio=2.0)
        assert [(c.level, c.index) for c in id_cubes(fam.ids)] == [(0, 0), (2, 0)]
        assert verify_sparsity(fam, g) is None
        # the root witness is the root minus the selected subcube
        root_witness = fam.owner == id_cubes(fam.ids).index(DyadicCube(0, 0))
        np.testing.assert_array_equal(
            root_witness, np.array([0, 0, 1, 1, 1, 1, 1, 1], dtype=bool)
        )

    def test_cz_constant_data_keeps_only_the_root(self, grid6):
        fam = build_sparse_cz(np.ones(grid6.n_cells), grid6, ratio=2.0)
        assert [(c.level, c.index) for c in id_cubes(fam.ids)] == [(0, 0)]

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_cz_output_is_always_sparse(self, seed, grid8):
        rng = np.random.default_rng(seed)
        data = np.exp(rng.standard_normal(grid8.n_cells))
        fam = build_sparse_cz(data, grid8, ratio=2.0)
        assert verify_sparsity(fam, grid8) is None
        assert oracle_carleson_packing_ok(id_cubes(fam.ids), dense_witnesses(fam), grid8)

    def test_cz_stopping_condition(self, grid8):
        # every non-root family cube strictly exceeds the ratio against its
        # stopping parent; every family cube's children do not
        rng = np.random.default_rng(13)
        data = np.exp(rng.standard_normal(grid8.n_cells))
        fam = build_sparse_cz(data, grid8, ratio=2.0)
        cubes = set(id_cubes(fam.ids))

        def avg(cube):
            s, t = cube.cell_range(grid8.depth)
            return float(np.mean(data[s:t]))

        for cube in id_cubes(fam.ids):
            if cube.level == 0:
                continue
            ancestors = [c for c in cubes if c != cube and contains(c, cube)]
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
    "family JSON level not an integer": (
        lambda g: SparseFamily.from_json('[{"level": "deep", "index": 0, "witness": []}]', g),
        "family JSON"),
    "family JSON level past the double range": (
        lambda g: SparseFamily.from_json('[{"level": 1e400, "index": 0, "witness": []}]', g),
        "family JSON"),
    "family JSON witness not a pair": (
        lambda g: SparseFamily.from_json('[{"level": 0, "index": 0, "witness": [[0, 1, 2]]}]', g),
        "family JSON"),
    "cube level below 0": (lambda g: DyadicCube(-1, 0), "cube level must be >= 0"),
    "cube index past its level": (lambda g: DyadicCube(1, 2),
                                  r"cube index must lie in \[0, 2\*\*1\)"),
    "grid depth 0": (lambda g: DyadicGrid(0), "grid depth must be >= 1"),
    "negative heap id": (lambda g: cube_ids(np.array([-1]), g), "heap ids must be >= 0"),
    "A_p at p = 1": (lambda g: ap_constant(unit_weight(), 1.0, g), "A_p characteristic needs p"),
    "RH_q at q = 1": (lambda g: rh_constant(unit_weight(), 1.0, g), "needs q > 1"),
    "RH_q at q = inf": (lambda g: rh_constant(unit_weight(), math.inf, g), "needs a finite q"),
    "factorization at q = 1": (lambda g: check_factorization(unit_weight(), 1.0, 2.0, g),
                               "factorization check needs"),
    "tabulated power past the double range": (
        lambda g: TabulatedWeight(np.full(g.n_cells, 1e200)).power(2.0), "leaves the double range"),
    "tabulated zero value": (lambda g: TabulatedWeight(np.zeros(g.n_cells)),
                             "finite and strictly positive"),
    "conjugate of p = 1": (lambda g: conjugate_exponent(1.0), "conjugate exponent needs p > 1"),
    "dual weight at p = inf": (lambda g: dual_weight(unit_weight(), math.inf),
                               "dual weight needs p"),
    "norm exponent 0": (lambda g: weak_lp_norm(np.ones(g.n_cells), unit_weight(), g, 0.0),
                        "norm exponent must be positive"),
    "norm level past the grid": (
        lambda g: strong_lp_norm(np.ones(2), unit_weight(), g, 2.0, level=g.depth + 1),
        "level must lie in"),
    "series scale 0": (lambda g: geometric_tail_sum(0.0), "series scale must be positive"),
    "weighted series scale -1": (lambda g: geometric_weighted_tail_sum(-1.0),
                                 "series scale must be positive"),
    "no epsilon values": (lambda g: random_subset_checks(unit_weight(), 2.0, [], g, 4, 0),
                          "need at least one epsilon"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_is_a_weightlab_error_and_a_value_error(name, grid6):
    call, message = REFUSALS[name]
    with pytest.raises(WeightlabError, match=message) as info:
        call(grid6)
    assert isinstance(info.value, ValueError)


def test_family_checks_its_owner_range_without_grid_sized_masks():
    # the defensive int32 copy is 0.5 N·8 bytes; three boolean range masks took it to 0.99
    grid = DyadicGrid(16)
    family = build_sparse_cz(np.exp(1.5 * np.random.default_rng(16).standard_normal(grid.n_cells)),
                             grid)
    assert len(family) > 7000
    peak = traced_peak(SparseFamily, family.ids, family.owner)
    assert peak <= 0.7 * grid.n_cells * 8, peak / (grid.n_cells * 8)


class TestSerialisation:
    def test_json_round_trip(self, grid6):
        fam = oracle_build_sparse_random(grid6, max_level=3, density=0.6, seed=4)
        again = SparseFamily.from_json(fam.to_json(), grid6)
        assert id_cubes(again.ids) == id_cubes(fam.ids)
        np.testing.assert_array_equal(again.owner, fam.owner)

    def test_jsonable_schema(self, grid6):
        fam = full_cube_family(grid6, [DyadicCube(1, 1)])
        payload = fam.to_jsonable()
        assert payload == [
            {"level": 1, "index": 1, "witness": [[32, 64]]}
        ]
        text = json.dumps(payload)
        assert id_cubes(SparseFamily.from_json(text, grid6).ids) == [DyadicCube(1, 1)]

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
        value = sparse_form(ones, ones, prof, every_cube(g), g)
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
        fam = every_cube(g)[:7]
        base = sparse_form(f, gv, prof, fam, g)
        scaled = sparse_form(cf * f, cg * gv, prof, fam, g)
        assert scaled == pytest.approx(cf**2 * cg * base, rel=1e-9)

    def test_monotone_in_the_family(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        rng = np.random.default_rng(21)
        f = rng.standard_normal(64)
        gv = rng.standard_normal(64)
        cubes = every_cube(grid6)
        small = sparse_form(f, gv, prof, cubes[:5], grid6)
        large = sparse_form(f, gv, prof, cubes[:20], grid6)
        assert large >= small * (1 - 1e-12)

    def test_zero_function_gives_zero(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        assert sparse_form(
            np.zeros(64), np.ones(64), prof, [DyadicCube(0, 0)], grid6
        ) == 0.0

    @pytest.mark.parametrize("f, g, cubes", [
        (1e300, 1.0, [DyadicCube(0, 0)]),  # ⟨f⟩² overflows
        (1.2e154, 1.0, [DyadicCube(0, 0), DyadicCube(1, 0)]),  # two finite terms past it
        (0.0, 1e300, [DyadicCube(0, 0)]),  # ⟨g⟩_{2} overflows: 0·inf
    ], ids=["term", "sum", "nan"])
    def test_a_value_past_the_double_range_is_refused(self, f, g, cubes):
        grid, prof = DyadicGrid(2), ExponentProfile(p0=1.0, q0=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="leaves the double range"):
                sparse_form(np.full(4, f), np.full(4, g), prof, cubes, grid)

    def test_sparse_family_object_is_accepted(self, grid6):
        prof = ExponentProfile(p0=1.0, q0=4.0)
        fam = oracle_build_sparse_random(grid6, max_level=3, density=0.5, seed=6)
        ones = np.ones(64)
        a = sparse_form(ones, ones, prof, fam, grid6)
        b = sparse_form(ones, ones, prof, id_cubes(fam.ids), grid6)
        assert a == pytest.approx(b, rel=1e-14)
