"""Owner-array families against the dense-mask oracles in ``helpers``.

The oracles keep one N-cell mask per cube and find nesting by all-pairs
loops; the library paints one owner array and counts ancestors.  Both must
agree exactly on layers, witness cells, sparsity verdicts and packing, and
to 1e-12 on the tracer's per-bin witness sums.  The heap-id kernels must
also agree exactly with loops over one ``DyadicCube`` at a time, and every
kernel must reject a cube below the grid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    dense_witnesses,
    keyed_peel_layers,
    oracle_bin_witness_stats,
    oracle_carleson_packing_ok,
    oracle_build_sparse_random,
    oracle_layer_witnesses,
    oracle_paint_owner,
    oracle_peel_layers,
    oracle_verify_sparsity,
    seeded_tabulated_weights,
)
from weightlab import (
    CellSet,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    LevelOverflowError,
    SparseFamily,
    build_good_set,
    build_sparse_cz,
    build_sparse_random,
    carleson_packing_ok,
    composed_moment_cells,
    cube_ids,
    default_trace_family,
    dual_weight,
    id_cubes,
    maximal_p0,
    peel_layers,
    sparse_form,
    trace_proof,
    unit_weight,
    verify_sparsity,
)
from weightlab.sparse import paint_owner


def random_cubes(grid: DyadicGrid, rng: np.random.Generator, count: int):
    cubes = set()
    for _ in range(count):
        level = int(rng.integers(0, grid.depth + 1))
        cubes.add(DyadicCube(level, int(rng.integers(0, 1 << level))))
    return sorted(cubes)


def make_family(kind: str, seed: int) -> SparseFamily:
    rng = np.random.default_rng([seed, 31])
    if kind == "random":
        grid = DyadicGrid(6 + seed % 5)
        return build_sparse_random(grid, grid.depth - 1, 0.2 + 0.15 * (seed % 5), seed)
    if kind == "cz":
        grid = DyadicGrid(6 + seed % 5)
        data = np.exp(1.5 * rng.standard_normal(grid.n_cells))
        return build_sparse_cz(data, grid, ratio=2.0 + 0.5 * (seed % 3))
    grid = DyadicGrid(4 + seed % 7)
    cubes = random_cubes(grid, rng, 4 + 6 * seed)
    return SparseFamily(tuple(cubes), paint_owner(cubes, grid))


def grid_of(family: SparseFamily) -> DyadicGrid:
    return DyadicGrid(int(family.owner.size).bit_length() - 1)


CASES = [(kind, seed) for kind in ("random", "cz", "cubes") for seed in range(8)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_layers_and_witness_cells_match_oracle(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    layers = oracle_peel_layers(family.cubes)
    assert [id_cubes(layer) for layer in peel_layers(family.cubes)] == layers
    expected = oracle_layer_witnesses(layers, grid)
    for pos, cube in enumerate(family.cubes):
        np.testing.assert_array_equal(family.owner == pos, expected[cube].mask)


@pytest.mark.parametrize("kind,seed", CASES)
def test_verdicts_match_oracle_on_mutated_owners(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    rng = np.random.default_rng([seed, 47])
    owner = family.owner.copy()
    for step in range(6):
        fam = SparseFamily(family.cubes, owner)
        witnesses = dense_witnesses(fam)
        assert verify_sparsity(fam, grid) == oracle_verify_sparsity(
            fam.cubes, witnesses, grid
        )
        assert carleson_packing_ok(fam, grid) == oracle_carleson_packing_ok(
            fam.cubes, witnesses, grid
        )
        # hand some cells to a random cube (or to nobody) and check again
        cells = rng.integers(0, grid.n_cells, size=1 + step)
        owner[cells] = rng.integers(-1, len(family), size=cells.size)


@pytest.mark.parametrize("kind,seed", CASES)
def test_json_load_matches_dense_masks(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    again = SparseFamily.from_json(family.to_json(), grid)
    for cells, entry in zip(dense_witnesses(again), family.to_jsonable()):
        assert entry["witness"] == cells.to_ranges()
        loaded = CellSet.from_ranges(grid, entry["witness"])
        np.testing.assert_array_equal(cells.mask, loaded.mask)


@pytest.mark.parametrize("seed", range(6))
def test_trace_bins_match_oracle(seed):
    grid = DyadicGrid(8 + seed % 3)
    rng = np.random.default_rng([seed, 59])
    w = seeded_tabulated_weights(seed + 1)[seed]
    f = rng.standard_normal(grid.n_cells)
    p0 = (1.0, 1.25)[seed % 2]
    profile = ExponentProfile(p0=p0, q0=4.0)
    if seed < 3:
        family = default_trace_family(f, w, grid, p0)
    else:
        family = random_cubes(grid, rng, 60)
    trace = trace_proof(f, w, grid, profile, family)
    sigma = dual_weight(w, 2.0)
    f_sq_sigma = f * f * sigma.cell_integrals(grid, 1.0)
    p0_moments = composed_moment_cells(grid, f, sigma, p0)
    avg_of = dict(zip(id_cubes(trace.traced.ids), trace.traced.avg_fsigma.tolist()))
    assert trace.bins
    for b in trace.bins.values():
        cubes = id_cubes(b.cubes)
        mass, comparability = oracle_bin_witness_stats(
            cubes, [avg_of[c] for c in cubes], f_sq_sigma, p0_moments, p0, grid
        )
        assert b.layer_sizes == tuple(len(layer) for layer in oracle_peel_layers(cubes))
        assert b.witness_mass == pytest.approx(mass, rel=1e-12, abs=0.0)
        if math.isinf(comparability):
            assert math.isinf(b.comparability_max)
        else:
            assert b.comparability_max == pytest.approx(comparability, rel=1e-12)


# --- heap-id kernels against loops over one DyadicCube at a time ---------------------

# (depth, max_level, density, seed): full density and max_level = depth included
RANDOM_PARAMS = [
    (
        3 + i % 8,
        (3 + i % 8) if i % 3 == 0 else max(0, 2 + i % 8 - i % 4),
        1.0 if i % 5 == 0 else 0.05 + 0.9 * ((37 * i) % 100) / 100,
        i,
    )
    for i in range(40)
]


@pytest.mark.parametrize("depth,max_level,density,seed", RANDOM_PARAMS)
def test_random_builder_matches_one_draw_per_cube(depth, max_level, density, seed):
    grid = DyadicGrid(depth)
    got = build_sparse_random(grid, max_level, density, seed)
    assert got.to_json() == oracle_build_sparse_random(grid, max_level, density, seed).to_json()


def drawn_cubes(grid: DyadicGrid, rng: np.random.Generator, count: int):
    """Random cubes in random order, some listed twice."""
    cubes = random_cubes(grid, rng, count)
    drawn = [cubes[j] for j in rng.integers(0, len(cubes), size=len(cubes) + 3)]
    return drawn + drawn[:2]


@pytest.mark.parametrize("seed", range(12))
def test_paint_owner_and_layers_match_cube_loops(seed):
    grid = DyadicGrid(4 + seed % 7)
    cubes = drawn_cubes(grid, np.random.default_rng([seed, 61]), 5 + 4 * seed)
    np.testing.assert_array_equal(paint_owner(cubes, grid), oracle_paint_owner(cubes, grid))
    np.testing.assert_array_equal(
        paint_owner(cube_ids(cubes), grid), oracle_paint_owner(cubes, grid)
    )
    layers = keyed_peel_layers(cubes)
    assert [id_cubes(layer) for layer in peel_layers(cubes)] == layers
    assert layers == oracle_peel_layers(cubes)


GRID4 = DyadicGrid(4)
ONES4 = np.ones(GRID4.n_cells)
P14 = ExponentProfile(p0=1.0, q0=4.0)
BELOW = [DyadicCube(0, 0), DyadicCube(5, 3)]  # (5, 3) lies below a depth-4 grid

KERNELS = {
    "sparse_form": lambda cubes: sparse_form(ONES4, ONES4, P14, cubes, GRID4),
    "verify_sparsity": lambda cubes: verify_sparsity(
        SparseFamily(cubes, np.zeros(GRID4.n_cells)), GRID4
    ),
    "carleson_packing_ok": lambda cubes: carleson_packing_ok(
        SparseFamily(cubes, np.zeros(GRID4.n_cells)), GRID4
    ),
    "maximal_p0": lambda cubes: maximal_p0(ONES4, GRID4, restriction=cubes),
    "build_good_set": lambda cubes: build_good_set(ONES4, unit_weight(), GRID4, 1.0, cubes),
    "trace_proof": lambda cubes: trace_proof(ONES4, unit_weight(), GRID4, P14, cubes),
    "paint_owner": lambda cubes: paint_owner(cubes, GRID4),
}


@pytest.mark.parametrize("as_ids", [False, True], ids=["cubes", "ids"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_cube_below_the_grid_raises_level_overflow(name, as_ids):
    cubes = cube_ids(BELOW) if as_ids else BELOW
    with pytest.raises(LevelOverflowError, match="level 5 exceeds grid depth 4"):
        KERNELS[name](cubes)


@pytest.mark.parametrize("level,index", [(63, 0), (63, 1), (70, 5)])
def test_a_cube_too_deep_for_an_int64_id_raises_level_overflow(level, index):
    deep = [DyadicCube(0, 0), DyadicCube(level, index)]
    for name in ("maximal_p0", "trace_proof", "paint_owner"):
        with pytest.raises(LevelOverflowError):
            KERNELS[name](deep)
    payload = [{"level": c.level, "index": c.index, "witness": []} for c in deep]
    with pytest.raises(LevelOverflowError):
        verify_sparsity(SparseFamily.from_jsonable(payload, GRID4), GRID4)
