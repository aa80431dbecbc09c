"""Owner-array families against the dense-mask oracles in ``helpers``.

The oracles keep one N-cell mask per cube and find nesting by all-pairs
loops; the library paints one owner array and counts ancestors.  Both must
agree exactly on layers, witness cells, sparsity verdicts and packing, and
to 1e-12 on the tracer's per-bin witness sums.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    dense_witnesses,
    oracle_bin_witness_stats,
    oracle_carleson_packing_ok,
    oracle_layer_witnesses,
    oracle_peel_layers,
    oracle_verify_sparsity,
    seeded_tabulated_weights,
)
from weightlab import (
    CellSet,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    SparseFamily,
    build_sparse_cz,
    build_sparse_random,
    carleson_packing_ok,
    composed_moment_cells,
    default_trace_family,
    dual_weight,
    peel_layers,
    trace_proof,
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
    assert peel_layers(family.cubes) == layers
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
    avg_of = {row.cube: row.avg_fsigma for row in trace.traced}
    assert trace.bins
    for b in trace.bins.values():
        cubes = list(b.cubes)
        mass, comparability = oracle_bin_witness_stats(
            cubes, [avg_of[c] for c in cubes], f_sq_sigma, p0_moments, p0, grid
        )
        assert b.layer_sizes == tuple(len(layer) for layer in oracle_peel_layers(cubes))
        assert b.witness_mass == pytest.approx(mass, rel=1e-12, abs=0.0)
        if math.isinf(comparability):
            assert math.isinf(b.comparability_max)
        else:
            assert b.comparability_max == pytest.approx(comparability, rel=1e-12)
