"""Owner-array families against the dense-mask oracles in ``helpers``.

The oracles keep one N-cell mask per cube and find nesting by all-pairs
loops; the library paints one owner array and counts ancestors.  Both must
agree exactly on layers, witness cells and sparsity verdicts, and to 1e-12
on the tracer's per-bin witness sums.  The heap-id kernels must
also agree exactly with loops over one ``DyadicCube`` at a time, and every
kernel must reject a cube below the grid.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import (
    dense_witnesses,
    good_set,
    mask_ranges,
    oracle_bin_witness_stats,
    oracle_build_sparse_random,
    oracle_family_from_jsonable,
    oracle_layer_witnesses,
    oracle_paint_owner,
    oracle_peel_layers,
    oracle_verify_sparsity,
    ranges_mask,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    LevelOverflowError,
    SparseFamily,
    SparsityViolationError,
    build_sparse_cz,
    default_trace_family,
    dual_weight,
    id_cubes,
    sparse_form,
    trace_proof,
    unit_weight,
    verify_sparsity,
)
from weightlab.errors import SubsetError
from weightlab.grid import cube_ids
from weightlab.sparse import paint_owner
from weightlab.tracer import peel_layers
from weightlab.weights import composed_moment_cells


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
        return oracle_build_sparse_random(grid, grid.depth - 1, 0.2 + 0.15 * (seed % 5), seed)
    if kind == "cz":
        grid = DyadicGrid(6 + seed % 5)
        data = np.exp(1.5 * rng.standard_normal(grid.n_cells))
        return build_sparse_cz(data, grid, ratio=2.0 + 0.5 * (seed % 3))
    grid = DyadicGrid(4 + seed % 7)
    cubes = random_cubes(grid, rng, 4 + 6 * seed)
    return SparseFamily(tuple(cubes), paint_owner(cubes, grid))


def grid_of(family: SparseFamily) -> DyadicGrid:
    return DyadicGrid(int(family.owner.size).bit_length() - 1)


def verdict(family: SparseFamily, grid: DyadicGrid):
    """The violation :func:`verify_sparsity` raises, or None when it passes."""
    try:
        verify_sparsity(family, grid)
    except SparsityViolationError as exc:
        return str(exc)
    return None


CASES = [(kind, seed) for kind in ("random", "cz", "cubes") for seed in range(8)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_layers_and_witness_cells_match_oracle(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    layers = oracle_peel_layers(id_cubes(family.ids))
    assert [id_cubes(layer) for layer in peel_layers(id_cubes(family.ids))] == layers
    expected = oracle_layer_witnesses(layers, grid)
    for pos, cube in enumerate(id_cubes(family.ids)):
        np.testing.assert_array_equal(family.owner == pos, expected[cube])


@pytest.mark.parametrize("kind,seed", CASES)
def test_verdicts_match_oracle_on_mutated_owners(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    rng = np.random.default_rng([seed, 47])
    owner = family.owner.copy()
    for step in range(6):
        fam = SparseFamily(id_cubes(family.ids), owner)
        witnesses = dense_witnesses(fam)
        assert verdict(fam, grid) == oracle_verify_sparsity(id_cubes(fam.ids), witnesses, grid)
        # hand some cells to a random cube (or to nobody) and check again
        cells = rng.integers(0, grid.n_cells, size=1 + step)
        owner[cells] = rng.integers(-1, len(family), size=cells.size)


@pytest.mark.parametrize("kind,seed", CASES)
def test_json_load_matches_dense_masks(kind, seed):
    family = make_family(kind, seed)
    grid = grid_of(family)
    again = SparseFamily.from_json(family.to_json(), grid)
    for cells, entry in zip(dense_witnesses(again), family.to_jsonable()):
        assert entry["witness"] == mask_ranges(cells)
        np.testing.assert_array_equal(cells, ranges_mask(grid, entry["witness"]))


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
def test_random_family_kernels_match_cube_loops(depth, max_level, density, seed):
    # one draw per cube, down to the finest level: the library's painting,
    # peeling, verdict and JSON load must agree with the loops over cubes
    grid = DyadicGrid(depth)
    family = oracle_build_sparse_random(grid, max_level, density, seed)
    np.testing.assert_array_equal(paint_owner(id_cubes(family.ids), grid), family.owner)
    assert [id_cubes(layer) for layer in peel_layers(id_cubes(family.ids))] == oracle_peel_layers(
        id_cubes(family.ids)
    )
    assert verdict(family, grid) is None
    assert oracle_verify_sparsity(id_cubes(family.ids), dense_witnesses(family), grid) is None
    assert loaded(SparseFamily.from_jsonable, family.to_jsonable(), grid) == loaded(
        oracle_family_from_jsonable, family.to_jsonable(), grid
    )


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
    assert [id_cubes(layer) for layer in peel_layers(cubes)] == oracle_peel_layers(cubes)


def loaded(load, payload, grid):
    """``(ids, owner)`` of a loaded family, or the error's type and message."""
    try:
        family = load(payload, grid)
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return type(exc), str(exc)
    return family.ids.tolist(), family.owner.tolist()


def valid_payload(family: SparseFamily, rng: np.random.Generator) -> list:
    """The family's JSON with its entries shuffled and some ranges split,
    repeated, or joined by empty ones."""
    payload = family.to_jsonable()
    for entry in payload:
        ranges = []
        for start, stop in entry["witness"]:
            cut = int(rng.integers(start, stop + 1))
            ranges += [[start, cut], [cut, stop]] if rng.random() < 0.5 else [[start, stop]]
            if rng.random() < 0.2:
                ranges.append([start, int(rng.integers(start, stop + 1))])
        entry["witness"] = [ranges[j] for j in rng.permutation(len(ranges))]
    return [payload[j] for j in rng.permutation(len(payload))]


def random_payload(grid: DyadicGrid, rng: np.random.Generator) -> list:
    """Random cubes with short random ranges, which often overlap."""
    payload = []
    for _ in range(int(rng.integers(1, 12))):
        level = int(rng.integers(0, grid.depth + 1))
        ranges = []
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(0, grid.n_cells))
            ranges.append([start, min(grid.n_cells, start + int(rng.integers(0, 1 + grid.n_cells // 8)))])
        payload.append({"level": level, "index": int(rng.integers(0, 1 << level)), "witness": ranges})
    return payload


def corrupt(payload: list, grid: DyadicGrid, rng: np.random.Generator) -> list:
    """One bad entry at a random position: a malformed field or range, or a
    range outside the grid."""
    n = grid.n_cells
    bad = [
        lambda e: e.pop("witness"),
        lambda e: e.pop("level"),
        lambda e: e.update(level="deep"),
        lambda e: e.update(level=e["level"] + 0.9),
        lambda e: e.update(level=float(e["level"])),
        lambda e: e.update(level=True, index=False),
        lambda e: e.update(index=str(e["index"])),
        lambda e: e.update(level=-1),
        lambda e: e.update(index=1 << e["level"]),
        lambda e: e.update(index=-2),
        lambda e: e.update(witness=[[0, 1, 2]]),
        lambda e: e.update(witness=[[1.0, 2]]),
        lambda e: e.update(witness=[["0", 2]]),
        lambda e: e.update(witness=[[False, True]]),
        lambda e: e.update(witness=e["witness"] + [[n - 1, n + 3]]),
        lambda e: e.update(witness=[[-1, 2]] + e["witness"]),
        lambda e: e.update(witness=[[3, 2]]),
    ]
    at = int(rng.integers(0, len(payload)))
    entry = dict(payload[at])
    bad[int(rng.integers(0, len(bad)))](entry)
    return payload[:at] + [entry if rng.random() < 0.9 else [0, 0]] + payload[at + 1 :]


@pytest.mark.parametrize("seed", range(40))
def test_family_json_load_matches_the_entry_loop(seed):
    rng = np.random.default_rng([seed, 71])
    family = make_family(("random", "cz", "cubes")[seed % 3], seed)
    grid = grid_of(family)
    payloads = [family.to_jsonable(), valid_payload(family, rng), random_payload(grid, rng)]
    payloads += [corrupt(payload, grid, rng) for payload in payloads]
    for payload in payloads:
        got = loaded(SparseFamily.from_jsonable, payload, grid)
        assert got == loaded(oracle_family_from_jsonable, payload, grid)
    assert loaded(SparseFamily.from_jsonable, payloads[0], grid) == (
        family.ids.tolist(), family.owner.tolist()
    )


def test_family_json_errors_come_in_file_order():
    grid = DyadicGrid(3)
    overlap = [
        {"level": 1, "index": 0, "witness": [[0, 2], [1, 3]]},  # one owner may repeat cells
        {"level": 2, "index": 1, "witness": [[2, 4]]},
    ]
    with pytest.raises(SparsityViolationError, match="overlap at cell 2$"):
        SparseFamily.from_jsonable(overlap + [{"level": 0}], grid)
    with pytest.raises(SubsetError, match=r"\[7, 9\)"):
        SparseFamily.from_jsonable([overlap[1], {"level": 0, "index": 0, "witness": [[7, 9]]},
                                    *overlap], grid)
    with pytest.raises(ValueError, match="family JSON"):
        SparseFamily.from_jsonable([{"level": 0}, *overlap], grid)


def dense_json(family: SparseFamily) -> str:
    """``to_json`` rebuilt from dense masks: each witness as its maximal runs."""
    return json.dumps(
        [{"level": c.level, "index": c.index, "witness": mask_ranges(cells)}
         for c, cells in zip(id_cubes(family.ids), dense_witnesses(family))],
        sort_keys=True,
    )


def assert_run_check_matches_oracle(family: SparseFamily, grid: DyadicGrid) -> None:
    """Same verdict as the dense oracle, message for message, and JSON that
    round-trips byte for byte."""
    assert verdict(family, grid) == oracle_verify_sparsity(
        id_cubes(family.ids), dense_witnesses(family), grid
    )
    text = family.to_json()
    assert text == dense_json(family)
    assert SparseFamily.from_json(text, grid_of(family)).to_json() == text


def from_entries(grid: DyadicGrid, entries) -> SparseFamily:
    return SparseFamily.from_jsonable(
        [{"level": k, "index": i, "witness": w} for (k, i), w in entries], grid
    )


def full_family(grid: DyadicGrid, cubes) -> SparseFamily:
    return SparseFamily(tuple(cubes), paint_owner(cubes, grid))


G1, G3 = DyadicGrid(1), DyadicGrid(3)
EDGE_FAMILIES = {
    # one cube's witness split into adjacent ranges, which join into one run
    "split witness": lambda: (from_entries(G3, [((0, 0), [[0, 2], [2, 3], [3, 5]]),
                                                ((2, 3), [[7, 8], [6, 7]])]), G3),
    "split half witness": lambda: (from_entries(G3, [((0, 0), [[0, 1], [1, 4]])]), G3),
    "witness leaves its cube": lambda: (from_entries(G3, [((1, 0), [[2, 5]])]), G3),
    "witness wholly outside": lambda: (from_entries(G3, [((2, 1), [[0, 1]]),
                                                         ((1, 1), [[4, 8]])]), G3),
    "leaving cube after a half cube": lambda: (from_entries(G3, [((1, 1), [[4, 6]]),
                                                                 ((1, 0), [[0, 3], [6, 7]])]), G3),
    "exactly half": lambda: (from_entries(G3, [((1, 0), [[0, 3]]), ((1, 1), [[4, 6]])]), G3),
    "empty witness": lambda: (from_entries(G3, [((0, 0), [[2, 8]]), ((2, 0), [])]), G3),
    "every finest cell": lambda: (
        full_family(G3, [DyadicCube(3, i) for i in range(8)]), G3),
    "every cube painted": lambda: (
        full_family(G3, [DyadicCube(k, i) for k in range(4) for i in range(1 << k)]), G3),
    "wrong-size owner": lambda: (SparseFamily((DyadicCube(0, 0),), np.zeros(8)), GRID4),
    "L=1 root": lambda: (from_entries(G1, [((0, 0), [[0, 2]])]), G1),
    "L=1 halves": lambda: (full_family(G1, [DyadicCube(1, 1), DyadicCube(1, 0)]), G1),
    "L=1 root over a half": lambda: (full_family(G1, [DyadicCube(0, 0), DyadicCube(1, 1)]), G1),
}


@pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
def test_run_check_matches_the_dense_oracle_on_edge_families(name):
    assert_run_check_matches_oracle(*EDGE_FAMILIES[name]())


@pytest.mark.parametrize("seed", range(40))
def test_run_check_matches_the_dense_oracle_on_json_families(seed):
    rng = np.random.default_rng([seed, 73])
    family = make_family(("random", "cz", "cubes")[seed % 3], seed)
    grid = grid_of(family)
    assert_run_check_matches_oracle(family, grid)
    checked = 0
    for payload in [valid_payload(family, rng)] + [random_payload(grid, rng) for _ in range(8)]:
        try:
            loaded_family = SparseFamily.from_jsonable(payload, grid)
        except SparsityViolationError:
            continue  # overlapping witnesses are refused while the family loads
        assert_run_check_matches_oracle(loaded_family, grid)
        checked += 1
    assert checked


GRID4 = DyadicGrid(4)
ONES4 = np.ones(GRID4.n_cells)
P14 = ExponentProfile(p0=1.0, q0=4.0)
BELOW = [DyadicCube(0, 0), DyadicCube(5, 3)]  # (5, 3) lies below a depth-4 grid

KERNELS = {
    "sparse_form": lambda cubes: sparse_form(ONES4, ONES4, P14, cubes, GRID4),
    "verify_sparsity": lambda cubes: verify_sparsity(
        SparseFamily(cubes, np.zeros(GRID4.n_cells)), GRID4
    ),
    "build_good_set": lambda cubes: good_set(ONES4, unit_weight(), GRID4, 1.0, cubes),
    "trace_proof": lambda cubes: trace_proof(ONES4, unit_weight(), GRID4, P14, cubes),
    "paint_owner": lambda cubes: paint_owner(cubes, GRID4),
    "cube_ids": lambda cubes: cube_ids(cubes, GRID4),
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
    for name in ("build_good_set", "trace_proof", "paint_owner"):
        with pytest.raises(LevelOverflowError):
            KERNELS[name](deep)
    payload = [{"level": c.level, "index": c.index, "witness": []} for c in deep]
    with pytest.raises(LevelOverflowError):
        verify_sparsity(SparseFamily.from_jsonable(payload, GRID4), GRID4)


def test_a_huge_level_in_family_json_raises_level_overflow():
    # 1 << 10**30 cannot be formed (OverflowError); the loader never tries
    payload = [{"level": 0, "index": 0, "witness": [[0, 16]]},
               {"level": 10**30, "index": 5, "witness": []}]
    with pytest.raises(LevelOverflowError, match="int64"):
        SparseFamily.from_jsonable(payload, GRID4)
