"""The heap-id trace against the per-cube trace loop in ``helpers``.

The library gathers every per-cube quantity from a pyramid in one step with
numpy's ``power``, ``log2`` and ``floor``; the oracle walks the family
one :class:`DyadicCube` at a time in Python floats.  Bins, buckets and layer
sizes must be identical, each per-cube column within 4 ulps (numpy's power
may round differently from Python's) and every bin sum within 1e-14.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import oracle_trace_proof, seeded_tabulated_weights
from weightlab import (
    CellSet,
    DyadicCube,
    DyadicGrid,
    ExponentProfile,
    PowerWeight,
    build_sparse_cz,
    cube_ids,
    default_trace_family,
    id_cubes,
    trace_proof,
    unit_weight,
)

WEIGHTS = {
    "tabulated": seeded_tabulated_weights(4)[3],
    "x^-1/4": PowerWeight(-0.25),
    "x^1/4": PowerWeight(0.25),
    "unit": unit_weight(),
}
CASES = [
    (depth, name, p0, kind)
    for depth in (6, 8, 10)
    for name in WEIGHTS
    for p0 in (1.0, 1.25, 1.5)
    for kind in ("cz", "drawn")
]
# float column of the trace -> its position in an oracle row
COLUMNS = {"avg_fsigma": 1, "indicator_avg": 2, "weight_mass": 3, "good_mass": 4,
           "rhs_strict": 7, "ratio_strict": 8}


def _inputs(depth: int, name: str, p0: float, kind: str):
    """f with a zero stretch (overflow bucket); for drawn families, repeated
    random cubes and a good region with holes (zero bucket)."""
    grid = DyadicGrid(depth)
    rng = np.random.default_rng([depth, int(4 * p0), len(name), int(kind == "cz")])
    w = WEIGHTS[name]
    f = rng.standard_normal(grid.n_cells)
    f[grid.n_cells // 8 : grid.n_cells // 4] = 0.0
    if kind == "cz":
        return grid, w, f, default_trace_family(f, w, grid, p0), None
    every = [DyadicCube(k, i) for k in range(depth + 1) for i in range(1 << k)]
    drawn = [every[j] for j in rng.integers(0, len(every), size=8 * depth)]
    good = CellSet(rng.random(grid.n_cells) < 0.9)
    return grid, w, f, drawn + drawn[:6], good


def _within_ulps(got: np.ndarray, want: list, ulps: int = 4) -> bool:
    want = np.asarray(want, dtype=np.float64)
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))))


@pytest.mark.parametrize("depth,name,p0,kind", CASES)
def test_trace_matches_the_per_cube_loop(depth, name, p0, kind):
    grid, w, f, family, good = _inputs(depth, name, p0, kind)
    profile = ExponentProfile(p0=p0, q0=4.0)
    trace = trace_proof(f, w, grid, profile, family, good_cells=good)
    want = oracle_trace_proof(f, w, grid, profile, id_cubes(cube_ids(family)), good_cells=good)

    assert id_cubes(trace.zero_bucket) == want["zero"]
    assert id_cubes(trace.overflow_bucket) == want["overflow"]
    assert id_cubes(trace.clamped) == want["clamped"]
    payload = trace.to_jsonable()
    assert payload["n_traced"] == len(want["rows"])
    assert payload["n_zero_bucket"] == len(want["zero"])
    assert payload["n_overflow_bucket"] == len(want["overflow"])
    assert payload["n_clamped"] == len(want["clamped"])

    rows = list(zip(*want["rows"]))
    cols = trace.traced
    assert id_cubes(cols.ids) == list(rows[0])
    assert cols.r.tolist() == list(rows[5]) and cols.s.tolist() == list(rows[6])
    for column, j in COLUMNS.items():
        assert _within_ulps(getattr(cols, column), rows[j]), column

    assert sorted(trace.bins) == sorted(want["bins"])
    for key, b in trace.bins.items():
        expect = want["bins"][key]
        assert id_cubes(b.cubes) == expect["cubes"]
        assert b.layer_sizes == expect["layer_sizes"]
        for field in ("quad_sum", "mass_lhs", "witness_mass", "comparability_max"):
            got, ref = getattr(b, field), expect[field]
            assert got == ref or (
                math.isfinite(ref) and got == pytest.approx(ref, rel=1e-14, abs=0.0)
            ), field


def test_cz_family_and_trace_build_no_cube(monkeypatch):
    grid = DyadicGrid(12)
    rng = np.random.default_rng(12)
    f = rng.standard_normal(grid.n_cells)
    w = PowerWeight(-0.25)
    built = []
    post_init = DyadicCube.__post_init__

    def counting(self):
        built.append((self.level, self.index))
        post_init(self)

    monkeypatch.setattr(DyadicCube, "__post_init__", counting)
    DyadicCube(0, 0)
    assert built == [(0, 0)]  # the counter sees every construction
    built.clear()

    family = build_sparse_cz(np.abs(f), grid)
    trace = trace_proof(f, w, grid, ExponentProfile(p0=1.0, q0=4.0), family.ids)
    trace_proof(f, w, grid, ExponentProfile(p0=1.25, q0=4.0),
                default_trace_family(f, w, grid, 1.25))
    assert len(family) > 100 and trace.bins
    assert built == []
