"""The streaming CSV writer and the CLI's output files.

``write_csv`` is checked against the row-at-a-time renderer kept in
``helpers`` (``dump_csv``): the same rows, passed as array columns, list
columns or one scalar block per row, must give the same bytes.  Every CSV
subcommand is then checked against ``dump_csv`` applied to rows rebuilt from
the library calls, and every subcommand's output path must fail cleanly:
exit 2, one ``error:`` line, no file left behind.
"""

from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dump_csv,
    oracle_natural_depth_rows,
    oracle_random_subset_checks,
    oracle_sharp_rh_levels,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    Weight,
    cli,
    default_trace_family,
    empirical_weak_operator_norm,
    epsilon_range,
    evaluate_bounds,
    function_corpus,
    random_subset_checks,
    rh_constant,
    serialize,
    simplified_weak_type_factor,
    trace_proof,
    unit_weight,
)
from weightlab import grid as grid_module
from weightlab.cli import main
from weightlab.profiles import ExponentProfile
from weightlab.serialize import write_csv

# --- the writer against the row-at-a-time oracle -----------------------------------------

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e-308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True))
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
TEXT = st.text(st.characters(blacklist_characters="\x00\n\r"), max_size=6)

# kind -> (Python value strategy, numpy scalar type, array dtype)
KINDS = {
    "float": (FLOATS, np.float64, np.float64),
    "int": (INTS, np.int64, np.int64),
    "bool": (st.booleans(), np.bool_, np.bool_),
    "str": (TEXT, np.str_, None),
}


@st.composite
def tables(draw):
    """Column kinds, and rows mixing Python values with numpy scalars."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n_rows):
        row = []
        for kind in kinds:
            values, scalar, _ = KINDS[kind]
            value = draw(values)
            row.append(scalar(value) if draw(st.booleans()) else value)
        rows.append(row)
    return kinds, rows


def _array(kind, column):
    dtype = KINDS[kind][2]
    return np.array(column, dtype=dtype) if dtype is not None else np.array(column, dtype=str)


def _written(tmp_path, columns, blocks):
    target = tmp_path / "out.csv"
    n_rows = write_csv(columns, blocks, str(target))
    return n_rows, target.read_bytes()


@settings(max_examples=150, deadline=None)
@given(table=tables())
def test_write_csv_matches_the_row_oracle(tmp_path_factory, table):
    kinds, rows = table
    tmp_path = tmp_path_factory.mktemp("csv")
    columns = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    expected = dump_csv(columns, rows).encode("utf-8")
    by_column = [list(col) for col in zip(*rows)] or [[] for _ in kinds]
    arrays = [_array(kind, col) for kind, col in zip(kinds, by_column)]
    for blocks in ([arrays], [by_column], rows):
        assert _written(tmp_path, columns, blocks) == (len(rows), expected)


def test_scalars_repeat_down_a_block_and_blocks_split_into_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "CSV_CHUNK_ROWS", 3)
    values = np.array([0.1, -0.0, np.nan, np.inf, 1e308, 5e-324, 2.5])
    columns = ["name", "index", "value", "flag"]
    rows = [["x", i, v, True] for i, v in enumerate(values.tolist())]
    blocks = [["x", np.arange(4), values[:4], True], ["x", [4, 5, 6], values[4:], True]]
    assert _written(tmp_path, columns, blocks) == (7, dump_csv(columns, rows).encode())


def test_a_block_must_match_the_columns(tmp_path):
    with pytest.raises(ValueError, match="2 entries of one length"):
        write_csv(["a", "b"], [[1.0]], str(tmp_path / "a.csv"))
    with pytest.raises(ValueError, match="entries of one length"):
        write_csv(["a", "b"], [[[1.0], np.zeros(2)]], str(tmp_path / "b.csv"))
    assert os.listdir(tmp_path) == []


# --- every CSV subcommand against rows rebuilt from the library --------------------------


def _verify_gehring_rows(w: Weight, grid: DyadicGrid, eps_grid: int, subsets: int, seed: int,
                         subset_checks=random_subset_checks):
    eps_max = epsilon_range(w, 2.0, grid)
    rh = rh_constant(w, 2.0, grid)
    epsilons = [eps_max * i / eps_grid for i in range(1, eps_grid + 1)]
    rows = []
    for eps in epsilons:
        for level, lhs, rhs, ratio in oracle_sharp_rh_levels(w, 2.0 + eps, rh, grid):
            rows.extend(
                ["self-improve", level, i, eps, float(a), float(b), float(r)]
                for i, (a, b, r) in enumerate(zip(lhs, rhs, ratio))
            )
    for cube, eps, chk in subset_checks(w, 2.0, epsilons, grid, subsets, seed):
        rows.append(["subset", cube.level, cube.index, eps, chk.lhs, chk.rhs, chk.ratio])
    return rows


def _weak_norm_rows(w: Weight, grid: DyadicGrid, seed: int):
    corpus = function_corpus(grid, seed=seed)
    [(_, rows)] = empirical_weak_operator_norm([w], grid, p=2.0, corpus=corpus)
    return [[r.name, r.strong_norm, r.weak_norm_sf, r.ratio] for r in rows]


def _trace_rows(w: Weight, grid: DyadicGrid, fvals: np.ndarray):
    profile = ExponentProfile(p0=1.0, q0=4.0)
    family = default_trace_family(fvals, w, grid, profile.p0)
    trace = trace_proof(fvals, w, grid, profile, family)
    return [
        [r, s, len(b.cubes), b.quad_sum, b.cap_via_mass, b.cap_via_disjoint,
         b.min_ratio, b.mass_ratio, b.witness_mass, b.comparability_max]
        for (r, s), b in sorted(trace.bins.items())
    ]


def _sweep_rows(grid: DyadicGrid, alphas):
    corpus = function_corpus(grid, seed=2024)
    ones = np.ones(grid.n_cells)
    rows = []
    for alpha in alphas:
        w = unit_weight() if alpha == 0.0 else PowerWeight(float(alpha))
        bounds = evaluate_bounds(w, grid, 1.0, 4.0)
        eta = simplified_weak_type_factor(
            bounds.rh_char, bounds.a_infty_char, bounds.q0_star, bounds.a_infty_pow_char
        )
        empirical, _ = oracle_natural_depth_rows(w, grid, 2.0, corpus)
        trace = trace_proof(ones, w, grid, ExponentProfile(p0=1.0, q0=4.0),
                            default_trace_family(ones, w, grid, 1.0))
        rows.append([float(alpha), grid.depth, bounds.ap_char, bounds.rh_char,
                     bounds.a_infty_char, bounds.epsilon, bounds.weak_bound,
                     math.sqrt(bounds.ap_char * bounds.rh_char * eta),
                     bounds.strong_bound, empirical, trace.c0])
    return rows


def _values_file(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return str(path)


def _tabulated(tmp_path, grid):
    values = np.repeat(seeded_tabulated_weights(4)[3].values, grid.n_cells >> 6)
    return TabulatedWeight(values), _values_file(tmp_path, "w.txt", values)


GEHRING_COLUMNS = ["check", "level", "index", "epsilon", "lhs", "rhs", "ratio"]
WEAK_COLUMNS = ["function", "strong_norm_f", "weak_norm_sf", "ratio"]
TRACE_COLUMNS = ["r", "s", "n_cubes", "quad_sum", "cap_via_mass", "cap_via_disjoint",
                 "min_ratio", "mass_ratio", "witness_mass", "comparability_max"]
SWEEP_COLUMNS = ["alpha", "L", "ap", "rh", "a_infty", "epsilon", "weak_bound",
                 "weak_bound_pinned", "strong_bound", "empirical_weak", "c0"]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("block", [None, 4], ids=["one-block-levels", "blocks-of-4"])
@pytest.mark.parametrize("source", ["power", "file"])
def test_verify_gehring_csv_is_the_oracle_rendering(source, block, tmp_path, capsys, monkeypatch):
    if block is not None:  # the kernel's levels come in several blocks, each its own index run
        monkeypatch.setattr(grid_module, "BLOCK", block)
    grid = DyadicGrid(7)
    if source == "power":
        w, flags = PowerWeight(-0.25), ["--power", "-0.25"]
    else:
        w, path = _tabulated(tmp_path, grid)
        flags = ["--weight-file", path]
    target = tmp_path / "g.csv"
    argv = ["verify-gehring", *flags, "--L", "7", "--eps-grid", "3", "--subsets", "5",
            "--seed", "11", "--csv", str(target)]
    code, _, err = _run(argv, capsys)
    assert code == 0
    rows = _verify_gehring_rows(w, grid, 3, 5, 11)
    assert target.read_bytes() == dump_csv(GEHRING_COLUMNS, rows).encode()
    assert f"verify-gehring: {len(rows)} checks," in err


@pytest.mark.parametrize("source", ["power", "file"])
def test_verify_gehring_csv_against_the_masked_subset_oracle(source, tmp_path, capsys):
    # the subset rows come from the per-sample oracle here, which the library
    # rows above cannot show: self-improve lines are the same bytes, subset
    # lines the same cube and epsilon with sides within 1e-13 relative
    grid = DyadicGrid(9)
    if source == "power":
        w, flags = PowerWeight(-0.25), ["--power", "-0.25"]
    else:
        w, path = _tabulated(tmp_path, grid)
        flags = ["--weight-file", path]
    target = tmp_path / "g.csv"
    argv = ["verify-gehring", *flags, "--L", "9", "--eps-grid", "4", "--subsets", "400",
            "--seed", "5", "--csv", str(target)]
    code, _, _ = _run(argv, capsys)
    assert code == 0
    rows = _verify_gehring_rows(w, grid, 4, 400, 5, subset_checks=oracle_random_subset_checks)
    got = target.read_text(encoding="utf-8").splitlines()
    want = dump_csv(GEHRING_COLUMNS, rows).splitlines()
    assert len(got) == len(want)
    n_self = 2 + sum(row[0] == "self-improve" for row in rows)  # after the two header lines
    assert got[:n_self] == want[:n_self]
    for line, expected in zip(got[n_self:], want[n_self:]):
        fields, oracle = line.split(","), expected.split(",")
        assert fields[:4] == oracle[:4]
        for a, b in zip(map(float, fields[4:]), map(float, oracle[4:])):
            assert a == b or abs(a - b) <= 1e-13 * max(abs(a), abs(b))


@pytest.mark.parametrize("source", ["power", "file"])
def test_weak_norm_csv_is_the_oracle_rendering(source, tmp_path, capsys):
    grid = DyadicGrid(8)
    if source == "power":
        w, flags = PowerWeight(-0.25), ["--power", "-0.25"]
    else:
        w, path = _tabulated(tmp_path, grid)
        flags = ["--weight-file", path]
    target = tmp_path / "n.csv"
    code, _, err = _run(["weak-norm", *flags, "--L", "8", "--csv", str(target)], capsys)
    assert code == 0
    rows = _weak_norm_rows(w, grid, 2024)
    assert target.read_bytes() == dump_csv(WEAK_COLUMNS, rows).encode()
    assert f"weak-norm: {len(rows)} corpus functions," in err


def test_trace_proof_csv_is_the_oracle_rendering(tmp_path, capsys):
    grid = DyadicGrid(8)
    w, wpath = _tabulated(tmp_path, grid)
    fvals = np.random.default_rng(5).standard_normal(grid.n_cells)
    fpath = _values_file(tmp_path, "f.txt", fvals)
    target = tmp_path / "t.csv"
    argv = ["trace-proof", "--weight-file", wpath, "--f", fpath, "--L", "8",
            "--out", str(tmp_path / "t.json"), "--csv", str(target)]
    code, _, _ = _run(argv, capsys)
    assert code == 0
    rows = _trace_rows(w, grid, fvals)
    assert target.read_bytes() == dump_csv(TRACE_COLUMNS, rows).encode()


@pytest.mark.parametrize(
    "depth, alpha_max, steps", [(6, 0.25, 3), (10, 0.375, 7)], ids=["L6-3a", "L10-7a"]
)
def test_sweep_csv_is_the_oracle_rendering(depth, alpha_max, steps, tmp_path, capsys):
    target = tmp_path / "s.csv"
    argv = ["sweep", "--L", str(depth), "--alpha-min", str(-alpha_max), "--alpha-max",
            str(alpha_max), "--alpha-steps", str(steps), "--csv", str(target)]
    code, _, _ = _run(argv, capsys)
    assert code == 0
    rows = _sweep_rows(DyadicGrid(depth), np.linspace(-alpha_max, alpha_max, steps))
    assert target.read_bytes() == dump_csv(SWEEP_COLUMNS, rows).encode()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-gehring", "--power", "-0.25", "--L", "5", "--eps-grid", "2", "--subsets", "5"],
        ["weak-norm", "--power", "0.25", "--L", "5"],
        ["sweep", "--L", "4", "--alpha-steps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_gets_the_bytes_the_csv_path_gets(argv, tmp_path, capsysbinary):
    target = tmp_path / "out.csv"
    assert main([*argv, "--csv", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == target.read_bytes()


# --- output paths that cannot be written --------------------------------------------------


def _inputs(tmp_path):
    """Value and family files for the subcommands that read them, at L = 3."""
    f = _values_file(tmp_path, "f.txt", np.linspace(-1.0, 1.0, 8))
    family = tmp_path / "family.json"
    family.write_text('[{"level": 0, "index": 0, "witness": [[0, 8]]}]', encoding="utf-8")
    return {"f": f, "family": str(family)}


def _argv_with_bad_output(name, inp, bad):
    power = ["--power", "-0.25", "--L", "3"]
    return {
        "char": ["char", *power, "--out", bad],
        "verify-gehring": ["verify-gehring", *power, "--subsets", "3", "--csv", bad],
        "sparse-form": ["sparse-form", "--L", "3", "--family", inp["family"],
                        "--f", inp["f"], "--g", inp["f"], "--out", bad],
        "weak-norm": ["weak-norm", *power, "--csv", bad],
        "trace-proof --out": ["trace-proof", *power, "--f", inp["f"], "--out", bad],
        "trace-proof --csv": ["trace-proof", *power, "--f", inp["f"], "--csv", bad],
        "bounds": ["bounds", *power, "--out", bad],
        "sweep": ["sweep", "--L", "3", "--alpha-steps", "2", "--csv", bad],
    }[name]


SUBCOMMAND_OUTPUTS = [
    "char", "verify-gehring", "sparse-form", "weak-norm",
    "trace-proof --out", "trace-proof --csv", "bounds", "sweep",
]


@pytest.mark.parametrize("name", SUBCOMMAND_OUTPUTS)
def test_unwritable_output_exits_two_with_one_error_line(name, tmp_path, capsys):
    bad = str(tmp_path / "missing-dir" / "out")
    code, _, err = _run(_argv_with_bad_output(name, _inputs(tmp_path), bad), capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["f.txt", "family.json"]


@pytest.mark.parametrize(
    "argv, scan",
    [
        (["verify-gehring", "--power", "-0.25", "--L", "3"], "sharp_rh_levels"),
        (["weak-norm", "--power", "-0.25", "--L", "3"], "empirical_weak_operator_norm"),
        (["sweep", "--L", "3"], "evaluate_bounds"),
        (["sweep", "--L", "3"], "empirical_weak_operator_norm"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_csv_target_is_opened_before_the_scan(argv, scan, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the scan ran before the output was opened")

    monkeypatch.setattr(cli, scan, never)
    code, _, err = _run([*argv, "--csv", str(tmp_path / "no" / "x.csv")], capsys)
    assert code == 2 and err.startswith("error: ")


def test_a_failed_run_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    def failing_subsets(*args, **kwargs):
        raise ValueError("subset sampling failed")

    monkeypatch.setattr(cli, "random_subset_checks", failing_subsets)
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("earlier run\n", encoding="utf-8")
    for target in (fresh, kept):
        argv = ["verify-gehring", "--power", "-0.25", "--L", "6", "--subsets", "4",
                "--csv", str(target)]
        code, _, err = _run(argv, capsys)  # the levels are written before the subsets fail
        assert code == 2 and err == "error: subset sampling failed\n"
    assert os.listdir(tmp_path) == ["kept.csv"]
    assert kept.read_text(encoding="utf-8") == "earlier run\n"


def test_a_symlinked_path_writes_the_file_it_names(tmp_path, capsys):
    target, link = tmp_path / "real.csv", tmp_path / "link.csv"
    target.write_text("earlier run\n", encoding="utf-8")
    link.symlink_to(target)
    code, _, _ = _run(["weak-norm", "--unit-weight", "--L", "3", "--csv", str(link)], capsys)
    assert code == 0 and link.is_symlink()
    assert target.read_text(encoding="utf-8").startswith("# weightlab-csv v1\n")


def test_a_device_path_is_written_in_place(capsys):
    code, out, _ = _run(["weak-norm", "--unit-weight", "--L", "3", "--csv", os.devnull], capsys)
    assert code == 0 and out == ""
    assert not os.path.isfile(os.devnull)


# --- memory -------------------------------------------------------------------------------


def test_verify_gehring_streams_its_rows(tmp_path, capsys):
    # the row-list CLI peaked at 44 MiB here; one epsilon's levels are 0.4 MiB
    argv = ["verify-gehring", "--power", "-0.25", "--L", "12", "--eps-grid", "10",
            "--csv", str(tmp_path / "g.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
