"""The CLI's file edges: value files in, output files out.

The value-file reader is checked against the line-at-a-time parser kept in
``helpers`` (``oracle_read_value_file``): the same arrays, bit for bit, and
the same messages for files of the wrong length.  Input it rejects must exit
2 with one ``error:`` line and no warning.  The output writer must land a
complete file on the path without ever renaming over an existing file,
which on ext4 forces a flush to disk.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from helpers import oracle_read_value_file
from weightlab import ConfigError, DyadicGrid, cli
from weightlab.cli import main
from weightlab.serialize import write_text


def _run(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, caught


def _draw(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "wide":  # exponents across the whole float64 range, subnormals too
        return rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    if kind == "integers":
        return rng.integers(-5, 6, n).astype(np.float64)
    return np.exp(rng.standard_normal(n))  # lognormal


# --- the value-file reader ----------------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 4, 8, 12])
@pytest.mark.parametrize("kind", ["normal", "wide", "integers", "lognormal"])
def test_reader_matches_the_line_oracle_bit_for_bit(kind, depth, tmp_path):
    grid = DyadicGrid(depth)
    values = _draw(kind, grid.n_cells, np.random.default_rng([depth, len(kind)]))
    values[0] = -0.0 if kind != "lognormal" else values[0]
    path = tmp_path / "v.txt"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    got = cli._read_value_file(str(path), grid, positive=False)
    expected = oracle_read_value_file(str(path), grid, positive=False)
    assert got.dtype == np.float64 and got.shape == (grid.n_cells,)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    np.testing.assert_array_equal(got.view(np.int64), values.view(np.int64))


@pytest.mark.parametrize("count", [0, 7, 9])
def test_a_wrong_entry_count_reads_as_the_oracle_reports_it(count, tmp_path):
    grid = DyadicGrid(3)
    path = tmp_path / "v.txt"
    path.write_text("1.5\n\n" * count, encoding="utf-8")
    with pytest.raises(ConfigError) as expected:
        oracle_read_value_file(str(path), grid, positive=True)
    with pytest.raises(ConfigError) as got:
        cli._read_value_file(str(path), grid, positive=True)
    assert str(got.value) == str(expected.value)


ACCEPTED = {
    "blank lines": "\n1.0\n\n2.0\n   \n0.5\n\n3.0\n\n",
    "CRLF": "1.0\r\n2.0\r\n0.5\r\n3.0\r\n",
    "surrounding whitespace": "  1.0\n\t2.0  \n 0.5\t\n3.0",
}


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_layout_variants_read_as_the_plain_file(name, tmp_path, capsys):
    plain, variant = tmp_path / "plain.txt", tmp_path / "variant.txt"
    plain.write_text("1.0\n2.0\n0.5\n3.0\n", encoding="utf-8")
    variant.write_bytes(ACCEPTED[name].encode("utf-8"))
    outputs = []
    for path in (plain, variant):
        code, out, err, caught = _run(["char", "--weight-file", str(path), "--L", "2"], capsys)
        assert (code, err, caught) == (0, "", [])
        outputs.append(out)
    assert outputs[0] == outputs[1]


REJECTED = {
    "two values on a line": ("1.0 2.0\n" * 4, "one value per line"),
    "two values on one line": ("1.0\n2.0 3.0\n4.0\n5.0\n", "number of columns"),
    "a comment": ("1.0\n# weights\n2.0\n3.0\n4.0\n", "number of columns"),
    "a trailing comment": ("1.0 # w\n2.0\n3.0\n4.0\n", "'#'"),
    "an underscore": ("1_000\n2.0\n3.0\n4.0\n", "'1_000'"),
    "nan": ("nan\n2.0\n3.0\n4.0\n", "non-finite"),
    "inf": ("1.0\n2.0\ninf\n4.0\n", "non-finite"),
    "a word after a blank line": ("1\n\n2\nabc\n", "line 4: could not convert string 'abc'"),
    "two values after a blank line": ("1\n\n2\n3 4\n", "line 4: the number of columns"),
    "an empty file": ("", "has 0 entries"),
    "only blank lines": ("\n \n\n", "has 0 entries"),
}


@pytest.mark.parametrize("flag", ["--weight-file", "--g"])
@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_input_exits_two_with_one_error_line(name, flag, tmp_path, capsys):
    text, reason = REJECTED[name]
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(text.encode("utf-8"))
    good.write_text("1.0\n2.0\n3.0\n4.0\n", encoding="utf-8")
    if flag == "--weight-file":
        argv = ["char", "--weight-file", str(bad), "--L", "2"]
    else:
        family = tmp_path / "family.json"
        family.write_text('[{"level": 0, "index": 0, "witness": [[0, 4]]}]', encoding="utf-8")
        argv = ["sparse-form", "--L", "2", "--family", str(family), "--f", str(good),
                "--g", str(bad)]
    code, out, err, caught = _run(argv, capsys)
    assert code == 2 and out == "" and caught == []
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert reason in err and str(bad) in err and "usecols" not in err


# --- the output writer --------------------------------------------------------------------


def _land_guard(monkeypatch):
    """Fail any rename onto an existing path; returns the renames made."""
    renames = []
    rename = os.rename

    def guarded(src, dst, *args, **kwargs):
        assert not os.path.lexists(dst), f"renamed over existing {dst}"
        rename(src, dst, *args, **kwargs)
        renames.append((os.path.basename(src), os.path.basename(dst)))

    def replace(src, dst, *args, **kwargs):
        raise AssertionError("os.replace may land on an existing path")

    monkeypatch.setattr(os, "rename", guarded)
    monkeypatch.setattr(os, "replace", replace)
    return renames


OUTPUT_ARGV = {
    "char --out": ["char", "--power", "-0.25", "--L", "4", "--out", "{out}"],
    "verify-gehring --csv": ["verify-gehring", "--power", "-0.25", "--L", "4",
                             "--subsets", "3", "--csv", "{out}"],
    "weak-norm --csv": ["weak-norm", "--unit-weight", "--L", "3", "--csv", "{out}"],
    "trace-proof --out": ["trace-proof", "--power", "0.25", "--L", "5", "--out", "{out}"],
    "trace-proof --csv": ["trace-proof", "--power", "0.25", "--L", "5", "--csv", "{out}"],
    "bounds --out": ["bounds", "--unit-weight", "--L", "3", "--out", "{out}"],
    "sweep --csv": ["sweep", "--L", "3", "--alpha-steps", "2", "--csv", "{out}"],
}


@pytest.mark.parametrize("name", sorted(OUTPUT_ARGV))
def test_no_rename_lands_on_an_existing_path(name, tmp_path, monkeypatch, capsys):
    renames = _land_guard(monkeypatch)
    target = tmp_path / "out"
    argv = [a.replace("{out}", str(target)) for a in OUTPUT_ARGV[name]]
    first = main(argv)
    fresh = target.read_bytes()
    target.write_bytes(b"stale\n")
    assert main(argv) == first
    capsys.readouterr()
    assert target.read_bytes() == fresh  # the existing target got the new bytes
    assert os.listdir(tmp_path) == ["out"]  # no temporary or aside file is left
    assert len(renames) == 3  # the first run lands once; the second moves the old file aside


def test_an_existing_target_gets_the_new_bytes(tmp_path, monkeypatch):
    _land_guard(monkeypatch)
    target = tmp_path / "out.json"
    target.write_text("earlier run, a longer file than the next one\n" * 100, encoding="utf-8")
    write_text("{}\n", str(target))
    assert target.read_text(encoding="utf-8") == "{}\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_symlinked_target_keeps_its_link(tmp_path, monkeypatch):
    _land_guard(monkeypatch)
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("earlier run\n", encoding="utf-8")
    link.symlink_to(real)
    write_text("{}\n", str(link))
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == "{}\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_a_failed_write_leaves_the_old_bytes(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise ValueError("the trace failed")

    monkeypatch.setattr(cli, "trace_proof", failing)
    target = tmp_path / "trace.json"
    target.write_bytes(b"earlier run\n")
    code, _, err, _ = _run(["trace-proof", "--power", "0.25", "--L", "4", "--out",
                            str(target)], capsys)
    assert code == 2 and err == "error: the trace failed\n"
    assert target.read_bytes() == b"earlier run\n"
    assert os.listdir(tmp_path) == ["trace.json"]


def test_a_failed_landing_restores_the_old_file(tmp_path, monkeypatch):
    rename = os.rename

    def refuse_the_new_file(src, dst):
        if not src.endswith(".old.tmp") and dst.endswith("out.json"):
            raise PermissionError(13, "refused", dst)
        return rename(src, dst)

    monkeypatch.setattr(os, "rename", refuse_the_new_file)
    target = tmp_path / "out.json"
    target.write_bytes(b"earlier run\n")
    with pytest.raises(PermissionError):
        write_text("{}\n", str(target))
    assert target.read_bytes() == b"earlier run\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_a_device_is_written_in_place(monkeypatch):
    renames = _land_guard(monkeypatch)
    write_text("{}\n", os.devnull)
    assert renames == [] and not os.path.isfile(os.devnull)
