"""End-to-end tests for the command-line interface.

Every invocation goes through ``weightlab.cli.main`` with an explicit argv,
so the tests cover argument parsing, file I/O, exit codes, and the
byte-determinism promise of the emitted artifacts.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from helpers import seeded_tabulated_weights
from weightlab import (
    DyadicGrid,
    PowerWeight,
    TabulatedWeight,
    cli,
    epsilon_range,
    sharp_rh_max_ratio,
)
from weightlab.cli import main
from weightlab.serialize import CSV_HEADER


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8")
    return str(path)


class TestChar:
    def test_power_weight_reference_characteristics(self, capsys):
        code, out, _ = run_cli(["char", "--power", "0.5", "--L", "8"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["depth"] == 8
        # closed forms for x^{1/2}: A_2 = 4/3 and RH_2 = 1.5/sqrt(2)
        assert obj["ap"]["2.0"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert obj["rh"]["2.0"] == pytest.approx(1.5 / math.sqrt(2.0), rel=1e-12)
        assert obj["a_infty"] >= 1.0

    def test_unit_weight_characteristics_are_exactly_one(self, capsys):
        code, out, _ = run_cli(
            ["char", "--unit-weight", "--L", "6", "-p", "2", "-p", "3", "-q", "2"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ap"] == {"2.0": 1.0, "3.0": 1.0}
        assert obj["rh"] == {"2.0": 1.0}
        assert obj["a_infty"] == 1.0
        assert obj["a_infty_argmax"] == [0, 0]

    def test_out_flag_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "char.json"
        code, out, _ = run_cli(
            ["char", "--unit-weight", "--L", "4", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        obj = json.loads(target.read_text(encoding="utf-8"))
        assert obj["a_infty"] == 1.0
        assert target.read_text(encoding="utf-8").endswith("\n")

    def test_tabulated_weight_from_file(self, tmp_path, capsys):
        wfile = write_lines(tmp_path / "w.txt", [1.0, 4.0] * 8)
        code, out, _ = run_cli(
            ["char", "--weight-file", wfile, "--L", "4"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        # alternating 1,4 per sibling pair: A_2 on any leaf-parent cube is
        # ((1+4)/2)*((1+1/4)/2) = 25/16
        assert obj["ap"]["2.0"] == pytest.approx(25.0 / 16.0, rel=1e-12)


class TestVerifyGehring:
    def test_unit_weight_scan_passes(self, capsys):
        code, out, err = run_cli(
            [
                "verify-gehring",
                "--unit-weight",
                "--L",
                "4",
                "--eps-grid",
                "3",
                "--subsets",
                "5",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "check,level,index,epsilon,lhs,rhs,ratio"
        # 31 cubes at depth 4, three epsilon values, plus five subset rows
        assert len(lines) == 2 + 3 * 31 + 5
        assert all(ln.startswith(("self-improve", "subset")) for ln in lines[2:])
        assert "worst ratio=" in err

    def test_rows_record_passing_ratios(self, capsys):
        code, out, _ = run_cli(
            ["verify-gehring", "--power", "-0.25", "--L", "6", "--eps-grid", "4"],
            capsys,
        )
        assert code == 0
        for line in out.splitlines()[2:]:
            ratio = float(line.rsplit(",", 1)[1])
            assert ratio <= 1.0 + 1e-12

    @pytest.mark.parametrize("source", ["power", "file"])
    def test_worst_ratio_is_the_kernel_max_over_the_eps_grid(self, source, tmp_path, capsys):
        grid = DyadicGrid(6)
        if source == "power":
            w, flags = PowerWeight(-0.25), ["--power", "-0.25"]
        else:
            values = seeded_tabulated_weights(4)[3].values  # log-normal cells
            w = TabulatedWeight(values)
            flags = ["--weight-file", write_lines(tmp_path / "w.txt", values)]
        code, _, err = run_cli(
            ["verify-gehring", *flags, "--L", "6", "--eps-grid", "4"], capsys
        )
        assert code == 0
        eps_max = epsilon_range(w, 2.0, grid)
        expected = max(
            sharp_rh_max_ratio(w, 2.0, eps_max * i / 4, grid) for i in range(1, 5)
        )
        assert float(err.rsplit("worst ratio=", 1)[1]) == expected

    def test_csv_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            [
                "verify-gehring",
                "--unit-weight",
                "--L",
                "3",
                "--eps-grid",
                "2",
                "--csv",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith(CSV_HEADER)


class TestSparseForm:
    def make_inputs(self, tmp_path, family_payload):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(family_payload), encoding="utf-8")
        f = write_lines(tmp_path / "f.txt", [2.0] * 16)
        g = write_lines(tmp_path / "g.txt", [3.0] * 16)
        return str(fam), f, g

    def test_root_family_reference_value(self, tmp_path, capsys):
        fam, f, g = self.make_inputs(
            tmp_path, [{"level": 0, "index": 0, "witness": [[0, 16]]}]
        )
        code, out, _ = run_cli(
            ["sparse-form", "--L", "4", "--family", fam, "--f", f, "--g", g],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        # <f>_{1,root}^2 * <g^2>^{1/2} * |root| = 4 * 3 * 1
        assert obj == {
            "depth": 4,
            "p0": 1.0,
            "q0_star": 2.0,
            "n_cubes": 1,
            "value": 12.0,
        }

    def test_non_sparse_family_exits_one(self, tmp_path, capsys):
        # an overlap found while loading, then the two failures of the check
        cases = [
            ([{"level": 0, "index": 0, "witness": [[0, 16]]},
              {"level": 1, "index": 0, "witness": [[0, 8]]}],
             "witnesses overlap at cell 0"),
            ([{"level": 0, "index": 0, "witness": [[0, 4], [9, 16]]},
              {"level": 1, "index": 0, "witness": [[4, 9]]}],
             "witness of DyadicCube(level=1, index=0) leaves the cube"),
            ([{"level": 0, "index": 0, "witness": [[0, 3], [3, 8]]}],
             "witness of DyadicCube(level=0, index=0) has measure 8/16 of the cube"
             " (strictly more than half is required)"),
        ]
        for payload, violation in cases:
            fam, f, g = self.make_inputs(tmp_path, payload)
            code, out, err = run_cli(
                ["sparse-form", "--L", "4", "--family", fam, "--f", f, "--g", g],
                capsys,
            )
            assert (code, out) == (1, "")
            assert err == f"sparse-form: family at {fam!r} is not 1/2-sparse ({violation})\n"

    def test_wrong_length_function_file_exits_two(self, tmp_path, capsys):
        fam, f, _ = self.make_inputs(
            tmp_path, [{"level": 0, "index": 0, "witness": [[0, 16]]}]
        )
        bad_g = write_lines(tmp_path / "bad_g.txt", [3.0] * 7)
        code, _, err = run_cli(
            ["sparse-form", "--L", "4", "--family", fam, "--f", f, "--g", bad_g],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_missing_family_file_exits_two(self, tmp_path, capsys):
        _, f, g = self.make_inputs(
            tmp_path, [{"level": 0, "index": 0, "witness": [[0, 16]]}]
        )
        missing = str(tmp_path / "nope.json")
        code, _, err = run_cli(
            ["sparse-form", "--L", "4", "--family", missing, "--f", f, "--g", g],
            capsys,
        )
        assert code == 2
        assert "cannot read family file" in err

    def test_malformed_family_file_exits_two(self, tmp_path, capsys):
        # structurally wrong: a dict instead of a list of cube objects
        fam, f, g = self.make_inputs(tmp_path, {"depth": 4, "cubes": [[0, 0]]})
        code, _, err = run_cli(
            ["sparse-form", "--L", "4", "--family", fam, "--f", f, "--g", g],
            capsys,
        )
        assert code == 2
        assert "family JSON" in err


class TestWeakNorm:
    def test_unit_weight_corpus_scan(self, capsys):
        code, out, err = run_cli(
            ["weak-norm", "--unit-weight", "--L", "5"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "function,strong_norm_f,weak_norm_sf,ratio"
        assert len(lines) > 10
        assert "best ratio=" in err
        # the corpus ratios are finite and nonnegative
        for line in lines[2:]:
            ratio = float(line.rsplit(",", 1)[1])
            assert math.isfinite(ratio) and ratio >= 0.0


class TestTraceProof:
    def test_unit_weight_reference_trace(self, capsys):
        code, out, err = run_cli(
            ["trace-proof", "--unit-weight", "--L", "6"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["c0"] == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert obj["epsilon"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert obj["good_fraction"] == 1.0
        assert obj["threshold"] == 4.0
        assert obj["n_traced"] == 1
        assert "empirical constant=" in err

    def test_per_bin_csv(self, tmp_path, capsys):
        target = tmp_path / "bins.csv"
        code, _, _ = run_cli(
            ["trace-proof", "--unit-weight", "--L", "6", "--csv", str(target)],
            capsys,
        )
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("r,s,n_cubes,quad_sum")
        assert len(lines) == 3
        assert lines[2].startswith("2,0,1,1.0,")

    def test_power_weight_trace_passes_gates(self, capsys):
        code, out, _ = run_cli(
            ["trace-proof", "--power", "0.25", "--L", "10"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert math.isfinite(obj["c0"]) and obj["c0"] >= 0.0
        assert obj["good_fraction"] >= 0.75 * (1 - 1e-12)

    def test_function_file_input(self, tmp_path, capsys):
        f = write_lines(tmp_path / "f.txt", [1.0] * 8 + [0.0] * 8)
        code, out, _ = run_cli(
            ["trace-proof", "--unit-weight", "--L", "4", "--f", f], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["f_norm_sq"] == 0.5

    def test_infinite_window_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            ["trace-proof", "--unit-weight", "--L", "4", "--q0", "inf"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_oversized_epsilon_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            ["trace-proof", "--unit-weight", "--L", "4", "--epsilon", "99"], capsys
        )
        assert code == 2
        assert "error:" in err

    @staticmethod
    def _refused_in_a_process(tmp_path, value, *options):
        """The one stderr line of ``trace-proof`` on 64 cells of ``value``, run
        as a program so that a warning would reach stderr; it must exit 2 and
        write no JSON."""
        f = write_lines(tmp_path / "f.txt", [value] * 64)
        out = tmp_path / "trace.json"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "trace-proof", "--unit-weight", "--L", "6",
             "--f", f, "--out", str(out), *options],
            capture_output=True, text=True, check=False, env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not out.exists()
        return lines[0]

    def test_function_with_an_infinite_norm_exits_two_without_a_warning(self, tmp_path):
        # (1e200)² is past the double range, so ‖f‖²_{L²(σ)} is not finite
        assert "not finite" in self._refused_in_a_process(tmp_path, 1e200)

    def test_overflowing_p0_moment_exits_two_without_a_warning(self, tmp_path):
        # (1e250)^1.5 would overflow in the family's moments; the norm is refused first
        assert "not finite" in self._refused_in_a_process(tmp_path, 1e250, "--p0", "1.5")

    def test_function_with_an_underflowing_norm_says_so(self, tmp_path):
        # (1e-200)² is below the double range: f is not 0, but its norm reads 0
        line = self._refused_in_a_process(tmp_path, 1e-200)
        assert "underflows to 0" in line and "vanishes" not in line

    def test_zero_function_exits_two_saying_it_vanishes(self, tmp_path):
        assert "vanishes identically" in self._refused_in_a_process(tmp_path, 0.0)


class TestBounds:
    def test_unit_weight_reference_window(self, capsys):
        code, out, _ = run_cli(["bounds", "--unit-weight", "--L", "8"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["weak_bound"] == 1.5
        assert obj["strong_bound"] == 1.0
        assert obj["eta"] == 2.25
        assert obj["bridge_index"] == 3.0
        assert obj["loss_chain"]["exponent_gap"] == 0.5

    def test_infinite_upper_exponent(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--unit-weight", "--L", "6", "--q0", "inf"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["q0"] == "inf"
        assert obj["q0_star"] == 1.0
        assert obj["rh_char"] == 1.0
        assert obj["weak_bound"] == pytest.approx(3.0, rel=1e-12)

    def test_upper_exponent_at_two_rejected(self, capsys):
        code, _, err = run_cli(
            ["bounds", "--unit-weight", "--L", "6", "--q0", "2"], capsys
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--p0", "0"],  # 2/p0 divided by zero
            ["bounds", "--p0", "0.5"],  # outside the window 1 <= p0 < 2
            ["bounds", "--p0", "nan"],
            ["bounds", "--epsilon", "nan"],
            ["bounds", "--epsilon", "inf"],
            ["bounds", "--epsilon", "1e300"],  # above the proven maximum 2/3
            ["weak-norm", "-p", "nan"],
            ["weak-norm", "-p", "inf"],
            ["char", "-q", "inf"],  # w**inf would collapse RH_q to max 1/⟨w⟩_Q
            ["verify-gehring", "--q0-star", "inf"],
        ],
        ids=" ".join,
    )
    def test_bad_exponent_exits_two_with_one_error_line(self, argv, tmp_path):
        out = tmp_path / "out"
        flag = "--csv" if argv[0] in ("weak-norm", "verify-gehring") else "--out"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", *argv, "--unit-weight", "--L", "4",
             flag, str(out)],
            capture_output=True, text=True, check=False, env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert not out.exists() and os.listdir(tmp_path) == []


class TestSweep:
    def test_three_alpha_sweep_reference_row(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep",
                "--L",
                "6",
                "--alpha-min",
                "-0.25",
                "--alpha-max",
                "0.25",
                "--alpha-steps",
                "3",
                "--csv",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].split(",")[:4] == ["alpha", "L", "ap", "rh"]
        assert len(lines) == 2 + 3
        middle = lines[3].split(",")
        # alpha = 0 routes through the exact unit weight
        assert float(middle[0]) == 0.0
        assert float(middle[2]) == 1.0  # ap
        assert float(middle[6]) == 1.5  # weak_bound
        assert float(middle[7]) == 4.0  # pinned weak bound
        assert float(middle[10]) == pytest.approx(4.0 / 9.0, rel=1e-12)  # c0

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run_cli(["sweep", "--L", "4", "--alpha-steps", "0"], capsys)
        assert code == 2
        assert "error:" in err


class TestDeterminism:
    def test_identical_commands_produce_identical_bytes(self, tmp_path, capsys):
        argv = [
            "verify-gehring",
            "--power",
            "-0.25",
            "--L",
            "5",
            "--eps-grid",
            "3",
            "--subsets",
            "17",
            "--seed",
            "99",
        ]
        first = run_cli(list(argv), capsys)
        second = run_cli(list(argv), capsys)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_thread_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        argv = ["weak-norm", "--power", "0.25", "--L", "6", "--seed", "7"]
        monkeypatch.delenv("WEIGHTLAB_THREADS", raising=False)
        serial = run_cli(list(argv), capsys)
        monkeypatch.setenv("WEIGHTLAB_THREADS", "8")
        threaded = run_cli(list(argv), capsys)
        assert serial[0] == threaded[0] == 0
        assert serial[1] == threaded[1]

    def test_different_seed_changes_subset_rows(self, capsys):
        base = [
            "verify-gehring",
            "--unit-weight",
            "--L",
            "4",
            "--eps-grid",
            "1",
            "--subsets",
            "6",
        ]
        a = run_cli(base + ["--seed", "1"], capsys)
        b = run_cli(base + ["--seed", "2"], capsys)
        assert a[0] == b[0] == 0
        assert a[1] != b[1]


class TestUsageErrors:
    def test_missing_weight_source_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["char", "--L", "4"])
        assert exc.value.code == 2

    def test_conflicting_weight_sources_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["char", "--unit-weight", "--power", "0.5", "--L", "4"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_zero_depth_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["char", "--unit-weight", "--L", "0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_negative_subset_count_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            ["verify-gehring", "--unit-weight", "--L", "3", "--subsets", "-5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "--subsets" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak-norm", "--unit-weight", "--L", "3", "-p", "nan"],
            ["sweep", "--L", "3", "--alpha-min", "-1.5", "--alpha-max", "-1.5",
             "--alpha-steps", "1"],  # x^-1.5 is not locally integrable
        ],
        ids=" ".join,
    )
    def test_bad_input_is_refused_before_the_csv_header(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("q0_star", ["1", "0.5", "nan"])
    def test_integrability_exponent_must_exceed_one(self, q0_star, capsys):
        code, out, err = run_cli(
            ["verify-gehring", "--unit-weight", "--L", "3", "--q0-star", q0_star], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: the integrability exponent must be > 1, got {float(q0_star)}\n"

    def test_weight_file_with_wrong_length(self, tmp_path, capsys):
        wfile = write_lines(tmp_path / "w.txt", [1.0, 2.0, 3.0])
        code, _, err = run_cli(["char", "--weight-file", wfile, "--L", "4"], capsys)
        assert code == 2
        assert "needs exactly 16" in err

    def test_weight_file_with_nonpositive_entry(self, tmp_path, capsys):
        wfile = write_lines(tmp_path / "w.txt", [1.0] * 15 + [0.0])
        code, _, err = run_cli(["char", "--weight-file", wfile, "--L", "4"], capsys)
        assert code == 2
        assert "strictly positive" in err

    def test_weight_file_with_garbage_entry(self, tmp_path, capsys):
        wfile = (tmp_path / "w.txt")
        wfile.write_text("".join("1.0\n" for _ in range(15)) + "abc\n", encoding="utf-8")
        code, _, err = run_cli(
            ["char", "--weight-file", str(wfile), "--L", "4"], capsys
        )
        assert code == 2
        assert "error:" in err

    def test_missing_weight_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["char", "--weight-file", str(tmp_path / "nope.txt"), "--L", "4"],
            capsys,
        )
        assert code == 2
        assert "cannot read" in err

    def test_divergent_power_weight_moment(self, capsys):
        # x^{-0.75} has no square-integrable moment, so RH_2 must refuse
        code, _, err = run_cli(["char", "--power", "-0.75", "--L", "4"], capsys)
        assert code == 2
        assert "error:" in err

    def test_out_of_memory_exits_two_without_traceback(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_char", exhausted)
        code, _, err = run_cli(["char", "--unit-weight", "--L", "40"], capsys)
        assert code == 2
        assert err == "error: char does not fit in memory at depth L=40\n"
