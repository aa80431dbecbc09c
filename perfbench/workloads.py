"""The four benchmark workloads: inputs, job lists, threads and sizes.

Each workload is closed-loop with one caller: the next job starts when the
previous one returns.  A job is either a CLI invocation through
``weightlab.cli.main(argv)`` or one public library call.
"""

from __future__ import annotations

import os
from typing import Dict, List

MIB = float(1 << 20)
F64 = 8  # bytes per float64

WHY = {
    "depth20": (
        "every core kernel (pyramids, A_p/RH_q/A-infinity suprema, epsilon_range) at "
        "L=20, where the 168 MiB ancestor matrix exceeds L3, plus 1M-line value-file parsing"
    ),
    "trace": (
        "pure-Python family work: the trace's peel_layers beside the family read path "
        "(JSON, witness masks, sparsity check, sparse form)"
    ),
    "gehring-scan": (
        "per-cube verify_sharp_rh loop, cold pow_weight pyramids per subset sample, "
        "a write-heavy CSV and one pyramid per bisection step at L=20"
    ),
    "corpus-scan": (
        "the only workload where _parallel runs a pool (2 threads) and operators do "
        "most of the work, on cache-resident 256 KiB vectors"
    ),
}

THREADS = {"depth20": 1, "trace": 1, "gehring-scan": 1, "corpus-scan": 2}

# input name -> spec understood by inputs.make_inputs
INPUTS: Dict[str, Dict[str, dict]] = {
    "depth20": {
        "w20": {"kind": "lognormal", "depth": 20, "tag": 1, "format": "text"},
    },
    "trace": {
        "wa15": {"kind": "lognormal", "depth": 15, "tag": 2, "format": "text"},
        "fa15": {"kind": "normal", "depth": 15, "tag": 3, "format": "text"},
        "wb15": {"kind": "lognormal", "depth": 15, "tag": 4, "format": "text"},
        "fb15": {"kind": "normal", "depth": 15, "tag": 5, "format": "text"},
        "family16": {
            "kind": "abs_normal", "depth": 16, "tag": 6, "format": "family", "ratio": 2.0,
        },
        "f16": {"kind": "normal", "depth": 16, "tag": 7, "format": "text"},
        "g16": {"kind": "normal", "depth": 16, "tag": 8, "format": "text"},
    },
    "gehring-scan": {
        "w13": {"kind": "lognormal", "depth": 13, "tag": 9, "format": "text"},
        "w20": {"kind": "lognormal", "depth": 20, "tag": 10, "format": "npy"},
    },
    "corpus-scan": {
        "w15": {"kind": "lognormal", "depth": 15, "tag": 11, "format": "text"},
    },
}

CHAR_EXPONENTS = ["-p", "2", "-p", "3", "-q", "2"]


def _cli(name: str, argv: List[str], outputs: List[dict]) -> dict:
    return {"name": name, "kind": "cli", "argv": argv, "outputs": outputs}


def jobs(workload: str, inp: Dict[str, str], out: str) -> List[dict]:
    """The job list; ``inp`` maps input names to paths, ``out`` is the output dir.

    Every output carries the check applied to it (see ``check.py``) and,
    where argmax cubes appear, the grid depth used to map them.
    """
    o = lambda name: os.path.join(out, name)  # noqa: E731
    if workload == "depth20":
        w20 = ["--weight-file", inp["w20"], "--L", "20"]
        power = ["--power", "-0.25", "--L", "20"]
        return [
            _cli("char_tab", ["char", *w20, *CHAR_EXPONENTS, "-q", "4", "--out", o("char_tab.json")],
                 [{"path": o("char_tab.json"), "check": "json", "depth": 20}]),
            _cli("bounds_tab", ["bounds", *w20, "--out", o("bounds_tab.json")],
                 [{"path": o("bounds_tab.json"), "check": "json"}]),
            # x^-1/4 has no 4th moment, so RH_4 is replaced by RH_3 here
            _cli("char_pow", ["char", *power, *CHAR_EXPONENTS, "-q", "3", "--out", o("char_pow.json")],
                 [{"path": o("char_pow.json"), "check": "json", "depth": None}]),
            _cli("bounds_pow", ["bounds", *power, "--out", o("bounds_pow.json")],
                 [{"path": o("bounds_pow.json"), "check": "json"}]),
        ]
    if workload == "trace":
        out_jobs = []
        for pair in ("a", "b"):
            name = f"trace_{pair}"
            out_jobs.append(
                _cli(
                    name,
                    ["trace-proof", "--weight-file", inp[f"w{pair}15"], "--f", inp[f"f{pair}15"],
                     "--L", "15", "--out", o(f"{name}.json"), "--csv", o(f"{name}.csv")],
                    [{"path": o(f"{name}.json"), "check": "json"},
                     {"path": o(f"{name}.csv"), "check": "csv_table"}],
                )
            )
        out_jobs.append(
            _cli(
                "sparse_form",
                ["sparse-form", "--L", "16", "--family", inp["family16"], "--f", inp["f16"],
                 "--g", inp["g16"], "--out", o("sparse_form.json")],
                [{"path": o("sparse_form.json"), "check": "json"}],
            )
        )
        return out_jobs
    if workload == "gehring-scan":
        return [
            _cli("verify_gehring",
                 ["verify-gehring", "--weight-file", inp["w13"], "--L", "13", "--eps-grid", "10",
                  "--subsets", "5000", "--csv", o("verify_gehring.csv")],
                 [{"path": o("verify_gehring.csv"), "check": "gehring_csv"}]),
            {"name": "max_epsilon", "kind": "max_epsilon", "values": inp["w20"], "p": 2.0,
             "depth": 20, "outputs": [{"path": o("max_epsilon.json"), "check": "json"}]},
        ]
    if workload == "corpus-scan":
        return [
            _cli("weak_norm_tab",
                 ["weak-norm", "--weight-file", inp["w15"], "--L", "15", "--csv", o("weak_norm_tab.csv")],
                 [{"path": o("weak_norm_tab.csv"), "check": "weak_norm_csv"}]),
            _cli("weak_norm_pow",
                 ["weak-norm", "--power", "-0.25", "--L", "15", "--csv", o("weak_norm_pow.csv")],
                 [{"path": o("weak_norm_pow.csv"), "check": "weak_norm_csv"}]),
        ]
    raise KeyError(workload)


def computed_sizes(workload: str, family_cubes: int = 0) -> Dict[str, float]:
    """Largest arrays of each workload in MiB, computed from L (not measured)."""
    def vec(depth: int) -> float:
        return (1 << depth) * F64 / MIB

    def ancestors(depth: int) -> float:
        return (depth + 1) * vec(depth)

    if workload == "depth20":
        return {"level_vector_L20": vec(20), "ancestor_matrix_L20": ancestors(20)}
    if workload == "trace":
        return {
            "level_vector_L15": vec(15),
            "ancestor_matrix_L15": ancestors(15),
            "witness_masks_L16": family_cubes * (1 << 16) / MIB,
        }
    if workload == "gehring-scan":
        return {
            "level_vector_L13": vec(13),
            "level_vector_L20": vec(20),
            "ancestor_matrix_L20": ancestors(20),
        }
    if workload == "corpus-scan":
        return {"level_vector_L15": vec(15), "ancestor_matrix_L15": ancestors(15)}
    raise KeyError(workload)
