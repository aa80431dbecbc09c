"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

They use small grids, so they take seconds, not the minutes of a real run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, t0, t1, name=0, job=0):
    return [sid, name, parent, job, t0, t1]


# --- self-time arithmetic ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    s = np.array(
        [
            _span(0, -1, 0, 100),
            _span(1, 0, 10, 30),
            _span(2, 1, 12, 20),
            _span(3, 0, 40, 70),
        ],
        dtype=np.int64,
    )
    assert spans.self_times(s).tolist() == [50.0, 12.0, 8.0, 30.0]


def test_self_time_takes_union_of_overlapping_children_from_two_threads():
    # a map span [0, 100) whose pool threads run overlapping items
    s = np.array(
        [
            _span(0, -1, 0, 100),
            _span(1, 0, 5, 60),  # thread A
            _span(2, 0, 10, 50),  # thread B, inside A's interval
            _span(3, 0, 55, 90),  # thread B, overlaps A's tail
            _span(4, 3, 60, 70),  # nested inside span 3
        ],
        dtype=np.int64,
    )
    own = spans.self_times(s)
    assert own[0] == 100 - (90 - 5)  # union [5, 90), not the sum 55 + 40 + 35
    assert own[1] == 55 and own[2] == 40
    assert own[3] == 35 - 10 and own[4] == 10


def test_self_time_of_disjoint_groups_does_not_leak_between_parents():
    s = np.array(
        [
            _span(0, -1, 0, 50),
            _span(1, 0, 10, 40),
            _span(2, -1, 50, 100),
            _span(3, 2, 20, 30),  # clock values that would overlap span 1's group
        ],
        dtype=np.int64,
    )
    assert spans.self_times(s).tolist() == [20.0, 30.0, 40.0, 10.0]


# --- recorder: identical outputs and clean removal -------------------------------------


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_cli(argv):
    import weightlab.cli

    with contextlib.redirect_stderr(io.StringIO()):
        return weightlab.cli.main(argv)


def _bindings():
    import weightlab

    by_name = spans.modules_by_name()
    mods = [weightlab] + list(by_name.values())
    out = {}
    for mod in mods:
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    for layer, methods in spans.METHODS.items():
        for cls_name, meth in methods:
            cls = getattr(by_name[layer], cls_name)
            out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_traced_and_untraced_jobs_write_identical_files(tmp_path, monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", "2")
    made = inputs.make_inputs(
        {
            "w": {"kind": "lognormal", "depth": 8, "tag": 1, "format": "text"},
            "f": {"kind": "normal", "depth": 8, "tag": 2, "format": "text"},
        },
        3,
        str(tmp_path / "in"),
    )
    w, f = made["w"]["path"], made["f"]["path"]

    def argvs(tag):
        return [
            ["char", "--weight-file", w, "--L", "8", "-p", "2", "-q", "2", "--out", str(tmp_path / f"c{tag}.json")],
            ["bounds", "--weight-file", w, "--L", "8", "--out", str(tmp_path / f"b{tag}.json")],
            ["weak-norm", "--weight-file", w, "--L", "8", "--csv", str(tmp_path / f"n{tag}.csv")],
            ["trace-proof", "--weight-file", w, "--f", f, "--L", "8",
             "--out", str(tmp_path / f"t{tag}.json"), "--csv", str(tmp_path / f"t{tag}.csv")],
        ]

    before = _bindings()
    for argv in argvs("plain"):
        assert _run_cli(argv) == 0
    recorder = spans.Recorder("spans")
    recorder.install()
    try:
        assert _bindings() != before
        for job_id, argv in enumerate(argvs("traced")):
            assert recorder.run_job(job_id, argv[0], lambda: _run_cli(argv)) == 0
    finally:
        recorder.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    for stem in ("c", "b", "n", "t"):
        for ext in (".json", ".csv"):
            plain, traced = tmp_path / f"{stem}plain{ext}", tmp_path / f"{stem}traced{ext}"
            if plain.exists():
                assert _digest(plain) == _digest(traced)

    recorded = recorder.spans_array()
    names = recorder.names
    table = metrics.span_table(recorded, names)
    assert table["cli.main"]["calls"] == 4
    assert table["weights.pyramid"]["calls"] > 0
    assert table["grid.tree_totals"]["calls"] > 0
    # pool items nest under ordered_map, whichever thread ran them
    om = names.index("_parallel.ordered_map")
    om_ids = set(recorded[recorded[:, 1] == om, 0].tolist())
    item = names.index("operators.strong_lp_norm")  # called once per corpus item
    item_parents = recorded[recorded[:, 1] == item, 2]
    assert om_ids and item_parents.size and all(p in om_ids for p in item_parents)


def test_memory_recorder_reports_peaks_and_restores(tmp_path):
    made = inputs.make_inputs(
        {"w": {"kind": "lognormal", "depth": 10, "tag": 1, "format": "text"}}, 1, str(tmp_path)
    )
    before = _bindings()
    recorder = spans.Recorder("memory", only=spans.PEAK_FUNCTIONS)
    recorder.install()
    try:
        assert _run_cli(["char", "--weight-file", made["w"]["path"], "--L", "10",
                         "--out", str(tmp_path / "c.json")]) == 0
    finally:
        recorder.uninstall()
    assert recorder.peaks["characteristics.a_infty_fw_per_level"] > 0.0
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


# --- seeded inputs -------------------------------------------------------------------------

SPECS = {
    "w": {"kind": "lognormal", "depth": 9, "tag": 1, "format": "text"},
    "v": {"kind": "lognormal", "depth": 9, "tag": 2, "format": "npy"},
    "fam": {"kind": "abs_normal", "depth": 9, "tag": 3, "format": "family", "ratio": 2.0},
}


def test_one_seed_reproduces_identical_inputs(tmp_path):
    first = inputs.make_inputs(SPECS, 42, str(tmp_path / "a"))
    again = inputs.make_inputs(SPECS, 42, str(tmp_path / "b"))
    other = inputs.make_inputs(SPECS, 43, str(tmp_path / "c"))
    assert {k: v["sha256"] for k, v in first.items()} == {k: v["sha256"] for k, v in again.items()}
    assert all(first[k]["sha256"] != other[k]["sha256"] for k in SPECS)


def test_rearrangement_is_a_dyadic_automorphism():
    images = inputs.dyadic_images(6, 5)
    for level in range(6):
        img, child = images[level], images[level + 1]
        assert sorted(img.tolist()) == list(range(1 << level))
        assert np.array_equal(child[0::2] // 2, img) and np.array_equal(child[1::2] // 2, img)


# --- correctness check ----------------------------------------------------------------------


def test_check_accepts_a_rearranged_seed_and_flags_a_perturbed_output(tmp_path):
    def run(seed, tag):
        made = inputs.make_inputs(
            {"w": {"kind": "lognormal", "depth": 10, "tag": 1, "format": "text"}}, seed, str(tmp_path / tag)
        )
        out = str(tmp_path / f"{tag}.json")
        assert _run_cli(["char", "--weight-file", made["w"]["path"], "--L", "10",
                         "-p", "2", "-q", "2", "-q", "4", "--out", out]) == 0
        return {"name": "char", "outputs": [{"path": out, "check": "json", "depth": 10}]}

    base = run(None, "base")
    reference = check.record([base])["char"]
    seeded = run(7, "seeded")

    def images_for(depth):
        return inputs.dyadic_images(depth, 7)

    assert check.check_job(seeded, reference, images_for) == []

    path = seeded["outputs"][0]["path"]
    with open(path) as fh:
        report = json.load(fh)
    report["a_infty"] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(report, fh)
    problems = check.check_job(seeded, reference, images_for)
    assert problems and "a_infty" in problems[0]


def test_compare_tolerates_reordered_sums_only():
    assert check.compare({"x": 1.0 + 1e-14}, {"x": 1.0}) == []
    assert check.compare({"x": 1.0 + 1e-5}, {"x": 1.0}) != []
    assert check.compare({"epsilon_empirical": 1.0 + 1e-4}, {"epsilon_empirical": 1.0}) == []
    assert check.compare({"n": 3}, {"n": 4}) != []


# --- benchmark description ---------------------------------------------------------------------


def test_benchmark_json_mirrors_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metrics.PER_LAYER
    for w in bench["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_every_job_has_a_reference(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    made = {name: f"/in/{name}" for name in workloads.INPUTS[workload]}
    for job in workloads.jobs(workload, made, "/out"):
        assert len(reference[workload][job["name"]]) == len(job["outputs"])
