"""The run process: one fresh interpreter per benchmark run.

``python3 worker.py --probe`` imports ``weightlab.cli``, prints ``ready`` and
exits; the parent times it from spawn to that line (set-up time).

``python3 worker.py PLAN.json`` does the same, then runs the plan's passes
over the workload's job list and writes a result JSON:

* ``measure`` mode runs one whole untraced pass, then keeps cycling through
  the job list while the next job's last time still fits in ``seconds``
  (the last pass may stop part-way).  It records ``ru_maxrss`` after the
  first pass: later passes reuse freed heap pages, so their peak depends on
  allocator history;
* ``trace`` mode runs one untraced pass, one traced pass at the workload's
  thread count, a traced single-thread pass when that count is above one,
  and a tracemalloc pass for the peak-memory functions.

Every job's output files are hashed after the job, outside its timing.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    import weightlab.cli  # noqa: F401  (timed from outside as set-up)

    print("ready", flush=True)
    if sys.argv[1:] == ["--probe"]:
        raise SystemExit(0)

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import time
from typing import Dict, List, Optional

import numpy as np

import spans


def _sha256(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _job_call(job: dict):
    """A zero-argument callable running the job; inputs are loaded here, untimed."""
    import weightlab

    if job["kind"] == "cli":
        argv = list(job["argv"])

        def call():
            return weightlab.cli.main(argv)

        return call
    if job["kind"] == "max_epsilon":
        values = np.load(job["values"])

        def call():
            result = weightlab.gehring.max_epsilon_empirical(
                weightlab.weights.TabulatedWeight(values),
                job["p"],
                weightlab.grid.DyadicGrid(job["depth"]),
            )
            return result

        return call
    raise ValueError(f"unknown job kind {job['kind']!r}")


def _finish(job: dict, value) -> Optional[int]:
    """Exit code of a job; library results are written to its output file."""
    if job["kind"] == "cli":
        return value
    with open(job["outputs"][0]["path"], "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(value), fh, sort_keys=True, indent=2)
    return 0


def run_job(job: dict, job_id: int, recorder=None) -> dict:
    """Run one job; its time excludes loading inputs and hashing outputs."""
    record = {"name": job["name"], "rc": None, "error": None}
    try:
        call = _job_call(job)
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            if recorder is None:
                value = call()
            else:
                value = recorder.run_job(job_id, job["name"], call)
        record["seconds"] = time.perf_counter() - t0
        record["rc"] = _finish(job, value)
        record["stderr"] = err.getvalue()[-2000:]
    except Exception as exc:  # a failed job is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["hashes"] = [_sha256(o["path"]) for o in job["outputs"]]
    return record


def run_pass(
    plan: dict, label: str, threads: int, recorder=None, stop_at=None, last=None
) -> dict:
    """One pass over the job list.  With ``stop_at`` (a perf_counter time) the
    pass ends before a job whose time in ``last`` (name -> seconds, updated
    here) would run past it."""
    os.environ["WEIGHTLAB_THREADS"] = str(threads)
    last = {} if last is None else last
    records = []
    t_pass = time.perf_counter()
    for job_id, job in enumerate(plan["jobs"]):
        if stop_at is not None and time.perf_counter() + last.get(job["name"], 0.0) > stop_at:
            break
        record = run_job(job, job_id, recorder)
        last[job["name"]] = record.get("seconds", 0.0)
        records.append(record)
    return {
        "label": label,
        "threads": threads,
        "seconds": time.perf_counter() - t_pass,
        "jobs": records,
    }


def traced_pass(plan: dict, label: str, threads: int, directory: str) -> dict:
    recorder = spans.Recorder("spans")
    recorder.install()
    try:
        result = run_pass(plan, label, threads, recorder)
    finally:
        recorder.uninstall()
    path = os.path.join(directory, f"spans-{label}.npy")
    np.save(path, recorder.spans_array())
    result["spans"] = {"path": path, "names": recorder.names}
    result["counters"] = recorder.counters()
    return result


def memory_pass(plan: dict, threads: int) -> dict:
    recorder = spans.Recorder("memory", only=spans.PEAK_FUNCTIONS)
    recorder.install()
    try:
        result = run_pass(plan, "memory", threads)
    finally:
        recorder.uninstall()
    result["peaks_mib"] = recorder.peaks
    return result


def main(plan_path: str) -> None:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    threads = plan["threads"]
    passes: List[dict] = []
    first_pass_maxrss = None
    if plan["mode"] == "measure":
        stop_at = time.perf_counter() + plan["seconds"]
        last: Dict[str, float] = {}
        passes.append(run_pass(plan, "measure0", threads, last=last))
        first_pass_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while time.perf_counter() < stop_at:
            more = run_pass(plan, f"measure{len(passes)}", threads, stop_at=stop_at, last=last)
            if not more["jobs"]:
                break
            passes.append(more)
    else:
        directory = os.path.dirname(plan_path)
        passes.append(run_pass(plan, "untraced", threads))
        passes.append(traced_pass(plan, "traced", threads, directory))
        if threads > 1:
            passes.append(traced_pass(plan, "traced1", 1, directory))
        if plan["memory_pass"]:
            passes.append(memory_pass(plan, threads))
    result: Dict[str, object] = {"passes": passes, "first_pass_maxrss_kib": first_pass_maxrss}
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
