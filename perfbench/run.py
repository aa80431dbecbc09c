"""weightlab benchmark: four seeded CLI/library workloads, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload depth20 --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload trace --seed 1 --seconds 26 --trace 1
    python3 perfbench/run.py --record-reference

One run:

1. writes the workload's inputs from ``--seed`` (``inputs.py``) and records
   their SHA-256;
2. times set-up: spawn a fresh interpreter and import ``weightlab.cli``,
   several times before and after the measured work, and takes the median
   (``setup_s``);
3. runs the job list in one fresh worker process (``worker.py``).  With
   ``--trace 0`` it cycles through the jobs, untraced, for ``--seconds``
   and reports ``wall_s`` (sum over jobs of the median job time) and
   ``peak_rss_mb`` (the worker's ``ru_maxrss`` at the end of its first
   pass).  With ``--trace 1`` it runs one untraced pass, one traced pass
   (``spans.py``), a single-thread traced pass when the workload uses
   threads, and a tracemalloc pass, and reports the per-layer metrics;
4. checks every job: exit code 0, output bytes identical across passes, and
   headline numbers equal to ``reference.json`` (``check.py``).

It prints a one-line JSON report, a table of every metric with its unit,
and, last, ``{"correct", "attempted", "failed", "metrics"}``.  Files go to
``.perfbench_run/`` under the repository root; the run's inputs and outputs
are deleted at the end, its report is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 4  # before and again after the worker, so drift is sampled twice
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import metrics as metriclib  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("WEIGHTLAB_THREADS", None)
    return env


def fingerprint() -> Dict[str, object]:
    """Machine facts, read-only: cores, versions, cache sizes from sysfs."""
    import numpy

    caches: Dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            if not entry.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "cpu0_caches_sysfs": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def spawn_worker(args: List[str]) -> Tuple[subprocess.Popen, float]:
    """Spawn a worker; returns it, once it printed ``ready``, and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=_env(),
        text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        _fail("the worker could not import weightlab.cli", 1)
    return proc, setup_s


def setup_samples() -> List[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc, setup_s = spawn_worker(["--probe"])
        proc.communicate()
        samples.append(setup_s)
    return samples


def run_worker(plan: dict, plan_path: str, deadline: float) -> Tuple[float, dict]:
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc, setup_s = spawn_worker([plan_path])
    try:
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        _fail("the worker ran past the time limit", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        _fail(f"the worker exited with code {proc.returncode}", 1)
    with open(plan["result_path"], "r", encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def check_passes(jobs: List[dict], passes: List[dict], reference: Optional[dict], images_for):
    """(attempted, failed, problems): every job execution of every pass."""
    problems: List[str] = []
    wrong = set()
    for job in jobs:
        wrong_here = check.check_job(job, None if reference is None else reference.get(job["name"]), images_for)
        if wrong_here:
            wrong.add(job["name"])
            problems += wrong_here
    first_hash: Dict[str, list] = {}
    attempted = failed = 0
    for result in passes:
        for record in result["jobs"]:
            attempted += 1
            name = record["name"]
            bad = record["error"] is not None or record["rc"] != 0 or name in wrong
            first = first_hash.setdefault(name, record["hashes"])
            if record["hashes"] != first or None in record["hashes"]:
                bad = True
                problems.append(f"{name}: outputs of pass {result['label']} differ")
            if record["error"] is not None or record["rc"] != 0:
                problems.append(f"{name}: pass {result['label']} rc={record['rc']} {record['error'] or ''}")
            failed += bad
    return attempted, failed, problems


def profile_facts(workload: str, layer: Dict[str, float], table: Dict[str, dict]) -> List[dict]:
    """The profile facts the workload design relies on, each with its numbers."""
    modules = {m: layer[f"{m.lstrip('_')}.self_s"] for m in spanlib.LAYERS}
    ranked = sorted(modules, key=modules.get, reverse=True)
    top_spans = sorted(
        ((name, row["self_s"]) for name, row in table.items() if name.split(".", 1)[0] in spanlib.LAYERS),
        key=lambda item: item[1],
        reverse=True,
    )[:5]
    facts = [{"fact": "top self times", "spans": top_spans, "modules": [(m, modules[m]) for m in ranked[:5]]}]
    if workload == "trace":
        facts.append({"fact": "tracer.peel_layers has the largest self time",
                      "holds": bool(top_spans) and top_spans[0][0] == "tracer.peel_layers"})
    if workload == "depth20":
        facts.append({"fact": "grid, characteristics and cli are the top three modules by self time",
                      "holds": set(ranked[:3]) == {"grid", "characteristics", "cli"}})
    if workload == "gehring-scan":
        facts.append({"fact": "serialize is among the top three modules by self time",
                      "holds": "serialize" in ranked[:3]})
    if workload == "corpus-scan":
        facts.append({"fact": "operators is the top module by self time", "holds": ranked[0] == "operators"})
        facts.append({"fact": "parallel.speedup_2v1 is above 1",
                      "holds": layer["parallel.speedup_2v1"] > 1.0,
                      "value": layer["parallel.speedup_2v1"]})
    return facts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run every workload once on the base inputs and write reference.json")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "weightlab", "__init__.py")):
        _fail(f"no weightlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import weightlab

    if os.path.dirname(os.path.dirname(os.path.abspath(weightlab.__file__))) != SRC:
        _fail(f"imported weightlab from {weightlab.__file__}, not from {SRC}")

    if args.record_reference:
        return record_reference()
    if args.workload not in workloads.WHY:
        _fail(f"--workload must be one of {sorted(workloads.WHY)}")
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)

    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        made = inputs.make_inputs(workloads.INPUTS[args.workload], args.seed, os.path.join(run_dir, "in"))
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(out_dir, exist_ok=True)
        jobs = workloads.jobs(args.workload, {k: v["path"] for k, v in made.items()}, out_dir)
        threads = workloads.THREADS[args.workload]
        plan = {
            "workload": args.workload,
            "mode": "trace" if args.trace else "measure",
            "seconds": args.seconds,
            "threads": threads,
            "jobs": jobs,
            "memory_pass": args.workload != "corpus-scan",
            "result_path": os.path.join(run_dir, "result.json"),
        }
        setup = setup_samples()
        worker_setup, result = run_worker(plan, os.path.join(run_dir, "plan.json"), deadline)
        setup += [worker_setup] + setup_samples()
        passes = result["passes"]

        images: Dict[int, object] = {}

        def images_for(depth: int):
            if depth not in images:
                images[depth] = inputs.dyadic_images(depth, args.seed)
            return images[depth]

        attempted, failed, problems = check_passes(jobs, passes, reference.get(args.workload), images_for)

        family_cubes = 0
        if "family16" in made:
            with open(made["family16"]["path"], "r", encoding="utf-8") as fh:
                family_cubes = len(json.load(fh))
        report: Dict[str, object] = {
            "workload": args.workload,
            "why": workloads.WHY[args.workload],
            "seed": args.seed,
            "threads": threads,
            "fingerprint": fingerprint(),
            "computed_sizes_mib": workloads.computed_sizes(args.workload, family_cubes),
            "inputs": {k: {"sha256": v["sha256"], "bytes": v["bytes"]} for k, v in made.items()},
            "setup_samples_s": setup,
            "passes": [{"label": p["label"], "threads": p["threads"], "seconds": p["seconds"],
                        "jobs": {j["name"]: j.get("seconds") for j in p["jobs"]}} for p in passes],
            "problems": problems[:20],
        }
        if args.trace:
            by_label = {p["label"]: p for p in passes}
            layer, table = metriclib.layer_metrics(by_label["traced"], by_label["untraced"],
                                                   by_label.get("traced1"), by_label.get("memory"))
            untraced_s = metriclib.pass_seconds(by_label["untraced"])
            report["profile_facts"] = profile_facts(args.workload, layer, table)
            report["profile_facts"].append({
                "fact": "top-level job spans match the untraced wall_s within the tracing overhead",
                "holds": abs(layer["trace.jobs_s"] - untraced_s) <= abs(layer["trace.overhead_s"]) + 1e-3,
                "jobs_s": layer["trace.jobs_s"], "untraced_wall_s": untraced_s,
                "overhead_s": layer["trace.overhead_s"],
            })
            values = layer
            names = metriclib.PER_LAYER
        else:
            per_job: Dict[str, List[float]] = {}
            for p in passes:
                for j in p["jobs"]:
                    if j.get("seconds") is not None:
                        per_job.setdefault(j["name"], []).append(j["seconds"])
            report["job_samples"] = {k: len(v) for k, v in per_job.items()}
            report["job_median_s"] = {k: statistics.median(v) for k, v in per_job.items()}
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": sum(report["job_median_s"].values()),
                "peak_rss_mb": result["first_pass_maxrss_kib"] / 1024.0,
            }
            names = metriclib.END_TO_END
        metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in names}
        report["metrics"] = metrics_out
        report["run_s"] = time.perf_counter() - started
        report_path = os.path.join(WORK, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("report " + json.dumps(report))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, entry in metrics_out.items():
        print(f"{name:56s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


def record_reference() -> int:
    """Run each workload's jobs once on the identity arrangement; save headlines."""
    reference = {}
    for workload in sorted(workloads.WHY):
        run_dir = os.path.join(WORK, f"reference-{workload}")
        made = inputs.make_inputs(workloads.INPUTS[workload], None, os.path.join(run_dir, "in"))
        os.makedirs(os.path.join(run_dir, "out"), exist_ok=True)
        jobs = workloads.jobs(workload, {k: v["path"] for k, v in made.items()}, os.path.join(run_dir, "out"))
        plan = {"workload": workload, "mode": "measure", "seconds": 0.0,
                "threads": workloads.THREADS[workload], "jobs": jobs, "memory_pass": False,
                "result_path": os.path.join(run_dir, "result.json")}
        _, result = run_worker(plan, os.path.join(run_dir, "plan.json"), time.perf_counter() + 600)
        for record in result["passes"][0]["jobs"]:
            if record["error"] is not None or record["rc"] != 0:
                _fail(f"{workload}/{record['name']} failed: rc={record['rc']} {record['error']}", 1)
        reference[workload] = check.record(jobs)
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"recorded {workload}: {sorted(reference[workload])}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
