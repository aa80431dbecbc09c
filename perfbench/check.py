"""Correctness check of every job's outputs against recorded references.

References live in ``reference.json``; ``run.py --record-reference`` writes
them from the base (identity) arrangement of the inputs.  Because seeded
inputs are dyadic rearrangements of the same base draws (see
``inputs.py``), the checked numbers are the same for every seed, except
argmax cubes, which move with the rearrangement and are mapped before the
comparison.

Tolerance: ``REL_TOL`` is far below any change a wrong answer makes, and far
above what reordered sums (about 1e-15 relative) or the planned ``expm1``
form of power-weight moments (about 2e-10 relative at L=20) can move.
``epsilon_empirical`` comes from a bisection to 1e-4 relative precision, so
it may move by one bisection step when a reordered sum flips a comparison.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Dict, List, Optional

REL_TOL = 1e-7
ABS_TOL = 1e-12
LOOSE = {"epsilon_empirical": 2e-4}
RATIO_SLACK = 1.0 + 1e-12


def _close(a: float, b: float, tol: float) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if a == b:
        return True
    return abs(a - b) <= max(tol * max(abs(a), abs(b)), ABS_TOL)


def compare(got, want, path: str = "$", tol: float = REL_TOL) -> List[str]:
    """Differences between two JSON trees; numbers compare within ``tol``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        out: List[str] = []
        for key in sorted(want):
            out += compare(got[key], want[key], f"{path}.{key}", LOOSE.get(key, tol))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]", tol)
        return out
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return [] if _close(got, want, tol) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def map_argmax(tree, images) -> object:
    """Move ``[level, index]`` argmax cubes of a char report by the rearrangement."""
    out = dict(tree)
    for key, value in tree.items():
        if not key.endswith("argmax"):
            continue
        if isinstance(value, dict):
            out[key] = {k: [v[0], int(images[v[0]][v[1]])] for k, v in value.items()}
        else:
            out[key] = [value[0], int(images[value[0]][value[1]])]
    return out


def _read_csv(path: str) -> List[List[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def headline(path: str, kind: str) -> object:
    """The checked numbers of one output file."""
    if kind == "json":
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    rows = _read_csv(path)
    header, body = rows[0], rows[1:]
    if kind == "csv_table":
        return {"columns": header, "rows": [[_number(x) for x in row] for row in body]}
    col = {name: i for i, name in enumerate(header)}
    if kind == "gehring_csv":
        ratios_ok = True
        worst = {"self-improve": 0.0, "subset": 0.0}
        counts = {"self-improve": 0, "subset": 0}
        for row in body:
            lhs, rhs, ratio = (float(row[col[k]]) for k in ("lhs", "rhs", "ratio"))
            expected = 0.0 if lhs == 0.0 else lhs / rhs
            ratios_ok &= ratio == expected and ratio <= RATIO_SLACK
            counts[row[col["check"]]] += 1
            worst[row[col["check"]]] = max(worst[row[col["check"]]], ratio)
        # subset draws land on rearranged cells, so only their gate is checked
        return {
            "rows": len(body),
            "self_improve_rows": counts["self-improve"],
            "subset_rows": counts["subset"],
            "worst_self_improve_ratio": worst["self-improve"],
            "ratios_consistent_and_below_one": ratios_ok,
        }
    if kind == "weak_norm_csv":
        ratios = [float(row[col["ratio"]]) for row in body]
        return {"rows": len(body), "best_ratio": max(ratios)}
    raise ValueError(f"unknown check {kind!r}")


def check_job(job: dict, reference: Optional[list], images_for) -> List[str]:
    """Problems with one job's last outputs; ``images_for(depth)`` maps argmax."""
    if reference is None:
        return [f"{job['name']}: no reference recorded"]
    problems: List[str] = []
    for out, want in zip(job["outputs"], reference):
        try:
            got = headline(out["path"], out["check"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{job['name']}: cannot read {out['path']}: {exc}")
            continue
        if out.get("depth"):
            want = map_argmax(want, images_for(out["depth"]))
        problems += [f"{job['name']}: {p}" for p in compare(got, want)]
    if len(reference) != len(job["outputs"]):
        problems.append(f"{job['name']}: reference has {len(reference)} outputs")
    return problems


def record(jobs: List[dict]) -> Dict[str, list]:
    """Reference entries (one per output) for a job list run on base inputs."""
    return {job["name"]: [headline(o["path"], o["check"]) for o in job["outputs"]] for job in jobs}
