"""Metric names and units, and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` mirrors.
Span names use the module names (``_parallel.ordered_map``); metric names
must start with a letter, so that layer's metrics are named ``parallel.*``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

import spans as spanlib

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# (metric, unit); ``<span>.calls`` / ``<span>.self_s`` / ``<module>.self_s`` are
# derived from spans, the rest from counters, peaks and pass timings.
PER_LAYER: List[Tuple[str, str]] = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.input_mb", "MiB"),
    ("cli.self_s", "s"),
    ("serialize.dump_csv.self_s", "s"),
    ("serialize.dump_json.self_s", "s"),
    ("serialize.write_text.self_s", "s"),
    ("serialize.out_mb", "MiB"),
    ("serialize.self_s", "s"),
    ("grid.tree_totals.calls", "count"),
    ("grid.tree_totals.self_s", "s"),
    ("grid.tree_totals.cells", "count"),
    ("grid.ancestor_value_matrix.calls", "count"),
    ("grid.ancestor_value_matrix.self_s", "s"),
    ("grid.ancestor_value_matrix.mb_computed", "MiB"),
    ("grid.self_s", "s"),
    ("weights.cell_integrals.calls", "count"),
    ("weights.cell_integrals.self_s", "s"),
    ("weights.pyramid.calls", "count"),
    ("weights.pyramid.builds", "count"),
    ("weights.pyramid.hit_ratio", "ratio"),
    ("weights.pow_weight.calls", "count"),
    ("weights.composed_moment_cells.self_s", "s"),
    ("weights.self_s", "s"),
    ("characteristics.ap_per_level.calls", "count"),
    ("characteristics.ap_per_level.self_s", "s"),
    ("characteristics.rh_per_level.calls", "count"),
    ("characteristics.rh_per_level.self_s", "s"),
    ("characteristics.a_infty_fw_per_level.calls", "count"),
    ("characteristics.a_infty_fw_per_level.self_s", "s"),
    ("characteristics.a_infty_fw_per_level.peak_mb", "MiB"),
    ("characteristics.self_s", "s"),
    ("bounds.evaluate_bounds.calls", "count"),
    ("bounds.evaluate_bounds.self_s", "s"),
    ("bounds.self_s", "s"),
    ("gehring.epsilon_range.calls", "count"),
    ("gehring.epsilon_range.self_s", "s"),
    ("gehring.verify_sharp_rh.calls", "count"),
    ("gehring.verify_sharp_rh.self_s", "s"),
    ("gehring.verify_subset_bound.calls", "count"),
    ("gehring.verify_subset_bound.self_s", "s"),
    ("gehring.sharp_rh_max_ratio.calls", "count"),
    ("gehring.sharp_rh_max_ratio.self_s", "s"),
    ("gehring.max_epsilon_empirical.self_s", "s"),
    ("gehring.max_epsilon_empirical.peak_mb", "MiB"),
    ("gehring.self_s", "s"),
    ("sparse.build_sparse_cz.calls", "count"),
    ("sparse.build_sparse_cz.self_s", "s"),
    ("sparse.build_sparse_cz.peak_mb", "MiB"),
    ("sparse.family_cubes", "count"),
    ("sparse.verify_sparsity.calls", "count"),
    ("sparse.verify_sparsity.self_s", "s"),
    ("sparse.from_json.self_s", "s"),
    ("sparse.from_json.peak_mb", "MiB"),
    ("sparse.sparse_form.self_s", "s"),
    ("sparse.self_s", "s"),
    ("tracer.build_good_set.self_s", "s"),
    ("tracer.default_trace_family.self_s", "s"),
    ("tracer.peel_layers.calls", "count"),
    ("tracer.peel_layers.self_s", "s"),
    ("tracer.peel_layers.cubes", "count"),
    ("tracer.layers", "count"),
    ("tracer.layer_witnesses.self_s", "s"),
    ("tracer.trace_proof.self_s", "s"),
    ("tracer.traced_cubes", "count"),
    ("tracer.bins", "count"),
    ("tracer.self_s", "s"),
    ("operators.function_corpus.self_s", "s"),
    ("operators.corpus_functions", "count"),
    ("operators.square_function_from_cell_integrals.calls", "count"),
    ("operators.square_function_from_cell_integrals.self_s", "s"),
    ("operators.weak_lp_norm.calls", "count"),
    ("operators.weak_lp_norm.self_s", "s"),
    ("operators.level_sets", "count"),
    ("operators.strong_lp_norm.self_s", "s"),
    ("operators.self_s", "s"),
    ("parallel.ordered_map.calls", "count"),
    ("parallel.ordered_map.items", "count"),
    ("parallel.ordered_map.wall_s", "s"),
    ("parallel.speedup_2v1", "ratio"),
    ("parallel.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.jobs_s", "s"),
]

UNITS = dict(END_TO_END + PER_LAYER)
NS = 1e-9


def _span_name(metric_prefix: str) -> str:
    """Metric prefix -> span name (``parallel.x`` is the ``_parallel`` module)."""
    if metric_prefix == "parallel" or metric_prefix.startswith("parallel."):
        return "_" + metric_prefix
    return metric_prefix


def span_table(spans: np.ndarray, names: List[str]) -> Dict[str, dict]:
    """Per span name: calls, self time and total time (seconds)."""
    if spans.size == 0:
        return {}
    own = spanlib.self_times(spans)
    nid = spans[:, 1]
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=own, minlength=len(names)) * NS
    total_s = np.bincount(nid, weights=(spans[:, 5] - spans[:, 4]).astype(float), minlength=len(names)) * NS
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
        for i, name in enumerate(names)
        if calls[i]
    }


def pyramid_builds(spans: np.ndarray, names: List[str]) -> int:
    """Pyramid calls that had a ``tree_totals`` child (cache misses)."""
    if "weights.pyramid" not in names or "grid.tree_totals" not in names:
        return 0
    pyr, tt = names.index("weights.pyramid"), names.index("grid.tree_totals")
    pyramid_ids = spans[spans[:, 1] == pyr, 0]
    parents = spans[spans[:, 1] == tt, 2]
    return int(np.unique(parents[np.isin(parents, pyramid_ids)]).size)


def pass_seconds(result: dict) -> float:
    """Sum of the job times of one pass."""
    return sum(job.get("seconds", 0.0) for job in result["jobs"])


def layer_metrics(
    traced: dict, untraced: dict, traced1: Optional[dict] = None, memory: Optional[dict] = None
) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Every ``PER_LAYER`` metric from the passes of one traced run, and the
    span table of the traced pass.

    ``traced1`` is the single-thread traced pass (the base of the speed-up)
    and ``memory`` the tracemalloc pass; either may be absent.
    """
    spans = np.load(traced["spans"]["path"])
    names = traced["spans"]["names"]
    table = span_table(spans, names)
    counters = traced["counters"]
    peaks = (memory or {}).get("peaks_mib", {})
    module_self: Dict[str, float] = {}
    for name, row in table.items():
        module = name.split(".", 1)[0]
        module_self[module] = module_self.get(module, 0.0) + row["self_s"]
    jobs_s = sum(row["total_s"] for name, row in table.items() if name.startswith(spanlib.JOB_PREFIX))

    out: Dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        prefix, field = metric.rsplit(".", 1)
        span = _span_name(prefix)
        if field == "self_s" and span in spanlib.LAYERS:
            out[metric] = module_self.get(span, 0.0)
        elif field in ("calls", "self_s"):
            out[metric] = table.get(span, {}).get(field, 0)
        elif field == "peak_mb":
            out[metric] = peaks.get(span, 0.0)
        else:
            out[metric] = counters.get(_span_name(metric), 0)
    builds = pyramid_builds(spans, names)
    pyr_calls = table.get("weights.pyramid", {}).get("calls", 0)
    out["weights.pyramid.builds"] = builds
    out["weights.pyramid.hit_ratio"] = (1.0 - builds / pyr_calls) if pyr_calls else 0.0
    map_wall = table.get("_parallel.ordered_map", {}).get("total_s", 0.0)
    out["parallel.ordered_map.wall_s"] = map_wall
    out["parallel.speedup_2v1"] = 0.0
    if traced1 is not None and map_wall > 0.0:
        table1 = span_table(np.load(traced1["spans"]["path"]), traced1["spans"]["names"])
        out["parallel.speedup_2v1"] = table1.get("_parallel.ordered_map", {}).get("total_s", 0.0) / map_wall
    out["trace.jobs_s"] = jobs_s
    out["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(untraced)
    return out, table
