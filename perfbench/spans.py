"""Span recorder for the traced benchmark passes.

The recorder times weightlab from the outside.  ``install`` replaces every
public function of each layer module, plus a few methods, with a wrapper
that records one span per call: name, start, end, parent span and job id.
A function is rebound at every module that holds it, because
``from .grid import tree_totals`` gives ``weights`` a binding of its own.
``uninstall`` puts the originals back.

Parent stacks are kept per thread.  ``ordered_map`` hands its worker
threads a stack that starts at its own span, so pool work nests under the
map that caused it.  Spans are held in per-thread integer arrays (times in
nanoseconds from ``perf_counter_ns``) and leave the process once, through
``spans_array``.

``self_times`` turns spans into self times: a span's duration minus the
union of its children's intervals.  Children from two threads may overlap,
so the union, not the sum, is subtracted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
import tracemalloc
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

MIB = float(1 << 20)

# The package's modules, which are the benchmark's layers.  ``profiles`` and
# ``errors`` hold no measurable work and are not wrapped.
LAYERS = (
    "cli",
    "serialize",
    "grid",
    "weights",
    "characteristics",
    "bounds",
    "gehring",
    "sparse",
    "tracer",
    "operators",
    "_parallel",
)
ALL_MODULES = LAYERS + ("profiles", "errors")

# Methods wrapped on the classes that define them; the span is named after
# the module and the method, so both weight classes share one name.
METHODS = {
    "weights": (
        ("Weight", "pyramid"),
        ("Weight", "level_averages"),
        ("Weight", "cube_integral"),
        ("TabulatedWeight", "cell_integrals"),
        ("TabulatedWeight", "power"),
        ("PowerWeight", "cell_integrals"),
        ("PowerWeight", "power"),
    ),
    "sparse": (("SparseFamily", "from_json"), ("SparseFamily", "to_json")),
}

# Functions whose tracemalloc peak is recorded, in a pass of their own.
PEAK_FUNCTIONS = (
    "characteristics.a_infty_fw_per_level",
    "gehring.max_epsilon_empirical",
    "sparse.build_sparse_cz",
    "sparse.from_json",
)

JOB_PREFIX = "job."
HOOK_SPAN = "perfbench.hook"
FIELDS = 6  # span id, name id, parent id, job id, start ns, end ns


def _input_mb(args, kwargs, result) -> float:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--weight-file", "--f", "--g", "--family"):
            total += os.path.getsize(value)
    return total / MIB


def _level_sets(args, kwargs, result) -> int:
    values = np.abs(np.asarray(args[0], dtype=np.float64))
    return int(np.unique(values[values > 0.0]).size)


# name -> [(counter, fn(args, kwargs, result) -> amount, expensive)]
COUNTERS: Dict[str, List[Tuple[str, Callable, bool]]] = {
    "cli.main": [("cli.input_mb", _input_mb, False)],
    "serialize.write_text": [
        ("serialize.out_mb", lambda a, k, r: len(a[0].encode("utf-8")) / MIB, False)
    ],
    "grid.tree_totals": [("grid.tree_totals.cells", lambda a, k, r: r[-1].size, False)],
    "grid.ancestor_value_matrix": [
        ("grid.ancestor_value_matrix.mb_computed", lambda a, k, r: r.nbytes / MIB, False)
    ],
    "sparse.build_sparse_cz": [("sparse.family_cubes", lambda a, k, r: len(r), False)],
    "sparse.from_json": [("sparse.family_cubes", lambda a, k, r: len(r), False)],
    "tracer.peel_layers": [
        ("tracer.peel_layers.cubes", lambda a, k, r: len(a[0]), False),
        ("tracer.layers", lambda a, k, r: len(r), False),
    ],
    "tracer.trace_proof": [
        ("tracer.traced_cubes", lambda a, k, r: len(r.traced), False),
        ("tracer.bins", lambda a, k, r: len(r.bins), False),
    ],
    "operators.function_corpus": [
        ("operators.corpus_functions", lambda a, k, r: len(r), False)
    ],
    "operators.weak_lp_norm": [("operators.level_sets", _level_sets, True)],
    "_parallel.ordered_map": [("_parallel.ordered_map.items", lambda a, k, r: len(r), False)],
}


def modules_by_name():
    """Every weightlab module by short name (imports them)."""
    return {name: importlib.import_module(f"weightlab.{name}") for name in ALL_MODULES}


def public_functions(modules) -> Dict[str, Callable]:
    """span name -> original function, for every public function of a layer."""
    out: Dict[str, Callable] = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


class Recorder:
    """Wraps weightlab's layers and records spans (or tracemalloc peaks)."""

    def __init__(self, mode: str = "spans", only: Optional[Iterable[str]] = None) -> None:
        if mode not in ("spans", "memory"):
            raise ValueError(f"unknown recorder mode {mode!r}")
        self.mode = mode
        self.only = None if only is None else set(only)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[array] = []
        self._counters: List[Dict[str, float]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.peaks: Dict[str, float] = {}
        self._open: List[List[int]] = []
        self.job = -1

    # --- per-thread state ---------------------------------------------------------
    def _thread_init(self) -> List[int]:
        tls = self._tls
        tls.stack = []
        tls.buf = array("q")
        tls.counts = {}
        with self._lock:
            self._buffers.append(tls.buf)
            self._counters.append(tls.counts)
        return tls.stack

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # --- span wrappers --------------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        tls = self._tls
        ids = self._ids
        clock = time.perf_counter_ns
        rec = self
        nid = self.name_id(name)
        hooks = COUNTERS.get(name, ())
        hook_nid = self.name_id(HOOK_SPAN)
        is_map = name == "_parallel.ordered_map"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = rec._thread_init()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            if is_map:
                args = (rec._bind_parent(args[0], sid),) + args[1:]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tls.buf.extend((sid, nid, parent, rec.job, t0, t1))
            for counter, count, expensive in hooks:
                if expensive:  # its time is a child span, so no layer is charged
                    h0 = clock()
                    amount = count(args, kwargs, result)
                    tls.buf.extend((next(ids), hook_nid, parent, rec.job, h0, clock()))
                else:
                    amount = count(args, kwargs, result)
                tls.counts[counter] = tls.counts.get(counter, 0) + amount
            return result

        return wrapper

    def _bind_parent(self, fn: Callable, sid: int) -> Callable:
        """Run ``fn`` with a stack rooted at span ``sid`` (pool or caller thread)."""
        tls = self._tls

        def bound(item):
            try:
                saved = tls.stack
            except AttributeError:
                saved = self._thread_init()
            tls.stack = [sid]
            try:
                return fn(item)
            finally:
                tls.stack = saved

        return bound

    def _memory_wrapper(self, fn: Callable, name: str) -> Callable:
        """Record the tracemalloc peak above the allocation level at entry.

        tracemalloc runs only while a wrapped call is open, so code outside
        these functions runs at full speed.  Nested calls fold their peak
        into every open caller before resetting it.  The open-call list is
        shared, so this mode serves single-threaded passes only.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not tracemalloc.is_tracing()
            if outer:
                tracemalloc.start()
            peak = tracemalloc.get_traced_memory()[1]
            for frame in rec._open:
                frame[1] = max(frame[1], peak)
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            frame = [current, current]
            rec._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                rec._open.pop()
                for other in rec._open:
                    other[1] = max(other[1], peak)
                tracemalloc.reset_peak()
                rec.peaks[name] = max(rec.peaks.get(name, 0.0), (peak - frame[0]) / MIB)
                if outer:
                    tracemalloc.stop()

        return wrapper

    # --- install / uninstall --------------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("recorder is already installed")
        modules = modules_by_name()
        package = importlib.import_module("weightlab")
        make = self._span_wrapper if self.mode == "spans" else self._memory_wrapper
        targets: Dict[int, Tuple[Callable, Callable]] = {}
        for name, fn in public_functions(modules).items():
            if self.only is None or name in self.only:
                targets[id(fn)] = (fn, make(fn, name))
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, methods in METHODS.items():
            for cls_name, meth in methods:
                name = f"{layer}.{meth}"
                if self.only is not None and name not in self.only:
                    continue
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(make(raw.__func__, name))
                else:
                    new = make(raw, name)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- jobs and results -------------------------------------------------------------
    def run_job(self, job_id: int, name: str, fn: Callable[[], object]) -> object:
        """Run one top-level job under a ``job.<name>`` span with id ``job_id``."""
        try:
            stack = self._tls.stack
        except AttributeError:
            stack = self._thread_init()
        self.job = job_id
        sid = next(self._ids)
        nid = self.name_id(JOB_PREFIX + name)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self._tls.buf.extend((sid, nid, -1, job_id, t0, t1))
            self.job = -1

    def spans_array(self) -> np.ndarray:
        """All spans as an ``(n, 6)`` int64 array, sorted by span id."""
        with self._lock:
            parts = [np.frombuffer(buf, dtype=np.int64) for buf in self._buffers]
        flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        spans = flat.reshape(-1, FIELDS)
        return spans[np.argsort(spans[:, 0], kind="stable")]

    def counters(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        with self._lock:
            for counts in self._counters:
                for key, value in counts.items():
                    out[key] = out.get(key, 0) + value
        return out


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time (ns) of every span: duration minus the union of its children.

    ``spans`` is ``(n, 6)`` as produced by :meth:`Recorder.spans_array`.
    Children are grouped by parent and swept in start order; an interval
    counts only the part past the furthest end seen so far in its group, so
    overlapping children (two threads) are not subtracted twice.
    """
    sid, parent, t0, t1 = spans[:, 0], spans[:, 2], spans[:, 4], spans[:, 5]
    duration = t1 - t0
    is_child = parent >= 0
    if not np.any(is_child):
        return duration.copy()
    c_parent, c0, c1 = parent[is_child], t0[is_child], t1[is_child]
    order = np.lexsort((c0, c_parent))
    c_parent, c0, c1 = c_parent[order], c0[order], c1[order]
    groups, rank = np.unique(c_parent, return_inverse=True)
    # shift each group far past the previous one so one running max serves all
    base = int(min(c0.min(), t0.min()))
    span_width = int(max(c1.max(), t1.max())) - base + 1
    shift = rank.astype(np.int64) * span_width
    s_shift = c0 - base + shift
    e_shift = c1 - base + shift
    reach = np.maximum.accumulate(e_shift)
    before = np.empty_like(reach)
    before[0] = s_shift[0]
    before[1:] = reach[:-1]
    first = np.ones(rank.size, dtype=bool)
    first[1:] = rank[1:] != rank[:-1]
    before[first] = s_shift[first]
    covered = np.maximum(0, e_shift - np.maximum(s_shift, before))
    union = np.bincount(rank, weights=covered.astype(np.float64), minlength=groups.size)
    idx = np.minimum(np.searchsorted(sid, groups), sid.size - 1)
    known = sid[idx] == groups
    own = duration.astype(np.float64)
    own[idx[known]] -= union[known]
    return np.maximum(own, 0.0)
