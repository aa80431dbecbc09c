"""One corpus scan for every weight.

``empirical_weak_operator_norm`` builds each corpus function's square
function and level sets once and evaluates every weight from them.  The
oracle in ``helpers`` rebuilds them for each weight alone; both do the same
arithmetic on the same values, so the rows must be bit-identical.  Both take
the square function of a function stored at depth ``d`` one level up, on
the ``2^(d − 1)`` sibling pairs; the depth-``d`` oracle evaluates it by the
ancestor matrix on the level-``d`` cubes, where sibling values differ by
rounding only, so the rows agree to 1e-13 relative.

The scans draw the corpus lazily from ``operators._corpus_stream`` through
``ordered_map``, which takes one item per free worker: the stream must yield
exactly ``function_corpus``, and the map must keep input order, enter the
iterator from one thread at a time and hold at most one item per worker.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    TABULATED_NATIVE_DEPTH,
    oracle_depth_d_rows,
    oracle_natural_depth_rows,
    seeded_tabulated_weights,
)
from weightlab import (
    DyadicGrid,
    PowerWeight,
    empirical_weak_operator_norm,
    function_corpus,
    ordered_map,
    unit_weight,
)
from weightlab.operators import _corpus_stream

SWEEP_ALPHAS = np.linspace(-0.375, 0.375, 7)  # the default sweep, with alpha 0 the unit weight


def _weights(depth):
    sweep = [unit_weight() if a == 0.0 else PowerWeight(float(a)) for a in SWEEP_ALPHAS]
    return sweep + seeded_tabulated_weights(4, depth=min(depth, TABULATED_NATIVE_DEPTH))


@pytest.mark.parametrize("p, threads", [(2.0, "1"), (1.5, "1"), (2.0, "2")])
@pytest.mark.parametrize("depth", (2, 6, 10, 12))
def test_rows_are_bit_identical_to_the_per_weight_oracle(depth, p, threads, monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", threads)
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid)
    weights = _weights(depth)
    scans = empirical_weak_operator_norm(weights, grid, p=p, corpus=corpus)
    assert len(scans) == len(weights)
    for w, (best, rows) in zip(weights, scans):
        want_best, want_rows = oracle_natural_depth_rows(w, grid, p, corpus)
        assert rows == want_rows, w.describe()
        assert best == want_best, w.describe()


@pytest.mark.parametrize("depth", (2, 6, 12))
def test_rows_match_the_depth_d_oracle(depth, monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", "1")
    grid = DyadicGrid(depth)
    corpus = function_corpus(grid, n_random=16)
    weights = _weights(depth)
    for p in (2.0, 1.5):
        scans = empirical_weak_operator_norm(weights, grid, p=p, corpus=corpus)
        for w, (best, rows) in zip(weights, scans):
            want_best, want_rows = oracle_depth_d_rows(w, grid, p, corpus)
            assert [r.name for r in rows] == [r.name for r in want_rows]
            for got, ref in zip(rows, want_rows):
                assert got.strong_norm == ref.strong_norm  # f itself did not move
                assert abs(got.weak_norm_sf - ref.weak_norm_sf) <= 1e-13 * ref.weak_norm_sf
                assert abs(got.ratio - ref.ratio) <= 1e-13 * ref.ratio
            assert abs(best - want_best) <= 1e-13 * want_best


def test_empty_weight_list_and_empty_corpus():
    grid = DyadicGrid(4)
    assert empirical_weak_operator_norm([], grid) == []
    weights = [unit_weight(), PowerWeight(-0.25)]
    assert empirical_weak_operator_norm(weights, grid, corpus=[]) == [(0.0, []), (0.0, [])]


@pytest.mark.parametrize(
    "depth, seed, n_random, max_level",
    [(1, 2024, 64, 6), (3, 7, 5, 6), (8, 2024, 64, 6), (8, 11, 3, 2), (12, 2024, 4, 0)],
)
def test_stream_yields_the_corpus(depth, seed, n_random, max_level):
    grid = DyadicGrid(depth)
    want = function_corpus(grid, seed, n_random, max_level)
    got = list(_corpus_stream(grid, seed, n_random, max_level))
    assert [(f.name, f.depth, f.grid_depth) for f in got] == [
        (f.name, f.depth, f.grid_depth) for f in want
    ]
    assert [f.cells.tobytes() for f in got] == [f.cells.tobytes() for f in want]


class _Item:
    """A work item whose lifetime the tests follow through ``weakref.finalize``."""

    def __init__(self, value):
        self.value = value


class _Source:
    """A generator of ``_Item``s that records how many items are alive and how
    many threads are inside it at once."""

    def __init__(self, n):
        self.n = n
        self.alive = self.inside = self.most_inside = 0
        self.lock = threading.Lock()

    def _change(self, name, step):
        with self.lock:
            setattr(self, name, getattr(self, name) + step)
            if name == "inside":
                self.most_inside = max(self.most_inside, self.inside)

    def items(self):
        for value in range(self.n):
            self._change("inside", 1)
            time.sleep(0.0005)  # lets another thread try to enter
            item = _Item(value)
            self._change("alive", 1)
            weakref.finalize(item, self._change, "alive", -1)
            self._change("inside", -1)
            yield item
            del item


def _scrambled(source, seen):
    def fn(item):
        seen.append(source.alive)
        time.sleep(0.0002 * (item.value * 7 % 5))  # finish out of input order
        return item.value * item.value

    return fn


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_ordered_map_streams_a_generator_in_order(workers, monkeypatch, fast_switching):
    monkeypatch.setenv("WEIGHTLAB_THREADS", str(workers))
    source, seen = _Source(120), []
    result = ordered_map(_scrambled(source, seen), source.items())
    assert result == [v * v for v in range(120)]
    assert len(seen) == 120
    assert source.most_inside == 1
    assert max(seen) <= workers
    assert source.alive == 0


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_ordered_map_raises_what_fn_raises(workers, monkeypatch):
    monkeypatch.setenv("WEIGHTLAB_THREADS", str(workers))
    calls = []

    def fn(x):
        calls.append(x)
        if x == 7:
            raise ArithmeticError("item 7")
        return x

    with pytest.raises(ArithmeticError, match="item 7"):
        ordered_map(fn, iter(range(10_000)))
    assert len(calls) < 10_000  # no further draws after the failure


def test_default_scan_memory_is_one_noise_vector(monkeypatch):
    # the 64 noise vectors alone are 32 MiB at L = 16; the scan holds one at a time
    monkeypatch.setenv("WEIGHTLAB_THREADS", "1")
    grid = DyadicGrid(16)
    w = PowerWeight(-0.25)
    tracemalloc.start()
    try:
        [(best, rows)] = empirical_weak_operator_norm([w], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 318 and best > 0.0
    assert peak <= 8 * (1 << 20), peak / (1 << 20)
