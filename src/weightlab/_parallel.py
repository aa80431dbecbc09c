"""Deterministic optional thread parallelism.

The environment variable ``WEIGHTLAB_THREADS`` (default ``"1"``) sets the
worker count for embarrassingly parallel loops.  Work items are pure
functions of independent inputs and results are returned in input order, so
every downstream artifact is byte-identical no matter the thread count.
Items are drawn from their iterator one at a time, in input order, so a lazy
source (the corpus noise) holds at most one item per worker.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, TypeVar

from .errors import ConfigError

_T = TypeVar("_T")
_R = TypeVar("_R")

ENV_VAR = "WEIGHTLAB_THREADS"


def thread_count() -> int:
    """Worker count from the environment (validated, defaults to 1)."""
    raw = os.environ.get(ENV_VAR, "1")
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_VAR} must be a positive integer, got {raw!r}") from exc
    if count < 1:
        raise ConfigError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return count


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> List[_R]:
    """``[fn(x) for x in items]``, optionally on a thread pool, order kept.

    ``items`` is consumed lazily: a free worker draws the next item under a
    lock, so the iterator runs in one thread at a time and in input order,
    and at most one item per worker is alive.  The first exception raised by
    ``fn`` or by the iterator stops further draws and reaches the caller."""
    workers = thread_count()
    if workers == 1:
        return [fn(item) for item in items]
    source = iter(items)
    drawn = itertools.count()
    lock = threading.Lock()
    failed = threading.Event()
    results: Dict[int, _R] = {}
    done = object()

    def work() -> None:
        try:
            while not failed.is_set():
                with lock:
                    item = next(source, done)
                    index = next(drawn)
                if item is done:
                    return
                results[index] = fn(item)
                del item  # not alive while the next item is drawn
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as executor:
        futures = [executor.submit(work) for _ in range(workers)]
    for future in futures:
        future.result()
    return [results[index] for index in range(len(results))]
