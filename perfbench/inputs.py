"""Seeded input files for the benchmark workloads.

Every input is a fixed base draw (``BASE_SEED``) rearranged by a dyadic tree
automorphism chosen by the run seed: at every cube of the grid a seeded coin
decides whether its two halves swap places.  The files therefore differ from
seed to seed (different bytes, different SHA-256), while every dyadic
quantity the program reports - suprema over cubes, per-cube sums, family
sizes, bin counts - is the same up to the order of floating-point sums.
That lets one set of reference values, recorded at the base arrangement,
check the outputs of any seed.  ``seed=None`` selects the identity
arrangement (used to record the references).
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, List, Optional

import numpy as np

BASE_SEED = 20250601
LOGNORMAL_SIGMA = 0.5


def dyadic_images(depth: int, seed: Optional[int]) -> List[np.ndarray]:
    """``images[k][i]`` is the index that cube ``(k, i)`` moves to.

    Children of a cube always move to the children of its image, so the map
    is an automorphism of the dyadic tree of depth ``depth``.
    """
    images = [np.zeros(1, dtype=np.int64)]
    rng = None if seed is None else np.random.default_rng([seed, depth])
    for level in range(depth):
        parent = images[-1]
        if rng is None:
            swap = np.zeros(parent.size, dtype=np.int64)
        else:
            swap = rng.integers(0, 2, size=parent.size, dtype=np.int64)
        child = np.empty(2 * parent.size, dtype=np.int64)
        child[0::2] = 2 * parent + swap
        child[1::2] = 2 * parent + 1 - swap
        images.append(child)
    return images


def rearrange(values: np.ndarray, images: List[np.ndarray]) -> np.ndarray:
    """Move each finest cell's value to the cell its cube maps to."""
    out = np.empty_like(values)
    out[images[-1]] = values
    return out


def base_draw(kind: str, depth: int, tag: int) -> np.ndarray:
    """The fixed base vector of ``2**depth`` values; ``tag`` separates streams."""
    rng = np.random.default_rng([BASE_SEED, depth, tag])
    n = 1 << depth
    if kind == "lognormal":
        return np.exp(rng.normal(0.0, LOGNORMAL_SIGMA, n))
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "abs_normal":
        return np.abs(rng.standard_normal(n))
    raise ValueError(f"unknown base draw {kind!r}")


def write_values(path: str, values: np.ndarray) -> None:
    """One shortest round-trip decimal per line, the CLI's value-file format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, values.tolist())))
        fh.write("\n")


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def make_inputs(specs: Dict[str, dict], seed: Optional[int], directory: str) -> Dict[str, dict]:
    """Write every input of a workload; returns name -> {path, sha256, bytes}.

    A spec is ``{"kind", "depth", "tag", "format"}`` where format is ``text``
    (CLI value file), ``npy`` (library-call input) or ``family`` (CZ family
    JSON built by ``build_sparse_cz`` from the rearranged density).
    """
    os.makedirs(directory, exist_ok=True)
    images: Dict[int, List[np.ndarray]] = {}
    out: Dict[str, dict] = {}
    for name, spec in sorted(specs.items()):
        depth = spec["depth"]
        if depth not in images:
            images[depth] = dyadic_images(depth, seed)
        values = rearrange(base_draw(spec["kind"], depth, spec["tag"]), images[depth])
        fmt = spec["format"]
        if fmt == "text":
            path = os.path.join(directory, f"{name}.txt")
            write_values(path, values)
        elif fmt == "npy":
            path = os.path.join(directory, f"{name}.npy")
            np.save(path, values)
        elif fmt == "family":
            from weightlab.grid import DyadicGrid
            from weightlab.sparse import build_sparse_cz

            path = os.path.join(directory, f"{name}.json")
            family = build_sparse_cz(values, DyadicGrid(depth), ratio=spec["ratio"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(family.to_json())
        else:
            raise ValueError(f"unknown input format {fmt!r}")
        out[name] = {
            "path": path,
            "sha256": sha256_of(path),
            "bytes": os.path.getsize(path),
        }
    return out
