"""Dyadic Muckenhoupt, reverse Hölder, and Fujii–Wilson characteristics.

All suprema run over the finite family of dyadic cubes of the grid (levels 0
through ``depth``), so every value here is a *dyadic* characteristic at the
stated resolution; it is nondecreasing in the depth. Each supremum reads the
stored pyramids through ``grid.level_blocks`` (``A_∞`` also keeps an ``N``-double
running maximum) and folds the blocks with :func:`level_maxima`: argmax cubes are
the first maximum in heap order, ties break toward the smaller level, then the
smaller index, and a NaN cube (such as 0/0 after underflow) is skipped.

Quantities (all per-cube averages exact):

* Muckenhoupt: ``[w]_{A_p} = sup_Q ⟨w⟩_Q (⨍_Q w^{1-p'})^{p-1}``.
* Reverse Hölder: ``[w]_{RH_q} = sup_Q (⨍_Q w^q)^{1/q} / ⟨w⟩_Q``.
* Fujii–Wilson: ``[w]_{A_∞} = sup_Q (1/w(Q)) ∫_Q M(w·1_Q)`` with the maximal
  function restricted to the dyadic subcubes of Q; the integrand is constant
  on finest cells, so the integral is an exact finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .grid import DyadicCube, DyadicGrid, heap_levels, id_cubes, level_blocks
from .profiles import SLACK
from .weights import Weight, conjugate_exponent, pow_weight


_Block = Tuple[int, int, np.ndarray]  # (level, first cube's index, the block's values)


def level_maxima(walk: Iterable[_Block]) -> List[Tuple[float, int]]:
    """Each level's first maximum and its heap id, in walk order, over its blocks: only a strictly
    larger value replaces the level's best; NaN cubes are skipped (set to -inf in place)."""
    maxima: List[Tuple[float, int]] = []
    for level, start, values in walk:
        at = int(np.argmax(values))
        if np.isnan(values[at]):  # argmax stops at the first NaN
            np.copyto(values, -math.inf, where=np.isnan(values))
            at = int(np.argmax(values))
        best = (float(values[at]), (1 << level) - 1 + start + at)
        if start == 0:
            maxima.append(best)
        elif best[0] > maxima[-1][0]:
            maxima[-1] = best
    return maxima


def sup_with_argmax(maxima: Sequence[Tuple[float, int]]) -> Tuple[float, DyadicCube]:
    """The largest of the per-level maxima, listed coarse to fine, and its cube;
    ``max`` keeps the first of equals, so ties go to the coarser level."""
    best, at = max(maxima, key=lambda m: m[0])
    return best, id_cubes([at])[0]


def power_levels(w: Weight, grid: DyadicGrid, t: float, s: float, op) -> Iterator[_Block]:
    """``op((⨍_Q w^t)^s, ⟨w⟩_Q)`` a block at a time, coarse to fine, from the stored pyramids."""
    levels = zip(heap_levels(w.pyramid(grid, t)), heap_levels(w.pyramid(grid, 1.0)))
    for k, start, (out, mean) in level_blocks(grid, levels):
        with np.errstate(all="ignore"):
            out **= s
            op(out, mean, out=out)
        yield k, start, out


def ap_per_level(w: Weight, p: float, grid: DyadicGrid) -> List[Tuple[float, int]]:
    """Per-level first maxima, coarse to fine, of ⟨w⟩_Q (⨍_Q w^{1-p'})^{p-1} (A_p)."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"A_p characteristic needs p in (1, ∞), got {p}")
    return level_maxima(power_levels(w, grid, 1.0 - conjugate_exponent(p), p - 1.0, np.multiply))


def ap_constant(w: Weight, p: float, grid: DyadicGrid) -> float:
    return max(value for value, _ in ap_per_level(w, p, grid))


def rh_per_level(w: Weight, q: float, grid: DyadicGrid) -> List[Tuple[float, int]]:
    """Per-level first maxima, coarse to fine, of (⨍_Q w^q)^{1/q} / ⟨w⟩_Q (RH_q)."""
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"RH_q characteristic needs q > 1, got {q}")
    if q == math.inf:  # w**inf would collapse the formula to 1/⟨w⟩_Q
        raise ValueError(f"RH_q characteristic needs a finite q, got {q}")
    return level_maxima(power_levels(w, grid, q, 1.0 / q, np.divide))


def rh_constant(w: Weight, q: float, grid: DyadicGrid) -> float:
    return max(value for value, _ in rh_per_level(w, q, grid))


def _a_infty_levels(w: Weight, grid: DyadicGrid) -> Iterator[_Block]:
    """(1/w(Q)) ∫_Q M(w·1_Q) a block at a time, fine to coarse.

    For a point x in Q, the restricted maximal function M(w·1_Q)(x) is the
    largest average ⟨w⟩_R over dyadic Q ⊇ R ∋ x, i.e. over the ancestors of
    x's finest cell down from level(Q). One per-cell running maximum, raised
    level by level from the finest cells to the root, yields all integrals in
    O(depth · n_cells) time and O(n_cells) memory.
    """
    mass = heap_levels(w.pyramid(grid, 1.0))
    running = mass[-1] * float(grid.n_cells)  # M(w·1_Q) per cell, for Q at the current level
    for k, start, (out,) in level_blocks(grid, zip(mass[::-1])):  # out holds ⟨w⟩_Q
        rows = running.reshape(1 << k, -1)[start : start + out.size]  # one row of cells per cube
        with np.errstate(all="ignore"):
            np.maximum(rows, out[:, None], out=rows)
            np.sum(rows, axis=1, out=out)
            out *= grid.cell_measure
            out /= mass[k][start : start + out.size]
        yield k, start, out


def a_infty_fw_per_level(w: Weight, grid: DyadicGrid) -> List[Tuple[float, int]]:
    """Per-level first maxima, coarse to fine, of (1/w(Q)) ∫_Q M(w·1_Q)."""
    return level_maxima(_a_infty_levels(w, grid))[::-1]


def a_infty_fw(w: Weight, grid: DyadicGrid) -> float:
    return max(value for value, _ in a_infty_fw_per_level(w, grid))


# --- identity / relation checks ---------------------------------------------------


@dataclass(frozen=True)
class DualityCheck:
    """Both sides of [w^{1-p'}]_{A_{p'}} = [w]_{A_p}^{p'-1} (an exact identity)."""

    p: float
    p_conj: float
    lhs: float
    rhs: float

    @property
    def rel_error(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.rhs), 1e-300)


def check_duality(w: Weight, p: float, grid: DyadicGrid) -> DualityCheck:
    p = float(p)
    p_conj = conjugate_exponent(p)
    sigma = pow_weight(w, 1.0 - p_conj)
    lhs = ap_constant(sigma, p_conj, grid)
    rhs = ap_constant(w, p, grid) ** (p_conj - 1.0)
    return DualityCheck(p=p, p_conj=p_conj, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class FactorizationCheck:
    """The three dyadic quantities of the power-class factorization.

    With r = s(q-1)+1: max([w]_{A_q}^s, [w]_{RH_s}^s) <= [w^s]_{A_r}
    <= [w]_{A_q}^s [w]_{RH_s}^s. Per cube the middle quantity factors exactly
    as (A_q-quantity × RH_s-quantity)^s, which is what makes both sides hold.
    """

    q: float
    s: float
    combined_index: float
    aq: float
    rh_s: float
    combined: float
    lower_ok: bool
    upper_ok: bool


def check_factorization(
    w: Weight, q: float, s: float, grid: DyadicGrid
) -> FactorizationCheck:
    q, s = float(q), float(s)
    if not (q > 1.0 and s > 1.0):
        raise ValueError(f"factorization check needs q > 1 and s > 1, got ({q}, {s})")
    aq = ap_constant(w, q, grid)
    rh_s = rh_constant(w, s, grid)
    combined_index = s * (q - 1.0) + 1.0
    combined = ap_constant(pow_weight(w, s), combined_index, grid)
    lower = max(aq**s, rh_s**s)
    upper = aq**s * rh_s**s
    return FactorizationCheck(
        q=q,
        s=s,
        combined_index=combined_index,
        aq=aq,
        rh_s=rh_s,
        combined=combined,
        lower_ok=lower <= combined * (1.0 + SLACK),
        upper_ok=combined <= upper * (1.0 + SLACK),
    )


# --- aggregate report --------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicReport:
    """All requested characteristics of one weight at one grid depth."""

    depth: int
    ap: Dict[float, float]
    rh: Dict[float, float]
    a_infty: float
    ap_argmax: Dict[float, DyadicCube]
    rh_argmax: Dict[float, DyadicCube]
    a_infty_argmax: DyadicCube

    def to_jsonable(self) -> dict:
        return {
            "depth": self.depth,
            "ap": {repr(p): v for p, v in sorted(self.ap.items())},
            "rh": {repr(q): v for q, v in sorted(self.rh.items())},
            "a_infty": self.a_infty,
            "ap_argmax": {
                repr(p): [c.level, c.index] for p, c in sorted(self.ap_argmax.items())
            },
            "rh_argmax": {
                repr(q): [c.level, c.index] for q, c in sorted(self.rh_argmax.items())
            },
            "a_infty_argmax": [self.a_infty_argmax.level, self.a_infty_argmax.index],
        }


def characteristic_report(
    w: Weight,
    grid: DyadicGrid,
    ap_exponents: Sequence[float] = (2.0,),
    rh_exponents: Sequence[float] = (2.0,),
) -> CharacteristicReport:
    ap: Dict[float, float] = {}
    ap_arg: Dict[float, DyadicCube] = {}
    for p in ap_exponents:
        ap[float(p)], ap_arg[float(p)] = sup_with_argmax(ap_per_level(w, p, grid))
    rh: Dict[float, float] = {}
    rh_arg: Dict[float, DyadicCube] = {}
    for q in rh_exponents:
        rh[float(q)], rh_arg[float(q)] = sup_with_argmax(rh_per_level(w, q, grid))
    a_inf, a_inf_arg = sup_with_argmax(a_infty_fw_per_level(w, grid))
    return CharacteristicReport(
        depth=grid.depth,
        ap=ap,
        rh=rh,
        a_infty=a_inf,
        ap_argmax=ap_arg,
        rh_argmax=rh_arg,
        a_infty_argmax=a_inf_arg,
    )
