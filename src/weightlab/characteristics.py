"""Dyadic Muckenhoupt, reverse Hölder, and Fujii–Wilson characteristics.

All suprema run over the finite family of dyadic cubes of the grid (levels 0
through ``depth``), so every value here is a *dyadic* characteristic at the
stated resolution; it is nondecreasing in the depth. Argmax cubes are
reported deterministically: ties break toward the smaller level, then the
smaller index.

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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .grid import DyadicCube, DyadicGrid
from .weights import Weight, conjugate_exponent, pow_weight


def _sup(per_level: List[np.ndarray]) -> Tuple[float, int, int]:
    """Supremum over all cubes with its (level, index); deterministic ties."""
    best, at_level, at_index = -math.inf, 0, 0
    for level, vals in enumerate(per_level):
        idx = int(np.argmax(vals))  # first occurrence: smallest index
        val = float(vals[idx])
        if val > best:  # strict: earlier (coarser) level wins ties
            best, at_level, at_index = val, level, idx
    return best, at_level, at_index


def _sup_with_argmax(per_level: List[np.ndarray]) -> Tuple[float, DyadicCube]:
    best, level, index = _sup(per_level)
    return best, DyadicCube(level, index)


def ap_per_level(w: Weight, p: float, grid: DyadicGrid) -> List[np.ndarray]:
    """Per-level arrays of the A_p quantity ⟨w⟩_Q (⨍_Q w^{1-p'})^{p-1}."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"A_p characteristic needs p in (1, ∞), got {p}")
    dual_exp = 1.0 - conjugate_exponent(p)
    w.require_moment(1.0)
    w.require_moment(dual_exp)
    wavg = w.level_averages(grid, 1.0)
    savg = w.level_averages(grid, dual_exp)
    return [wavg[k] * savg[k] ** (p - 1.0) for k in range(grid.depth + 1)]


def ap_constant_argmax(w: Weight, p: float, grid: DyadicGrid) -> Tuple[float, DyadicCube]:
    return _sup_with_argmax(ap_per_level(w, p, grid))


def ap_constant(w: Weight, p: float, grid: DyadicGrid) -> float:
    return _sup(ap_per_level(w, p, grid))[0]


def rh_per_level(w: Weight, q: float, grid: DyadicGrid) -> List[np.ndarray]:
    """Per-level arrays of the RH_q quantity (⨍_Q w^q)^{1/q} / ⟨w⟩_Q."""
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"RH_q characteristic needs q > 1, got {q}")
    w.require_moment(1.0)
    w.require_moment(q)
    wavg = w.level_averages(grid, 1.0)
    qavg = w.level_averages(grid, q)
    return [qavg[k] ** (1.0 / q) / wavg[k] for k in range(grid.depth + 1)]


def rh_constant_argmax(w: Weight, q: float, grid: DyadicGrid) -> Tuple[float, DyadicCube]:
    return _sup_with_argmax(rh_per_level(w, q, grid))


def rh_constant(w: Weight, q: float, grid: DyadicGrid) -> float:
    return _sup(rh_per_level(w, q, grid))[0]


def a_infty_fw_per_level(w: Weight, grid: DyadicGrid) -> List[np.ndarray]:
    """Per-level arrays of (1/w(Q)) ∫_Q M(w·1_Q) for every cube Q.

    For a point x in Q, the restricted maximal function M(w·1_Q)(x) is the
    largest average ⟨w⟩_R over dyadic Q ⊇ R ∋ x, i.e. over the ancestors of
    x's finest cell down from level(Q). One per-cell running maximum, raised
    level by level from the finest cells to the root, yields all integrals in
    O(depth · n_cells) time and O(n_cells) memory.
    """
    w.require_moment(1.0)
    pyr = w.pyramid(grid, 1.0)
    avgs = w.level_averages(grid, 1.0)  # fresh arrays, safe to overwrite
    running = avgs[grid.depth]  # M(w·1_Q) per cell, for Q at the current level
    out: List[np.ndarray] = []
    for level in range(grid.depth, -1, -1):
        rows = running.reshape(1 << level, -1)
        np.maximum(rows, avgs[level][:, None], out=rows)
        out.append(rows.sum(axis=1) * grid.cell_measure / pyr[level])
    out.reverse()
    return out


def a_infty_fw_argmax(w: Weight, grid: DyadicGrid) -> Tuple[float, DyadicCube]:
    return _sup_with_argmax(a_infty_fw_per_level(w, grid))


def a_infty_fw(w: Weight, grid: DyadicGrid) -> float:
    return _sup(a_infty_fw_per_level(w, grid))[0]


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
    slack: float


def check_factorization(
    w: Weight, q: float, s: float, grid: DyadicGrid, slack: float = 1e-12
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
        lower_ok=lower <= combined * (1.0 + slack),
        upper_ok=combined <= upper * (1.0 + slack),
        slack=slack,
    )


@dataclass(frozen=True)
class PowerRhRelationCheck:
    """Dyadic evaluation of the chain
    [w^q]_{A_∞}^{1/q} / [w]_{A_∞}  <=  [w]_{RH_q}  <=  [w]_{A_∞}^{1/q}.

    The chain is classical for full (non-dyadic) characteristics with constant
    1; whether it transfers verbatim to dyadic-restricted characteristics is
    not settled, so violations are flagged only beyond a slack factor.
    """

    q: float
    lower: float
    middle: float
    upper: float
    slack_factor: float
    lower_ok: bool
    upper_ok: bool


def check_power_rh_relation(
    w: Weight, q: float, grid: DyadicGrid, slack_factor: float = 4.0
) -> PowerRhRelationCheck:
    q = float(q)
    if not q > 1.0:
        raise ValueError(f"power relation check needs q > 1, got {q}")
    a_inf_w = a_infty_fw(w, grid)
    a_inf_wq = a_infty_fw(pow_weight(w, q), grid)
    lower = a_inf_wq ** (1.0 / q) / a_inf_w
    middle = rh_constant(w, q, grid)
    upper = a_inf_w ** (1.0 / q)
    return PowerRhRelationCheck(
        q=q,
        lower=lower,
        middle=middle,
        upper=upper,
        slack_factor=slack_factor,
        lower_ok=lower <= middle * slack_factor,
        upper_ok=middle <= upper * slack_factor,
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
        ap[float(p)], ap_arg[float(p)] = ap_constant_argmax(w, p, grid)
    rh: Dict[float, float] = {}
    rh_arg: Dict[float, DyadicCube] = {}
    for q in rh_exponents:
        rh[float(q)], rh_arg[float(q)] = rh_constant_argmax(w, q, grid)
    a_inf, a_inf_arg = a_infty_fw_argmax(w, grid)
    return CharacteristicReport(
        depth=grid.depth,
        ap=ap,
        rh=rh,
        a_infty=a_inf,
        ap_argmax=ap_arg,
        rh_argmax=rh_arg,
        a_infty_argmax=a_inf_arg,
    )
