"""Quantitative reverse Hölder self-improvement (Gehring-type) verifiers.

Given ``w ∈ RH_q`` (dyadically, at the working resolution), the exponent
self-improves: for every increment ``0 < ε ≤ q / (4·[w^q]_{A_∞} − 1)`` (the
dimensional constant is ``2^(d+1) = 4`` on the line) the inequality

    ⨍_Q w^{q+ε}  ≤  2 · [w]_{RH_q}^{q+ε} · (⨍_Q w)^{q+ε}

holds on every dyadic cube. :func:`sharp_rh_levels` evaluates both sides
exactly, level by level. :func:`verify_subset_bound` checks the derived subset
comparison

    w^q(E)/w^q(Q)  ≤  2^{1/θ} · [w]_{RH_q}^{(q+ε)/θ} · (w(E)/w(Q))^{1/θ'}

with ``θ = (q+ε−1)/(q−1)`` — the explicit constant ``2^{1/θ}`` makes the
check falsifiable rather than vacuous. :func:`max_epsilon_empirical` probes
how far ε can actually be pushed on a finite grid, for comparison with the
proven range and with the conjectured scale ``c / [w]_{RH_q}^q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .characteristics import a_infty_fw, rh_constant
from .errors import EpsilonOutOfRangeError, SubsetError
from .grid import CellSet, DyadicCube, DyadicGrid
from .profiles import GehringProfile
from .weights import PowerWeight, Weight, measure, pow_weight

DIMENSIONAL_FACTOR = 4.0  # 2^(d+1) with d = 1


def epsilon_range(w: Weight, q0_star: float, grid: DyadicGrid) -> float:
    """Largest proven admissible increment: q0* / (4·[w^{q0*}]_{A_∞} − 1)."""
    q0_star = float(q0_star)
    if not q0_star > 1.0:
        raise ValueError(f"epsilon range needs q0_star > 1, got {q0_star}")
    w.require_moment(q0_star)
    a_inf_pow = a_infty_fw(pow_weight(w, q0_star), grid)
    return q0_star / (DIMENSIONAL_FACTOR * a_inf_pow - 1.0)


def gehring_profile(
    w: Weight, q0_star: float, grid: DyadicGrid, epsilon: Optional[float] = None
) -> GehringProfile:
    """Profile at the given ε (default: the full proven range)."""
    eps_max = epsilon_range(w, q0_star, grid)
    eps = eps_max if epsilon is None else float(epsilon)
    return GehringProfile(q0_star=float(q0_star), epsilon=eps, epsilon_max=eps_max)


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluated inequality: lhs ≤ rhs expected, ratio = lhs/rhs."""

    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        return self.ratio <= 1.0 + 1e-12


def sharp_rh_levels(
    w: Weight, t: float, rh: float, grid: DyadicGrid
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Both sides of the sharp reverse Hölder inequality at moment ``t`` on every cube.

    Yields ``(level, lhs, rhs, ratio)`` one level at a time, finest first, with
    ``lhs = ⨍_Q w^t``, ``rhs = 2·rh^t·(⨍_Q w)^t`` and ``ratio = lhs/rhs`` indexed
    by cube. The moment at ``t`` comes from :meth:`Weight.cube_totals` and is not
    cached on ``w`` (ε scans use each ``t`` once); only the current level's
    arrays stay alive. A ratio that is not a number (both sides 0, as when a
    cube's moment and mean^t underflow, or both inf) is unverified: it is ``inf``.
    """
    t = float(t)
    w.require_moment(t)
    moments = w.cube_totals(grid, t)
    means = w.pyramid(grid, 1.0)
    factor = 2.0 * rh**t
    for k in range(grid.depth, -1, -1):
        scale = float(1 << k)
        lhs = moments.pop() * scale
        rhs = means[k] * scale
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.power(rhs, t, out=rhs)
            rhs *= factor
            ratio = lhs / rhs
        ratio[np.isnan(ratio)] = np.inf
        yield k, lhs, rhs, ratio


def sharp_rh_max_ratio(
    w: Weight, q0_star: float, epsilon: float, grid: DyadicGrid
) -> float:
    """max over ALL dyadic cubes of the ratio of :func:`sharp_rh_levels` at
    moment ``q0* + ε``, with ``[w]_{RH_{q0*}}`` on this grid."""
    q0_star = float(q0_star)
    rh = rh_constant(w, q0_star, grid)
    levels = sharp_rh_levels(w, q0_star + float(epsilon), rh, grid)
    return max(float(ratio.max()) for *_, ratio in levels)


def verify_subset_bound(
    w: Weight,
    q0_star: float,
    epsilon: float,
    cube: DyadicCube,
    cells: CellSet,
    grid: DyadicGrid,
    rh: Optional[float] = None,
    epsilon_max: Optional[float] = None,
) -> InequalityCheck:
    """Subset comparison with the explicit constant 2^{1/θ} on one cube."""
    if not cells.within_cube(grid, cube):
        raise SubsetError("the cell set must be contained in the cube")
    profile = GehringProfile(
        q0_star=float(q0_star),
        epsilon=float(epsilon),
        epsilon_max=(
            epsilon_range(w, q0_star, grid) if epsilon_max is None else epsilon_max
        ),
    )
    if rh is None:
        rh = rh_constant(w, q0_star, grid)
    wq = pow_weight(w, q0_star)
    lhs_num = measure(wq, grid, cells)
    lhs_den = wq.cube_integral(grid, cube, 1.0)
    lhs = lhs_num / lhs_den
    frac = measure(w, grid, cells) / w.cube_integral(grid, cube, 1.0)
    rhs = (
        2.0 ** (1.0 / profile.theta)
        * rh ** ((q0_star + profile.epsilon) / profile.theta)
        * frac ** (1.0 / profile.theta_conj)
    )
    return InequalityCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class EpsilonSearchResult:
    """Outcome of the empirical maximal-increment search at one resolution."""

    epsilon_empirical: float
    cap: float
    cap_hit: bool
    proven_epsilon: float
    conjectured_scale: float
    rh: float
    factor: float
    depth: int


def max_epsilon_empirical(
    w: Weight,
    p: float,
    grid: DyadicGrid,
    factor: float = 2.0,
    rel_precision: float = 1e-4,
    hard_cap: float = 64.0,
) -> EpsilonSearchResult:
    """Largest ε with ⨍_Q w^{p+ε} ≤ factor·[w]_{RH_p}^{p+ε}(⨍_Q w)^{p+ε} on all cubes.

    The pass predicate is monotone in ε (interpolating the moment between the
    exponents p and p+ε shows failures persist as ε grows), so a bisection to
    relative precision ``rel_precision`` is sound. The search domain is capped
    by moment admissibility (for power weights ``x^α`` with α < 0 the moment
    p+ε must keep α(p+ε) > −1); a hit of the cap is reported, not an error.
    Reported alongside: the proven range and the conjectured scale
    ``1/[w]_{RH_p}^p``.
    """
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"self-improvement probe needs p > 1, got {p}")
    cap = hard_cap
    if isinstance(w, PowerWeight) and w.alpha < 0.0:
        cap = min(cap, (-1.0 / w.alpha) - p)
        if cap <= 0.0:
            raise EpsilonOutOfRangeError(
                f"weight {w.describe()} admits no moment beyond exponent {p}"
            )

    def passes(eps: float) -> bool:
        # the kernel normalises by the constant 2; rescale to `factor`.
        levels = sharp_rh_levels(w, p + eps, rh, grid)
        worst = max(float(ratio.max()) for *_, ratio in levels)
        return worst <= (factor / 2.0) * (1.0 + 1e-12)

    # The RH-constant definition makes tiny ε pass: ⨍w^p ≤ [w]_{RH_p}^p ⟨w⟩^p.
    rh = rh_constant(w, p, grid)
    proven = epsilon_range(w, p, grid)
    shrink = 1.0 - 1e-9  # keep strictly inside the admissibility cap
    if passes(cap * shrink):
        return EpsilonSearchResult(
            epsilon_empirical=cap * shrink,
            cap=cap,
            cap_hit=True,
            proven_epsilon=proven,
            conjectured_scale=1.0 / rh**p,
            rh=rh,
            factor=factor,
            depth=grid.depth,
        )
    lo, hi = 0.0, cap * shrink
    if lo == 0.0:
        lo = min(1e-12, hi / 2.0)
        if not passes(lo):  # cannot happen mathematically; guards fp corner
            hi = lo
    while hi - lo > rel_precision * max(lo, 1e-12):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return EpsilonSearchResult(
        epsilon_empirical=lo,
        cap=cap,
        cap_hit=False,
        proven_epsilon=proven,
        conjectured_scale=1.0 / rh**p,
        rh=rh,
        factor=factor,
        depth=grid.depth,
    )


def random_subset_checks(
    w: Weight,
    q0_star: float,
    epsilons: List[float],
    grid: DyadicGrid,
    n_samples: int,
    seed: int,
) -> List[Tuple[DyadicCube, float, InequalityCheck]]:
    """Seeded random (cube, subset) draws checked against the subset bound.

    Samples cycle through the supplied ε values.  Cubes are drawn uniformly
    over levels 0..depth (then index), subsets as fair coin flips over the
    cube's finest cells; empty draws have ratio 0.  One entry per sample.
    """
    if not epsilons:
        raise ValueError("need at least one epsilon value")
    rng = np.random.default_rng(seed)
    rh = rh_constant(w, q0_star, grid)
    eps_max = epsilon_range(w, q0_star, grid)
    out: List[Tuple[DyadicCube, float, InequalityCheck]] = []
    for i in range(n_samples):
        level = int(rng.integers(0, grid.depth + 1))
        index = int(rng.integers(0, 1 << level))
        cube = DyadicCube(level, index)
        start, stop = cube.cell_range(grid.depth)
        mask = np.zeros(grid.n_cells, dtype=bool)
        mask[start:stop] = rng.random(stop - start) < 0.5
        eps = float(epsilons[i % len(epsilons)])
        check = verify_subset_bound(
            w, q0_star, eps, cube, CellSet(mask), grid, rh=rh, epsilon_max=eps_max
        )
        out.append((cube, eps, check))
    return out

