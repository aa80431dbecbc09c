"""Quantitative reverse Hölder self-improvement (Gehring-type) verifiers.

Given ``w ∈ RH_q`` (dyadically, at the working resolution), the exponent
self-improves: for every increment ``0 < ε ≤ q / (4·[w^q]_{A_∞} − 1)`` (the
dimensional constant is ``2^(d+1) = 4`` on the line) the inequality

    ⨍_Q w^{q+ε}  ≤  2 · [w]_{RH_q}^{q+ε} · (⨍_Q w)^{q+ε}

holds on every dyadic cube. :func:`sharp_rh_levels` evaluates both sides exactly,
a block of cubes at a time. :func:`verify_subset_bound` checks the derived subset
comparison

    w^q(E)/w^q(Q)  ≤  2^{1/θ} · [w]_{RH_q}^{(q+ε)/θ} · (w(E)/w(Q))^{1/θ'}

with ``θ = (q+ε−1)/(q−1)`` — the explicit constant ``2^{1/θ}`` makes the
check falsifiable rather than vacuous. :func:`random_subset_checks` runs it on
seeded random pairs ``E ⊂ Q``. Both evaluate a pair on its cube's cells alone:
the measures of ``E``, a boolean cell mask, are sums over ``Q``'s slice of the
finest cells, and those of ``Q`` are read from the pyramids. An empty ``E``
has both sides 0 and ratio 0; a side that cannot be formed (an underflowed
``w^q(Q)``, a constant past the double range) or ``rhs = 0`` under ``lhs > 0``
leaves the check unverified, with ratio ``inf``, as in :func:`sharp_rh_levels`.
:func:`max_epsilon_empirical` probes how far ε can actually be pushed on a
finite grid, for comparison with the proven range and with the conjectured
scale ``c / [w]_{RH_q}^q``. It bisects on the moment ``t = q + ε``. The worst
log ratio ``max_Q log r_Q(t)`` is convex in ``t`` (``log ⨍_Q w^t`` is convex by
Hölder, the rest is affine), so the chords and secants of earlier kernel passes
decide most probes, and the kernel runs only on the probes they leave open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .characteristics import a_infty_fw, rh_constant
from .errors import ConfigError, EpsilonOutOfRangeError, SubsetError
from .grid import DyadicCube, DyadicGrid, cube_ids, heap_levels, level_blocks
from .profiles import SLACK, GehringProfile, admissible_epsilon, check_q0_star, power
from .weights import PowerWeight, Weight, pow_weight


def epsilon_range(w: Weight, q0_star: float, grid: DyadicGrid) -> float:
    """Largest proven admissible increment for ``w``: the ε_max of
    :func:`~weightlab.profiles.admissible_epsilon` at ``[w^{q0*}]_{A_∞}``."""
    q0_star = check_q0_star(q0_star)
    w.require_moment(q0_star)
    return admissible_epsilon(q0_star, a_infty_fw(pow_weight(w, q0_star), grid))


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluated inequality: lhs ≤ rhs expected, ratio = lhs/rhs."""

    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        """``lhs/rhs``, 0 when ``lhs`` is 0 under a finite ``rhs`` (an empty subset),
        and ``inf`` for an unverified check: a side that is not a number, or an
        ``rhs`` that is infinite or 0 under ``lhs > 0``.  Never NaN, never an error."""
        if self.lhs == 0.0 and math.isfinite(self.rhs):
            return 0.0
        ratio = self.lhs / self.rhs if 0.0 < self.rhs < math.inf else math.nan
        return math.inf if math.isnan(ratio) else ratio


def sharp_rh_levels(
    w: Weight, t: float, rh: float, grid: DyadicGrid
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Both sides of the sharp reverse Hölder inequality at moment ``t`` on every cube.

    Yields ``(level, first index, lhs, rhs, ratio)`` a block of at most ``grid.BLOCK`` cubes at
    a time, coarse to fine: ``lhs = ⨍_Q w^t``, ``rhs = 2·rh^t·(⨍_Q w)^t``, ``ratio = lhs/rhs``,
    the sides in reused buffers (read a block before drawing the next), from an uncached heap
    of :meth:`Weight.cube_totals` (ε scans use each ``t`` once).
    """
    return _sharp_rh_blocks(w, t, rh, grid, heap_levels(w.cube_totals(grid, t)))


def _sharp_rh_blocks(w: Weight, t: float, rh: float, grid: DyadicGrid, levels):
    """The blocks of :func:`sharp_rh_levels` over ``levels`` of ``w^t`` totals, in any order.
    An unverified cube, whose ratio is not a number (both sides 0 or inf, after underflow or
    overflow) or whose ``rhs`` is inf (as when ``rh^t`` overflows), reads ``inf``."""
    t = float(t)
    factor = 2.0 * power(rh, t)
    means = heap_levels(w.pyramid(grid, 1.0))
    sources = ((totals, means[totals.size.bit_length() - 1]) for totals in levels)
    for k, start, (lhs, rhs) in level_blocks(grid, sources):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.power(rhs, t, out=rhs)
            rhs *= factor
            ratio = np.divide(lhs, rhs)
        if math.isnan(ratio.max()) or not rhs.max() < math.inf:  # a cube is unverified
            ratio[np.isnan(ratio)] = np.inf
            ratio[np.isinf(rhs)] = np.inf  # lhs/inf = 0 is no pass
        yield k, start, lhs, rhs, ratio


def _worst_ratio(w: Weight, t: float, rh: float, grid: DyadicGrid) -> float:
    """The probe: the largest ratio of :func:`sharp_rh_levels` over every cube, read fine to
    coarse from the levels of :meth:`Weight.level_totals`."""
    blocks = _sharp_rh_blocks(w, t, rh, grid, w.level_totals(grid, t))
    return max(float(ratio.max()) for *_, ratio in blocks)


def sharp_rh_max_ratio(
    w: Weight, q0_star: float, epsilon: float, grid: DyadicGrid
) -> float:
    """max over ALL dyadic cubes of the ratio of :func:`sharp_rh_levels` at
    moment ``q0* + ε``, with ``[w]_{RH_{q0*}}`` on this grid."""
    rh = rh_constant(w, q0_star, grid)
    return _worst_ratio(w, float(q0_star) + float(epsilon), rh, grid)


def _subset_sides(
    profile: GehringProfile, rh: float, wq_e, wq_q, w_e, w_q
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)`` of the subset bound from the measures ``w^q(E)``,
    ``w^q(Q)``, ``w(E)``, ``w(Q)``, scalars or arrays alike:
    ``lhs = w^q(E)/w^q(Q)`` and ``rhs = 2^{1/θ}·rh^{(q+ε)/θ}·(w(E)/w(Q))^{1/θ'}``,
    left to right.  A measure of Q that underflowed to 0, or a constant past
    the double range, gives NaN or inf, not an error."""
    scale = 2.0 ** (1.0 / profile.theta) * power(
        rh, (profile.q0_star + profile.epsilon) / profile.theta
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(wq_e, wq_q), scale * np.divide(w_e, w_q) ** (1.0 / profile.theta_conj)


def verify_subset_bound(
    w: Weight,
    q0_star: float,
    epsilon: float,
    cube: DyadicCube,
    cells: np.ndarray,
    grid: DyadicGrid,
) -> InequalityCheck:
    """Subset comparison with the explicit constant 2^{1/θ} on one cube; ``cells`` masks E,
    whose measures are sums over the cube's slice of the finest cells."""
    mask = grid.check_mask(cells)
    start, stop = cube.cell_range(grid.depth)
    if np.any(mask[:start]) or np.any(mask[stop:]):
        raise SubsetError("the cell set must be contained in the cube")
    profile = GehringProfile(float(q0_star), float(epsilon), epsilon_range(w, q0_star, grid))
    w_cells, wq_cells = (heap_levels(w.pyramid(grid, t))[-1][start:stop] for t in (1.0, q0_star))
    sub = mask[start:stop]
    lhs, rhs = _subset_sides(
        profile, rh_constant(w, q0_star, grid), (wq_cells * sub).sum(),
        w.cube_integral(grid, cube, q0_star), (w_cells * sub).sum(), w.cube_integral(grid, cube),
    )
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs))


EPSILON_CAP = 64.0  # the largest increment the ε search tries
_CERTIFICATE_SLACK = 1e-9  # far above the ~1e-13 rounding of a computed log worst


def _convexity_verdict(
    points: Dict[float, float], t: float, log_threshold: float
) -> Optional[bool]:
    """What convexity of ``F(t) = max_Q log r_Q(t)`` decides about ``F(t) ≤ log_threshold``.

    ``points`` maps each evaluated ``t_i`` to ``F(t_i)``. Between its two nearest
    points ``a < t < b``, ``F(t)`` lies below their chord: ``True`` when the
    chord is below the threshold by the slack. Beyond two points ``a < b`` on
    one side, ``F(t)`` lies above their secant: ``False`` when the secant is
    above the threshold by the slack. Otherwise ``None``. The slack,
    ``1e-9·(1 + |t−a|/(b−a) + |t−b|/(b−a))``, covers the rounding of the two
    values, which the extrapolation magnifies.
    """
    below = sorted(pt for pt in points.items() if pt[0] < t)
    above = sorted(pt for pt in points.items() if pt[0] > t)

    def line(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
        (ta, fa), (tb, fb) = a, b
        width = tb - ta
        slack = _CERTIFICATE_SLACK * (1.0 + abs(t - ta) / width + abs(t - tb) / width)
        return fa + (fb - fa) * (t - ta) / width, slack

    if below and above:
        chord, slack = line(below[-1], above[0])
        if chord < log_threshold - slack:
            return True
    for pair in (below[-2:], above[:2]):
        if len(pair) == 2:
            secant, slack = line(*pair)
            if secant > log_threshold + slack:
                return False
    return None


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
) -> EpsilonSearchResult:
    """Largest ε with ⨍_Q w^{p+ε} ≤ factor·[w]_{RH_p}^{p+ε}(⨍_Q w)^{p+ε} on all cubes.

    A bisection on the moment ``t = p + ε``, to relative precision
    ``rel_precision``: a probe passes when every ratio of
    :func:`sharp_rh_levels` is at most ``factor/2`` (up to the ``1e-12``
    slack of every verifier). The worst log ratio ``F(t) = max_Q log r_Q(t)``
    is convex in ``t``, for tabulated and power weights alike: ``log ⨍_Q w^t``
    is convex by Hölder and the rest of ``log r_Q(t)`` is affine. So the probe
    :func:`_worst_ratio` runs only where :func:`_convexity_verdict` cannot decide
    from the values of ``F`` at earlier probe passes; a pass whose worst ratio
    is not finite and positive fails and adds no point. The probes and their
    answers are the plain bisection's, so the result is too, bit for bit. The
    search domain ``ε <`` :data:`EPSILON_CAP` is capped further by moment
    admissibility (for power weights ``x^α`` with α < 0 the moment p+ε must keep
    α(p+ε) > −1); a hit of the cap is reported, not an error, and a search in which
    not even the smallest probe passes reports ``epsilon_empirical = 0.0``. Reported
    alongside: the proven range and the conjectured scale ``1/[w]_{RH_p}^p``.
    """
    p = check_q0_star(p)
    cap = EPSILON_CAP
    if isinstance(w, PowerWeight) and w.alpha < 0.0:
        cap = min(cap, (-1.0 / w.alpha) - p)
        if cap <= 0.0:
            raise EpsilonOutOfRangeError(
                f"weight {w.describe()} admits no moment beyond exponent {p}"
            )

    # the kernel normalises by the constant 2; rescale to `factor`.
    threshold = (factor / 2.0) * (1.0 + SLACK)
    log_threshold = math.log(threshold) if threshold > 0.0 else math.nan
    points: Dict[float, float] = {}  # t -> log worst, from the kernel passes

    def passes(eps: float) -> bool:
        t = p + eps
        verdict = _convexity_verdict(points, t, log_threshold)
        if verdict is not None:
            return verdict
        worst = _worst_ratio(w, t, rh, grid)
        if 0.0 < worst < math.inf:
            points[t] = math.log(worst)
        return worst <= threshold

    rh = rh_constant(w, p, grid)
    proven = epsilon_range(w, p, grid)
    shrink = 1.0 - 1e-9  # keep strictly inside the admissibility cap
    lo = hi = cap * shrink
    cap_hit = passes(hi)
    if not cap_hit:
        # The RH-constant definition makes tiny ε pass: ⨍w^p ≤ [w]_{RH_p}^p ⟨w⟩^p.
        lo = min(1e-12, hi / 2.0)
        if not passes(lo):  # not even the smallest ε passes
            lo = hi = 0.0
        while hi - lo > rel_precision * max(lo, 1e-12):
            mid = 0.5 * (lo + hi)
            if passes(mid):
                lo = mid
            else:
                hi = mid
    return EpsilonSearchResult(
        epsilon_empirical=lo,
        cap=cap,
        cap_hit=cap_hit,
        proven_epsilon=proven,
        conjectured_scale=1.0 / power(rh, p),
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
    cube's finest cells.  Each sample costs ``O(|Q|)``: ``w(E)`` and
    ``w^q(E)`` are sums over the cube's slice of the finest cells, and
    ``w(Q)``, ``w^q(Q)`` are read from the pyramids.  An empty draw has
    ratio 0; a draw whose sides are not numbers (a cube whose ``w^q``
    measure underflowed to 0) is unverified, with ratio ``inf``.  One entry
    per sample.
    """
    if not epsilons:
        raise ConfigError("need at least one epsilon value")
    window = rh_constant(w, q0_star, grid), epsilon_range(w, q0_star, grid)
    return _random_subset_checks(w, q0_star, epsilons, grid, n_samples, seed, *window)


def _random_subset_checks(
    w: Weight, q0_star: float, epsilons: List[float], grid: DyadicGrid, n_samples: int,
    seed: int, rh: float, eps_max: float,
) -> List[Tuple[DyadicCube, float, InequalityCheck]]:
    """:func:`random_subset_checks` at a window already derived: ``rh = [w]_{RH_{q0*}}``
    and ``eps_max`` the proven ε_max, as a ``verify-gehring`` run derives them once."""
    n_samples = max(n_samples, 0)
    rng = np.random.default_rng(seed)
    profiles = [  # the ε values in use, checked before any draw
        GehringProfile(q0_star=float(q0_star), epsilon=float(eps), epsilon_max=eps_max)
        for eps in epsilons[:n_samples]
    ]
    w_heap, wq_heap = w.pyramid(grid, 1.0), w.pyramid(grid, q0_star)  # w^q's measures
    w_cells, wq_cells = heap_levels(w_heap)[-1], heap_levels(wq_heap)[-1]
    cubes: List[DyadicCube] = []
    w_e, wq_e = np.empty(n_samples), np.empty(n_samples)
    for i in range(n_samples):
        level = int(rng.integers(0, grid.depth + 1))
        index = int(rng.integers(0, 1 << level))
        cube = DyadicCube(level, index)
        start, stop = cube.cell_range(grid.depth)
        sub = rng.random(stop - start) < 0.5
        w_e[i] = (w_cells[start:stop] * sub).sum()
        wq_e[i] = (wq_cells[start:stop] * sub).sum()
        cubes.append(cube)
    ids = cube_ids(cubes)
    lhs, rhs = np.empty(n_samples), np.empty(n_samples)
    step = len(epsilons)
    for j, profile in enumerate(profiles):  # sample i uses ε number i % step
        at = slice(j, None, step)
        lhs[at], rhs[at] = _subset_sides(
            profile, rh, wq_e[at], wq_heap[ids[at]], w_e[at], w_heap[ids[at]]
        )
    return [
        (cube, profiles[i % step].epsilon, InequalityCheck(lhs=a, rhs=b))
        for i, (cube, a, b) in enumerate(zip(cubes, lhs.tolist(), rhs.tolist()))
    ]
