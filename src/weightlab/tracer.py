"""Mechanical trace of the good-subset pigeonhole argument.

Given a test function f, a weight w (with dual weight σ = w⁻¹ for the L²
pairing), a cube family A, and a window profile (p0, q0), the tracer
replays the proof of the main quadratic estimate step by step and records
the empirical constant of every step next to its proven envelope:

1.  **Good subset.**  G' = G ∖ {M^A_{p0}(fσ) > T} where M^A is the maximal
    function of L^{p0} averages restricted to the family and
    T = K·[w]^{1/2}_{A_{2/p0}}·‖f‖_{L²(σ)} / w(G)^{1/2}.  K starts at 4 and
    doubles until w(G') ≥ ¾·w(G); the weak (2,∞) bound of the maximal
    function (constant 1 against [w]^{1/2}_{A_{2/p0}}) makes K = 4 enough.
2.  **Pigeonhole.**  Each family cube Q with w(G'∩Q) > 0 goes to the bin
    (r, s) with ⟨fσ⟩_{p0,Q} ∈ (T·2^{−r−1}, T·2^{−r}] and
    w(G'∩Q)/w(Q) ∈ (2^{−s−1}, 2^{−s}]; r is clamped at 0 (recorded) when the
    average exceeds T, which cannot happen for cubes meeting G'.  Cubes with
    ⟨fσ⟩_{p0,Q} = 0 go to an overflow bucket, cubes missing G' to a zero
    bucket; both contribute nothing to the quadratic form.
3.  **Average comparison.**  For each binned cube,
    ⟨1_{G'}w⟩_{q0*,Q} ≤ 2^{1/(θq0*)}·[w]^{2−γ}_{RH_{q0*}}·2^{−sγ}·⟨w⟩_Q
    (a consequence of the self-improved reverse Hölder step applied to
    E = G'∩Q); the recorded right-hand side carries an extra defensive
    factor 2^{γ}, and both the strict and the slackened ratios are kept.
4.  **Mass of a bin.**  Σ_{Q∈bin} w(Q) ≤ 2·[w]_{A∞}·2^{s+1}·w(G') — the
    bin's lower edge converts w(Q) into w(G'∩Q), the family's disjoint
    sparse witnesses and the Fujii–Wilson characteristic absorb the overlap.
5.  **Bin estimates.**  The bin's part of the quadratic form is capped two
    ways: through the mass count (cap scales like 2^{−2r}·2^{s(1−γ)}) and
    through disjoint layer witnesses (cap scales like 2^{−sγ}); the second
    uses the proof's implicit comparability of averages, so only
    min(ratio) ≤ 1 is asserted.
6.  **Summation.**  Geometric series over r and s give the final envelope
    [w]_{A_{2/p0}}·[w]^{2−γ}_{RH_{q0*}}·(1/ε)·(1/ε + max(0, ln [w]_{A∞}))
    and the trace's headline number C0 = (quadratic form)/(envelope·‖f‖²).

Every step that is a theorem gets a hard pass flag; steps that rely on the
proof's implicit slack report their ratio without a hard gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import a_infty_fw, ap_constant, rh_constant
from .errors import ConfigError, EmptyGoodSetError, WeightlabError, ZeroFunctionError
from .gehring import epsilon_range
from .grid import CellSet, DyadicCube, DyadicGrid, tree_totals
from .operators import maximal_p0
from .profiles import ExponentProfile, GehringProfile
from .sparse import build_sparse_cz, paint_owner
from .weights import (
    Weight,
    composed_moment_cells,
    dual_weight,
    weighted_l2_norm_sq,
)


# --- geometric series used to sum the bins ------------------------------------------


def geometric_tail_sum(x: float) -> float:
    """Σ_{s≥0} 2^{−s/x} = 2^{1/x} / (2^{1/x} − 1), for x > 0."""
    if x <= 0.0:
        raise ValueError(f"series scale must be positive, got {x}")
    g = 2.0 ** (1.0 / x)
    return g / (g - 1.0)


def geometric_weighted_tail_sum(x: float) -> float:
    """Σ_{s≥0} s·2^{−s/x} = 2^{1/x} / (2^{1/x} − 1)², for x > 0."""
    if x <= 0.0:
        raise ValueError(f"series scale must be positive, got {x}")
    g = 2.0 ** (1.0 / x)
    return g / (g - 1.0) ** 2


# --- traced records ------------------------------------------------------------------


@dataclass(frozen=True)
class TracedCube:
    """Per-cube quantities entering the pigeonhole."""

    cube: DyadicCube
    avg_fsigma: float  # ⟨fσ⟩_{p0,Q}
    indicator_avg: float  # ⟨1_{G'} w⟩_{q0*,Q}
    weight_mass: float  # w(Q)
    good_mass: float  # w(G'∩Q)
    good_ratio: float  # w(G'∩Q)/w(Q)
    r: int
    s: int
    r_clamped: bool


@dataclass(frozen=True)
class AverageComparisonCheck:
    """⟨1_{G'}w⟩_{q0*,Q} against its reverse-Hölder envelope."""

    cube: DyadicCube
    s: int
    lhs: float
    rhs_strict: float  # 2^{1/(θq0*)}·rh^{2−γ}·2^{−sγ}·⟨w⟩_Q
    slack_factor: float  # extra 2^{γ} carried by the recorded rhs
    ratio_strict: float
    ratio: float

    @property
    def passed(self) -> bool:
        return self.ratio_strict <= 1.0 + 1e-12


@dataclass(frozen=True)
class BinReport:
    """One pigeonhole bin: its cubes, layers, and empirical constants."""

    r: int
    s: int
    cubes: Tuple[DyadicCube, ...]
    layer_sizes: Tuple[int, ...]
    quad_sum: float  # Σ ⟨fσ⟩²_{p0,Q}·⟨1_{G'}w⟩_{q0*,Q}·|Q|
    cap_via_mass: float
    cap_via_disjoint: float
    ratio_via_mass: float
    ratio_via_disjoint: float
    mass_lhs: float  # Σ_{Q∈bin} w(Q)
    mass_rhs: float  # 2·[w]_{A∞}·2^{s+1}·w(G')
    witness_mass: float  # Σ_Q ∫_{E_Q} f² σ over disjoint layer witnesses
    comparability_max: float  # max_Q ⟨fσ⟩_{p0,Q} / ⟨1_{E_Q}fσ⟩_{p0,Q}

    @property
    def min_ratio(self) -> float:
        return min(self.ratio_via_mass, self.ratio_via_disjoint)

    @property
    def mass_ratio(self) -> float:
        return self.mass_lhs / self.mass_rhs if self.mass_rhs > 0.0 else 0.0


@dataclass(frozen=True)
class ProofTrace:
    """Complete record of one traced run."""

    depth: int
    p0: float
    q0_star: float
    epsilon: float
    epsilon_max: float
    theta: float
    theta_conj: float
    gamma: float
    ap_char: float  # [w]_{A_{2/p0}}
    rh_char: float  # [w]_{RH_{q0*}}
    a_infty_char: float  # [w]_{A∞} (Fujii–Wilson)
    k_factor: float
    threshold: float
    f_norm_sq: float  # ‖f‖²_{L²(σ)}
    good_mass: float
    good_prime_mass: float
    traced: Tuple[TracedCube, ...]
    bins: Dict[Tuple[int, int], BinReport]
    zero_bucket: Tuple[DyadicCube, ...]
    overflow_bucket: Tuple[DyadicCube, ...]
    clamped: Tuple[DyadicCube, ...]
    average_checks: Tuple[AverageComparisonCheck, ...]
    quad_total: float
    envelope: float  # ap·rh^{2−γ}·(1/ε)(1/ε+max(0,ln a∞))·‖f‖²
    c0: float
    series_scale: float  # θ'·q0*
    series_sum: float
    series_weighted_sum: float

    @property
    def good_fraction(self) -> float:
        return self.good_prime_mass / self.good_mass if self.good_mass > 0.0 else 0.0

    @property
    def worst_average_ratio(self) -> float:
        return max((c.ratio_strict for c in self.average_checks), default=0.0)

    @property
    def worst_bin_min_ratio(self) -> float:
        return max((b.min_ratio for b in self.bins.values()), default=0.0)

    @property
    def worst_mass_ratio(self) -> float:
        return max((b.mass_ratio for b in self.bins.values()), default=0.0)

    def to_jsonable(self) -> dict:
        return {
            "depth": self.depth,
            "p0": self.p0,
            "q0_star": self.q0_star,
            "epsilon": self.epsilon,
            "epsilon_max": self.epsilon_max,
            "theta": self.theta,
            "gamma": self.gamma,
            "ap_char": self.ap_char,
            "rh_char": self.rh_char,
            "a_infty_char": self.a_infty_char,
            "k_factor": self.k_factor,
            "threshold": self.threshold,
            "f_norm_sq": self.f_norm_sq,
            "good_mass": self.good_mass,
            "good_prime_mass": self.good_prime_mass,
            "good_fraction": self.good_fraction,
            "n_traced": len(self.traced),
            "n_zero_bucket": len(self.zero_bucket),
            "n_overflow_bucket": len(self.overflow_bucket),
            "n_clamped": len(self.clamped),
            "bins": {
                f"r={r},s={s}": {
                    "n_cubes": len(b.cubes),
                    "layer_sizes": list(b.layer_sizes),
                    "quad_sum": b.quad_sum,
                    "cap_via_mass": b.cap_via_mass,
                    "cap_via_disjoint": b.cap_via_disjoint,
                    "ratio_via_mass": b.ratio_via_mass,
                    "ratio_via_disjoint": b.ratio_via_disjoint,
                    "min_ratio": b.min_ratio,
                    "mass_lhs": b.mass_lhs,
                    "mass_rhs": b.mass_rhs,
                    "mass_ratio": b.mass_ratio,
                    "witness_mass": b.witness_mass,
                    "comparability_max": b.comparability_max,
                }
                for (r, s), b in sorted(self.bins.items())
            },
            "bin_width_slacks": {"r": R_BIN_WIDTH_SLACK, "s": S_BIN_WIDTH_SLACK},
            "worst_average_ratio": self.worst_average_ratio,
            "worst_bin_min_ratio": self.worst_bin_min_ratio,
            "worst_mass_ratio": self.worst_mass_ratio,
            "quad_total": self.quad_total,
            "envelope": self.envelope,
            "c0": self.c0,
            "series_scale": self.series_scale,
            "series_sum": self.series_sum,
            "series_weighted_sum": self.series_weighted_sum,
        }


# --- layer peeling -------------------------------------------------------------------


def peel_layers(cubes: Sequence[DyadicCube]) -> List[List[DyadicCube]]:
    """Split a cube family into layers: layer 0 holds the maximal cubes,
    layer k+1 the maximal cubes of what is left.  Every layer is an
    antichain and every layer-(k+1) cube sits inside some layer-k cube.

    The strict ancestors of a dyadic cube form a chain, so a cube's layer is
    the number of its strict ancestors in the family, counted through a
    ``(level, index)`` set in ``O(L)`` steps per cube.
    """
    unique = sorted(set(cubes))
    keys = {(c.level, c.index) for c in unique}
    layers: List[List[DyadicCube]] = []
    for cube in unique:
        layer = sum(
            (cube.level - up, cube.index >> up) in keys
            for up in range(1, cube.level + 1)
        )
        while len(layers) <= layer:
            layers.append([])
        layers[layer].append(cube)
    return layers


# --- the trace -----------------------------------------------------------------------

GOOD_FRACTION_TARGET = 0.75
K_INITIAL = 4.0
MAX_K_DOUBLINGS = 60
# widths of the dyadic pigeonhole bins, carried as explicit slack factors in
# the bin caps: (upper edge / lower edge)² = 4 for the r-bin, 2 for the s-bin
R_BIN_WIDTH_SLACK = 4.0
S_BIN_WIDTH_SLACK = 2.0


@dataclass(frozen=True)
class GoodSetResult:
    """Outcome of the good-subset construction."""

    k_factor: float
    threshold: float
    good_prime: CellSet
    good_mass: float
    good_prime_mass: float
    f_norm_sq: float
    ap_char: float

    @property
    def good_fraction(self) -> float:
        return self.good_prime_mass / self.good_mass if self.good_mass > 0.0 else 0.0


def build_good_set(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    family: Sequence[DyadicCube],
    good_cells: Optional[CellSet] = None,
) -> GoodSetResult:
    """Remove the cells where the family-restricted maximal function of fσ
    exceeds T = K·[w]^{1/2}_{A_{2/p0}}·‖f‖_{L²(σ)}/w(G)^{1/2}, doubling K
    from 4 until the remainder keeps 3/4 of the weight mass of G."""
    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    f_norm_sq = weighted_l2_norm_sq(grid, fvals, sigma)
    if f_norm_sq == 0.0:
        raise ZeroFunctionError("the traced function vanishes identically")
    f_norm = math.sqrt(f_norm_sq)

    good = good_cells if good_cells is not None else CellSet.full(grid)
    cellw = w.pyramid(grid, 1.0)[grid.depth]
    good_mass = float(np.sum(cellw, where=good.mask))
    if good_mass <= 0.0:
        raise EmptyGoodSetError("the initial good set carries no weight mass")

    ap = ap_constant(w, 2.0 / p0, grid)
    m_restricted = maximal_p0(fvals, grid, p0, restriction=family, weight=sigma)

    k = K_INITIAL
    for _ in range(MAX_K_DOUBLINGS):
        threshold = k * math.sqrt(ap) * f_norm / math.sqrt(good_mass)
        good_prime = CellSet(good.mask & (m_restricted <= threshold))
        good_prime_mass = float(np.sum(cellw, where=good_prime.mask))
        if good_prime_mass >= GOOD_FRACTION_TARGET * good_mass * (1.0 - 1e-12):
            return GoodSetResult(
                k_factor=k,
                threshold=threshold,
                good_prime=good_prime,
                good_mass=good_mass,
                good_prime_mass=good_prime_mass,
                f_norm_sq=f_norm_sq,
                ap_char=ap,
            )
        k *= 2.0
    raise WeightlabError(  # pragma: no cover - the weak-type bound forbids this
        "could not secure a good subset of 3/4 relative mass"
    )


def trace_proof(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    profile: ExponentProfile,
    family: Sequence[DyadicCube],
    good_cells: Optional[CellSet] = None,
    epsilon: Optional[float] = None,
) -> ProofTrace:
    """Run the full pigeonhole trace; see the module docstring for the steps."""
    if not math.isfinite(profile.q0):
        raise ConfigError("the trace needs a finite upper window exponent")
    p0 = profile.p0
    q0s = profile.q0_star
    family = list(family)
    if not family:
        raise ConfigError("the traced cube family is empty")

    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    good_set = build_good_set(f, w, grid, p0, family, good_cells)
    f_norm_sq = good_set.f_norm_sq
    good_mass = good_set.good_mass
    good_prime = good_set.good_prime
    good_prime_mass = good_set.good_prime_mass
    k = good_set.k_factor
    threshold = good_set.threshold
    ap = good_set.ap_char

    cellw = w.pyramid(grid, 1.0)[grid.depth]
    rh = rh_constant(w, q0s, grid)
    a_inf = a_infty_fw(w, grid)
    eps_max = epsilon_range(w, q0s, grid)
    eps = eps_max if epsilon is None else float(epsilon)
    geh = GehringProfile(q0s, eps, eps_max)

    # exact cell moments of the composition fσ
    p0_moments = composed_moment_cells(grid, fvals, sigma, p0)
    p0_totals = tree_totals(grid, p0_moments)

    # exact cell moments of 1_{G'}·w at exponents q0* and 1
    gp_mask = good_prime.mask
    ind_q_moments = w.cell_integrals(grid, q0s) * gp_mask
    ind_q_totals = tree_totals(grid, ind_q_moments)
    gp_w_totals = tree_totals(grid, cellw * gp_mask)
    w_totals = tree_totals(grid, cellw)

    two_pow = 2.0 ** (1.0 / (geh.theta * q0s))
    slack_factor = 2.0**geh.gamma
    rh_pow = rh ** (2.0 - geh.gamma)

    traced: List[TracedCube] = []
    zero_bucket: List[DyadicCube] = []
    overflow_bucket: List[DyadicCube] = []
    clamped: List[DyadicCube] = []
    avg_checks: List[AverageComparisonCheck] = []
    bins_members: Dict[Tuple[int, int], List[TracedCube]] = {}

    for cube in sorted(set(family)):
        scale = float(1 << cube.level)
        a1 = float(p0_totals[cube.level][cube.index] * scale) ** (1.0 / p0)
        w_q = float(w_totals[cube.level][cube.index])
        gp_q = float(gp_w_totals[cube.level][cube.index])
        b_q = float(ind_q_totals[cube.level][cube.index] * scale) ** (1.0 / q0s)
        if gp_q <= 0.0:
            zero_bucket.append(cube)
            continue
        if a1 <= 0.0:
            overflow_bucket.append(cube)
            continue
        a2 = gp_q / w_q
        r_raw = math.floor(-math.log2(a1 / threshold))
        r_clamped = r_raw < 0
        if r_clamped:
            clamped.append(cube)
        r = max(0, r_raw)
        s = max(0, math.floor(-math.log2(a2)))
        row = TracedCube(cube, a1, b_q, w_q, gp_q, a2, r, s, r_clamped)
        traced.append(row)
        bins_members.setdefault((r, s), []).append(row)

        w_avg = w_q / cube.measure
        rhs_strict = two_pow * rh_pow * 2.0 ** (-s * geh.gamma) * w_avg
        rhs = rhs_strict * slack_factor
        avg_checks.append(
            AverageComparisonCheck(
                cube=cube,
                s=s,
                lhs=b_q,
                rhs_strict=rhs_strict,
                slack_factor=slack_factor,
                ratio_strict=b_q / rhs_strict if rhs_strict > 0.0 else 0.0,
                ratio=b_q / rhs if rhs > 0.0 else 0.0,
            )
        )

    f_sq_sigma = fvals * fvals * sigma.pyramid(grid, 1.0)[grid.depth]

    bins: Dict[Tuple[int, int], BinReport] = {}
    for (r, s), rows in sorted(bins_members.items()):
        quad = math.fsum(
            row.avg_fsigma**2 * row.indicator_avg * row.cube.measure for row in rows
        )
        bin_cubes = [row.cube for row in rows]
        layers = peel_layers(bin_cubes)
        # layer witness E_Q: the cells whose deepest cube of the bin is Q
        owner = paint_owner(bin_cubes, grid)
        owned = owner >= 0
        witness_mass = float(np.sum(f_sq_sigma[owned]))
        restricted_totals = np.bincount(
            owner[owned], weights=p0_moments[owned], minlength=len(rows)
        )
        comparability = 0.0
        for row, restricted_total in zip(rows, restricted_totals.tolist()):
            restricted_avg = (
                restricted_total * float(1 << row.cube.level)
            ) ** (1.0 / p0)
            if restricted_avg > 0.0:
                comparability = max(comparability, row.avg_fsigma / restricted_avg)
            else:
                comparability = math.inf
        cap_mass = (
            4.0
            * k**2
            * two_pow
            * 2.0 ** (-2 * r)
            * ap
            * rh_pow
            * 2.0 ** (s * (1.0 - geh.gamma))
            * a_inf
            * f_norm_sq
            * (good_prime_mass / good_mass)
        )
        cap_disjoint = two_pow * rh_pow * 2.0 ** (-s * geh.gamma) * ap * f_norm_sq
        mass_lhs = math.fsum(row.weight_mass for row in rows)
        mass_rhs = 2.0 * a_inf * 2.0 ** (s + 1) * good_prime_mass
        bins[(r, s)] = BinReport(
            r=r,
            s=s,
            cubes=tuple(row.cube for row in rows),
            layer_sizes=tuple(len(layer) for layer in layers),
            quad_sum=quad,
            cap_via_mass=cap_mass,
            cap_via_disjoint=cap_disjoint,
            ratio_via_mass=quad / cap_mass if cap_mass > 0.0 else 0.0,
            ratio_via_disjoint=quad / cap_disjoint if cap_disjoint > 0.0 else 0.0,
            mass_lhs=mass_lhs,
            mass_rhs=mass_rhs,
            witness_mass=witness_mass,
            comparability_max=comparability,
        )

    quad_total = math.fsum(b.quad_sum for b in bins.values())
    envelope = (
        ap
        * rh_pow
        * (1.0 / eps)
        * (1.0 / eps + max(0.0, math.log(a_inf)))
        * f_norm_sq
    )
    c0 = quad_total / envelope if envelope > 0.0 else math.inf

    series_scale = geh.theta_conj * q0s
    return ProofTrace(
        depth=grid.depth,
        p0=p0,
        q0_star=q0s,
        epsilon=eps,
        epsilon_max=eps_max,
        theta=geh.theta,
        theta_conj=geh.theta_conj,
        gamma=geh.gamma,
        ap_char=ap,
        rh_char=rh,
        a_infty_char=a_inf,
        k_factor=k,
        threshold=threshold,
        f_norm_sq=f_norm_sq,
        good_mass=good_mass,
        good_prime_mass=good_prime_mass,
        traced=tuple(traced),
        bins=bins,
        zero_bucket=tuple(zero_bucket),
        overflow_bucket=tuple(overflow_bucket),
        clamped=tuple(clamped),
        average_checks=tuple(avg_checks),
        quad_total=quad_total,
        envelope=envelope,
        c0=c0,
        series_scale=series_scale,
        series_sum=geometric_tail_sum(series_scale),
        series_weighted_sum=geometric_weighted_tail_sum(series_scale),
    )


def default_trace_family(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    ratio: float = 2.0,
) -> List[DyadicCube]:
    """Stopping-time family adapted to the composition fσ: run the dyadic
    stopping construction on the exact cell averages of |fσ|^{p0}."""
    sigma = dual_weight(w, 2.0)
    moments = composed_moment_cells(grid, grid.check_values(f), sigma, p0)
    effective = moments / grid.cell_measure
    return list(build_sparse_cz(effective, grid, ratio=ratio).cubes)


# --- exact per-cube steps -------------------------------------------------------------


@dataclass(frozen=True)
class PerCubeScan:
    """Worst ratios of the two exact per-cube steps over a full cube scan."""

    ap_char: float
    worst_ap_ratio: float
    worst_ap_cube: DyadicCube
    worst_holder_ratio: float
    worst_holder_cube: DyadicCube

    def passed(self, slack: float = 1e-12) -> bool:
        return (
            self.worst_ap_ratio <= 1.0 + slack
            and self.worst_holder_ratio <= 1.0 + slack
        )


def percube_ap_holder_scan(
    w: Weight,
    p0: float,
    grid: DyadicGrid,
    f: Optional[Sequence[float] | np.ndarray] = None,
    cells: Optional[CellSet] = None,
) -> PerCubeScan:
    """Scan every cube for the two per-cube inequalities behind the disjoint
    bin cap.

    * ⟨w⟩_Q · ⟨σ⟩_{L^{φ(p0)},Q} ≤ [w]_{A_{2/p0}} with φ(p0) = p0/(2−p0);
      the left side is the per-cube A_{2/p0} quantity written through the
      dual weight, so the bound is an identity plus a supremum.
    * ⟨1_E fσ⟩²_{p0,Q} ≤ ⟨σ⟩_{L^{φ(p0)},Q} · (1/|Q|)·∫_Q 1_E f² σ — Hölder
      with exponents 2/p0 and 2/(2−p0).

    Both must hold to rounding (slack 1e-12) for every cube, any f, any E.
    """
    p0 = float(p0)
    if not 1.0 <= p0 < 2.0:
        raise ConfigError(f"window exponent p0 must lie in [1, 2), got {p0}")
    phi = p0 / (2.0 - p0)
    sigma = dual_weight(w, 2.0)
    ap = ap_constant(w, 2.0 / p0, grid)

    fvals = (
        np.ones(grid.n_cells, dtype=np.float64)
        if f is None
        else grid.check_values(f)
    )
    mask = (cells.mask if cells is not None else np.ones(grid.n_cells, dtype=bool))

    w_avgs = w.level_averages(grid, 1.0)
    sigma_phi_avgs = sigma.level_averages(grid, phi)  # per-cube ⨍σ^φ
    p0_totals = tree_totals(
        grid, composed_moment_cells(grid, fvals, sigma, p0) * mask
    )
    f2s_totals = tree_totals(
        grid, fvals * fvals * sigma.pyramid(grid, 1.0)[grid.depth] * mask
    )

    worst_ap = -math.inf
    worst_ap_cube = grid.root()
    worst_h = -math.inf
    worst_h_cube = grid.root()
    for level in range(grid.depth + 1):
        scale = float(1 << level)
        sigma_norm = sigma_phi_avgs[level] ** (1.0 / phi)
        ap_ratio = (w_avgs[level] * sigma_norm) / ap
        idx = int(np.argmax(ap_ratio))
        if ap_ratio[idx] > worst_ap:
            worst_ap = float(ap_ratio[idx])
            worst_ap_cube = DyadicCube(level, idx)

        lhs = (p0_totals[level] * scale) ** (2.0 / p0)
        rhs = sigma_norm * (f2s_totals[level] * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_ratio = np.where(rhs > 0.0, lhs / rhs, np.where(lhs > 0.0, np.inf, 0.0))
        idx = int(np.argmax(h_ratio))
        if h_ratio[idx] > worst_h:
            worst_h = float(h_ratio[idx])
            worst_h_cube = DyadicCube(level, idx)

    return PerCubeScan(
        ap_char=ap,
        worst_ap_ratio=worst_ap,
        worst_ap_cube=worst_ap_cube,
        worst_holder_ratio=worst_h,
        worst_holder_cube=worst_h_cube,
    )
