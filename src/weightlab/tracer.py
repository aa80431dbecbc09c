"""Mechanical trace of the good-subset pigeonhole argument.

Given a test function f, a weight w (with dual weight σ = w⁻¹ for the L²
pairing), a cube family A, and a window profile (p0, q0), the tracer
replays the proof of the main quadratic estimate step by step and records
the empirical constant of every step next to its proven envelope:

1.  **Good subset.**  G' = G ∖ {M^A_{p0}(fσ) > T} where M^A is the maximal
    function of L^{p0} averages restricted to the family, read from the one heap
    of ``|fσ|^{p0}`` cube totals that also stops the default family and gives the
    ⟨fσ⟩_{p0,Q} column below, and T = K·[w]^{1/2}_{A_{2/p0}}·‖f‖_{L²(σ)} / w(G)^{1/2}.
    K starts at 4 and doubles until w(G') ≥ ¾·w(G); the weak (2,∞) bound of the maximal
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
    E = G'∩Q); the proof carries an extra defensive factor 2^{γ} on top,
    so the strict ratio recorded per cube is the sharper of the two tests.
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

The window's constants ([w]_{A_{2/p0}}, [w]_{RH_{q0*}}, [w]_{A∞}, ε, γ and the
[w^{q0*}]_{A∞} behind ε_max) come from one :func:`~weightlab.bounds.evaluate_bounds` report.

Every step that is a theorem gets a hard pass flag; steps that rely on the
proof's implicit slack report their ratio without a hard gate.  G and G' are
boolean masks over the finest cells, and every moment is read from a weight's
store: ⟨1_{G'}w⟩_{q0*,Q} from the finest level of w's q0* pyramid.  The exact
per-cube scan walks the levels through ``grid.level_blocks`` and forms no heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundsReport, evaluate_bounds
from .characteristics import ap_moment, ap_sup, level_maxima, sup_with_argmax
from .errors import ConfigError, EmptyGoodSetError, WeightlabError, ZeroFunctionError
from .grid import (
    DyadicCube, DyadicGrid, ancestor_hits, ancestor_max, cube_ids, heap_levels, level_blocks,
    level_sums, split_ids, to_averages, tree_totals,
)
from .profiles import SLACK, ExponentProfile, GehringProfile, admissible_epsilon
from .sparse import paint_owner, stopping_family
from .weights import (
    Weight,
    composed_moment_cells,
    dual_weight,
    weighted_l2_norm_sq,
)


# --- geometric series used to sum the bins ------------------------------------------


def _series_step(x: float) -> float:
    """``e = 2^{1/x} − 1`` by ``expm1``, so no cancellation for large ``x``;
    ``inf`` where it passes the double range (``x`` below about 1e-3)."""
    if x <= 0.0:
        raise ConfigError(f"series scale must be positive, got {x}")
    try:
        return math.expm1(math.log(2.0) / x)
    except OverflowError:
        return math.inf


def geometric_tail_sum(x: float) -> float:
    """Σ_{s≥0} 2^{−s/x} = 2^{1/x} / (2^{1/x} − 1) = 1 + 1/e, for x > 0."""
    return 1.0 + 1.0 / _series_step(x)


def geometric_weighted_tail_sum(x: float) -> float:
    """Σ_{s≥0} s·2^{−s/x} = 2^{1/x} / (2^{1/x} − 1)² = (1 + 1/e)/e, for x > 0;
    ``inf`` where ``e²`` underflows."""
    e = _series_step(x)
    return (1.0 + 1.0 / e) / e


# --- traced records ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceColumns:
    """Per-cube quantities of the pigeonhole, one aligned column each, for
    the binned cubes in heap-id order."""

    ids: np.ndarray
    avg_fsigma: np.ndarray  # ⟨fσ⟩_{p0,Q}
    indicator_avg: np.ndarray  # ⟨1_{G'} w⟩_{q0*,Q}
    weight_mass: np.ndarray  # w(Q)
    good_mass: np.ndarray  # w(G'∩Q)
    r: np.ndarray
    s: np.ndarray
    rhs_strict: np.ndarray  # 2^{1/(θq0*)}·rh^{2−γ}·2^{−sγ}·⟨w⟩_Q
    ratio_strict: np.ndarray  # indicator_avg / rhs_strict

    def __len__(self) -> int:
        return int(self.ids.size)


@dataclass(frozen=True)
class BinReport:
    """One pigeonhole bin: its cubes, layers, and empirical constants."""

    r: int
    s: int
    cubes: np.ndarray  # heap ids
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
    bounds: BoundsReport  # the window's p0, q0*, ε, γ, [w]_{A_{2/p0}}, [w]_{RH_{q0*}}, [w]_{A∞}
    epsilon_max: float
    theta: float
    theta_conj: float
    k_factor: float
    threshold: float
    f_norm_sq: float  # ‖f‖²_{L²(σ)}
    good_mass: float
    good_prime_mass: float
    traced: TraceColumns
    bins: Dict[Tuple[int, int], BinReport]
    zero_bucket: np.ndarray  # heap ids
    overflow_bucket: np.ndarray  # heap ids
    clamped: np.ndarray  # heap ids
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
        return float(self.traced.ratio_strict.max(initial=0.0))

    @property
    def worst_bin_min_ratio(self) -> float:
        return max((b.min_ratio for b in self.bins.values()), default=0.0)

    @property
    def worst_mass_ratio(self) -> float:
        return max((b.mass_ratio for b in self.bins.values()), default=0.0)

    def to_jsonable(self) -> dict:
        b = self.bounds
        return {
            "depth": self.depth,
            "p0": b.p0,
            "q0_star": b.q0_star,
            "epsilon": b.epsilon,
            "epsilon_max": self.epsilon_max,
            "theta": self.theta,
            "gamma": b.gamma,
            "ap_char": b.ap_char,
            "rh_char": b.rh_char,
            "a_infty_char": b.a_infty_char,
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


def _group_rows(keys: np.ndarray) -> List[np.ndarray]:
    """Positions of each distinct key, by ascending key; positions ascend."""
    if keys.size == 0:
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def peel_layers(cubes: Sequence[DyadicCube] | np.ndarray) -> List[np.ndarray]:
    """Split a cube family into layers of heap ids: layer 0 holds the maximal
    cubes, layer k+1 the maximal cubes of what is left.  Every layer is an
    antichain and every layer-(k+1) cube sits inside some layer-k cube.

    The strict ancestors of a dyadic cube form a chain, so a cube's layer is
    the number of its strict ancestors in the family, counted by a binary
    search per generation over the sorted ids.
    """
    unique = np.unique(cube_ids(cubes))
    layer = np.zeros(unique.size, dtype=np.int64)
    for hit in ancestor_hits(unique):
        layer += hit
    return [unique[rows] for rows in _group_rows(layer)]


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
    good_prime: np.ndarray  # boolean mask of G' over the finest cells
    good_mass: float
    good_prime_mass: float
    f_norm_sq: float
    p0_totals: np.ndarray  # read-only heap of ∫_Q |fσ|^{p0}, one total per cube
    family_ids: np.ndarray  # heap ids of the family the maximal function ran over

    @property
    def good_fraction(self) -> float:
        return self.good_prime_mass / self.good_mass if self.good_mass > 0.0 else 0.0


def _traced_moments(
    f: Sequence[float] | np.ndarray, w: Weight, grid: DyadicGrid, p0: float
) -> Tuple[np.ndarray, float]:
    """The read-only heap of ``∫_Q |fσ|^{p0}`` totals and ``‖f‖²_{L²(σ)}``, refused
    unless ``1 ≤ p0 < 2`` and the norm is nonzero and finite."""
    p0 = ExponentProfile(float(p0), math.inf).p0  # checks 1 <= p0 < 2
    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    with np.errstate(over="ignore"):
        norm_sq = weighted_l2_norm_sq(grid, fvals, sigma)
    if norm_sq == 0.0:
        if np.any(fvals):
            raise ConfigError("the traced function's squared L²(σ) norm underflows to 0")
        raise ZeroFunctionError("the traced function vanishes identically")
    if not math.isfinite(norm_sq):
        raise ConfigError(f"the traced function's squared L²(σ) norm is {norm_sq}, not finite")
    p0_totals = tree_totals(grid, composed_moment_cells(grid, fvals, sigma, p0))
    p0_totals.setflags(write=False)
    return p0_totals, norm_sq


def _restricted_maximal(p0_totals: np.ndarray, family_ids: np.ndarray, p0: float) -> np.ndarray:
    """Per finest cell, the largest ⟨fσ⟩_{p0,Q} over the family cubes Q that
    contain it (0 where none does), from the heap of ``|fσ|^{p0}`` totals."""
    averages = np.zeros_like(p0_totals)  # averages are >= 0, so a zero drops a cube
    averages[family_ids] = p0_totals[family_ids]
    return ancestor_max(to_averages(averages)) ** (1.0 / p0)


def build_good_set(
    f: Sequence[float] | np.ndarray,
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    ap: float,
    family: Optional[Sequence[DyadicCube] | np.ndarray] = None,
    good_cells: Optional[np.ndarray] = None,
    ratio: float = 2.0,
) -> GoodSetResult:
    """Remove the cells where the family-restricted maximal function of fσ
    exceeds T = K·[w]^{1/2}_{A_{2/p0}}·‖f‖_{L²(σ)}/w(G)^{1/2}, doubling K
    from 4 until the remainder keeps 3/4 of the weight mass of G, the mask
    ``good_cells`` (default: every cell).  ``ap`` is [w]_{A_{2/p0}}, which
    :func:`trace_proof` reads from :func:`~weightlab.bounds.evaluate_bounds`.
    ``p0`` must lie in [1, 2) and ``‖f‖²_{L²(σ)}`` must be nonzero and finite; the
    result keeps fσ's moment heap.  Without a family,
    :func:`default_trace_family`'s at ``ratio`` is stopped on that heap."""
    p0_totals, f_norm_sq = _traced_moments(f, w, grid, p0)
    f_norm = math.sqrt(f_norm_sq)
    family_ids = (stopping_family(p0_totals, grid, ratio).ids if family is None
                  else cube_ids(family, grid))

    good = grid.check_mask(np.ones(grid.n_cells, dtype=bool) if good_cells is None else good_cells)
    cellw = heap_levels(w.pyramid(grid, 1.0))[-1]
    good_mass = float(np.sum(cellw, where=good))
    if good_mass <= 0.0:
        raise EmptyGoodSetError("the initial good set carries no weight mass")

    m_restricted = _restricted_maximal(p0_totals, family_ids, p0)

    k = K_INITIAL
    for _ in range(MAX_K_DOUBLINGS):
        threshold = k * math.sqrt(ap) * f_norm / math.sqrt(good_mass)
        good_prime = good & (m_restricted <= threshold)
        good_prime_mass = float(np.sum(cellw, where=good_prime))
        if good_prime_mass >= GOOD_FRACTION_TARGET * good_mass * (1.0 - SLACK):
            return GoodSetResult(
                k_factor=k,
                threshold=threshold,
                good_prime=good_prime,
                good_mass=good_mass,
                good_prime_mass=good_prime_mass,
                f_norm_sq=f_norm_sq,
                p0_totals=p0_totals,
                family_ids=family_ids,
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
    family: Optional[Sequence[DyadicCube] | np.ndarray] = None,
    good_cells: Optional[np.ndarray] = None,
    epsilon: Optional[float] = None,
    ratio: float = 2.0,
) -> ProofTrace:
    """Run the full pigeonhole trace; see the module docstring for the steps. The family
    is a cube sequence or an array of heap ids, by default :func:`default_trace_family`'s.
    The window's constants are one :func:`~weightlab.bounds.evaluate_bounds` report; a
    ``[w]_{A_{2/p0}}``, ``[w]_{RH_{q0*}}`` or ``[w]_{A∞}`` that is not finite is refused."""
    if not math.isfinite(profile.q0):
        raise ConfigError("the trace needs a finite upper window exponent")
    p0 = profile.p0
    q0s = profile.q0_star
    if family is not None:
        family = np.unique(cube_ids(family, grid))
        if family.size == 0:
            raise ConfigError("the traced cube family is empty")

    bounds = evaluate_bounds(w, grid, p0, profile.q0, epsilon)
    ap, rh, a_inf, eps = bounds.ap_char, bounds.rh_char, bounds.a_infty_char, bounds.epsilon
    for name, value in ((f"A_{profile.ap_index!r}", ap), (f"RH_{q0s!r}", rh), ("A∞", a_inf)):
        if not math.isfinite(value):
            raise ConfigError(f"[w]_{{{name}}} of {w.describe()} reads {value!r}: "
                              "the weight's powers leave the double range")
    gamma, eps_max = bounds.gamma, admissible_epsilon(q0s, bounds.a_infty_pow_char)
    geh = GehringProfile(q0s, eps, eps_max)
    two_pow = 2.0 ** (1.0 / (geh.theta * q0s))
    rh_pow = rh ** (2.0 - gamma)

    sigma = dual_weight(w, 2.0)
    fvals = grid.check_values(f)
    gs = build_good_set(f, w, grid, p0, ap, family, good_cells, ratio)
    family_ids = gs.family_ids
    f_norm_sq, good_prime_mass = gs.f_norm_sq, gs.good_prime_mass

    def good_totals(t):  # ∫_{G'∩Q} w^t per cube, from the finest level of w's stored t pyramid
        return tree_totals(grid, heap_levels(w.pyramid(grid, t))[-1] * gs.good_prime)

    # per-cube gathers from exact moment pyramids: the good set's fσ at p0, 1_{G'}·w at q0* and 1
    p0_moments = heap_levels(gs.p0_totals)[-1]
    scale = np.ldexp(1.0, split_ids(family_ids)[0])
    a1 = (gs.p0_totals[family_ids] * scale) ** (1.0 / p0)
    gp_q = good_totals(1.0)[family_ids]
    zero = gp_q <= 0.0
    overflow = ~zero & (a1 <= 0.0)
    binned = ~(zero | overflow)
    ids, scale, a1, gp_q = family_ids[binned], scale[binned], a1[binned], gp_q[binned]
    w_q = w.pyramid(grid, 1.0)[ids]
    b_q = (good_totals(q0s)[ids] * scale) ** (1.0 / q0s)

    r_raw = np.floor(-np.log2(a1 / gs.threshold)).astype(np.int64)
    r = np.maximum(r_raw, 0)
    s = np.maximum(np.floor(-np.log2(gp_q / w_q)).astype(np.int64), 0)
    rhs_strict = two_pow * rh_pow * 2.0 ** (-s * gamma) * (w_q * scale)
    ratio_strict = np.divide(b_q, rhs_strict, out=np.zeros_like(b_q), where=rhs_strict > 0.0)
    traced = TraceColumns(ids, a1, b_q, w_q, gp_q, r, s, rhs_strict, ratio_strict)

    f_sq_sigma = fvals * fvals * heap_levels(sigma.pyramid(grid, 1.0))[-1]
    quad_terms = a1**2 * b_q / scale
    bins: Dict[Tuple[int, int], BinReport] = {}
    for rows in _group_rows(r * (int(s.max(initial=0)) + 1) + s):
        r_bin, s_bin = int(r[rows[0]]), int(s[rows[0]])
        quad = math.fsum(quad_terms[rows].tolist())
        # layer witness E_Q: the cells whose deepest cube of the bin is Q
        owner = paint_owner(ids[rows], grid)
        owner += 1  # bin 0 takes the cells no cube of the bin owns
        witness_mass = float(np.sum(f_sq_sigma[owner > 0]))
        restricted = np.bincount(owner, weights=p0_moments, minlength=rows.size + 1)[1:]
        restricted_avg = (restricted * scale[rows]) ** (1.0 / p0)
        comparability = (
            float(np.max(a1[rows] / restricted_avg)) if np.all(restricted_avg > 0.0) else math.inf
        )
        cap_mass = (
            4.0 * gs.k_factor**2 * two_pow * 2.0 ** (-2 * r_bin) * ap * rh_pow
            * 2.0 ** (s_bin * (1.0 - gamma)) * a_inf * f_norm_sq * gs.good_fraction
        )
        cap_disjoint = two_pow * rh_pow * 2.0 ** (-s_bin * gamma) * ap * f_norm_sq
        mass_rhs = 2.0 * a_inf * 2.0 ** (s_bin + 1) * good_prime_mass
        bins[(r_bin, s_bin)] = BinReport(
            r=r_bin,
            s=s_bin,
            cubes=ids[rows],
            layer_sizes=tuple(layer.size for layer in peel_layers(ids[rows])),
            quad_sum=quad,
            cap_via_mass=cap_mass,
            cap_via_disjoint=cap_disjoint,
            ratio_via_mass=quad / cap_mass if cap_mass > 0.0 else 0.0,
            ratio_via_disjoint=quad / cap_disjoint if cap_disjoint > 0.0 else 0.0,
            mass_lhs=math.fsum(w_q[rows].tolist()),
            mass_rhs=mass_rhs,
            witness_mass=witness_mass,
            comparability_max=comparability,
        )

    quad_total = math.fsum(b.quad_sum for b in bins.values())
    envelope = ap * rh_pow * (1.0 / eps) * (1.0 / eps + max(0.0, math.log(a_inf))) * f_norm_sq
    c0 = quad_total / envelope if envelope > 0.0 else math.inf

    series_scale = geh.theta_conj * q0s
    return ProofTrace(
        depth=grid.depth,
        bounds=bounds,
        epsilon_max=eps_max,
        theta=geh.theta,
        theta_conj=geh.theta_conj,
        k_factor=gs.k_factor,
        threshold=gs.threshold,
        f_norm_sq=f_norm_sq,
        good_mass=gs.good_mass,
        good_prime_mass=good_prime_mass,
        traced=traced,
        bins=bins,
        zero_bucket=family_ids[zero],
        overflow_bucket=family_ids[overflow],
        clamped=ids[r_raw < 0],
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
) -> np.ndarray:
    """Heap ids of the :func:`stopping_family` of the exact |fσ|^{p0} cube totals, with ``p0``
    and ``‖f‖²_{L²(σ)}`` checked as for :func:`build_good_set`."""
    return stopping_family(_traced_moments(f, w, grid, p0)[0], grid, ratio).ids


# --- exact per-cube steps -------------------------------------------------------------


@dataclass(frozen=True)
class PerCubeScan:
    """Worst ratios of the two exact per-cube steps over a full cube scan."""

    ap_char: float
    worst_ap_ratio: float
    worst_ap_cube: DyadicCube
    worst_holder_ratio: float
    worst_holder_cube: DyadicCube


def percube_ap_holder_scan(
    w: Weight,
    p0: float,
    grid: DyadicGrid,
    f: Optional[Sequence[float] | np.ndarray] = None,
    cells: Optional[np.ndarray] = None,
) -> PerCubeScan:
    """Scan every cube for the two per-cube inequalities behind the disjoint
    bin cap.

    * ⟨w⟩_Q · ⟨σ⟩_{L^{φ(p0)},Q} ≤ [w]_{A_{2/p0}} with φ(p0) = p0/(2−p0);
      the left side is the per-cube A_{2/p0} quantity written through the
      dual weight, so the bound is an identity plus a supremum: one
      :func:`~weightlab.characteristics.ap_sup` fold gives the worst ratio, 1.0
      (0.0 for an infinite characteristic), at the cube ``char -p 2/p0`` reports.
    * ⟨1_E fσ⟩²_{p0,Q} ≤ ⟨σ⟩_{L^{φ(p0)},Q} · (1/|Q|)·∫_Q 1_E f² σ — Hölder
      with exponents 2/p0 and 2/(2−p0), ⟨σ⟩_{L^φ,Q} read from the fold's pyramid.

    It must hold to rounding (slack 1e-12) for every cube, any f, any E (``cells``).
    A Hölder ratio that cannot be formed (``inf/inf`` after overflow) leaves its
    cube unverified, with ratio ``inf``.
    """
    profile = ExponentProfile(float(p0), math.inf)  # checks 1 <= p0 < 2
    p0, p = profile.p0, profile.ap_index
    ap, ap_cube = ap_sup(w, p, grid)
    moment, power = ap_moment(p)  # σ's moment φ is w's moment 1 − p', and 1/φ = p − 1
    sigma = dual_weight(w, 2.0)

    fvals = None if f is None else grid.check_values(f)
    mask = grid.check_mask(np.ones(grid.n_cells, dtype=bool) if cells is None else cells)
    sigma_phi = heap_levels(w.pyramid(grid, moment))  # the pyramid ap_sup folded

    def holder_blocks(levels):  # the Hölder ratio a block at a time, fine to coarse
        for k, start, (lhs, rhs, sigma_avg) in level_blocks(grid, levels):
            lhs **= p
            rhs *= sigma_avg**power  # ⟨σ⟩_{L^φ,Q}
            ratios = np.where(rhs > 0.0, lhs / rhs, np.where(lhs > 0.0, np.inf, 0.0))
            ratios[np.isnan(ratios)] = np.inf  # inf/inf after overflow: unverified
            yield k, start, ratios

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # level_sums adds lazily
        if fvals is None:  # |fσ|^{p0}·1_E and f²σ·1_E per cell: σ's stored moments masked
            moments, f2s = (heap_levels(sigma.pyramid(grid, t))[-1] * mask for t in (p0, 1.0))
        else:  # the same, scaled by f's powers in place
            moments, f2s = np.abs(fvals) ** p0, fvals * fvals
            for vec, t in ((moments, p0), (f2s, 1.0)):
                vec *= heap_levels(sigma.pyramid(grid, t))[-1]
                vec *= mask
        levels = zip(level_sums(moments), level_sums(f2s), sigma_phi[::-1])
        worst_h, worst_h_cube = sup_with_argmax(level_maxima(holder_blocks(levels))[::-1])

    return PerCubeScan(
        ap_char=ap,
        worst_ap_ratio=1.0 if math.isfinite(ap) else 0.0,
        worst_ap_cube=ap_cube,
        worst_holder_ratio=worst_h,
        worst_holder_cube=worst_h_cube,
    )
