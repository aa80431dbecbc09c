"""Closed-form bound and exponent calculus for the two-exponent window.

Everything here is a pure formula in the window profile (p0, q0), the gap
parameter ε of the self-improved reverse Hölder step, and the three weight
characteristics

    ap      = [w]_{A_{2/p0}},     rh = [w]_{RH_{q0*}},    a_infty = [w]_{A∞},

with q0* = q0/(q0−2) (and q0* = 1 when q0 = ∞).  The exponent

    γ(q0*, ε) = ε / (q0*·(q0* + ε − 1))

is the self-improvement rate; at ε its admissible maximum it equals
1/(θ'·q0*) for the Hölder split θ = (q0* + ε − 1)/(q0* − 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .characteristics import a_infty_fw, ap_constant, rh_constant
from .errors import ConfigError
from .grid import DyadicGrid
from .profiles import ExponentProfile, GehringProfile
from .weights import Weight, conjugate_exponent, pow_weight


def gamma_exponent(q0_star: float, epsilon: float) -> float:
    """Self-improvement rate γ = ε/(q0*·(q0* + ε − 1))."""
    if not q0_star >= 1.0:
        raise ConfigError(f"q0* must be >= 1, got {q0_star}")
    if not 0.0 < epsilon < math.inf:
        raise ConfigError(f"gap parameter must be positive and finite, got {epsilon}")
    return epsilon / (q0_star * (q0_star + epsilon - 1.0))


def default_epsilon(q0_star: float, a_infty_pow: float) -> float:
    """Guaranteed gap ε = q0*/(4·[w^{q0*}]_{A∞} − 1)."""
    if not a_infty_pow >= 1.0:
        raise ConfigError(f"A∞ characteristic must be >= 1, got {a_infty_pow}")
    return q0_star / (4.0 * a_infty_pow - 1.0)


def weak_type_factor(
    rh: float, a_infty: float, q0_star: float, epsilon: float
) -> float:
    """η_ε = rh^{1−γ}·(1/ε)·(1/ε + max(0, ln a_infty))."""
    g = gamma_exponent(q0_star, epsilon)
    return rh ** (1.0 - g) * (1.0 / epsilon) * (
        1.0 / epsilon + max(0.0, math.log(a_infty))
    )


def simplified_weak_type_factor(
    rh: float, a_infty: float, q0_star: float, a_infty_pow: float
) -> float:
    """η at the pinned gap ε = 1/(4·[w^{q0*}]_{A∞}):
    rh^{1−γ}·4A·(4A + max(0, ln a_infty)) with A = [w^{q0*}]_{A∞}."""
    eps = 1.0 / (4.0 * a_infty_pow)
    g = gamma_exponent(q0_star, eps)
    big = 4.0 * a_infty_pow
    return rh ** (1.0 - g) * big * (big + max(0.0, math.log(a_infty)))


def weak_norm_bound(
    ap: float, rh: float, a_infty: float, q0_star: float, epsilon: float
) -> float:
    """Weak L²(w) operator bound ap^{1/2}·rh^{1/2}·η_ε^{1/2}."""
    return math.sqrt(ap * rh * weak_type_factor(rh, a_infty, q0_star, epsilon))


def strong_exponent(q: float, p0: float, q0: float) -> float:
    """Joint-characteristic exponent γ(q) = max(1/(q−p0), (q0/q)'/(2·q0*)).

    At q = 2 this is always 1/(2−p0).
    """
    if not p0 < q:
        raise ConfigError(f"target exponent {q} must exceed p0 = {p0}")
    if math.isfinite(q0) and not q < q0:
        raise ConfigError(f"target exponent {q} must lie below q0 = {q0}")
    q0s = q0_star_of(q0)
    ratio_conj = conjugate_exponent(q0 / q) if math.isfinite(q0) else 1.0
    return max(1.0 / (q - p0), ratio_conj / (2.0 * q0s))


def strong_norm_bound(ap: float, rh: float, q: float, p0: float, q0: float) -> float:
    """Strong L^q(w) bound ( [w]_{A_{q/p0}} · [w]_{RH_{(q0/q)'}} )^{γ(q)}."""
    return (ap * rh) ** strong_exponent(q, p0, q0)


def q0_star_of(q0: float) -> float:
    """q0* = q0/(q0−2), with the convention q0* = 1 at q0 = ∞."""
    if not math.isfinite(q0):
        return 1.0
    if q0 <= 2.0:
        raise ConfigError(f"upper window exponent must exceed 2, got {q0}")
    return q0 / (q0 - 2.0)


def bridge_ap_index(p: float, p0: float, q0: float) -> float:
    """Muckenhoupt index φ(p) = (q0/p)'·(p/p0 − 1) + 1 of the power-lifted
    weight w^{(q0/p)'}; φ(p) = p/p0 when q0 = ∞."""
    if not p0 < p:
        raise ConfigError(f"exponent {p} must exceed p0 = {p0}")
    if math.isfinite(q0):
        if not p < q0:
            raise ConfigError(f"exponent {p} must lie below q0 = {q0}")
        s = conjugate_exponent(q0 / p)
    else:
        s = 1.0
    return s * (p / p0 - 1.0) + 1.0


def extrapolation_inflation(p: float, q: float, p0: float, q0: float) -> float:
    """Inflation β(p, q) = max(1, (q0−q)(p−p0)/((q0−p)(q−p0))) of the
    characteristic exponent when moving the anchor p to the target q inside
    the window; β = max(1, (p−p0)/(q−p0)) when q0 = ∞."""
    for name, val in (("anchor", p), ("target", q)):
        if not p0 < val:
            raise ConfigError(f"{name} exponent {val} must exceed p0 = {p0}")
        if math.isfinite(q0) and not val < q0:
            raise ConfigError(f"{name} exponent {val} must lie below q0 = {q0}")
    if math.isfinite(q0):
        return max(1.0, (q0 - q) * (p - p0) / ((q0 - p) * (q - p0)))
    return max(1.0, (p - p0) / (q - p0))


def extrapolated_strong_bound(
    ap: float, rh: float, q: float, p0: float, q0: float, gamma: float
) -> float:
    """L^q(w) bound obtained by extrapolating the L² weak bound.

    ``ap`` and ``rh`` are [w]_{A_{q/p0}} and [w]_{RH_{(q0/q)'}}; with
    P = (ap·rh)^{(q0/q)'} and β = β(2, q) the bound is
    P^{β·(3−γ+q0*)/(2·q0*)} · (P + ln(P)/q0*)^{β/2}.
    """
    q0s = q0_star_of(q0)
    e = conjugate_exponent(q0 / q) if math.isfinite(q0) else 1.0
    prod = (ap * rh) ** e
    if prod < 1.0:
        raise ConfigError(f"characteristic product must be >= 1, got {prod}")
    beta = extrapolation_inflation(2.0, q, p0, q0)
    head = prod ** (beta * (3.0 - gamma + q0s) / (2.0 * q0s))
    tail = (prod + math.log(prod) / q0s) ** (beta / 2.0)
    return head * tail


# --- exponent comparison and the loss chain -----------------------------------------


@dataclass(frozen=True)
class ExponentComparison:
    """Characteristic exponents of the weak and strong L² bounds.

    The A-column winner is always the weak bound (1/2 < 1/(2−p0)).  The weak
    RH exponent counts one inverse-gap factor converted through the power
    relation between [w^{q0*}]_{A∞} and [w]_{RH_{q0*}}·[w]_{A∞}; no RH
    winner is asserted.  When q0 = ∞ the weak RH exponent is evaluated as
    written and the note flags that RH_1 carries no information.
    """

    weak_a_exponent: float
    strong_a_exponent: float
    weak_rh_exponent: float
    strong_rh_exponent: float
    a_winner: str
    note: str


def exponent_comparison(p0: float, q0: float, gamma: float) -> ExponentComparison:
    q0s = q0_star_of(q0)
    strong = 1.0 / (2.0 - p0)
    note = "" if math.isfinite(q0) else "q0 = ∞: RH_1 is trivial; exponents evaluated as written"
    return ExponentComparison(
        weak_a_exponent=0.5,
        strong_a_exponent=strong,
        weak_rh_exponent=(2.0 - gamma + q0s) / 2.0,
        strong_rh_exponent=strong,
        a_winner="weak",
        note=note,
    )


@dataclass(frozen=True)
class LossChainReport:
    """Cost of routing the weak bound through extrapolation instead of
    using it directly, measured on the joint-characteristic exponent.

    Both exponents convert every inverse-gap factor through the power
    relation, so the gap is exactly 1/2 for every (q0*, γ).  Value-level
    domination (direct ≤ extrapolated) is meaningful only for weights with
    large characteristics; with every characteristic equal to 1 the
    constant factors dominate and the comparison inverts.
    """

    direct_exponent: float
    extrapolated_exponent: float
    exponent_gap: float
    direct_value: Optional[float] = None
    extrapolated_value: Optional[float] = None


def loss_chain_exponents(q0_star: float, gamma: float) -> LossChainReport:
    direct = (2.0 - gamma + 2.0 * q0_star) / 2.0
    extrapolated = (3.0 - gamma + 2.0 * q0_star) / 2.0
    return LossChainReport(direct, extrapolated, extrapolated - direct)


def loss_chain_values(
    ap: float,
    rh: float,
    a_infty: float,
    a_infty_pow: float,
    p0: float,
    q0: float,
) -> LossChainReport:
    """Exponent gap plus the two bound values at the guaranteed gap ε."""
    q0s = q0_star_of(q0)
    eps = default_epsilon(q0s, a_infty_pow)
    gamma = gamma_exponent(q0s, eps)
    report = loss_chain_exponents(q0s, gamma)
    direct_value = weak_norm_bound(ap, rh, a_infty, q0s, eps)
    extrapolated_value = extrapolated_strong_bound(ap, rh, 2.0, p0, q0, gamma)
    return LossChainReport(
        report.direct_exponent,
        report.extrapolated_exponent,
        report.exponent_gap,
        direct_value,
        extrapolated_value,
    )


# --- full report ---------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form quantities for one weight and one window."""

    p0: float
    q0: float
    q0_star: float
    ap_char: float  # [w]_{A_{2/p0}}
    rh_char: float  # [w]_{RH_{q0*}}
    a_infty_char: float
    a_infty_pow_char: float  # [w^{q0*}]_{A∞}
    epsilon: float
    gamma: float
    eta: float
    weak_bound: float
    strong_bound: float  # at q = 2
    bridge_index: float  # φ(2)
    comparison: ExponentComparison
    loss_chain: LossChainReport

    def to_jsonable(self) -> dict:
        return {
            "p0": self.p0,
            "q0": self.q0 if math.isfinite(self.q0) else "inf",
            "q0_star": self.q0_star,
            "ap_char": self.ap_char,
            "rh_char": self.rh_char,
            "a_infty_char": self.a_infty_char,
            "a_infty_pow_char": self.a_infty_pow_char,
            "epsilon": self.epsilon,
            "gamma": self.gamma,
            "eta": self.eta,
            "weak_bound": self.weak_bound,
            "strong_bound": self.strong_bound,
            "bridge_index": self.bridge_index,
            "comparison": {
                "weak_a_exponent": self.comparison.weak_a_exponent,
                "strong_a_exponent": self.comparison.strong_a_exponent,
                "weak_rh_exponent": self.comparison.weak_rh_exponent,
                "strong_rh_exponent": self.comparison.strong_rh_exponent,
                "a_winner": self.comparison.a_winner,
                "note": self.comparison.note,
            },
            "loss_chain": {
                "direct_exponent": self.loss_chain.direct_exponent,
                "extrapolated_exponent": self.loss_chain.extrapolated_exponent,
                "exponent_gap": self.loss_chain.exponent_gap,
                "direct_value": self.loss_chain.direct_value,
                "extrapolated_value": self.loss_chain.extrapolated_value,
            },
        }


def evaluate_bounds(
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    q0: float,
    epsilon: Optional[float] = None,
) -> BoundsReport:
    """Compute every closed-form bound for ``w`` over the (p0, q0) window,
    which must satisfy ``1 <= p0 < 2 < q0 <= ∞`` (else ``ValueError``);
    ``epsilon`` may not exceed the proven :func:`default_epsilon`."""
    q0s = ExponentProfile(p0, q0).q0_star
    ap = ap_constant(w, 2.0 / p0, grid)
    # RH_1 compares every cube average with itself, so the characteristic is 1.
    rh = 1.0 if q0s == 1.0 else rh_constant(w, q0s, grid)
    a_inf = a_infty_fw(w, grid)
    a_inf_pow = a_infty_fw(pow_weight(w, q0s), grid)
    eps_max = default_epsilon(q0s, a_inf_pow)
    eps = eps_max if epsilon is None else float(epsilon)
    gamma = gamma_exponent(q0s, eps)
    GehringProfile.check_epsilon(eps, eps_max)
    eta = weak_type_factor(rh, a_inf, q0s, eps)
    weak = weak_norm_bound(ap, rh, a_inf, q0s, eps)
    strong = strong_norm_bound(ap, rh, 2.0, p0, q0)
    bridge = bridge_ap_index(2.0, p0, q0)
    comparison = exponent_comparison(p0, q0, gamma)
    loss = loss_chain_values(ap, rh, a_inf, a_inf_pow, p0, q0)
    return BoundsReport(
        p0=p0,
        q0=q0,
        q0_star=q0s,
        ap_char=ap,
        rh_char=rh,
        a_infty_char=a_inf,
        a_infty_pow_char=a_inf_pow,
        epsilon=eps,
        gamma=gamma,
        eta=eta,
        weak_bound=weak,
        strong_bound=strong,
        bridge_index=bridge,
        comparison=comparison,
        loss_chain=loss,
    )
