"""Closed-form bounds for the two-exponent window.

Everything here is a pure formula in the window profile (p0, q0, p) — an
:class:`~weightlab.profiles.ExponentProfile` — the gap parameter ε of the
self-improved reverse Hölder step, and the three weight characteristics

    ap      = [w]_{A_{2/p0}},     rh = [w]_{RH_{q0*}},    a_infty = [w]_{A∞}.

The exponents the bounds are raised to — q0*, the self-improvement rate γ,
the proven ε and the window's strong, bridge and inflation exponents — are
defined, with every admissibility check, in :mod:`weightlab.profiles`; read
them as ``ExponentProfile(p0, q0, p).strong_exponent``, ``.bridge_index``
and ``.inflation(anchor)``.  The weak L² bound (ap·rh·η_ε)^{1/2} and the
strong bound (ap·rh)^{γ(2)} are fields of :func:`evaluate_bounds`' report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .characteristics import a_infty_fw, ap_constant, rh_constant
from .errors import ConfigError
from .grid import DyadicGrid
from .profiles import ExponentProfile, admissible_epsilon, gamma_rate
from .weights import Weight, pow_weight


def weak_type_factor(
    rh: float, a_infty: float, q0_star: float, epsilon: float
) -> float:
    """η_ε = rh^{1−γ}·(1/ε)·(1/ε + max(0, ln a_infty))."""
    return _eta(rh, a_infty, epsilon, gamma_rate(q0_star, epsilon))


def _eta(rh: float, a_infty: float, epsilon: float, gamma: float) -> float:
    """η_ε of :func:`weak_type_factor` at a checked ε with its rate γ."""
    return rh ** (1.0 - gamma) * (1.0 / epsilon) * (
        1.0 / epsilon + max(0.0, math.log(a_infty))
    )


def simplified_weak_type_factor(
    rh: float, a_infty: float, q0_star: float, a_infty_pow: float
) -> float:
    """η at the pinned gap ε = 1/(4·[w^{q0*}]_{A∞}):
    rh^{1−γ}·4A·(4A + max(0, ln a_infty)) with A = [w^{q0*}]_{A∞}."""
    eps = 1.0 / (4.0 * a_infty_pow)
    g = gamma_rate(q0_star, eps)
    big = 4.0 * a_infty_pow
    return rh ** (1.0 - g) * big * (big + max(0.0, math.log(a_infty)))


def extrapolated_strong_bound(
    ap: float, rh: float, profile: ExponentProfile, gamma: float
) -> float:
    """L^p(w) bound at the profile's target ``p``, obtained by extrapolating
    the L² weak bound.

    ``ap`` and ``rh`` are [w]_{A_{p/p0}} and [w]_{RH_{(q0/p)'}}; with
    P = (ap·rh)^{(q0/p)'} and β = β(2, p) the bound is
    P^{β·(3−γ+q0*)/(2·q0*)} · (P + ln(P)/q0*)^{β/2}.
    """
    q0s = profile.q0_star
    prod = (ap * rh) ** profile.rh_index
    if prod < 1.0:
        raise ConfigError(f"characteristic product must be >= 1, got {prod}")
    beta = profile.inflation(2.0)
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


def exponent_comparison(profile: ExponentProfile, gamma: float) -> ExponentComparison:
    q0s = profile.q0_star
    strong = 1.0 / (2.0 - profile.p0)
    note = "" if math.isfinite(profile.q0) else "q0 = ∞: RH_1 is trivial; exponents evaluated as written"
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
    profile: ExponentProfile,
    epsilon: float,
    gamma: float,
) -> LossChainReport:
    """Exponent gap plus the two bound values at the proven gap ``epsilon``
    (:func:`~weightlab.profiles.admissible_epsilon`) with its rate ``gamma``,
    for a profile whose target is p = 2."""
    return replace(
        loss_chain_exponents(profile.q0_star, gamma),
        direct_value=math.sqrt(ap * rh * _eta(rh, a_infty, epsilon, gamma)),
        extrapolated_value=extrapolated_strong_bound(ap, rh, profile, gamma),
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
        out = asdict(self)
        if not math.isfinite(self.q0):
            out["q0"] = "inf"
        return out


def evaluate_bounds(
    w: Weight,
    grid: DyadicGrid,
    p0: float,
    q0: float,
    epsilon: Optional[float] = None,
) -> BoundsReport:
    """Compute every closed-form bound for ``w`` over the (p0, q0) window,
    which must satisfy ``1 <= p0 < 2 < q0 <= ∞`` (else ``ConfigError``);
    ``epsilon`` defaults to the proven maximum
    :func:`~weightlab.profiles.admissible_epsilon` and may not exceed it
    (else ``EpsilonOutOfRangeError``)."""
    profile = ExponentProfile(p0, q0)
    q0s = profile.q0_star
    ap = ap_constant(w, profile.ap_index, grid)
    # RH_1 compares every cube average with itself, so the characteristic is 1.
    rh = 1.0 if q0s == 1.0 else rh_constant(w, q0s, grid)
    a_inf = a_infty_fw(w, grid)
    a_inf_pow = a_infty_fw(pow_weight(w, q0s), grid)
    eps_max = admissible_epsilon(q0s, a_inf_pow)
    eps = eps_max if epsilon is None else float(epsilon)
    gamma = gamma_rate(q0s, eps, eps_max)
    eta = _eta(rh, a_inf, eps, gamma)
    loss_chain = loss_chain_values(  # at the proven gap, whatever ε is asked for
        ap, rh, a_inf, profile, eps_max, gamma if epsilon is None else gamma_rate(q0s, eps_max)
    )
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
        weak_bound=math.sqrt(ap * rh * eta),
        strong_bound=(ap * rh) ** profile.strong_exponent,
        bridge_index=profile.bridge_index,
        comparison=exponent_comparison(profile, gamma),
        loss_chain=loss_chain,
    )
