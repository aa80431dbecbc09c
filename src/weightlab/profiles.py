"""Every exponent formula and admissibility check of the two-exponent window.

An :class:`ExponentProfile` fixes the operator's boundedness window
``(p0, q0)`` with ``1 <= p0 < 2 < q0 <= ∞`` and a target Lebesgue exponent
``p`` in ``(p0, q0)`` (default 2); building one is the window check.  Its
exponents:

* ``q0_star = (q0/2)' = q0 / (q0 - 2)`` — the dual exponent governing the
  g-side averages of the quadratic sparse form (1 when ``q0 = ∞``);
* ``phi_p0 = p0 / (2 - p0)`` — the dual-weight moment exponent that makes the
  per-cube Muckenhoupt and Hölder steps of the p = 2 argument exact — and
  ``ap_index = 2/p0``, the Muckenhoupt index of the p = 2 bound;
* ``rh_index = (q0/p)'`` and, built on it, the strong-bound exponent, the
  lifted Muckenhoupt index and the extrapolation inflation at ``p``.

The self-improved reverse Hölder step at an integrability exponent
``1 < q0_star < ∞`` (:func:`check_q0_star`) admits every increment
``0 < ε ≤ q0*/(DIMENSIONAL_FACTOR·[w^{q0*}]_{A∞} − 1)``
(:func:`admissible_epsilon`) and loses the rate ``γ = ε/(q0*·(q0* + ε − 1))``
(:func:`gamma_rate`, which also checks ε).  A
:class:`GehringProfile` packages that data:

* ``theta = (q0_star + epsilon - 1) / (q0_star - 1)`` (> 1),
* ``theta_conj = theta / (theta - 1)`` — its Hölder conjugate,
* ``gamma`` — the rate, which equals ``1 / (theta_conj * q0_star)``; the
  identity is exact algebra, and the fields are kept separate so verifiers
  can cross-check them.

The checks raise :class:`ConfigError`, a ``ValueError``; the ε check raises
:class:`EpsilonOutOfRangeError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, EpsilonOutOfRangeError
from .weights import conjugate_exponent

DIMENSIONAL_FACTOR = 4.0  # 2^(d+1) with d = 1
SLACK = 1e-12  # relative rounding slack of every verified inequality


def check_q0_star(q0_star: float) -> float:
    """``q0_star`` as a float; the self-improvement step needs it in (1, ∞)."""
    q0_star = float(q0_star)
    if not q0_star > 1.0:
        raise ConfigError(f"the integrability exponent must be > 1, got {q0_star}")
    if q0_star == math.inf:
        raise ConfigError(f"the integrability exponent must be finite, got {q0_star}")
    return q0_star


def admissible_epsilon(q0_star: float, a_infty_pow: float) -> float:
    """The proven increment ε_max = q0*/(DIMENSIONAL_FACTOR·[w^{q0*}]_{A∞} − 1)."""
    if not a_infty_pow >= 1.0:
        raise ConfigError(f"A∞ characteristic must be >= 1, got {a_infty_pow}")
    return q0_star / (DIMENSIONAL_FACTOR * a_infty_pow - 1.0)


def gamma_rate(
    q0_star: float, epsilon: float, epsilon_max: Optional[float] = None
) -> float:
    """Self-improvement rate γ = ε/(q0*·(q0* + ε − 1)) for ``q0_star >= 1``.

    This is also the ε check: ``epsilon`` must be positive and finite, and
    may exceed ``epsilon_max`` by at most ``SLACK`` relative."""
    if not q0_star >= 1.0:
        raise ConfigError(f"q0* must be >= 1, got {q0_star}")
    if not 0.0 < epsilon < math.inf:
        raise EpsilonOutOfRangeError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon_max is not None and epsilon > epsilon_max * (1.0 + SLACK):
        raise EpsilonOutOfRangeError(
            f"epsilon {epsilon} exceeds the admissible maximum {epsilon_max}"
        )
    return epsilon / (q0_star * (q0_star + epsilon - 1.0))


@dataclass(frozen=True)
class ExponentProfile:
    """Boundedness window (p0, q0) plus the target exponent p."""

    p0: float
    q0: float
    p: float = 2.0
    q0_star: float = field(init=False)

    def __post_init__(self) -> None:
        if not 1.0 <= self.p0 < 2.0:
            raise ConfigError(f"p0 must lie in [1, 2), got {self.p0}")
        if not self.q0 > 2.0:
            raise ConfigError(f"q0 must lie in (2, ∞], got {self.q0}")
        if not self.p0 < self.p < self.q0:
            raise ConfigError(
                f"target exponent p={self.p} must lie in (p0, q0) = ({self.p0}, {self.q0})"
            )
        q0_star = 1.0 if math.isinf(self.q0) else self.q0 / (self.q0 - 2.0)
        object.__setattr__(self, "q0_star", q0_star)

    @property
    def phi_p0(self) -> float:
        """Dual-weight moment exponent p0/(2-p0) used by the p = 2 argument."""
        return self.p0 / (2.0 - self.p0)

    @property
    def ap_index(self) -> float:
        """The Muckenhoupt index 2/p0 of the weight class for the p = 2 bound."""
        return 2.0 / self.p0

    @property
    def rh_index(self) -> float:
        """The reverse Hölder index (q0/p)' at the target; 1 when q0 = ∞."""
        return conjugate_exponent(self.q0 / self.p)

    @property
    def strong_exponent(self) -> float:
        """Joint-characteristic exponent γ(p) = max(1/(p−p0), (q0/p)'/(2·q0*))
        of the strong L^p bound; 1/(2−p0) at p = 2."""
        return max(1.0 / (self.p - self.p0), self.rh_index / (2.0 * self.q0_star))

    @property
    def bridge_index(self) -> float:
        """Muckenhoupt index φ(p) = (q0/p)'·(p/p0 − 1) + 1 of the power-lifted
        weight w^{(q0/p)'}; φ(p) = p/p0 when q0 = ∞."""
        return self.rh_index * (self.p / self.p0 - 1.0) + 1.0

    def inflation(self, anchor: float) -> float:
        """Inflation β = max(1, (q0−p)(anchor−p0)/((q0−anchor)(p−p0))) of the
        characteristic exponent when moving ``anchor`` to the target ``p``;
        β = max(1, (anchor−p0)/(p−p0)) when q0 = ∞.  The anchor must lie in
        the window (p0, q0) too."""
        p0, q0, p = self.p0, self.q0, self.p
        if not p0 < anchor < q0:
            raise ConfigError(f"anchor exponent {anchor} must lie in (p0, q0) = ({p0}, {q0})")
        if math.isfinite(q0):
            return max(1.0, (q0 - p) * (anchor - p0) / ((q0 - anchor) * (p - p0)))
        return max(1.0, (anchor - p0) / (p - p0))


@dataclass(frozen=True)
class GehringProfile:
    """Self-improvement data (q0_star, epsilon) with derived theta/gamma."""

    q0_star: float
    epsilon: float
    epsilon_max: float | None = None
    theta: float = field(init=False)
    theta_conj: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self) -> None:
        check_q0_star(self.q0_star)
        gamma = gamma_rate(self.q0_star, self.epsilon, self.epsilon_max)
        theta = (self.q0_star + self.epsilon - 1.0) / (self.q0_star - 1.0)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_conj", theta / (theta - 1.0))
        object.__setattr__(self, "gamma", gamma)
