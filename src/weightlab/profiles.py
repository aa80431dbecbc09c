"""Exponent bookkeeping for the restricted-range weighted estimates.

An :class:`ExponentProfile` fixes the operator's boundedness window
``(p0, q0)`` with ``1 <= p0 < 2 < q0 <= ∞`` and the target Lebesgue exponent
``p`` (default 2). Derived quantities:

* ``q0_star = (q0/2)' = q0 / (q0 - 2)`` — the dual exponent governing the
  g-side averages of the quadratic sparse form (1 when ``q0 = ∞``);
* ``phi_p0 = p0 / (2 - p0)`` — the dual-weight moment exponent that makes the
  per-cube Muckenhoupt and Hölder steps of the p = 2 argument exact.

A :class:`GehringProfile` packages the self-improvement data for a reverse
Hölder exponent ``q0_star > 1`` and an increment ``epsilon > 0``:

* ``theta = (q0_star + epsilon - 1) / (q0_star - 1)`` (> 1),
* ``theta_conj = theta / (theta - 1)`` — its Hölder conjugate,
* ``gamma = 1 / (theta_conj * q0_star) = epsilon / (q0_star*(q0_star+epsilon-1))``
  — the exponent-loss rate; both identities are exact algebra and are kept as
  separate fields so verifiers can cross-check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import EpsilonOutOfRangeError


@dataclass(frozen=True)
class ExponentProfile:
    """Boundedness window (p0, q0) plus the target exponent p."""

    p0: float
    q0: float
    p: float = 2.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.p0 < 2.0:
            raise ValueError(f"p0 must lie in [1, 2), got {self.p0}")
        if not self.q0 > 2.0:
            raise ValueError(f"q0 must lie in (2, ∞], got {self.q0}")
        if not self.p0 < self.p < self.q0:
            raise ValueError(
                f"target exponent p={self.p} must lie in (p0, q0) = ({self.p0}, {self.q0})"
            )

    @property
    def q0_star(self) -> float:
        """(q0/2)' = q0/(q0-2); equals 1 when q0 = ∞."""
        if math.isinf(self.q0):
            return 1.0
        return self.q0 / (self.q0 - 2.0)

    @property
    def phi_p0(self) -> float:
        """Dual-weight moment exponent p0/(2-p0) used by the p = 2 argument."""
        return self.p0 / (2.0 - self.p0)

    @property
    def ap_index(self) -> float:
        """The Muckenhoupt index 2/p0 of the weight class for the p = 2 bound."""
        return 2.0 / self.p0


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
        if not self.q0_star > 1.0:
            raise ValueError(
                f"the self-improvement machinery needs q0_star > 1, got {self.q0_star}"
            )
        self.check_epsilon(self.epsilon, self.epsilon_max)
        theta = (self.q0_star + self.epsilon - 1.0) / (self.q0_star - 1.0)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_conj", theta / (theta - 1.0))
        object.__setattr__(
            self,
            "gamma",
            self.epsilon / (self.q0_star * (self.q0_star + self.epsilon - 1.0)),
        )

    @staticmethod
    def check_epsilon(epsilon: float, epsilon_max: float | None = None) -> None:
        """Refuse ``epsilon <= 0``, or above ``epsilon_max`` by over 1e-12 relative."""
        if not epsilon > 0.0:
            raise EpsilonOutOfRangeError(f"epsilon must be > 0, got {epsilon}")
        if epsilon_max is not None and epsilon > epsilon_max * (1 + 1e-12):
            raise EpsilonOutOfRangeError(
                f"epsilon {epsilon} exceeds the admissible maximum {epsilon_max}"
            )
