"""Positive weights on [0, 1) with exact L^t cell averages, duals, and powers.

Two representations:

* :class:`TabulatedWeight` — piecewise constant on the finest cells; every
  moment is an exact finite sum of cell values.
* :class:`PowerWeight` — ``w(x) = x**alpha``; the moment of every cube is
  computed from the antiderivative ``x**e / e`` with ``e = alpha*t + 1``, in a
  form that does not cancel (see :meth:`PowerWeight._levels`), so cubes
  touching the singularity at 0 are handled exactly. A moment exponent ``t`` is
  admissible iff ``alpha * t > -1``; inadmissible moments raise
  :class:`~weightlab.errors.DivergentMomentError` — they are never clamped,
  because silent clamping would corrupt the supremum-type characteristics.

All instances are immutable. A power ``w**s`` is a view of the same class on
its base weight's data and moment store: its moment ``t`` is the base's moment
``s*t``. The store memoises one read-only heap of cube totals (a pyramid) per
``(depth, s*t)``; an entry depends on nothing else, so every view fills it
with the same bytes (pure, deterministic recomputation, so builds agree).
Every moment the package reads is a level built here (a stored heap, or the ε
probe's once-used levels, reduced in place), which is where admissibility is checked.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .errors import DivergentMomentError, WrongLengthError
from .grid import DyadicCube, DyadicGrid, heap_levels, level_sums, sum_pairs, to_averages

_PyramidKey = Tuple[int, float]


class Weight:
    """Common machinery: cube-total heaps of ``w**t`` in a moment store.

    ``_s`` is the exponent relative to the base weight that owns the data and
    the store (1 for a base weight); moment ``t`` of this weight is the base's
    moment ``u = _s * t``, which keys the store and drives every computation.
    """

    def __init__(self) -> None:
        self._pyramids: Dict[_PyramidKey, np.ndarray] = {}
        self._s = 1.0

    # --- contract to implement -------------------------------------------------
    def moment_admissible(self, t: float) -> bool:
        raise NotImplementedError

    def cell_integrals(self, grid: DyadicGrid, t: float, out=None) -> np.ndarray:
        """Exact per-cell integrals ``∫_cell w(x)**t dx`` (length 2**depth), or in ``out``
        (a contiguous array)."""
        raise NotImplementedError

    def power(self, s: float) -> "Weight":
        """The pointwise power ``w**s``, a view on this weight's moment store."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # --- shared machinery ------------------------------------------------------
    def _view(self, s: float) -> "Weight":
        """A shallow copy sharing the base data and store, with exponent ``_s·s``."""
        view = copy.copy(self)
        view._s = self._s * float(s)
        return view

    def require_moment(self, t: float) -> None:
        if not self.moment_admissible(t):
            raise DivergentMomentError(
                f"moment exponent t={t} diverges for weight {self.describe()}"
            )

    def pyramid(self, grid: DyadicGrid, t: float) -> np.ndarray:
        """Heap of cube totals ``∫_Q w**t`` for all cubes, cached per (depth, _s·t).

        The heap is read-only: the store is shared by all powers of the base
        weight, so a write through one would corrupt the others.
        """
        key = (grid.depth, self._s * float(t))
        pyr = self._pyramids.get(key)
        if pyr is None:
            pyr = self.cube_totals(grid, t)
            pyr.setflags(write=False)
            self._pyramids[key] = pyr
        return pyr

    def cube_totals(self, grid: DyadicGrid, t: float) -> np.ndarray:
        """Uncached :meth:`pyramid`: tree sums of cell integrals formed in its finest level."""
        heap = np.empty(grid.cube_count)
        self.cell_integrals(grid, t, heap_levels(heap)[-1])
        return sum_pairs(heap)

    def level_totals(self, grid: DyadicGrid, t: float) -> Iterator[np.ndarray]:
        """Uncached :meth:`pyramid` levels, fine to coarse: :func:`level_sums` of cell integrals."""
        return level_sums(self.cell_integrals(grid, t))

    def level_averages(self, grid: DyadicGrid, t: float) -> np.ndarray:
        """A fresh heap of ``⨍_Q w**t`` (cube averages of the t-th power)."""
        return to_averages(self.pyramid(grid, t).copy())

    def cube_integral(self, grid: DyadicGrid, cube: DyadicCube, t: float = 1.0) -> float:
        return float(self.pyramid(grid, t)[cube.heap_id])


class TabulatedWeight(Weight):
    """Strictly positive piecewise-constant weight on the finest cells."""

    def __init__(self, values: Sequence[float] | np.ndarray) -> None:
        super().__init__()
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise WrongLengthError("tabulated weight needs a nonempty 1-D value vector")
        if arr.size & (arr.size - 1):
            raise WrongLengthError(
                f"tabulated weight needs 2**L values, got {arr.size}"
            )
        _require_finite_positive(arr)
        arr.setflags(write=False)
        self._base = arr
        # x**s is monotone in x, so a power is valid iff both extremes stay valid
        self._extremes = np.array([arr.min(), arr.max()])

    @property
    def values(self) -> np.ndarray:
        """Cell values of this power at the tabulated depth (``base**_s``)."""
        return self._base if self._s == 1.0 else self._base**self._s

    @property
    def native_depth(self) -> int:
        return int(self._base.size).bit_length() - 1

    def moment_admissible(self, t: float) -> bool:
        return True

    def cell_integrals(self, grid: DyadicGrid, t: float, out=None) -> np.ndarray:
        if grid.depth < self.native_depth:
            raise WrongLengthError(
                f"grid depth {grid.depth} is coarser than the tabulated depth {self.native_depth}"
            )
        out = np.empty(grid.n_cells) if out is None else out
        out.reshape(self._base.size, -1)[...] = self._base[:, None]  # refined by repetition
        with np.errstate(over="ignore"):  # a power past the double range is inf
            out **= self._s * float(t)
            out *= grid.cell_measure
        return out

    def power(self, s: float) -> "TabulatedWeight":
        view = self._view(s)
        with np.errstate(over="ignore"):  # reported below, naming the power
            extremes = self._extremes**view._s
        for value, powered in zip(self._extremes.tolist(), extremes.tolist()):
            if not 0.0 < powered < math.inf:
                raise ValueError(
                    f"the power w**{view._s:g} of {self.describe()} leaves the double "
                    f"range: its value {value:g} gives {value:g}**{view._s:g} = {powered:g}"
                )
        return view

    def describe(self) -> str:
        return f"tabulated[{self._base.size} cells]"


def _require_finite_positive(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)) or not np.all(values > 0.0):
        raise ValueError("tabulated weight values must be finite and strictly positive")


class PowerWeight(Weight):
    """Analytic power weight ``w(x) = x**alpha`` with exact moments."""

    def __init__(self, alpha: float) -> None:
        super().__init__()
        self._alpha = _require_integrable(float(alpha))

    @property
    def alpha(self) -> float:
        """Exponent of this power: the base exponent times ``_s``."""
        return self._alpha * self._s

    def moment_admissible(self, t: float) -> bool:
        return self._alpha * (self._s * float(t)) > -1.0

    def _levels(self, grid: DyadicGrid, t: float, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, the finest cells or a whole heap, with the integrals of
        ``x**(e-1)``, ``e = alpha*t + 1 > 0``, over its cubes, each straight from
        the antiderivative ``x**e / e``.

        Cube ``i`` of a level, ``[a, b)``, gets ``b**e / e * (1 - (a/b)**e)`` with
        ``1 - (a/b)**e = -expm1(-e * log1p(1/i))``: nothing cancels, and no factor
        but ``1/e`` leaves [0, 1], so only an integral below the double range
        underflows. A left-edge cube gets ``2**(-k*e) / e`` rounded once, and
        ``e = 1`` gives the cube lengths exactly.
        """
        self.require_moment(t)
        e = self._alpha * (self._s * float(t)) + 1.0
        levels = [out] if out.size == grid.n_cells else heap_levels(out)
        if e == 1.0:
            for view in levels:
                view.fill(1.0 / view.size)
            return out
        n = grid.n_cells
        gap = np.arange(n, dtype=np.float64)  # 1 - (a/b)**e by cube index
        # b**e / e at the finest right ends, built in the finest view (in place,
        # sparing temporaries); level k's right ends are every 2**(depth-k)-th
        right = levels[-1]
        np.add(gap, 1.0, out=right)
        right /= n
        np.power(right, e, out=right)
        right /= e
        rest = gap[1:]
        np.reciprocal(rest, out=rest)
        np.log1p(rest, out=rest)
        rest *= -e
        np.expm1(rest, out=rest)
        np.negative(rest, out=rest)
        gap[0] = 1.0
        for view in levels[:-1]:
            stride = n // view.size
            np.multiply(right[stride - 1 :: stride], gap[: view.size], out=view)
        right *= gap
        return out

    def cell_integrals(self, grid: DyadicGrid, t: float, out=None) -> np.ndarray:
        return self._levels(grid, t, np.empty(grid.n_cells) if out is None else out)

    def cube_totals(self, grid: DyadicGrid, t: float) -> np.ndarray:
        """Every cube's integral from the antiderivative, not summed from cells."""
        return self._levels(grid, t, np.empty(grid.cube_count))

    def level_totals(self, grid: DyadicGrid, t: float) -> Iterator[np.ndarray]:
        """The levels of :meth:`cube_totals`, fine to coarse: no sums of cells."""
        return iter(heap_levels(self.cube_totals(grid, t))[::-1])

    def power(self, s: float) -> "PowerWeight":
        view = self._view(s)
        _require_integrable(view.alpha)
        return view

    def describe(self) -> str:
        return f"x^{self.alpha:g}"


def _require_integrable(alpha: float) -> float:
    if not math.isfinite(alpha) or alpha <= -1.0:
        raise DivergentMomentError(
            f"power weight exponent must be > -1 for local integrability, got {alpha}"
        )
    return alpha


def unit_weight() -> PowerWeight:
    """The constant weight 1 (power weight with exponent 0)."""
    return PowerWeight(0.0)


# --- basic operations -----------------------------------------------------------


def pow_weight(w: Weight, s: float) -> Weight:
    """Pointwise power ``w**s``: a view on ``w``'s moment store (admissibility
    of the result is enforced)."""
    return w.power(s)


def conjugate_exponent(p: float) -> float:
    """Hölder conjugate ``p' = p / (p - 1)`` for ``p`` in (1, ∞); ∞ maps to 1."""
    p = float(p)
    if math.isinf(p):
        return 1.0
    if not p > 1.0:
        raise ValueError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


def dual_weight(w: Weight, p: float) -> Weight:
    """Duality weight ``σ = w**(1 - p')``; for p = 2 this is ``1/w``."""
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"dual weight needs p in (1, ∞), got {p}")
    return w.power(1.0 - conjugate_exponent(p))


def measure(w: Weight, grid: DyadicGrid, cells: np.ndarray) -> float:
    """Weight measure ``w(E) = ∫_E w`` over a boolean cell mask, by exact cell sums."""
    return float((heap_levels(w.pyramid(grid, 1.0))[-1] * grid.check_mask(cells)).sum())


# --- composed moments (function times weight) -----------------------------------


def composed_moment_cells(
    grid: DyadicGrid, f_values: Sequence[float] | np.ndarray, w: Weight, t: float
) -> np.ndarray:
    """Per-cell ``∫_cell (|f| w)**t dx`` for piecewise-constant ``f``.

    Because ``f`` is constant on each finest cell, the composition's t-th
    moment factorises exactly as ``|f_cell|**t * ∫_cell w**t``, read from the store.
    """
    cells = heap_levels(w.pyramid(grid, t))[-1]  # a divergent moment raises first
    return np.abs(grid.check_values(f_values)) ** float(t) * cells


def weighted_l2_norm_sq(
    grid: DyadicGrid, f_values: Sequence[float] | np.ndarray, w: Weight
) -> float:
    """``∫ f(x)**2 w(x) dx`` for piecewise-constant ``f`` (exact)."""
    f = grid.check_values(f_values)
    return float(np.sum(f * f * heap_levels(w.pyramid(grid, 1.0))[-1]))
