"""Littlewood-Paley projections on the lattice.

The core block P_0 carries the profile ``chi(|zeta| / 0.5)`` and the dyadic
shell P_N (N = 1, 2, 4, ...) carries ``chi(|zeta| / N) - chi(|zeta| / (N/2))``.
Written this way consecutive shells cancel bit-for-bit, so the partition

    P_0 + sum_{N <= M} P_N  =  multiplier chi(|zeta| / M)

holds exactly in floating point; once M exceeds the lattice radius the sum
is exactly 1 on every lattice point.
"""

from __future__ import annotations

import numpy as np

from .bumps import chi
from .errors import UsageError
from .spectral import Field, Grid2D

__all__ = ["lp_project", "shell_weight", "dyadic_shells", "partition_values",
           "LPProjector", "is_dyadic"]


def is_dyadic(n: float) -> bool:
    """True for 2**k with integer k (including fractions like 0.5); False for inf and nan."""
    if not 0 < n < np.inf:
        return False
    m = np.log2(n)
    return float(m) == np.round(m)


def shell_weight(r: np.ndarray, block: float) -> np.ndarray:
    """Multiplier profile of one LP block evaluated at radii ``r``.

    ``block = 0`` is the core block; ``block = N`` (dyadic >= 1) the shell.
    """
    if block == 0:
        return chi(r / 0.5)
    if block < 1 or not is_dyadic(block):
        raise UsageError(f"shell index must be 0 or a dyadic >= 1, got {block!r}")
    return chi(r / block) - chi(r / (block * 0.5))


def lp_project(field: Field, block: float) -> Field:
    """Project onto the LP block (0 = core, dyadic N >= 1 = shell)."""
    return field.multiplier(shell_weight(field.grid.abs_zeta, block))


def dyadic_shells(grid: Grid2D) -> list[float]:
    """Shell indices [1, 2, 4, ...] whose support meets the lattice."""
    rmax = float(grid.abs_zeta.max())
    shells: list[float] = []
    block = 1.0
    while block * 0.5 < rmax:
        shells.append(block)
        block *= 2.0
    return shells


def partition_values(grid: Grid2D, top: float | None = None) -> np.ndarray:
    """Pointwise sum of P_0 + sum of shells up to ``top`` (default: all) over
    the lattice.  Shells past ``dyadic_shells`` weigh exactly 0 there."""
    projector = LPProjector(grid)
    total = projector.weight(0)
    for block in projector.shells:
        if top is None or block <= top:
            total = total + projector.weight(block)
    return total


class LPProjector:
    """Reusable family of LP multipliers for one grid (weights precomputed)."""

    def __init__(self, grid: Grid2D):
        self.grid = grid
        self.shells = dyadic_shells(grid)
        r = grid.abs_zeta
        self._weights = {0.0: shell_weight(r, 0)}
        for block in self.shells:
            self._weights[block] = shell_weight(r, block)

    def weight(self, block: float) -> np.ndarray:
        return self._weights[float(block)]

    def apply(self, field: Field, block: float) -> Field:
        if not field.grid.same_geometry(self.grid):
            raise UsageError("field grid does not match projector grid")
        return field.multiplier(self.weight(block))

    def blocks(self) -> list[float]:
        return [0.0] + list(self.shells)
