"""The two dispersion forms of the equation.

Original form:     u_t + u_xxx + u_xyy + (u^2)_x = 0,
                   free propagator multiplier exp(i t (xi^3 + xi eta^2)).
Symmetrized form:  u_t + u_xxx + u_yyy + (u^2)_x + (u^2)_y = 0,
                   free propagator multiplier exp(i t (xi^3 + eta^3)).

Both lattice symbols are odd and follow the Nyquist rule stated in ``spectral``
(omega reads ``Grid2D.nyquist_mask``, the nonlinear derivative ``xi_odd``).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .spectral import Grid2D

__all__ = ["DispersionForm"]


class DispersionForm(Enum):
    ORIGINAL = "original"
    SYMMETRIZED = "symmetrized"

    @classmethod
    def parse(cls, name: str) -> "DispersionForm":
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ConfigurationError(
                f"form: expected 'original' or 'symmetrized', got {name!r}") from None

    def omega(self, grid: Grid2D) -> np.ndarray:
        """Dispersion polynomial on the lattice, Nyquist lines zeroed."""
        return np.where(grid.nyquist_mask,
                        self.omega_scalar(grid.xi_grid, grid.eta_grid), 0.0)

    def omega_scalar(self, xi, eta):
        """Dispersion polynomial at arbitrary (xi, eta) points (no masking)."""
        xi = np.asarray(xi, dtype=np.float64)
        eta = np.asarray(eta, dtype=np.float64)
        # products, not powers, keep omega exactly odd (x ** 3 may round unevenly)
        if self is DispersionForm.ORIGINAL:
            return xi * xi * xi + xi * eta * eta
        return xi * xi * xi + eta * eta * eta

    def nonlinear_derivative(self, grid: Grid2D) -> np.ndarray:
        """Multiplier of the derivative acting on u^2 (i xi, or i (xi + eta))."""
        xi, eta = grid.xi_odd, grid.eta_odd
        if self is DispersionForm.ORIGINAL:
            return 1j * (xi[:, None] + 0.0 * eta[None, :])
        return 1j * (xi[:, None] + eta[None, :])
