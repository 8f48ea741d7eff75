"""Scaling symmetry and the rotation to the symmetrized frame.

Rescaling u -> lambda^2 u(lambda x, lambda y) is exact on the lattice: the
coefficients are scaled by lambda^2 and the box periods by 1/lambda, with no
resampling (mode indices are preserved).

The rotation substitutes xi = a(xi' + eta'), eta = b(xi' - eta') with
b^2 = 3 a^2 and 4 a^3 = 1, which carries the original dispersion
xi^3 + xi eta^2 into xi'^3 + eta'^3 exactly; the amplitude factor a makes
the transformed nonlinearity coefficient exactly 1.  On the torus the image
lattice is sheared, so the mapped field is realized by evaluating the
trigonometric interpolant at the mapped nodes of the field's own grid; the
residual of conjugacy checks is pure discretization (aliasing plus
periodization) error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import UsageError
from .spectral import Field, Grid2D

__all__ = ["RotationMap", "rescale", "rotate_to_symmetrized", "rotate_from_symmetrized"]


def rescale(field: Field, lam: float) -> Field:
    """u -> lambda^2 u(lambda .): amplitude * lambda^2, periods / lambda."""
    if not lam > 0:
        raise UsageError(f"lambda must be positive, got {lam}")
    g = field.grid
    new_grid = Grid2D(g.nx, g.ny, g.lx / lam, g.ly / lam)
    return Field(new_grid, field.coeffs * lam ** 2, "spectral")


@dataclass(frozen=True)
class RotationMap:
    """Constants of the frame change, fixed by dispersion-symbol matching
    (4 a^3 = 1, b^2 = 3 a^2)."""

    a: ClassVar[float] = 0.25 ** (1.0 / 3.0)

    @property
    def b(self) -> float:
        return np.sqrt(3.0) * self.a

    @property
    def amplitude(self) -> float:
        """Field scale factor making the symmetrized nonlinearity coefficient 1."""
        return self.a

    def to_original(self, xi_s, eta_s):
        """Frequency map A: symmetrized lattice -> original frequencies."""
        return self.a * (xi_s + eta_s), self.b * (xi_s - eta_s)

    def to_symmetrized(self, xi, eta):
        """Inverse frequency map A^{-1}."""
        return xi / (2.0 * self.a) + eta / (2.0 * self.b), \
            xi / (2.0 * self.a) - eta / (2.0 * self.b)

    def point_map_to_original(self, xs, ys):
        """Spatial map M = A^{-T}: symmetrized-frame points -> original frame."""
        return (xs + ys) / (2.0 * self.a), (xs - ys) / (2.0 * self.b)

    def point_map_to_symmetrized(self, x, y):
        """Spatial map M^{-1} = A^T."""
        return self.a * x + self.b * y, self.a * x - self.b * y


def _resample(field: Field, point_map, amplitude: float) -> Field:
    """amplitude * u(point_map applied around the box centers) on the
    field's own grid, via exact series evaluation.

    The linear map is applied to offsets from the box centers rather than to
    absolute coordinates: the shortest vector of the mapped period lattice
    is longer than the box circumradius, so every target node then reads
    exactly one periodic image of a centered bump instead of a wrapped one.
    Writing the source phase as exp(i xi_j p) * exp(i eta_k q) factorizes
    the double sum into one matrix product per axis.
    """
    g = field.grid
    coeffs = field.coeffs
    xs = g.x[:, None] + 0.0 * g.y[None, :]
    ys = 0.0 * g.x[:, None] + g.y[None, :]
    dx, dy = point_map(xs.ravel() - 0.5 * g.lx, ys.ravel() - 0.5 * g.ly)
    px, py = dx + 0.5 * g.lx, dy + 0.5 * g.ly
    # u(p, q) = sum_j e^{i xi_j p} * [sum_k coeffs[j, k] e^{i eta_k q}]
    inner = coeffs @ np.exp(1j * np.outer(g.eta, py))       # (nx, npts)
    outer = np.exp(1j * np.outer(g.xi, px))                 # (nx, npts)
    vals = np.sum(outer * inner, axis=0).real * amplitude
    return Field(g, vals.reshape(g.nx, g.ny), "physical")


_ROTATION = RotationMap()


def rotate_to_symmetrized(field: Field) -> Field:
    """Re-express an original-frame field in the symmetrized frame.

    w(x', y') = a * u(M(x', y')) on the field's own box.  Meaningful for
    bump-like data that decay inside the box (the torus has no exact rotated
    lattice).
    """
    return _resample(field, _ROTATION.point_map_to_original, _ROTATION.amplitude)


def rotate_from_symmetrized(field: Field) -> Field:
    """Inverse frame change: u(x, y) = (1/a) * w(M^{-1}(x, y))."""
    return _resample(field, _ROTATION.point_map_to_symmetrized, 1.0 / _ROTATION.amplitude)
