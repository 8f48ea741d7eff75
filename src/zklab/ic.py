"""Named initial-condition presets and seeded random ensembles.

Every random generator here is a pure function of (grid, seed, parameters),
which is what makes the probe reports and CLI runs reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError
from .spectral import Field, Grid2D, dealias, make_field
from .norms import sobolev_norm

__all__ = ["PRESETS", "make_initial", "gaussian_bump", "cosine_mode",
           "two_pulses", "random_band_limited", "shell_field"]


def gaussian_bump(grid: Grid2D, amplitude: float = 1.0, sigma: float = 1.0) -> Field:
    """Centered Gaussian; effectively compactly supported when sigma << box."""
    x0, y0 = 0.5 * grid.lx, 0.5 * grid.ly
    xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
    vals = amplitude * np.exp(-((xg - x0) ** 2 + (yg - y0) ** 2) / (2.0 * sigma ** 2))
    return make_field(grid, vals)


def cosine_mode(grid: Grid2D, amplitude: float = 1.0, jx: int = 1, jy: int = 0,
                phase: float = 0.0) -> Field:
    xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
    arg = 2.0 * np.pi * (jx * xg / grid.lx + jy * yg / grid.ly) + phase
    return make_field(grid, amplitude * np.cos(arg))


def two_pulses(grid: Grid2D, c1: float = 1.0, c2: float = 0.5,
               x1: float | None = None, x2: float | None = None) -> Field:
    """Two y-uniform sech^2 pulses of KdV line-soliton shape.

    u = (3c/2) sech^2(sqrt(c) (x - x_i) / 2) solves the x-only reduction, so
    the pair makes a good interaction/stability test bed.
    """
    if x1 is None:
        x1 = 0.3 * grid.lx
    if x2 is None:
        x2 = 0.6 * grid.lx
    xg = grid.x[:, None] + 0.0 * grid.y[None, :]

    def pulse(c, x0):
        # wrap the distance so the pulse is periodic on the box
        d = (xg - x0 + 0.5 * grid.lx) % grid.lx - 0.5 * grid.lx
        return 1.5 * c / np.cosh(0.5 * np.sqrt(c) * d) ** 2

    return make_field(grid, pulse(c1, x1) + pulse(c2, x2))


def random_band_limited(grid: Grid2D, seed: int, kmax: float | None = None,
                        envelope: float | None = None, amplitude: float = 1.0,
                        norm: str | None = None, norm_s: float = 0.0) -> Field:
    """Smooth random field: white noise shaped by a Gaussian spectral envelope
    and truncated at radius kmax (default ``grid.band_radius``), zero mean.

    ``norm='h1'``-style requests rescale so sobolev_norm(u, norm_s) equals
    ``amplitude``; with norm=None, amplitude multiplies the raw unit-variance
    field.
    """
    rng = np.random.default_rng(seed)
    coeffs = make_field(grid, rng.standard_normal((grid.nx, grid.ny))).coeffs
    r = grid.abs_zeta
    keep = r <= (grid.band_radius if kmax is None else kmax)
    if envelope is not None:
        coeffs = coeffs * np.exp(-(r / envelope) ** 2 / 2.0)
    coeffs = np.where(keep, coeffs, 0.0)
    coeffs[0, 0] = 0.0
    out = dealias(Field(grid, coeffs, "spectral"))
    if norm is not None:
        if norm != "sobolev":
            raise ConfigurationError(f"unknown normalization {norm!r}; use 'sobolev'")
        current = sobolev_norm(out, norm_s)
        if current == 0:
            raise DataError("cannot normalize the zero field")
        return Field(grid, out.coeffs * (amplitude / current), "spectral")
    rms = float(np.sqrt(np.mean(out.values ** 2)))
    if rms > 0:
        out = Field(grid, out.coeffs * (amplitude / rms), "spectral")
    return out


def shell_field(grid: Grid2D, n: float, seed: int) -> Field:
    """Unit-L2 random data supported on the octave annulus centered at n
    (|zeta| in (n/sqrt(2), n*sqrt(2)]), clipped to the dealias band."""
    rng = np.random.default_rng(seed)
    coeffs = make_field(grid, rng.standard_normal((grid.nx, grid.ny))).coeffs
    r = grid.abs_zeta
    keep = (r > n / np.sqrt(2.0)) & (r <= n * np.sqrt(2.0))
    field = dealias(Field(grid, np.where(keep, coeffs, 0.0), "spectral"))
    total = float(np.sqrt(np.sum(np.abs(field.coeffs) ** 2) * grid.area))
    if total == 0:
        raise DataError(f"shell at |zeta| ~ {n} has no lattice modes inside "
                        "the dealias band on this grid")
    return Field(grid, field.coeffs * (1.0 / total), "spectral")


PRESETS = {
    "gaussian": gaussian_bump,
    "cosine-mode": cosine_mode,
    "two-pulses": two_pulses,
    "random": random_band_limited,
}


def make_initial(grid: Grid2D, name: str, **params) -> Field:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown initial-condition preset {name!r}; "
            f"choose from {sorted(PRESETS)}") from None
    try:
        return builder(grid, **params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for preset {name!r}: {exc}") from None
