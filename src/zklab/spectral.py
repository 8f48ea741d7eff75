"""Periodic grid, field container, and the basic spectral operations.

Conventions fixed here and relied on everywhere else:

* Physical samples live on the uniform lattice ``x_j = j * lx / nx``,
  ``y_k = k * ly / ny`` with shape ``(nx, ny)`` and ``indexing="ij"``.
* Spectral data are Fourier *series* coefficients: the forward transform is
  ``fft2(u) / (nx * ny)``, so ``u(x, y) = sum_jk uhat[j, k] * exp(i(xi_j x + eta_k y))``
  with wavenumbers ``xi_j = 2*pi*j / lx`` on the centered index set
  ``{-nx/2, ..., nx/2 - 1}`` in FFT order (numpy's ``norm="forward"``).
* Transforms: ``Grid2D.to_physical`` / ``to_spectral``, ``irfft2`` / ``rfft2`` as two
  1-D passes that skip columns past a leading block, are the only 2-D ones.  Their
  spectral side must be Hermitian (``from_coefficients`` checks); a real odd symbol
  makes it anti-Hermitian, hence ``1j * to_physical(-1j * symbol * c)``.  On them sits
  ``Grid2D.band_product``, the one dealiased product (the stepper's and the I-method's).
* Quadrature: ``integral(u) = lx * ly * uhat[0, 0]`` and Parseval reads
  ``integral(|u|^2) = lx * ly * sum |uhat|^2``.
* Nyquist rule: the index -n/2 has no partner +n/2, so every odd-order
  symbol (odd derivatives, omega, the nonlinear derivative) is zeroed there
  to keep real fields real.  ``Grid2D.nyquist_mask``, ``xi_odd`` and
  ``eta_odd`` apply it; every symbol in the package reads them.
* Band block: Hermitian coefficients in the 2/3 band (``Grid2D.dealias_mask``) are fixed by their
  first ``band_columns``, the one layout of the stepper, Picard, the I-method and stepped
  trajectories.  ``SpaceTimeField`` stores such a leading block of half-spectrum columns, the
  half spectrum when given full frames; ``Field.coeffs`` and ``SpaceTimeField.coeffs`` are full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, UsageError

__all__ = ["Grid2D", "Field", "make_grid", "make_field", "from_coefficients",
           "derivative", "dealias"]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # every operator on a grid shares its cached arrays
    return arr


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic box [0, lx) x [0, ly) with power-of-two sampling."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if not isinstance(n, (int, np.integer)) or not _is_pow2(int(n)) or n < 8:
                raise DataError(f"{name} must be a power of two >= 8, got {n!r}")
        for name, length in (("lx", self.lx), ("ly", self.ly)):
            if not (float(length) > 0.0) or not np.isfinite(length):
                raise DataError(f"{name} must be a positive finite period, got {length!r}")

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(np.arange(self.nx) * (self.lx / self.nx))

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen(np.arange(self.ny) * (self.ly / self.ny))

    @cached_property
    def xi(self) -> np.ndarray:
        """Wavenumbers 2*pi*j/lx, FFT order, j in {-nx/2, ..., nx/2 - 1}."""
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.lx / self.nx))

    @cached_property
    def eta(self) -> np.ndarray:
        return _frozen(2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.ly / self.ny))

    @cached_property
    def jx(self) -> np.ndarray:
        """Integer modes j in FFT order, {0, ..., nx/2 - 1, -nx/2, ..., -1}."""
        return _frozen(np.fft.fftfreq(self.nx, 1.0 / self.nx).astype(np.int64))

    @cached_property
    def jy(self) -> np.ndarray:
        return _frozen(np.fft.fftfreq(self.ny, 1.0 / self.ny).astype(np.int64))

    @cached_property
    def xi_odd(self) -> np.ndarray:
        """xi zeroed on the Nyquist row (column 0 of nyquist_mask is the x rule)."""
        return _frozen(np.where(self.nyquist_mask[:, 0], self.xi, 0.0))

    @cached_property
    def eta_odd(self) -> np.ndarray:
        return _frozen(np.where(self.nyquist_mask[0], self.eta, 0.0))

    @cached_property
    def xi_grid(self) -> np.ndarray:
        return _frozen(self.xi[:, None] + 0.0 * self.eta[None, :])

    @cached_property
    def eta_grid(self) -> np.ndarray:
        return _frozen(0.0 * self.xi[:, None] + self.eta[None, :])

    @cached_property
    def abs_zeta(self) -> np.ndarray:
        return _frozen(np.hypot(self.xi_grid, self.eta_grid))

    @cached_property
    def band_index(self) -> tuple[int, int]:
        """Largest |j|, |k| the 2/3 rule keeps: int(nx / 3), int(ny / 3)."""
        return int(self.nx / 3.0), int(self.ny / 3.0)

    @cached_property
    def band_radius(self) -> float:
        """Radius of the largest disc inside the 2/3 band."""
        jmax_x, jmax_y = self.band_index
        return min(2.0 * np.pi * jmax_x / self.lx, 2.0 * np.pi * jmax_y / self.ly)

    @property
    def cell_area(self) -> float:
        return (self.lx / self.nx) * (self.ly / self.ny)

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """False on the unpaired Nyquist row j = -nx/2 and column k = -ny/2."""
        return _frozen((self.jx != -(self.nx // 2))[:, None]
                       & (self.jy != -(self.ny // 2))[None, :])

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: integer modes with |j| > nx/3 or |k| > ny/3 are dropped."""
        jmax_x, jmax_y = self.band_index
        return _frozen((np.abs(self.jx) <= jmax_x)[:, None] & (np.abs(self.jy) <= jmax_y)[None, :])

    @property
    def band_columns(self) -> int:
        """Leading half-spectrum columns that hold the 2/3 band, ny // 3 + 1."""
        return self.band_index[1] + 1

    def to_physical(self, coeffs: np.ndarray) -> np.ndarray:
        """Real samples (..., nx, ny) of Hermitian coefficients, full, half or leading block."""
        cols = np.fft.ifft(coeffs[..., :self.ny // 2 + 1], axis=-2, norm="forward")
        return np.fft.irfft(cols, n=self.ny, axis=-1, norm="forward")

    def to_spectral(self, values: np.ndarray, columns: int | None = None) -> np.ndarray:
        """Half-spectrum coefficients of real samples, or their first ``columns`` columns."""
        rows = np.fft.rfft(values, axis=-1, norm="forward")[..., :columns]
        return np.fft.fft(rows, axis=-2, norm="forward")

    def band_product(self, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
        """(a_p b_p)^ on the band block of to_physical inputs; b = a (one transform) by default."""
        ap = self.to_physical(a)
        return self.to_spectral(ap * (ap if b is None or b is a else self.to_physical(b)),
                                self.band_columns)

    def full_spectrum(self, half: np.ndarray) -> np.ndarray:
        """(..., nx, ny) Hermitian coefficients from their half spectrum or a leading block."""
        full = np.zeros(half.shape[:-1] + (self.ny,), dtype=np.complex128)
        full[..., :half.shape[-1]] = half
        rows = -np.arange(self.nx) % self.nx
        full[..., self.ny // 2 + 1:] = np.conj(full[..., rows, self.ny // 2 - 1:0:-1])
        return full

    def same_geometry(self, other: "Grid2D") -> bool:
        return (self.nx == other.nx and self.ny == other.ny
                and np.isclose(self.lx, other.lx, rtol=1e-13, atol=0.0)
                and np.isclose(self.ly, other.ly, rtol=1e-13, atol=0.0))


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid2D:
    """Validated Grid2D constructor."""
    return Grid2D(int(nx), int(ny), float(lx), float(ly))


@dataclass(frozen=True)
class Field:
    """A scalar field on a Grid2D, in physical or spectral representation.

    Physical data are real float64 samples; spectral data are complex128
    series coefficients trusted to be Hermitian (a real field), which only
    ``from_coefficients`` checks.  Immutable; conversions return new objects.
    """

    grid: Grid2D
    data: np.ndarray
    space: str  # "physical" | "spectral"

    def __post_init__(self):
        if self.space not in ("physical", "spectral"):
            raise DataError(f"space must be 'physical' or 'spectral', got {self.space!r}")
        shape = (self.grid.nx, self.grid.ny)
        if self.data.shape != shape:
            raise DataError(f"data shape {self.data.shape} does not match grid {shape}")
        if self.space == "physical" and np.iscomplexobj(self.data):
            raise DataError("physical representation must be real-valued")

    # -- conversions ---------------------------------------------------------

    def spectral(self) -> "Field":
        if self.space == "spectral":
            return self
        return Field(self.grid, self.grid.full_spectrum(self.grid.to_spectral(self.data)),
                     "spectral")

    def physical(self) -> "Field":
        if self.space == "physical":
            return self
        return Field(self.grid, self.grid.to_physical(self.data), "physical")

    @property
    def coeffs(self) -> np.ndarray:
        return self.spectral().data

    @property
    def values(self) -> np.ndarray:
        return self.physical().data

    def multiplier(self, symbol: np.ndarray) -> "Field":
        """Apply a Fourier multiplier given as an (nx, ny) symbol array."""
        return Field(self.grid, self.coeffs * symbol, "spectral")


def make_field(grid: Grid2D, values: np.ndarray) -> Field:
    """Physical-space field from real samples."""
    values = np.asarray(values, dtype=np.float64)
    return Field(grid, values, "physical")


def from_coefficients(grid: Grid2D, coeffs: np.ndarray) -> Field:
    """Spectral field from the Hermitian series coefficients of a real field."""
    field = Field(grid, np.asarray(coeffs, dtype=np.complex128), "spectral")
    mirror = np.conj(np.roll(field.data[::-1, ::-1], 1, axis=(0, 1)))  # c(-zeta)*
    if np.max(np.abs(field.data - mirror)) > 1e-12 * np.max(np.abs(field.data)):
        raise DataError("coefficients must be Hermitian, c(-zeta) = conj c(zeta)")
    return field


def derivative(field: Field, ax: int, ay: int) -> Field:
    """Partial derivative d^ax/dx^ax d^ay/dy^ay via (i xi)^ax (i eta)^ay.

    Odd orders use the Nyquist rule (module docstring), so real fields stay real.
    """
    if ax < 0 or ay < 0:
        raise UsageError("derivative orders must be non-negative integers")
    g = field.grid
    mult_x = (1j * (g.xi_odd if ax % 2 else g.xi)) ** ax
    mult_y = (1j * (g.eta_odd if ay % 2 else g.eta)) ** ay
    return Field(g, field.coeffs * mult_x[:, None] * mult_y[None, :], "spectral")


def dealias(field: Field) -> Field:
    """Zero every mode outside the 2/3 band.  Idempotent."""
    return field.multiplier(field.grid.dealias_mask)
