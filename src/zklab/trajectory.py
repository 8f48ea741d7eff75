"""Space-time trajectories on a fixed grid, sampled at uniform times.

Temporal Fourier analysis uses the periodic Hann window
``w_l = (1 - cos(2 pi l / K)) / 2`` and the discrete frequencies
``tau_m = 2 pi m / (K dt)`` in FFT order.  All temporal transforms analyze
the *windowed* trajectory; complementary modulation projections therefore
reconstruct the windowed field.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bumps import chi
from .dynamics import spectral_kernel
from .errors import DataError, ResolutionError, UsageError
from .forms import DispersionForm
from .littlewood_paley import is_dyadic
from .spectral import Field, Grid2D

__all__ = ["SpaceTimeField", "modulation_project"]


def hann_window(k: int) -> np.ndarray:
    """Periodic Hann taper over k samples, the package's one time window."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(k) / k))


class SpaceTimeField:
    """Uniformly sampled trajectory of spectral frames.  It stores ``block``, the frames'
    leading half-spectrum columns (``spectral`` docstring).  The constructor takes, as
    ``Grid2D.to_physical`` does, full (K, nx, ny) coefficients, trusted to be Hermitian as
    in ``Field``, of which it keeps a copy of the half spectrum, or such a block, which it
    keeps as given; the ``coeffs`` attribute is the full spectrum, built on first read."""

    def __init__(self, grid: Grid2D, t0: float, dt: float, coeffs: np.ndarray):
        if coeffs.ndim != 3 or coeffs.shape[1] != grid.nx or not (
                coeffs.shape[2] == grid.ny or coeffs.shape[2] <= grid.ny // 2 + 1):
            raise DataError(f"coeffs shape {coeffs.shape} does not match grid")
        if coeffs.shape[0] < 1:
            raise DataError("a trajectory needs at least one frame")
        if not (0.0 < dt < np.inf) and coeffs.shape[0] > 1:
            raise DataError("dt must be finite and positive for multi-frame trajectories")
        block = coeffs[:, :, :grid.ny // 2 + 1]
        vars(self).update(grid=grid, t0=t0, dt=dt,
                          block=block if block.shape == coeffs.shape else block.copy())

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The (K, nx, ny) full spectrum of every frame."""
        return self.grid.full_spectrum(self.block)

    @property
    def num_frames(self) -> int:
        return self.block.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_frames)

    @property
    def span(self) -> float:
        """Window length t_end - t_0."""
        return self.dt * (self.num_frames - 1)

    def frame(self, index: int) -> Field:
        return Field(self.grid, self.grid.full_spectrum(self.block[index]), "spectral")

    def values(self) -> np.ndarray:
        """Physical samples of every frame, shape (K, nx, ny), real."""
        return self.grid.to_physical(self.block)

    # -- temporal analysis ----------------------------------------------------

    @property
    def tau(self) -> np.ndarray:
        """Temporal frequencies 2*pi*fftfreq(K, dt), FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.num_frames, d=self.dt)

    def windowed(self) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.t0, self.dt,
                              self.block * hann_window(self.num_frames)[:, None, None])

    def temporal_transform(self) -> np.ndarray:
        """DFT in time of the windowed frames: c[m] = (1/K) sum_l w_l u_l e^{-i 2 pi m l / K}."""
        if self.num_frames < 8:
            raise ResolutionError("temporal transforms need at least 8 samples")
        return np.fft.fft(self.windowed().coeffs, axis=0) / self.num_frames

    def from_temporal_transform(self, cmod: np.ndarray) -> "SpaceTimeField":
        frames = np.fft.ifft(cmod, axis=0) * self.num_frames
        return SpaceTimeField(self.grid, self.t0, self.dt, frames)


def _modulation_weights(stf: SpaceTimeField, scale: float, form: DispersionForm,
                        part: str) -> np.ndarray:
    if not is_dyadic(scale):
        raise UsageError(f"modulation scale must be dyadic >= 1, got {scale!r}")
    k = stf.num_frames
    if k < 8:
        raise ResolutionError("too few time samples for a modulation projection")
    tau_max = float(np.abs(stf.tau).max())
    bin_width = 2.0 * np.pi / (k * stf.dt)
    if scale > tau_max / 2.0 or scale < bin_width:
        raise ResolutionError(
            f"modulation scale {scale} outside the resolvable range "
            f"[{bin_width:.3g}, {tau_max / 2.0:.3g}] of this sampling")
    omega = spectral_kernel(stf.grid, form).omega
    # Zero the dispersion term on the temporal Nyquist bin so the multiplier
    # stays even under (zeta, tau) -> (-zeta, -tau) and real fields stay real.
    omega_eff = np.broadcast_to(omega, (k,) + omega.shape).copy()
    if k % 2 == 0:
        omega_eff[k // 2] = 0.0
    mu = stf.tau[:, None, None] - omega_eff
    if part == "shell":
        return chi(mu / scale) - chi(mu / (scale * 0.5))
    if part == "low":
        return chi(mu / (scale * 0.5))
    if part == "high":
        return 1.0 - chi(mu / (scale * 0.5))
    raise UsageError(f"part must be 'shell', 'low' or 'high', got {part!r}")


def modulation_project(stf: SpaceTimeField, scale: float,
                       form: DispersionForm, part: str = "shell") -> SpaceTimeField:
    """Project onto modulation scales of tau - omega(zeta).

    ``part="shell"`` applies the dyadic annulus psi((tau - omega)/M);
    ``"low"`` / ``"high"`` apply the complementary pair Q_{<M} / Q_{>=M},
    which sum to the identity on the windowed trajectory.
    """
    weights = _modulation_weights(stf, float(scale), form, part)
    return stf.from_temporal_transform(stf.temporal_transform() * weights)
