"""Duhamel fixed-point iteration with a smooth time cutoff.

The map under iteration is

    (T u)(t) = chi(t/T) e^{tS} u0
             - int_0^t e^{(t-t')S} chi(t'/T) D(u^2)(t') dt',

D = d_x (original form) or d_x + d_y (symmetrized), the dealiased -D(u^2) being
the stepper's SpectralKernel.band_nonlinear on all nodes at once, and the cutoff a
literal smooth factor on both the free term and the Duhamel integrand.  The
integral is evaluated in twisted variables (g(t') = e^{-t'S} applied to the
integrand) with the fourth-order cumulative quadrature, so linear propagation
between nodes is exact.  Iterates live on the band block (``spectral`` docstring),
and so do their trajectories, differences and norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import chi
from .dynamics import spectral_kernel
from .errors import UsageError
from .forms import DispersionForm
from .spectral import Field
from .trajectory import SpaceTimeField
from .quadrature import cumulative_integral

__all__ = ["PicardResult", "picard_horizon", "picard_iterate"]


def picard_horizon(besov_half_norm: float, c0: float = 1.0) -> float:
    """T = min(1, 1/(4 c0 r)^6) with fixed-point radius r = 4 c0 ||u0||.

    c0 stands in for the constant of the bilinear estimate driving the
    contraction; c0 = 1.0 was fitted so that small-data runs on the default
    boxes contract with margin.
    """
    if not 0 <= besov_half_norm < np.inf:
        raise UsageError(f"norm must be finite and nonnegative, got {besov_half_norm}")
    r = 4.0 * c0 * besov_half_norm
    if r == 0:
        return 1.0
    return min(1.0, 1.0 / (4.0 * c0 * r) ** 6)


@dataclass(frozen=True)
class PicardResult:
    """All iterates plus the contraction record.

    Indexable like the list of iterates; ``diffs[n]`` is the Y^{1/2}-type
    proxy norm of iterate (n+1) minus iterate n, ``ratios`` the successive
    quotients.  ``contraction_failed`` is set instead of raising when the
    differences stop shrinking or an iterate norm doubles.
    """

    iterates: tuple
    diffs: tuple
    ratios: tuple
    contraction_failed: bool
    horizon: float
    form: DispersionForm

    def __len__(self):
        return len(self.iterates)

    def __getitem__(self, i):
        return self.iterates[i]

    def __iter__(self):
        return iter(self.iterates)


def picard_iterate(u0: Field, t_horizon: float, n_iter: int,
                   form: DispersionForm, num_nodes: int = 65) -> PicardResult:
    """Iterate u(0) = free solution, u(n+1) = T u(n) on the window [0, 2T].

    The window covers the full support of chi(t/T).
    """
    from .norms import _column_counts, y_half_proxy

    if not 0 < t_horizon < np.inf:
        raise UsageError(f"horizon must be positive and finite, got {t_horizon}")
    if n_iter < 1:
        raise UsageError("need at least one iteration")
    if num_nodes < 9:
        raise UsageError("need at least 9 quadrature nodes")
    grid = u0.grid
    kernel = spectral_kernel(grid, form)
    k = num_nodes
    dt = 2.0 * t_horizon / (k - 1)
    times = dt * np.arange(k)
    cut = chi(times / t_horizon)[:, None, None]

    band = np.s_[:, :grid.band_columns]
    phase = kernel.phase(times, band)
    free = phase * np.where(grid.dealias_mask[band], u0.spectral().coeffs[band], 0.0)

    def apply_map(coeffs):
        twisted = np.conj(phase) * (cut * kernel.band_nonlinear(coeffs))
        return cut * free + phase * cumulative_integral(twisted, dt)

    iterates = [free]
    for _ in range(n_iter):
        iterates.append(apply_map(iterates[-1]))

    stfs = tuple(SpaceTimeField(grid, 0.0, dt, it) for it in iterates)
    diffs = [y_half_proxy(SpaceTimeField(grid, 0.0, dt, b - a), form)
             for a, b in zip(iterates, iterates[1:])]
    ratios = tuple(diffs[n + 1] / diffs[n] if diffs[n] > 0 else 0.0
                   for n in range(len(diffs) - 1))
    counts = _column_counts(grid, np.arange(grid.band_columns))
    norms = [np.sqrt(np.sum(counts * np.abs(it) ** 2)) for it in iterates]
    failed = any(r > 1.0 for r in ratios) or any(n > 2.0 * norms[0] + 1e-30 for n in norms[1:])
    return PicardResult(iterates=stfs, diffs=tuple(diffs), ratios=ratios,
                        contraction_failed=failed, horizon=t_horizon, form=form)
