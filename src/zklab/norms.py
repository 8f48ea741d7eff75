"""Function-space norms on fields and trajectories.

Spatial norms are exact lattice quadratures under the series-coefficient
convention of :mod:`zklab.spectral` (Parseval: ||u||_L2^2 = lx*ly*sum|uhat|^2).
Time quadrature of mixed norms is trapezoidal on the sampled window; the
Bourgain-type norm uses the windowed temporal DFT with the periodic
rectangle convention, so at s = b = 0 it reproduces the windowed space-time
L2 norm exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import spectral_kernel
from .errors import ResolutionError, UsageError
from .forms import DispersionForm
from .littlewood_paley import LPProjector
from .quadrature import trapezoid_weights
from .spectral import Field
from .trajectory import SpaceTimeField

__all__ = ["NormReport", "sobolev_norm", "besov_norm_2_1", "lebesgue_norm",
           "mixed_lebesgue_norm", "xsb_norm", "pvariation_norm",
           "twisted_variation", "y_half_proxy"]


@dataclass(frozen=True)
class NormReport:
    """One evaluated norm: name, value, parameters, discretization caveats."""

    name: str
    value: float
    params: dict = dc_field(default_factory=dict)
    caveat: str = ""

    def to_row(self) -> dict:
        row = {"name": self.name, "value": self.value}
        row.update({str(k): v for k, v in sorted(self.params.items())})
        row["caveat"] = self.caveat
        return row


# -- spatial norms ------------------------------------------------------------

def sobolev_norm(field: Field, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous-weight) norm via bracket weights on the lattice.

    The homogeneous variant weights by |zeta|^(2s); for s < 0 the zero mode
    is excluded, which makes it a seminorm on non-mean-free data.
    """
    if not -2.0 <= s <= 4.0:
        raise UsageError(f"s must lie in [-2, 4], got {s}")
    g = field.grid
    coeffs = field.coeffs
    if homogeneous:
        r2 = g.xi_grid ** 2 + g.eta_grid ** 2
        if s < 0:
            weights = np.zeros_like(r2)
            np.divide(1.0, r2 ** (-s), out=weights, where=r2 > 0)
        else:
            weights = r2 ** s
    else:
        weights = (1.0 + g.xi_grid ** 2 + g.eta_grid ** 2) ** s
    total = np.sum(weights * np.abs(coeffs) ** 2)
    return float(np.sqrt(g.area * total))


def besov_norm_2_1(field: Field, s: float) -> float:
    """l1 sum of dyadic-shell L2 norms: ||P_0 u|| + sum_N N^s ||P_N u||."""
    proj = LPProjector(field.grid)
    total = sobolev_norm(proj.apply(field, 0), 0.0)
    for n in proj.shells:
        total += n ** s * sobolev_norm(proj.apply(field, n), 0.0)
    return float(total)


def lebesgue_norm(field: Field, r: float) -> float:
    """Spatial L^r lattice quadrature (r = inf gives the sample maximum): the one-frame
    L^inf_t L^r_x norm."""
    return _lebesgue_qr(np.abs(field.values)[None], 0.0, np.inf, r, field.grid.cell_area)


# -- space-time norms ---------------------------------------------------------

def _lebesgue_qr(values: np.ndarray, dt: float, q: float, r: float, cell_area: float) -> float:
    """mixed_lebesgue_norm of real frames (K, nx, ny) with step dt; overwrites them."""
    vals = np.abs(values, out=values)
    if np.isinf(r):
        framewise = vals.max(axis=(1, 2))
    else:
        if r < 1:
            raise UsageError(f"r must be >= 1, got {r}")
        framewise = (np.sum(np.power(vals, r, out=vals), axis=(1, 2)) * cell_area) ** (1.0 / r)
    if np.isinf(q):
        return float(framewise.max())
    if q < 1:
        raise UsageError(f"q must be >= 1, got {q}")
    weights = trapezoid_weights(len(framewise), dt)
    return float(np.sum(weights * framewise ** q) ** (1.0 / q))


def mixed_lebesgue_norm(stf: SpaceTimeField, q: float, r: float) -> float:
    """L^q in time of the spatial L^r norm, trapezoid rule over the window."""
    return _lebesgue_qr(stf.values(), stf.dt, q, r, stf.grid.cell_area)


def xsb_norm(stf: SpaceTimeField, s: float, b: float, form: DispersionForm) -> float:
    """Windowed Bourgain norm with weights <zeta>^s <tau - omega(zeta)>^b.

    The temporal weight is computed on the finite tau lattice of the Hann
    windowed DFT, which is honest only for b in [0, 1]; larger b would be
    dominated by window leakage and is rejected.
    """
    if not 0.0 <= b <= 1.0:
        raise UsageError(f"b must lie in [0, 1] (leakage dominates beyond), got {b}")
    if stf.num_frames < 8:
        raise ResolutionError("xsb_norm needs at least 8 time samples")
    g = stf.grid
    cmod = stf.temporal_transform()
    mu = stf.tau[:, None, None] - spectral_kernel(g, form).omega[None, :, :]
    wt = (1.0 + g.xi_grid ** 2 + g.eta_grid ** 2)[None, :, :] ** s * (1.0 + mu ** 2) ** b
    total = np.sum(wt * np.abs(cmod) ** 2)
    span = stf.num_frames * stf.dt
    return float(np.sqrt(g.area * span * total))


# -- discrete p-variation ------------------------------------------------------

def _as_vectors(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray) and samples.ndim >= 2 and samples.shape[0]:
        return samples.reshape(samples.shape[0], -1)
    rows = [np.asarray(s) for s in samples]
    if not rows:
        raise UsageError("p-variation needs at least one sample")
    if any(r.shape != rows[0].shape for r in rows):
        raise UsageError("samples must share a common shape")
    return np.stack(rows).reshape(len(rows), -1)


def _support(samples: np.ndarray) -> np.ndarray:
    """Columns non-zero in some sample; the rest add exactly 0 to every increment."""
    return np.any(samples != 0, axis=0)


def pvariation_norm(samples, p: float) -> float:
    """Discrete V^p norm: sup over subsequences of (sum ||increments||^p)^(1/p).

    Dynamic program over K^2 subproblems; exact for the sampled sup, which
    only ranges over partitions drawn from the given sample times.  Columns
    zero in every sample are dropped: O(K^2 * support), not O(K^2 * columns).
    """
    if not (np.isfinite(p) and p >= 1):
        raise UsageError(f"p must be finite and >= 1, got {p}")
    vecs = _as_vectors(samples)
    k = vecs.shape[0]
    if k < 2:
        return 0.0
    vecs = vecs[:, _support(vecs)]
    cum = np.zeros(k)
    for j in range(1, k):
        d = np.linalg.norm(vecs[:j] - vecs[j], axis=1)
        cum[j] = np.max(cum[:j] + d ** p)
    return float(cum[-1] ** (1.0 / p))


def _column_counts(grid, cols: np.ndarray) -> np.ndarray:
    """How often half-spectrum columns ``cols`` occur in the full spectrum: column 0 and
    the Nyquist column once, every other column twice, with its conjugate partner."""
    return np.where((cols > 0) & (cols < grid.ny // 2), 2.0, 1.0)


def _twisted(grid, times, vals, rows, cols, p: float, form: DispersionForm) -> float:
    """twisted_variation of frames (K, S) gathered at the lattice points (rows, cols)."""
    keep = _support(vals)
    phases = spectral_kernel(grid, form).phase(-times, (rows[keep], cols[keep]))
    scale = np.sqrt(_column_counts(grid, cols[keep]) * grid.area)
    return pvariation_norm(vals[:, keep] * phases * scale, p)


def twisted_variation(stf: SpaceTimeField, p: float, form: DispersionForm) -> float:
    """V^p norm of t -> exp(-t S) u(t), the U^2-proxy used throughout.

    Free solutions give exactly 0.  Coefficient vectors are scaled so that
    the l2 distance matches the spatial L2 norm; on the trajectory's block a
    column that stands for two columns of the full spectrum is scaled by sqrt 2.
    The modes non-zero in some frame are gathered once; phase and DP run on them only.
    """
    rows, cols = np.nonzero(_support(stf.block))
    return _twisted(stf.grid, stf.times, stf.block[:, rows, cols], rows, cols, p, form)


def y_half_proxy(stf: SpaceTimeField, form: DispersionForm) -> float:
    """Shell-summed proxy for the Y^(1/2) norm.

    Core-block twisted V^2 plus sum_N N^(1/2) times the shell twisted V^2, each block
    weighting the trajectory gathered once on its support.  It stands in for the atomic
    U^2-based space; reports that quote it are labeled as the V^2 proxy.
    """
    g, lp = stf.grid, LPProjector(stf.grid)
    rows, cols = np.nonzero(_support(stf.block))
    vals, total = stf.block[:, rows, cols], 0.0
    for block in lp.blocks():
        tv = _twisted(g, stf.times, vals * lp.weight(block)[rows, cols], rows, cols, 2.0, form)
        total += tv if block == 0.0 else np.sqrt(block) * tv
    return float(total)
