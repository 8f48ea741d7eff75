"""Time evolution: exact free propagator and the ETDRK4 stepper.

The stepper integrates the dealiased Fourier-Galerkin system

    d/dt uhat = i omega(zeta) uhat - D(zeta) * P_B[(u^2)hat],

where D is the form's nonlinear derivative multiplier and P_B the projection onto
``Grid2D.dealias_mask``; omega and -D * P_B are built once per (grid, form) in a
shared SpectralKernel.  The linear part is exact (phase multipliers); the classical
ETDRK4 coefficients are evaluated from the phi functions with a Taylor
fallback near z = 0, which is stable for the purely imaginary spectrum here.

Steps and their tableau run on the band block (``spectral`` docstring) with the
one nonlinear term, -D times the square ``Grid2D.band_product(c)``.  A
SolverState is projected onto the band once, when built; every term of a step vanishes
off the band, so steps carry the block with no projection of their own.  The package
steps in one loop, ``_states``, which yields each sampled state: ``evolve`` keeps their
blocks, ``zklab simulate`` streams them, the trilinear probe and the I-method read them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InstabilityError, UsageError
from .forms import DispersionForm
from .spectral import Field, Grid2D

__all__ = ["DT_OMEGA_LIMIT", "EtdrkTableau", "SolverState", "SpectralKernel",
           "spectral_kernel", "evolve", "etdrk4_tableau", "linear_propagator",
           "step_etdrk4", "max_dispersion"]

# Documented step-size limit: beyond this the nonlinear stage phases are
# unresolved and the fourth-order error constant is meaningless.
DT_OMEGA_LIMIT = 1.0e4

_PHI_SERIES_RADIUS = 0.5
_PHI_SERIES_TERMS = 18


@dataclass(frozen=True, eq=False)
class SpectralKernel:
    """Read-only omega, its max |omega| on the 2/3 band, and -D * mask on the band block."""

    grid: Grid2D
    omega: np.ndarray
    max_omega: float
    band_neg_dmask: np.ndarray

    def band_nonlinear(self, coeffs: np.ndarray) -> np.ndarray:
        """-D P_B (u^2)^ on the band block, of any to_physical input: the one nonlinear term."""
        return np.multiply(self.band_neg_dmask, self.grid.band_product(coeffs))

    def phase(self, t, support=...) -> np.ndarray:
        """exp(i t omega) at the lattice points ``support`` indexes (all by default), shape
        t.shape + omega[support].shape: the package's one free phase."""
        return np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float), self.omega[support]))


@lru_cache(maxsize=8)
def spectral_kernel(grid: Grid2D, form: DispersionForm) -> SpectralKernel:
    """The kernel of (grid, form), built once; every caller shares its arrays."""
    omega, band = form.omega(grid), np.s_[:, :grid.band_columns]
    band_neg_dmask = -form.nonlinear_derivative(grid)[band] * grid.dealias_mask[band]
    for arr in (omega, band_neg_dmask):
        arr.setflags(write=False)
    return SpectralKernel(grid, omega, float(np.abs(omega[grid.dealias_mask]).max()),
                          band_neg_dmask)


def max_dispersion(grid, form: DispersionForm) -> float:
    """max |omega| over the dealiased band."""
    return spectral_kernel(grid, form).max_omega


def linear_propagator(field: Field, t: float, form: DispersionForm) -> Field:
    """Exact free evolution exp(i t omega(zeta)) on the lattice."""
    return field.multiplier(spectral_kernel(field.grid, form).phase(t))


def _phi(j: int, z: np.ndarray) -> np.ndarray:
    """phi_j(z) = (e^z - sum_{k<j} z^k/k!) / z^j, entire; series near 0."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    series = np.zeros_like(z)
    term = np.ones_like(z) / float(math.factorial(j))
    series += term
    zs = np.where(small, z, 0.0)
    for k in range(1, _PHI_SERIES_TERMS):
        term = term * zs / (k + j)
        series += term
    with np.errstate(divide="ignore", invalid="ignore"):
        ez = np.exp(z)
        partial = np.zeros_like(z)
        fact = 1.0
        for k in range(j):
            partial += z ** k / fact
            fact *= k + 1
        closed = (ez - partial) / z ** j
    return np.where(small, series, closed)


@dataclass(frozen=True)
class EtdrkTableau:
    e_full: np.ndarray
    e_half: np.ndarray
    q: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


def etdrk4_tableau(grid, dt: float, form: DispersionForm) -> EtdrkTableau:
    z = 1j * dt * spectral_kernel(grid, form).omega[:, :grid.band_columns]
    phi1, phi2, phi3 = _phi(1, z), _phi(2, z), _phi(3, z)
    return EtdrkTableau(
        e_full=np.exp(z),
        e_half=np.exp(0.5 * z),
        q=0.5 * dt * _phi(1, 0.5 * z),
        f1=dt * (phi1 - 3.0 * phi2 + 4.0 * phi3),
        f2=dt * (phi2 - 2.0 * phi3),
        f3=dt * (4.0 * phi3 - phi2),
    )


class SolverState:
    """Stepper state: clock, step size, form, counters and ``band``, the band block of the
    dealiased field (``grid.full_spectrum(state.band)`` is its full spectrum)."""

    def __init__(self, field: Field, t: float, dt: float, form: DispersionForm, steps: int = 0):
        if not dt > 0:
            raise UsageError(f"dt must be positive, got {dt}")
        limit = dt * max_dispersion(field.grid, form)
        if limit > DT_OMEGA_LIMIT:
            raise UsageError(
                f"dt * max|omega| = {limit:.3g} exceeds the documented limit "
                f"{DT_OMEGA_LIMIT:.3g}; reduce dt or the resolution")
        grid, band = field.grid, np.s_[:, :field.grid.band_columns]
        vars(self).update(band=field.coeffs[band] * grid.dealias_mask[band], grid=grid,
                          t=t, dt=dt, form=form, steps=steps)


def scaled_l2(values: np.ndarray, weight: float) -> float:
    """sqrt(weight * sum |values|^2), scaled by the largest modulus to stay finite."""
    mod = np.abs(values)
    top = mod.max()
    return float(top * np.sqrt(weight * np.sum((mod / top) ** 2))) if top > 0 else 0.0


def step_etdrk4(state: SolverState, tableau: EtdrkTableau) -> SolverState:
    """One ETDRK4 step with the tableau of (grid, state.dt, state.form), taken
    on the band block; raises InstabilityError on non-finite output."""
    grid, kernel = state.grid, spectral_kernel(state.grid, state.form)
    tab, nonlinear, uhat = tableau, kernel.band_nonlinear, state.band
    n0 = nonlinear(uhat)
    a = tab.e_half * uhat + tab.q * n0
    na = nonlinear(a)
    b = tab.e_half * uhat + tab.q * na
    nb = nonlinear(b)
    c = tab.e_half * a + np.multiply(tab.q, 2.0 * nb - n0)
    nc = nonlinear(c)
    new = tab.e_full * uhat + tab.f1 * n0 + 2.0 * tab.f2 * (na + nb) + tab.f3 * nc
    if not np.all(np.isfinite(new)):
        raise InstabilityError(
            f"non-finite state at t = {state.t + state.dt:.6g}",
            last_diagnostics={"t": state.t, "steps": state.steps,
                              "l2": scaled_l2(grid.full_spectrum(state.band), grid.area)})
    out = object.__new__(SolverState)  # the same dt and form, checked already
    vars(out).update(grid=grid, band=new, t=state.t + state.dt, dt=state.dt, form=state.form,
                     steps=state.steps + 1)
    return out


def _whole_steps(name: str, span: float, dt: float, least: int = 0) -> int:
    """``span / dt``, where ``span`` must be a whole number (0 or at least ``least``) of steps
    of a positive ``dt``, below 2**53 so that a float holds the count exactly."""
    steps = round(span / dt) if 0 < dt < math.inf and 0 <= span / dt < 2 ** 53 else -1
    if steps < max(least, span != 0) or abs(steps * dt - span) > 1e-8 * max(dt, span):
        raise UsageError(f"{name} = {span} must be a whole number of steps of dt = {dt} > 0")
    return steps


def _states(u0: Field, t_final: float, dt: float, form: DispersionForm, every: int = 1):
    """The package's one stepping loop: yield the SolverState at t = 0 (u0 projected onto
    the 2/3 band), then every ``every``-th stepped state up to ``t_final``, which must be a
    whole number of steps and of strides.  The arguments are checked on the first ``next``."""
    n_steps = _whole_steps("t_final", t_final, dt)
    if not isinstance(every, numbers.Integral) or every < 1:
        raise UsageError("sample_every must be a positive integer")
    if n_steps % every != 0:
        raise UsageError("t_final / dt must be divisible by sample_every")
    state = SolverState(u0, 0.0, dt, form)
    yield state
    tab = etdrk4_tableau(u0.grid, dt, form) if n_steps else None
    for k in range(1, n_steps + 1):
        # hold the previous state a step longer, else glibc trims the heap and faults it back
        prev, state = state, step_etdrk4(state, tab)
        if k % every == 0:
            yield state


def evolve(u0: Field, t_final: float, dt: float, form: DispersionForm,
           sample_every: int = 1, diagnostics=None):
    """Evolve from u0 and return the sampled trajectory.

    ``t_final`` must be a whole number of steps and of sampling strides;
    the returned SpaceTimeField contains the frame at t = 0 (u0 projected onto the
    2/3 band) and every ``sample_every``-th step, stored as their band blocks.
    ``diagnostics(state)`` is called at each sampled frame with its SolverState.  T = 0
    returns the initial frame alone.
    """
    from .trajectory import SpaceTimeField

    states = _states(u0, t_final, dt, form, sample_every)
    first = next(states)  # the arguments are checked, so the frame count is known
    frames = np.empty((round(t_final / dt) // sample_every + 1, *first.band.shape), complex)
    for k, state in enumerate(itertools.chain([first], states)):
        frames[k] = state.band
        if diagnostics is not None:
            diagnostics(state)
    return SpaceTimeField(u0.grid, 0.0, dt * sample_every, frames)
