"""Almost-conservation machinery: I-multiplier, invariants, multilinear forms.

``energy`` takes the dispersion form; every other functional here (modified
energy, multilinear forms, scans, gwp) is written for the original form
u_t + u_xxx + u_xyy + (u^2)_x = 0, named once as ``_FORM``.  The discrete
multilinear forms are the exact time derivatives of the discrete modified energy
along the dealiased Galerkin flow:

    d/dt E(I u) = Re[-i Lambda3(M3; I u) + i Lambda4(M4; I u)],

    M3 = xi_1 |zeta_1|^2 [1 - m(z2 + z3) / (m(z2) m(z3))],
    M4 = (xi_1 + xi_2) m(z1 + z2) / (m(z1) m(z2)),

with the convention Lambda_k(m; u) = lx*ly * sum over the zero-sum lattice
hyperplane of m * prod uhat(zeta_j).  The M3 and M4 pair frequencies carry
the 2/3-band indicator of the solver's dealiasing, which is what makes the
identity exact for the discrete flow up to time quadrature.  ``lambda3(fields,
mult)`` and ``lambda4(fields, mult)`` evaluate these forms with m = m^s_N of
``mult``, on slots that hold I u.  Invariants and forms are read off the
coefficients by discrete Parseval; only the factors of pointwise products are
transformed (``_factored_forms``), on the solver's kernel: omega, D and band_product.
E(I u) is read in one place, ``_i_energy``; scans and gwp step in ``dynamics._states``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import _states, _whole_steps, spectral_kernel
from .errors import DataError, UsageError
from .forms import DispersionForm
from .littlewood_paley import is_dyadic
from .quadrature import definite_integral
from .scaling import rescale
from .spectral import Field, Grid2D
from .trajectory import SpaceTimeField

__all__ = ["IMultiplier", "IncrementReport", "ScanResult", "GwpLedger",
           "i_operator", "mass", "energy", "modified_energy", "lambda3", "lambda4",
           "increment_identity_check", "increment_scan", "gwp_iteration",
           "lambda_exponent", "horizon_exponent", "growth_exponent",
           "regularity_threshold"]


_FORM = DispersionForm.ORIGINAL  # the form of the I-method's functionals; energy's default


# -- the smoothing multiplier --------------------------------------------------

@dataclass(frozen=True)
class IMultiplier:
    """Radial symbol m^s_N: 1 up to N, (|zeta|/N)^(s-1) beyond 2N.

    The transition blends log m linearly in log |zeta| through the quintic
    6t^3 - 8t^4 + 3t^5 (t = log2(|zeta|/N)), which matches value, first and
    second derivative at both ends, so m is C^2, non-increasing, and scale
    covariant: m^s_N(zeta) = m^s_1(zeta / N) exactly.
    """

    s: float
    n: float

    def __post_init__(self):
        if not 0.5 < self.s <= 1.0:
            raise UsageError(f"s must lie in (1/2, 1], got {self.s}")
        if self.n < 1 or not is_dyadic(self.n):
            raise UsageError(f"N must be a dyadic >= 1, got {self.n}")

    def weight(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        out = np.ones_like(r)
        outer = r >= 2.0 * self.n
        out[outer] = (r[outer] / self.n) ** (self.s - 1.0)
        mid = (r > self.n) & ~outer
        t = np.log2(r[mid] / self.n)
        h = t * t * t * (6.0 + t * (-8.0 + 3.0 * t))
        out[mid] = 2.0 ** ((self.s - 1.0) * h)
        return out

    def symbol(self, grid: Grid2D) -> np.ndarray:
        return self.weight(grid.abs_zeta)


def i_operator(field: Field, mult: IMultiplier) -> Field:
    """Smoothing operator I = multiplier m^s_N."""
    return field.multiplier(mult.symbol(field.grid))


# -- invariants ----------------------------------------------------------------

def mass(field: Field) -> float:
    """M(u) = integral of u^2 (exact lattice quadrature)."""
    vals = field.values
    return float(np.sum(vals * vals) * field.grid.cell_area)


def energy(field: Field, form: DispersionForm = _FORM) -> float:
    """E(u) = integral of |grad u|^2 / 2 - u^3 / 3; the symmetrized form's
    invariant has u_x^2 - u_x u_y + u_y^2 in place of |grad u|^2, because
    d_x^3 + d_y^3 = (d_x + d_y)(d_x^2 - d_x d_y + d_y^2).

    Evaluated on the 2/3-dealiased representative, for which the lattice
    quadrature is exact; this is the quantity the dealiased Galerkin flow
    conserves up to integrator error.  The gradient term is a weighted sum of
    |uhat|^2 (Parseval) and the cubic term takes one transform.
    """
    u = field.coeffs * field.grid.dealias_mask
    return float(_energy(field.grid, form, u, field.grid.to_physical(u)))


def _energy(grid: Grid2D, form: DispersionForm, coeffs: np.ndarray, vals: np.ndarray):
    """E of in-band coefficients whose physical samples are ``vals``, per leading frame."""
    xi, eta = grid.xi_odd[:, None], grid.eta_odd[:grid.band_columns]
    gradient = xi * xi + eta * eta - (xi * eta if form is DispersionForm.SYMMETRIZED else 0.0)
    block = coeffs[..., :grid.band_columns]
    return (0.5 * _band_sum(grid, gradient * (block.real ** 2 + block.imag ** 2))
            - np.sum(vals * vals * vals, axis=(-2, -1)) * grid.cell_area / 3.0)


def _band_sum(grid: Grid2D, x: np.ndarray) -> np.ndarray:
    """area * sum over the full lattice of an even real array given on the band block
    (any leading axes): all but its first column occur twice, as it has no Nyquist column."""
    return grid.area * (2.0 * np.sum(x, axis=(-2, -1)) - np.sum(x[..., 0], axis=-1))


def modified_energy(field: Field, mult: IMultiplier) -> float:
    """E(I_N u)."""
    return float(_i_energy(field.grid, field.coeffs[:, :field.grid.band_columns], mult))


def _i_energy(grid: Grid2D, block: np.ndarray, mult: IMultiplier) -> np.ndarray:
    """Per-frame E(I_N u) of the 2/3 projection of ``block`` (band_columns wide): one transform."""
    w = block * (mult.symbol(grid) * grid.dealias_mask)[:, :grid.band_columns]
    return _energy(grid, _FORM, w, grid.to_physical(w))


# -- multilinear forms ---------------------------------------------------------

def _as_field_list(fields, arity: int) -> list[Field]:
    if isinstance(fields, Field):
        return [fields] * arity
    fields = list(fields)
    if len(fields) != arity:
        raise UsageError(f"expected {arity} fields, got {len(fields)}")
    grid = fields[0].grid
    if any(not f.grid.same_geometry(grid) for f in fields):
        raise UsageError("all fields must share one grid")
    return fields


def lambda3(fields, mult: IMultiplier) -> complex:
    """Lambda_3(M3; w1, w2, w3) = lx*ly * sum_{z1+z2+z3=0} M3 * w1hat w2hat w3hat, where
    M3 = xi_1 |zeta_1|^2 [1 - m(z2 + z3) / (m(z2) m(z3))] for m = m^s_N of ``mult``.
    The slots hold I u; one Field fills all three."""
    fields = _as_field_list(fields, 3)
    return _factored_forms(mult, fields[0].grid)[0](fields)


def lambda4(fields, mult: IMultiplier) -> complex:
    """Lambda_4(M4; w1, ..., w4), M4 = (xi_1 + xi_2) m(z1 + z2) / (m(z1) m(z2)) for
    m = m^s_N of ``mult``; same conventions as lambda3."""
    fields = _as_field_list(fields, 4)
    return _factored_forms(mult, fields[0].grid)[1](fields)


def _factored_forms(mult: IMultiplier, grid: Grid2D):
    """Lambda3 and Lambda4 of field lists, and Im of both for a trajectory's frame block.

    For W the coefficients of I u, V = W / m and the dealiased pair products
    S = (W_p W_p)^, P = (V_p V_p)^ (``Grid2D.band_product``), discrete Parseval gives
    Lambda3 = area sum (omega W) conj(S - m_band P) and Lambda4 = area sum (D/i m_band P)
    conj(S) over the lattice, with omega and the nonlinear derivative D read from the
    solver's kernel.  The symbols are real and odd, so the summands are anti-Hermitian: the
    forms are imaginary and Im of a summand is even (``_band_sum``); W and m_band vanish off
    the band, so the sums, S and P run on the band block.  The 2/3 gate of m_band is a
    no-op on the zero-sum hyperplane of M3 but discards pair products that would wrap.
    """
    mask, msym, product = grid.dealias_mask, mult.symbol(grid), grid.band_product
    kernel = spectral_kernel(grid, _FORM)
    m, omega, m_band = (a[:, :grid.band_columns] for a in (msym, kernel.omega, msym * mask))
    d_band = -kernel.band_neg_dmask.imag  # D/i on the band, 0 off it

    def band_block(coeffs, what):  # full coefficients or a leading block of the half spectrum
        if np.any(coeffs[..., ~mask[:, :coeffs.shape[-1]]]):
            raise DataError(f"{what} requires input with no content outside the "
                            "2/3 dealias band; apply dealias() first")
        return coeffs[..., :grid.band_columns]

    def lambda3(w, s, p):
        return _band_sum(grid, np.imag(omega * w * np.conj(s - m_band * p)))

    def lambda4(s, p):
        return _band_sum(grid, np.imag(d_band * m_band * p * np.conj(s)))

    def inputs(fields, what):  # W and V of each slot, checked and divided once per field
        w = {id(f): band_block(f.coeffs, what) for f in fields}
        v = {key: c / m for key, c in w.items()}
        return [w[id(f)] for f in fields], [v[id(f)] for f in fields]

    def m3_factored(fields):
        w, v = inputs(fields, "lambda3")
        return complex(0.0, lambda3(w[0], product(*w[1:]), product(*v[1:])))

    def m4_factored(fields):
        w, v = inputs(fields, "lambda4")
        return complex(0.0, lambda4(product(*w[2:]), product(*v[:2])))

    def frames(block):
        w = band_block(block, "increment_identity_check") * m
        v = w / m
        s, p = product(w), product(v)
        return lambda3(w, s, p), lambda4(s, p)

    return m3_factored, m4_factored, frames


# -- increment identity and scans ----------------------------------------------

# Bytes of physical samples per block of the increment check: 2 frames at 64^2, 1 from 128^2
# up.  Its temporaries, several times a block, then stay below malloc's 128 KiB mmap threshold
# at 64^2 and are reused from the heap instead of being mapped and faulted in per block.
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class IncrementReport:
    lhs: float
    rhs: float
    residual: float
    denominator: float
    lambda3_integral: float
    lambda4_integral: float
    num_frames: int
    dt: float

    FLOOR = 1e-14


def increment_identity_check(trajectory: SpaceTimeField, mult: IMultiplier) -> IncrementReport:
    """Check E(Iu)(end) - E(Iu)(0) against the time-integrated Lambda forms.

    The integrand is sampled at every frame and integrated by composite
    Simpson; the residual is relative to max(|lhs|, integral scale, 1e-14).
    Frames are read from the trajectory's block, band-checked and evaluated
    in blocks of at most _BLOCK_BYTES of real physical samples (at least one
    frame), from one pair of products each (four transforms per frame); E(Iu) at
    the two ends is read off the block as well.
    """
    if trajectory.num_frames < 5:
        raise UsageError("increment check needs at least 5 frames")
    grid, block, dt = trajectory.grid, trajectory.block, trajectory.dt
    frame_forms = _factored_forms(mult, grid)[2]
    frames = max(1, _BLOCK_BYTES // (8 * grid.nx * grid.ny))
    im3, im4 = np.concatenate([frame_forms(block[k:k + frames]) for k in
                               range(0, trajectory.num_frames, frames)], axis=-1)
    integrand = im3 - im4
    rhs, scale, lambda3_integral, lambda4_integral = map(float, definite_integral(
        np.stack([integrand, np.abs(integrand), im3, im4], axis=-1), dt))
    lhs = float(np.subtract(*_i_energy(grid, block[[-1, 0], :, :grid.band_columns], mult)))
    denom = max(abs(lhs), scale, IncrementReport.FLOOR)
    return IncrementReport(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / denom, denominator=denom,
        lambda3_integral=lambda3_integral, lambda4_integral=lambda4_integral,
        num_frames=trajectory.num_frames, dt=dt)


@dataclass(frozen=True)
class ScanResult:
    s: float
    delta: float
    rows: tuple  # of (N, |dE|)
    slope: float
    caveat: str = ("periodic-box surrogate: the fitted decay rate is an "
                   "empirical diagnostic, not the dispersive-estimate rate")


def _windows(u0: Field, delta: float, dt: float, count: int):
    """``_states`` at t = 0 and after each of ``count`` windows, each a whole number of dt steps."""
    steps = _whole_steps("delta", delta, dt, least=1)
    return _states(u0, count * delta, dt, _FORM, every=steps)


def increment_scan(u0: Field, s: float, n_list, delta: float, dt: float) -> ScanResult:
    """|E(I_N u)(delta) - E(I_N u)(0)| over a ladder of N, with log-log slope."""
    n_list = sorted(float(n) for n in n_list)
    if len(set(n_list)) < 2:
        raise UsageError("need at least two distinct N values to fit a slope")
    mults = [IMultiplier(s, n) for n in n_list]
    ends = np.stack([state.band for state in _windows(u0, delta, dt, 1)])
    rows = [(m.n, float(abs(np.subtract(*_i_energy(u0.grid, ends, m))))) for m in mults]
    logs, vals = np.log(np.maximum(rows, 1e-300)).T
    slope = float(np.polyfit(logs, vals, 1)[0])
    return ScanResult(s=s, delta=delta, rows=tuple(rows), slope=slope)


# -- exponents and the rescale-and-iterate loop ---------------------------------

def lambda_exponent(s: float) -> float:
    """lambda ~ N^((s-1)/(s+1))."""
    return (s - 1.0) / (s + 1.0)


def horizon_exponent(s: float) -> float:
    """Guaranteed lifetime scales like N^((13s-11)/(4(s+1)))."""
    return (13.0 * s - 11.0) / (4.0 * (s + 1.0))


def growth_exponent(s: float) -> float:
    """Sobolev growth bound exponent 4(1-s)(1+s)/(13s-11)."""
    return 4.0 * (1.0 - s) * (1.0 + s) / (13.0 * s - 11.0)


def regularity_threshold(alpha: float) -> float:
    """Regularity threshold s > (3 - alpha)/(3 + alpha) for increment decay N^-alpha."""
    return (3.0 - alpha) / (3.0 + alpha)


@dataclass
class GwpLedger:
    """Machine-readable record of one rescale-and-iterate run."""

    s: float
    n: float
    lam: float
    delta: float
    dt: float
    t_target: float
    status: str = "running"
    windows: list = dc_field(default_factory=list)
    hs_initial: float = 0.0
    hs_final: float = 0.0
    growth_factor: float = 0.0
    exponents: dict = dc_field(default_factory=dict)


def gwp_iteration(u0: Field, s: float, t_target: float, delta: float = 0.1,
                  dt: float = 1e-3, n: float | None = None,
                  max_windows: int = 12) -> GwpLedger:
    """Rescale so E(I_N u_lambda) <= 1/4, then extend window by window.

    Stops when the rescaled clock reaches t_target / lambda^3, when the
    modified energy reaches 1/2 (extension failure), or when the window
    budget is exhausted.  The final H^s growth factor is measured on the
    unscaled field via the inverse rescaling.
    """
    from .norms import sobolev_norm

    if max_windows < 1:
        raise UsageError(f"max_windows must be at least 1, got {max_windows}")
    if n is None:
        if not 11.0 / 13.0 < s <= 1.0:
            raise UsageError("for s outside (11/13, 1] an explicit N is required")
        n_raw = max(4.0, t_target ** (1.0 / horizon_exponent(s)))
        n = 2.0 ** np.ceil(np.log2(n_raw))
    mult = IMultiplier(s, float(n))

    lam = float(n) ** lambda_exponent(s)
    for _ in range(80):
        if modified_energy(rescale(u0, lam), mult) <= 0.25:
            break
        lam *= 0.5
    else:
        raise UsageError("could not reach E(I u_lambda) <= 1/4 by halving lambda")

    ledger = GwpLedger(s=s, n=float(n), lam=lam, delta=delta, dt=dt,
                       t_target=t_target,
                       exponents={"lambda": lambda_exponent(s),
                                  "horizon": horizon_exponent(s) if s > 11.0 / 13.0 else None,
                                  "growth": growth_exponent(s) if s > 11.0 / 13.0 else None})
    energies = ((state, float(_i_energy(state.grid, state.band, mult)))
                for state in _windows(rescale(u0, lam), delta, dt, max_windows))
    current, e_now = next(energies)
    ledger.hs_initial = sobolev_norm(u0, s)
    t_goal, t_now = t_target / lam ** 3, 0.0
    for k in range(max_windows):
        if t_now >= t_goal:
            break
        current, e_next = next(energies)
        t_now += delta
        ledger.windows.append({"window": k, "t_end": t_now, "modified_energy": e_next,
                               "increment": e_next - e_now})
        e_now = e_next
        if e_next >= 0.5:
            ledger.status = f"extension failed at window {k}"
            break
    if ledger.status == "running":
        ledger.status = "completed" if t_now >= t_goal else "exhausted"
    grid = current.grid
    unscaled = rescale(Field(grid, grid.full_spectrum(current.band), "spectral"), 1.0 / lam)
    ledger.hs_final = sobolev_norm(unscaled, s)
    ledger.growth_factor = ledger.hs_final / max(ledger.hs_initial, 1e-300)
    return ledger
