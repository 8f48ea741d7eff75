"""Almost-conservation machinery: I-multiplier, invariants, multilinear forms.

``energy`` takes the dispersion form; every other functional here (modified
energy, multilinear forms, scans, gwp) is written for the original form
u_t + u_xxx + u_xyy + (u^2)_x = 0.  The discrete multilinear forms are the
exact time derivatives of the discrete modified energy along the dealiased
Galerkin flow:

    d/dt E(I u) = Re[-i Lambda3(M3; I u) + i Lambda4(M4; I u)],

    M3 = xi_1 |zeta_1|^2 [1 - m(z2 + z3) / (m(z2) m(z3))],
    M4 = (xi_1 + xi_2) m(z1 + z2) / (m(z1) m(z2)),

with the convention Lambda_k(m; u) = lx*ly * sum over the zero-sum lattice
hyperplane of m * prod uhat(zeta_j).  The M3 and M4 pair frequencies carry
the 2/3-band indicator of the solver's dealiasing, which is what makes the
identity exact for the discrete flow up to time quadrature.  The factored
evaluators band-check each distinct input once and transform it at most once
per transform they need; the 2/3 mask is the shared spectral kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import evolve, spectral_kernel
from .errors import DataError, UsageError
from .forms import DispersionForm
from .littlewood_paley import is_dyadic
from .quadrature import definite_integral
from .scaling import rescale
from .spectral import Field, Grid2D, dealias, derivative
from .trajectory import SpaceTimeField

__all__ = ["IMultiplier", "MultilinearSymbol", "IncrementReport", "ScanResult",
           "GwpLedger", "i_operator", "mass", "energy", "modified_energy",
           "lambda3", "lambda4", "increment_symbols",
           "increment_identity_check", "increment_scan", "gwp_iteration",
           "lambda_exponent", "horizon_exponent", "growth_exponent",
           "regularity_threshold"]


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


def energy(field: Field, form: DispersionForm = DispersionForm.ORIGINAL) -> float:
    """E(u) = integral of |grad u|^2 / 2 - u^3 / 3; the symmetrized form's
    invariant has u_x^2 - u_x u_y + u_y^2 in place of |grad u|^2, because
    d_x^3 + d_y^3 = (d_x + d_y)(d_x^2 - d_x d_y + d_y^2).

    Evaluated on the 2/3-dealiased representative, for which the cubic
    lattice quadrature is exact; this is the quantity the dealiased Galerkin
    flow conserves up to integrator error.
    """
    u = field.multiplier(spectral_kernel(field.grid, form).mask)
    vals, ux, uy = field.grid.to_physical(
        np.stack([u.coeffs, derivative(u, 1, 0).coeffs, derivative(u, 0, 1).coeffs]))
    gradient = ux * ux + uy * uy
    if form is DispersionForm.SYMMETRIZED:
        gradient = gradient - ux * uy
    density = 0.5 * gradient - vals * vals * vals / 3.0
    return float(np.sum(density) * field.grid.cell_area)


def modified_energy(field: Field, mult: IMultiplier) -> float:
    """E(I_N u)."""
    return energy(i_operator(field, mult))


# -- multilinear forms ---------------------------------------------------------

@dataclass(frozen=True)
class MultilinearSymbol:
    """Pointwise symbol m(zeta_1, ..., zeta_k) with optional fast evaluator.

    ``fn(xis, etas)`` receives k broadcastable arrays per coordinate and
    returns the symbol values.  ``factored(fields)`` when present evaluates
    Lambda_k via spectral products instead of the O(n^(2(k-1))) sum.
    """

    arity: int
    fn: object
    name: str = ""
    factored: object = None

    def __call__(self, xis, etas):
        return self.fn(xis, etas)


def _require_band(field: Field, mask: np.ndarray, what: str) -> np.ndarray:
    coeffs = field.coeffs
    if np.any(coeffs[~mask] != 0):
        raise DataError(f"{what} requires input with no content outside the "
                        "2/3 dealias band; apply dealias() first")
    return coeffs


def _once_each(items, fn) -> list:
    """fn of each slot, evaluated once per distinct item (by identity)."""
    done = {id(x): x for x in items}
    done = {key: fn(x) for key, x in done.items()}
    return [done[id(x)] for x in items]


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


def _direct_lambda(fields: list[Field], symbol: MultilinearSymbol) -> complex:
    """Direct zero-sum hyperplane summation (no wraparound; off-lattice
    index combinations are dropped).  Cost O(n^(2(k-1)))."""
    grid = fields[0].grid
    nx, ny = grid.nx, grid.ny
    jj, kk = np.repeat(grid.jx, ny), np.tile(grid.jy, nx)
    flats = [f.coeffs.reshape(-1) for f in fields]
    sx, sy = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly

    if symbol.arity == 3:
        j1, j2 = jj[:, None], jj[None, :]
        k1, k2 = kk[:, None], kk[None, :]
        j3, k3 = -(j1 + j2), -(k1 + k2)
        valid = (j3 >= -nx // 2) & (j3 <= nx // 2 - 1) & \
                (k3 >= -ny // 2) & (k3 <= ny // 2 - 1)
        idx3 = (j3 % nx) * ny + (k3 % ny)
        vals = symbol([sx * j1, sx * j2, sx * j3], [sy * k1, sy * k2, sy * k3])
        prod = flats[0][:, None] * flats[1][None, :] * flats[2][idx3]
        return grid.area * complex(np.sum(np.where(valid, vals * prod, 0.0)))

    if symbol.arity == 4:
        total = 0.0 + 0.0j
        j2, j3 = jj[:, None], jj[None, :]
        k2, k3 = kk[:, None], kk[None, :]
        for i1 in range(nx * ny):
            if flats[0][i1] == 0:
                continue
            j1, k1 = jj[i1], kk[i1]
            j4, k4 = -(j1 + j2 + j3), -(k1 + k2 + k3)
            valid = (j4 >= -nx // 2) & (j4 <= nx // 2 - 1) & \
                    (k4 >= -ny // 2) & (k4 <= ny // 2 - 1)
            idx4 = (j4 % nx) * ny + (k4 % ny)
            vals = symbol([sx * j1, sx * j2, sx * j3, sx * j4],
                          [sy * k1, sy * k2, sy * k3, sy * k4])
            prod = flats[1][:, None] * flats[2][None, :] * flats[3][idx4]
            total += flats[0][i1] * np.sum(np.where(valid, vals * prod, 0.0))
        return grid.area * complex(total)

    raise UsageError(f"direct evaluation supports arity 3 or 4, got {symbol.arity}")


def _lambda(arity: int, fields, symbol: MultilinearSymbol, method: str) -> complex:
    if symbol.arity != arity:
        raise UsageError(f"lambda{arity} needs an arity-{arity} symbol")
    fields = _as_field_list(fields, arity)
    if method == "auto" and symbol.factored is not None:
        return symbol.factored(fields)
    if method not in ("auto", "direct"):
        raise UsageError(f"method must be 'auto' or 'direct', got {method!r}")
    return _direct_lambda(fields, symbol)


def lambda3(fields, symbol: MultilinearSymbol, method: str = "auto") -> complex:
    """Lambda_3(m; u1, u2, u3) = lx*ly * sum_{z1+z2+z3=0} m * prod uhat."""
    return _lambda(3, fields, symbol, method)


def lambda4(fields, symbol: MultilinearSymbol, method: str = "auto") -> complex:
    """Lambda_4(m; u1, ..., u4), same conventions as lambda3."""
    return _lambda(4, fields, symbol, method)


def increment_symbols(mult: IMultiplier, grid: Grid2D):
    """The (M3, M4) pair of the modified-energy increment identity.

    Both carry factored fast evaluators (a handful of FFTs); the pointwise
    ``fn`` is what the direct oracle sums.  Pair frequencies at the unpaired
    Nyquist line use the package-wide zeroed-odd-symbol convention.
    """
    jmax_x, jmax_y = grid.band_index
    sx, sy = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly

    def pair_gate(xi_sum, eta_sum):
        j = np.rint(np.asarray(xi_sum) / sx)
        k = np.rint(np.asarray(eta_sum) / sy)
        return ((np.abs(j) <= jmax_x) & (np.abs(k) <= jmax_y)).astype(np.float64)

    def xi_nyq(xi_sum):
        j = np.rint(np.asarray(xi_sum) / sx)
        return np.where(np.abs(j) == grid.nx // 2, 0.0, xi_sum)

    def m(xis, etas):
        return mult.weight(np.hypot(xis, etas))

    def m3_fn(xis, etas):
        ratio = m(xis[1] + xis[2], etas[1] + etas[2]) / (m(xis[1], etas[1]) * m(xis[2], etas[2]))
        gate = pair_gate(xis[1] + xis[2], etas[1] + etas[2])
        r1sq = xis[0] ** 2 + etas[0] ** 2
        return xis[0] * r1sq * (1.0 - gate * ratio)

    def m4_fn(xis, etas):
        xs, es = xis[0] + xis[1], etas[0] + etas[1]
        gate = pair_gate(xs, es)
        return xi_nyq(xs) * m(xs, es) * gate / (m(xis[0], etas[0]) * m(xis[1], etas[1]))

    mask = spectral_kernel(grid, DispersionForm.ORIGINAL).mask
    msym = mult.symbol(grid)
    dx_lap = grid.xi_grid * (grid.xi_grid ** 2 + grid.eta_grid ** 2)
    # the band mask is a no-op on the zero-sum hyperplane of M3 (the pair
    # frequency equals -zeta_1, already in band) but discards products that
    # would otherwise wrap around the lattice; both pair symbols are half-spectrum
    m_band = grid.half_spectrum(msym * mask)
    m4_pair = grid.xi_odd[:, None] * m_band

    # dx_lap and m4_pair are real and odd: 1j * to_physical(-1j * ...) (spectral docstring)
    def m3_factored(fields):
        w = _once_each(fields, lambda f: _require_band(f, mask, "lambda3 (factored)"))
        gp = 1j * grid.to_physical(-1j * dx_lap * w[0])
        w2p, w3p = _once_each(w[1:], grid.to_physical)
        term_a = np.sum(gp * (w2p * w3p)) * grid.cell_area
        v2p, v3p = _once_each(w[1:], lambda c: grid.to_physical(c / msym))
        pair_hat = grid.to_spectral(v2p * v3p) * m_band
        term_b = np.sum(gp * grid.to_physical(pair_hat)) * grid.cell_area
        return complex(term_a - term_b)

    def m4_factored(fields):
        w = _once_each(fields, lambda f: _require_band(f, mask, "lambda4 (factored)"))
        v1p, v2p = _once_each(w[:2], lambda c: grid.to_physical(c / msym))
        fp = 1j * grid.to_physical(-1j * m4_pair * grid.to_spectral(v1p * v2p))
        w3p, w4p = _once_each(w[2:], grid.to_physical)
        return complex(np.sum(fp * (w3p * w4p)) * grid.cell_area)

    m3 = MultilinearSymbol(3, m3_fn, name="increment-M3", factored=m3_factored)
    m4 = MultilinearSymbol(4, m4_fn, name="increment-M4", factored=m4_factored)
    return m3, m4


# -- increment identity and scans ----------------------------------------------

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
    """
    if trajectory.num_frames < 5:
        raise UsageError("increment check needs at least 5 frames")
    m3, m4 = increment_symbols(mult, trajectory.grid)
    msym = mult.symbol(trajectory.grid)

    def i_frame(l: int) -> Field:
        return Field(trajectory.grid, trajectory.coeffs[l] * msym, "spectral")

    vals3 = np.empty(trajectory.num_frames, dtype=np.complex128)
    vals4 = np.empty(trajectory.num_frames, dtype=np.complex128)
    for l in range(trajectory.num_frames):
        w = i_frame(l)
        vals3[l] = m3.factored([w, w, w])
        vals4[l] = m4.factored([w, w, w, w])
    integrand = np.real(-1j * vals3 + 1j * vals4)
    rhs = float(definite_integral(integrand, trajectory.dt))
    lhs = energy(i_frame(-1)) - energy(i_frame(0))
    scale = float(definite_integral(np.abs(integrand), trajectory.dt))
    denom = max(abs(lhs), scale, IncrementReport.FLOOR)
    return IncrementReport(
        lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / denom, denominator=denom,
        lambda3_integral=float(definite_integral(np.imag(vals3), trajectory.dt)),
        lambda4_integral=float(definite_integral(np.imag(vals4), trajectory.dt)),
        num_frames=trajectory.num_frames, dt=trajectory.dt)


@dataclass(frozen=True)
class ScanResult:
    s: float
    delta: float
    rows: tuple  # of (N, |dE|)
    slope: float
    caveat: str = ("periodic-box surrogate: the fitted decay rate is an "
                   "empirical diagnostic, not the dispersive-estimate rate")


def increment_scan(u0: Field, s: float, n_list, delta: float, dt: float) -> ScanResult:
    """|E(I_N u)(delta) - E(I_N u)(0)| over a ladder of N, with log-log slope."""
    n_list = sorted(float(n) for n in n_list)
    if len(n_list) < 2:
        raise UsageError("need at least two N values to fit a slope")
    trajectory = evolve(u0, delta, dt, DispersionForm.ORIGINAL,
                        sample_every=max(1, int(round(delta / dt))))
    first, last = trajectory.frame(0), trajectory.frame(-1)
    rows = []
    for n in n_list:
        mult = IMultiplier(s, n)
        de = abs(modified_energy(last, mult) - modified_energy(first, mult))
        rows.append((n, de))
    logs = np.log([r[0] for r in rows])
    vals = np.log([max(r[1], 1e-300) for r in rows])
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

    if not 11.0 / 13.0 < s <= 1.0:
        if n is None:
            raise UsageError("for s outside (11/13, 1] an explicit N is required")
    if n is None:
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
    current = dealias(rescale(u0, lam))
    ledger.hs_initial = sobolev_norm(u0, s)
    e_now = modified_energy(current, mult)
    t_goal = t_target / lam ** 3
    t_now = 0.0
    ledger.status = "exhausted"
    for k in range(max_windows):
        if t_now >= t_goal:
            ledger.status = "completed"
            break
        trajectory = evolve(current, delta, dt, DispersionForm.ORIGINAL,
                            sample_every=int(round(delta / dt)))
        current = trajectory.frame(-1)
        t_now += delta
        e_next = modified_energy(current, mult)
        ledger.windows.append({"window": k, "t_end": t_now, "modified_energy": e_next,
                               "increment": e_next - e_now})
        e_now = e_next
        if e_next >= 0.5:
            ledger.status = f"extension failed at window {k}"
            break
    else:
        if t_now >= t_goal:
            ledger.status = "completed"
    unscaled = rescale(current, 1.0 / lam)
    ledger.hs_final = sobolev_norm(unscaled, s)
    ledger.growth_factor = ledger.hs_final / max(ledger.hs_initial, 1e-300)
    return ledger
