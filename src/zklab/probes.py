"""Randomized probes of the dispersive-estimate arsenal.

Each probe draws a seeded ensemble, computes the two sides of an inequality
with the unknown constant stripped from the right side, and reports the
ratio statistics plus a drift factor across one parameter or resolution
doubling.  Probes measure constant stability, not constant values, and all
space-time norms are finite-window torus surrogates (Hann taper, window
recorded in the report).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bumps import chi
from .dynamics import SolverState, etdrk4_tableau, spectral_kernel, step_etdrk4
from .errors import ResolutionError, UsageError
from .forms import DispersionForm
from .ic import random_band_limited, shell_field
from .littlewood_paley import shell_weight
from .norms import _lebesgue_qr, _twisted
from .quadrature import definite_integral, trapezoid_weights
from .spectral import Field, Grid2D
from .trajectory import hann_window

__all__ = ["ProbeReport", "CutoffDecomposition", "strichartz_probe",
           "maximal_derivative_probe", "bilinear_probe", "gh_bilinear_probe",
           "l4_probe", "cutoff_decompose", "cutoff_probe",
           "trilinear_form_probe"]

TORUS_CAVEAT = "torus surrogate: finite window, Hann taper, lattice frequencies"


@dataclass(frozen=True)
class ProbeReport:
    estimate: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    spread: tuple  # (min, median, max) of per-sample ratios
    drift: float
    seed: int
    caveat: str = TORUS_CAVEAT

    def to_row(self) -> dict:
        row = {"estimate": self.estimate, "lhs": self.lhs, "rhs": self.rhs,
               "ratio": self.ratio, "ratio_min": self.spread[0],
               "ratio_median": self.spread[1], "ratio_max": self.spread[2],
               "drift": self.drift, "seed": self.seed, "caveat": self.caveat}
        for key, val in sorted(self.params.items()):
            row[f"param_{key}"] = val
        return row


def _stats(ratios) -> tuple:
    arr = np.asarray(ratios, dtype=np.float64)
    return (float(arr.min()), float(np.median(arr)), float(arr.max()))


def _drift(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        return np.inf
    return max(a / b, b / a)


def _ensemble_report(estimate: str, one, base: tuple, other: tuple, samples: int,
                     seed: int, params: dict, caveat: str = TORUS_CAVEAT) -> ProbeReport:
    """Median of ``one(*base, i)`` over the samples, drifted against ``one(*other, i)``."""
    if samples < 1:
        raise UsageError(f"{estimate}: samples must be at least 1, got {samples}")
    ratios, others = ([one(*rung, i) for i in range(samples)] for rung in (base, other))
    med, companion = float(np.median(ratios)), float(np.median(others))
    for rung, value in ((base, med), (other, companion)):
        if not value > 0:
            raise ResolutionError(f"{estimate}: median ratio {value:g} at rung {rung}; need > 0")
    return ProbeReport(estimate=estimate, params=params, lhs=med, rhs=1.0, ratio=med,
                       spread=_stats(ratios), drift=_drift(med, companion), seed=seed,
                       caveat=caveat)


def _frame_times(span: float, frames: int) -> np.ndarray:
    """``frames`` uniform times from 0 to span; the step is times[1]."""
    if frames < 2 or not 0 < span < np.inf:
        raise UsageError("need frames >= 2 (the window endpoints) and a finite span > 0, "
                         f"got frames = {frames}, span = {span}")
    return span / (frames - 1) * np.arange(frames)


def _free_block(u0: Field, form: DispersionForm, times: np.ndarray) -> np.ndarray:
    """Free wave from u0 at ``times`` on the leading half-spectrum columns that hold u0."""
    half = u0.coeffs[:, :u0.grid.ny // 2 + 1]
    j, k = support = np.nonzero(half)
    block = np.zeros((len(times), u0.grid.nx, 1 + k.max(initial=0)), dtype=np.complex128)
    block[:, j, k] = spectral_kernel(u0.grid, form).phase(times, support) * half[support]
    return block


def _windowed_l2(dt: float, sq_norms: np.ndarray) -> float:
    """Windowed space-time L2 norm of frames from their squared L2 norms."""
    weights = trapezoid_weights(len(sq_norms), dt) * hann_window(len(sq_norms)) ** 2
    return float(np.sqrt(np.sum(weights * sq_norms)))


def _doubled(grid: Grid2D) -> Grid2D:
    return Grid2D(2 * grid.nx, 2 * grid.ny, grid.lx, grid.ly)


# -- free-solution space-time estimates ------------------------------------------

def _free_wave_norm(u0: Field, form: DispersionForm, weight, q: float, r: float,
                    span: float, frames: int) -> float:
    """Windowed L^q_t L^r_xy norm of the free wave from u0 times ``weight(grid)``."""
    times, grid = _frame_times(span, frames), u0.grid
    block = _free_block(u0.multiplier(weight(grid)), form, times)
    block *= hann_window(frames)[:, None, None]
    return _lebesgue_qr(grid.to_physical(block), times[1], q, r, grid.cell_area)


def _free_wave_report(estimate: str, form: DispersionForm, weight, q: float, r: float,
                      grid: Grid2D, samples: int, seed: int, span: float, frames: int,
                      params: dict) -> ProbeReport:
    """Free-wave norms of unit-L2 band-limited data against ||u0||_2 = 1,
    drifted against the same ensemble on the doubled grid."""
    kmax = grid.band_radius

    def one(g: Grid2D, i: int) -> float:
        u0 = random_band_limited(g, seed + i, kmax=kmax, norm="sobolev",
                                 norm_s=0.0, amplitude=1.0)
        return _free_wave_norm(u0, form, weight, q, r, span, frames)

    params = {"nx": grid.nx, "span": span, "frames": frames, "samples": samples,
              "kmax": kmax, **params}
    return _ensemble_report(estimate, one, (grid,), (_doubled(grid),), samples, seed, params)


def strichartz_probe(q: float, r: float, grid: Grid2D, samples: int = 32,
                     seed: int = 0, span: float = 1.0, frames: int = 33) -> ProbeReport:
    """||free solution||_{L^q_t L^r_xy} against ||u0||_2 on the admissible line."""
    if not (q > 3.0 and r > 0.0 and abs(3.0 / q + 2.0 / r - 1.0) <= 1e-12):
        raise UsageError(f"inadmissible pair (q, r) = ({q}, {r}); "
                         "the estimate requires 3/q + 2/r = 1 with q > 3")
    return _free_wave_report("strichartz", DispersionForm.ORIGINAL, lambda g: 1.0,
                             q, r, grid, samples, seed, span, frames, {"q": q, "r": r})


def maximal_derivative_probe(grid: Grid2D, samples: int = 32, seed: int = 0,
                             span: float = 1.0, frames: int = 33,
                             epsilon: float = 0.01, q: float = 2.5) -> ProbeReport:
    """|D_x|^{1/4-eps} of free solutions in L^q_t L^inf_xy against ||u0||_2.

    For free solutions the Bourgain-norm right side reduces to ||u0||_2
    times a window factor; the single-mode baseline records that factor.
    """
    if not 0 < epsilon <= 0.25:
        raise UsageError(f"epsilon must satisfy 0 < epsilon <= 1/4, got {epsilon}")
    power = 0.25 - epsilon

    def weight(g: Grid2D) -> np.ndarray:
        return np.abs(g.xi_grid) ** power

    coeffs = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    coeffs[1, 0] = coeffs[-1, 0] = 0.5 / np.sqrt(grid.area * 0.5)
    baseline = _free_wave_norm(Field(grid, coeffs, "spectral"), DispersionForm.ORIGINAL,
                               weight, q, np.inf, span, frames)
    return _free_wave_report("maximal-derivative", DispersionForm.ORIGINAL, weight,
                             q, np.inf, grid, samples, seed, span, frames,
                             {"q": q, "epsilon": epsilon,
                              "single_mode_baseline": baseline})


def _companion_shells(n1: float, n2: float, grid: Grid2D):
    """Pick the neighbouring rung for the drift measurement.

    The estimate under test is scale-homogeneous in the pair (N1, N2), so the
    drift doubles both shells at once; that keeps the octave-separation
    precondition intact.  When the doubled outer shell would poke past the
    dealias band the rung below is used instead.
    """
    if np.sqrt(2.0) * 2.0 * max(n1, n2) <= grid.band_radius:
        return 2.0 * n1, 2.0 * n2
    return 0.5 * n1, 0.5 * n2


def _shell_pair_report(estimate: str, one, n1: float, n2: float, grid: Grid2D,
                       samples: int, seed: int, span: float, frames: int) -> ProbeReport:
    """Ensemble over the shell pair (n1, n2), drifted against the companion rung."""
    m1, m2 = _companion_shells(n1, n2, grid)
    params = {"n1": n1, "n2": n2, "nx": grid.nx, "span": span, "frames": frames,
              "samples": samples, "companion_n1": m1, "companion_n2": m2}
    return _ensemble_report(estimate, one, (n1, n2), (m1, m2), samples, seed, params)


def bilinear_probe(n1: float, n2: float, grid: Grid2D, samples: int = 32,
                   seed: int = 0, span: float = 1.0, frames: int = 33) -> ProbeReport:
    """||P_N1 u P_N2 v||_{L^2} vs (N1^{1/2}/N2) ||u|| ||v||, N1 << N2."""
    if n2 < 4.0 * n1:
        raise UsageError("bilinear probe requires N1 << N2 "
                         "(at least two octaves: N2 >= 4 N1); swap the roles")

    def one(n_lo: float, n_hi: float, i: int) -> float:
        times = _frame_times(span, frames)
        prod = np.multiply(*(grid.to_physical(_free_block(shell_field(grid, n, seed + 2 * i + d),
                                                          DispersionForm.ORIGINAL, times))
                             for d, n in enumerate((n_lo, n_hi))))
        lhs = _windowed_l2(times[1], np.sum(prod * prod, axis=(1, 2)) * grid.cell_area)
        return lhs * n_hi / np.sqrt(n_lo)

    return _shell_pair_report("bilinear-lowhigh", one, n1, n2, grid, samples, seed,
                              span, frames)


# -- symmetrized-frame estimates --------------------------------------------------

def gh_bilinear_probe(n1: float, n2: float, grid: Grid2D, samples: int = 32,
                      seed: int = 0, span: float = 1.0, frames: int = 17) -> ProbeReport:
    """Half-derivative difference-weighted products of free waves vs N2^{1/2}.

    The symbol |xi_1 - xi_2|^{1/2} |xi_1 + xi_2|^{1/2} depends only on the
    x-rows (j1, j2), so each factor's rows go to y-space by a 1-D transform,
    zero-padded to the product's column range so nothing wraps, and output
    row j sums row j1 of one factor times row j - j1 of the other, weighted.
    Its spatial L2 is Parseval in y summed over rows; the windowed time L2 of
    that is the left side.  Both factors are symmetrized free waves.
    """
    if n2 > n1:
        raise UsageError("this probe requires N2 <= N1; swap the arguments")

    def one(n_big: float, n_small: float, i: int) -> float:
        times = _frame_times(span, frames)
        fields = [shell_field(grid, n, seed + 2 * i + d) for d, n in enumerate((n_big, n_small))]
        # the index ranges of the rows j and columns k that each factor's modes span
        (j1, k1), (j2, k2) = spans = [[np.arange(m.min(), m.max() + 1) for m in (
            grid.jx[f.coeffs.any(axis=1)], grid.jy[f.coeffs.any(axis=0)])] for f in fields]
        size = len(k1) + len(k2) - 1
        kernel = spectral_kernel(grid, DispersionForm.SYMMETRIZED)
        a, b = (np.zeros((len(j), frames, size), dtype=np.complex128) for j, _ in spans)
        for rows, f, (j, k) in zip((a, b), fields, spans):
            block = np.ix_(j % grid.nx, k % grid.ny)
            rows[..., k % size] = (kernel.phase(times, block) * f.coeffs[block]).swapaxes(0, 1)
            rows[:] = np.fft.ifft(rows, axis=-1, norm="forward")
        out = np.zeros((len(j1) + len(j2) - 1, frames, size), dtype=np.complex128)
        xi1, xi2 = grid.xi[j1 % grid.nx][:, None], grid.xi[j2 % grid.nx]
        weight = np.abs(xi1 - xi2) ** 0.5 * np.abs(xi1 + xi2) ** 0.5
        for m in range(len(j1)):  # out[m + n] is row j1[m] + j2[n]
            out[m:m + len(j2)] += weight[m, :, None, None] * b * a[m]
        sq = np.sum(out.real ** 2 + out.imag ** 2, axis=(0, 2)) * (grid.area / size)
        return _windowed_l2(times[1], sq) / np.sqrt(n_small)

    return _shell_pair_report("gh-bilinear", one, n1, n2, grid, samples, seed,
                              span, frames)


def l4_probe(grid: Grid2D, samples: int = 32, seed: int = 0, span: float = 1.0,
             frames: int = 33) -> ProbeReport:
    """|xi|^{1/8}|eta|^{1/8}-weighted free waves in space-time L^4 vs ||u0||_2."""
    def weight(g: Grid2D) -> np.ndarray:
        return (np.abs(g.xi_grid) ** 0.125) * (np.abs(g.eta_grid) ** 0.125)

    return _free_wave_report("l4-riesz", DispersionForm.SYMMETRIZED, weight, 4.0, 4.0,
                             grid, samples, seed, span, frames, {})


# -- time-cutoff decomposition -----------------------------------------------------

@dataclass(frozen=True)
class CutoffDecomposition:
    """1_[0,T] split at temporal frequency L into smooth-low plus high parts.

    The low part is the periodic temporal Fourier multiplier chi(tau/L)
    applied to the indicator samples; the high part is the exact additive
    complement, so reconstruction is exact by construction.
    """

    t_length: float
    l_scale: float
    times: np.ndarray
    indicator: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def reconstruction_error(self) -> float:
        return float(np.max(np.abs(self.low + self.high - self.indicator)))

    def high_norm(self, p: float = 1.5) -> float:
        w = trapezoid_weights(len(self.times), self.dt)
        return float(np.sum(w * np.abs(self.high) ** p) ** (1.0 / p))

    def low_sup(self) -> float:
        return float(np.max(np.abs(self.low)))

    def high_sup(self) -> float:
        return float(np.max(np.abs(self.high)))

    def normalized_high(self) -> float:
        """High part in L^{3/2} with the predicted T^{1/3} L^{-1/3} stripped."""
        return self.high_norm(1.5) * self.t_length ** (-1.0 / 3.0) \
            * self.l_scale ** (1.0 / 3.0)


def _check_scales(t_values, l_values) -> None:
    if not (t_values and l_values and all(0 < v < np.inf for v in (*t_values, *l_values))):
        raise UsageError(f"T and L need positive finite values, got {t_values}, {l_values}")


def cutoff_decompose(t_length: float, l_scale: float,
                     time_grid: np.ndarray) -> CutoffDecomposition:
    _check_scales((t_length,), (l_scale,))
    times = np.asarray(time_grid, dtype=np.float64)
    if times.ndim != 1 or len(times) < 16:
        raise UsageError("need a 1-d time grid with at least 16 nodes")
    steps = np.diff(times)
    dt = steps[0]
    if not np.all(np.isfinite(times)) or np.max(np.abs(steps - dt)) > 1e-12 * max(dt, 1.0):
        raise UsageError("time grid must be finite and uniform")
    span = times[-1] - times[0]
    if span < 2.0 * t_length:
        raise ResolutionError(f"window {span:g} too short for T = {t_length:g} "
                              "(need span >= 2T)")
    if np.pi / dt < 4.0 * l_scale:
        raise ResolutionError(f"time step {dt:g} too coarse for L = {l_scale:g} "
                              "(need pi/dt >= 4L)")
    k = len(times)
    indicator = ((times - times[0] >= 0.0) & (times - times[0] <= t_length)).astype(np.float64)
    tau = 2.0 * np.pi * np.fft.fftfreq(k, d=dt)
    low = np.fft.ifft(np.fft.fft(indicator) * chi(tau / l_scale)).real
    return CutoffDecomposition(t_length=t_length, l_scale=l_scale, times=times,
                               indicator=indicator, low=low,
                               high=indicator - low)


def cutoff_probe(t_values, l_values, num_nodes: int = 4096) -> tuple[list, ProbeReport]:
    """Grid of decompositions plus the drift of the normalized high-part norm.

    The window is [0, 4 max T].  Drift is the worst quotient of normalized
    norms over parameter doublings present within each row or column of the
    (T, L) grid.
    """
    t_values = sorted(float(v) for v in t_values)
    l_values = sorted(float(v) for v in l_values)
    _check_scales(t_values, l_values)  # before the window: an infinite T fails linspace
    span = 4.0 * max(t_values)
    times = np.linspace(0.0, span, num_nodes)
    rows = []
    norm = {}
    for tv in t_values:
        for lv in l_values:
            dec = cutoff_decompose(tv, lv, times)
            norm[(tv, lv)] = dec.normalized_high()
            rows.append({"T": tv, "L": lv, "high_l32": dec.high_norm(1.5),
                         "normalized": norm[(tv, lv)],
                         "recon_error": dec.reconstruction_error(),
                         "high_sup": dec.high_sup(), "low_sup": dec.low_sup()})
    drift = 1.0
    for (tv, lv), val in norm.items():
        for other in ((2.0 * tv, lv), (tv, 2.0 * lv)):
            if other in norm:
                drift = max(drift, _drift(val, norm[other]))
    med = float(np.median([r["normalized"] for r in rows]))
    report = ProbeReport(
        estimate="cutoff-high", seed=0,
        params={"t_values": tuple(t_values), "l_values": tuple(l_values),
                "span": span, "num_nodes": num_nodes, "samples": len(rows)},
        lhs=med, rhs=1.0, ratio=med,
        spread=_stats([r["normalized"] for r in rows]), drift=drift,
        caveat="deterministic decomposition; periodic window surrogate")
    return rows, report


# -- trilinear form with proxy norms ----------------------------------------------

def _trilinear_steps(n1: float, n2: float, n3: float, window: float) -> int:
    """Step count that resolves the fastest three-wave beat in the form.

    On the zero-sum set the symmetrized phase is omega1 + omega2 + omega3 =
    3 (xi1 xi2 xi3 + eta1 eta2 eta3), so with each factor confined to its
    octave shell the beat frequency stays under 6 (sqrt(2))^3 N1 N2 N3.
    Sampling coarser than that aliases the non-resonant beats into O(1)
    quadrature noise that swamps the near-resonant signal.
    """
    omega_cap = 6.0 * np.sqrt(2.0) ** 3 * n1 * n2 * n3
    fine = int(np.ceil(window * omega_cap / 1.5))
    return 64 * max(1, int(np.ceil(fine / 64.0)))


def trilinear_form_probe(n1: float, n2: float, n3: float, t_length: float,
                         grid: Grid2D, samples: int = 32, seed: int = 0,
                         num_steps: int | None = None,
                         amplitude: float = 0.05) -> ProbeReport:
    """Cutoff-weighted trilinear form against the two-regime shell bounds.

    Inputs are shell projections of one small-amplitude nonlinear solution
    (free wave plus genuine Duhamel correction), because exactly free waves
    have vanishing twisted-variation proxy norms and the ratio would be
    undefined.  The proxy-norm floor of the ensemble is recorded.

    The headline drift doubles the grid resolution at fixed shells, checking
    that the reported ratio is not a dealias-band artifact.  The window
    doubling T -> 2T, recorded in params as t_doubling_drift, steps the base
    grid on into 4T at the 2T step size (``num_steps`` counts the 2T steps);
    it grows like the cube of the secular proxy growth, so it tracks the
    proxy surrogate rather than the estimate itself.  Octave ladders are
    left to the caller (run the probe per rung and compare ratios).
    """
    def similar(a, b):
        return max(a, b) <= 2.0 * min(a, b)

    if similar(n1, n3) and n1 >= 4.0 * n2:
        regime, power_t, scale = "high-low-high", 0.5, np.sqrt(n2)
    elif similar(n1, n2) and n2 >= n3:
        regime, power_t, scale = "balanced", 1.0 / 6.0, np.sqrt(n1)
    else:
        raise UsageError("shells must satisfy N1 ~ N3 >> N2 (high-low-high) "
                         "or N1 ~ N2 >= N3 (balanced); got "
                         f"({n1}, {n2}, {n3})")
    form = DispersionForm.SYMMETRIZED
    floors, longer = [], []
    steps = num_steps or _trilinear_steps(n1, n2, n3, 2.0 * t_length)
    # the proxies keep a frame every stride steps: at least 64 a window (or every
    # step), and stride divides steps, so the frames reach the window's end
    stride = max(d for d in range(1, max(1, steps // 64) + 1) if steps % d == 0)
    dt = 2.0 * t_length / steps

    def one(g: Grid2D, windows: int, i: int) -> float:  # the base rung runs on into 4T
        band = np.s_[:, :g.band_columns]
        weights = {n: shell_weight(g.abs_zeta, n)[band] for n in {n1, n2, n3}}
        # the three factors' band-block weights, transformed in one to_physical
        factors = np.stack([weights[n1], weights[n2],
                            -weights[n3] * spectral_kernel(g, form).band_neg_dmask])
        support = np.nonzero(np.any([weights[n] != 0 for n in weights], axis=0))
        u0 = Field(g, amplitude * np.sum([shell_field(g, n, seed + 3 * i + d).coeffs
                                          for d, n in enumerate((n1, n2, n3))], axis=0), "spectral")
        state = SolverState(u0, 0.0, dt, form)
        tableau = etdrk4_tableau(g, dt, form)
        integrand = np.empty(windows * steps + 1)
        kept, ratios = [], []

        def record(st: SolverState):
            a, b, d = g.to_physical(st.band * factors)
            integrand[st.steps] = np.sum(a * b * d) * g.cell_area
            if st.steps % stride == 0:
                kept.append(st.band[support])  # the three shells' modes only

        record(state)
        for _ in range(windows * steps):
            state = step_etdrk4(state, tableau)
            record(state)
        for w in range(1, windows + 1):  # the window 2 w T, with frames every w * stride
            times = dt * np.arange(w * steps + 1)
            form_val = abs(definite_integral(chi(times / (w * t_length))
                                             * integrand[:len(times)], dt))
            coarse = np.stack(kept[:w * steps // stride + 1:w])
            frame_times = (w * stride * dt) * np.arange(len(coarse))
            proxies = [_twisted(g, frame_times, coarse * weights[n][support], *support, 2.0, form)
                       for n in (n1, n2, n3)]
            floors.extend(proxies)
            rhs = (w * t_length) ** power_t * scale * proxies[0] * proxies[1] * proxies[2]
            ratios.append(form_val / rhs if rhs > 0 else np.inf)
        longer.extend(ratios[1:])
        return ratios[0]

    report = _ensemble_report(
        "trilinear-form", one, (grid, 2), (_doubled(grid), 1), samples,
        seed, {"n1": n1, "n2": n2, "n3": n3, "T": t_length, "regime": regime,
               "nx": grid.nx, "num_steps": num_steps, "samples": samples,
               "amplitude": amplitude},
        caveat=TORUS_CAVEAT + "; V2-proxy norms in place of U2/V2")
    return replace(report, params={
        **report.params, "proxy_floor": min(floors),
        "t_doubling_drift": _drift(report.ratio, float(np.median(longer)))})
