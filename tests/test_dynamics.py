"""Time-stepping tests: free propagator phases, ETDRK4 order, failure modes,
the shared spectral kernel, and Hermitian symmetry on random grids."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zklab.dynamics
import zklab.spectral

from zklab import (
    DispersionForm,
    EtdrkTableau,
    InstabilityError,
    SolverState,
    UsageError,
    dealias,
    derivative,
    etdrk4_tableau,
    evolve,
    from_coefficients,
    linear_propagator,
    make_field,
    make_grid,
    mass,
    sobolev_norm,
    step_etdrk4,
)
from zklab.dynamics import max_dispersion, spectral_kernel
from zklab.ic import random_band_limited

G = make_grid(32, 32, 2 * np.pi, 2 * np.pi)


def mode(g, jx, jy, amp=1.0):
    c = np.zeros((g.nx, g.ny), dtype=complex)
    c[jx, jy] = c[-jx, -jy] = 0.5 * amp
    return from_coefficients(g, c)


def smooth_data(g, seed=3, amp=0.5):
    rng = np.random.default_rng(seed)
    x, y = g.x[:, None], g.y[None, :]
    u = amp * (np.cos(x) * np.sin(y) + 0.3 * rng.standard_normal() * np.cos(2 * x + y))
    return make_field(g, u)


class TestFreePropagator:
    def test_single_mode_phase(self):
        """For the original form the (2, 1) mode has omega = 10, so t = 0.1
        multiplies the coefficient by exp(i)."""
        u = mode(G, 2, 1)
        v = linear_propagator(u, 0.1, DispersionForm.ORIGINAL)
        assert v.coeffs[2, 1] == pytest.approx(0.5 * np.exp(1.0j), abs=1e-14)
        assert v.coeffs[-2, -1] == pytest.approx(0.5 * np.exp(-1.0j), abs=1e-14)

    def test_group_property(self):
        u = smooth_data(G)
        ab = linear_propagator(linear_propagator(u, 0.3, DispersionForm.SYMMETRIZED),
                               0.7, DispersionForm.SYMMETRIZED)
        once = linear_propagator(u, 1.0, DispersionForm.SYMMETRIZED)
        np.testing.assert_allclose(ab.coeffs, once.coeffs, atol=1e-14)

    def test_isometry_on_l2(self):
        u = smooth_data(G)
        v = linear_propagator(u, 2.5, DispersionForm.ORIGINAL)
        assert sobolev_norm(v, 0.0) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-13)

    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_phase_stacks_the_propagator_multipliers(self, form):
        """phase(t) has one exp(i t omega) per time, linear_propagator applies
        exactly that multiplier, and phase(-t) is the conjugate."""
        kernel = spectral_kernel(G, form)
        u = smooth_data(G)
        t = np.array([0.0, 0.3, -1.1])
        stack = kernel.phase(t)
        assert stack.shape == (3, G.nx, G.ny)
        np.testing.assert_array_equal(stack[0], 1.0)
        for tk, multiplier in zip(t, stack):
            np.testing.assert_array_equal(linear_propagator(u, tk, form).coeffs,
                                          u.coeffs * multiplier)
        np.testing.assert_allclose(kernel.phase(-t), np.conj(stack), rtol=0.0, atol=1e-15)

    def test_phase_on_a_support_mask_is_the_gathered_full_phase(self):
        kernel = spectral_kernel(G, DispersionForm.SYMMETRIZED)
        support = np.abs(smooth_data(G).coeffs) > 1e-3
        t = np.array([0.0, 0.3, -1.1])
        assert 0 < support.sum() < support.size
        np.testing.assert_array_equal(kernel.phase(t, support), kernel.phase(t)[:, support])

    def test_real_output(self):
        """The propagated coefficients stay Hermitian: their full inverse
        transform is real to round-off relative to the field."""
        v = linear_propagator(smooth_data(G), 0.37, DispersionForm.ORIGINAL)
        imag = np.fft.ifft2(v.coeffs, norm="forward").imag
        assert np.abs(imag).max() <= 1e-14 * np.abs(v.values).max()


class TestEtdrk4:
    def test_matches_free_flow_at_tiny_amplitude(self):
        u = mode(G, 1, 2, amp=1e-9)
        traj = evolve(u, 0.1, 1e-3, DispersionForm.ORIGINAL, sample_every=100)
        free = linear_propagator(u, 0.1, DispersionForm.ORIGINAL)
        # quadratic interaction contributes only at the amp^2 = 1e-18 scale
        np.testing.assert_allclose(traj.frame(1).coeffs, free.coeffs,
                                   atol=1e-17, rtol=1e-7)

    def test_fourth_order_convergence(self):
        """Richardson: halving dt should shrink the error about 16x."""
        u = smooth_data(G, amp=0.8)
        T = 0.05
        sols = {}
        for dt in (T / 40, T / 80, T / 160):
            traj = evolve(u, T, dt, DispersionForm.ORIGINAL, sample_every=int(T / dt))
            sols[dt] = traj.frame(1).coeffs
        ref = sols[T / 160]
        e1 = np.linalg.norm(sols[T / 40] - ref)
        e2 = np.linalg.norm(sols[T / 80] - ref)
        # e1/e2 ~ (16 - 1) for a 4th-order method against a 2x-finer reference
        assert 8.0 < e1 / e2 < 32.0

    def test_symmetrized_mass_drift_is_fourth_order(self):
        """The symmetrized form's mass drift on the criterion-2 data is
        integrator error: halving dt shrinks it about 16x."""
        g = make_grid(64, 64, 2 * np.pi, 2 * np.pi)
        u0 = random_band_limited(g, seed=7, kmax=10.0, envelope=3.0, amplitude=0.3)
        drift = {}
        for dt in (1e-3, 5e-4):
            traj = evolve(u0, 0.5, dt, DispersionForm.SYMMETRIZED,
                          sample_every=int(round(0.5 / dt)))
            m0, m1 = mass(traj.frame(0)), mass(traj.frame(-1))
            drift[dt] = abs(m1 - m0) / m0
        assert 8.0 < drift[1e-3] / drift[5e-4] < 32.0

    def test_zero_time_returns_initial_frame(self):
        u = smooth_data(G)
        traj = evolve(u, 0.0, 1e-3, DispersionForm.ORIGINAL)
        assert traj.num_frames == 1
        np.testing.assert_allclose(traj.frame(0).values, u.values, atol=1e-13)

    def test_manual_stepping_matches_evolve(self):
        u = smooth_data(G)
        state = SolverState(u, 0.0, 1e-3, DispersionForm.SYMMETRIZED)
        tab = etdrk4_tableau(G, 1e-3, DispersionForm.SYMMETRIZED)
        for _ in range(20):
            state = step_etdrk4(state, tab)
        traj = evolve(u, 0.02, 1e-3, DispersionForm.SYMMETRIZED, sample_every=20)
        np.testing.assert_allclose(G.full_spectrum(state.band), traj.frame(1).coeffs, atol=1e-14)
        assert state.steps == 20
        assert state.t == pytest.approx(0.02)

    def test_sampling_stride(self):
        u = smooth_data(G)
        traj = evolve(u, 0.02, 1e-3, DispersionForm.ORIGINAL, sample_every=5)
        assert traj.num_frames == 5  # t = 0 plus 4 samples
        assert traj.dt == pytest.approx(5e-3)


class TestFailureModes:
    def test_dt_omega_guard(self):
        u = smooth_data(G)
        with pytest.raises(UsageError):
            SolverState(u, 0.0, 10.0, DispersionForm.ORIGINAL)

    def test_fractional_step_count(self):
        with pytest.raises(UsageError):
            evolve(smooth_data(G), 0.0101, 1e-3, DispersionForm.ORIGINAL)

    @pytest.mark.parametrize("t_final, dt", [(0.01, -0.001), (0.01, 0.0), (0.01, math.nan),
                                             (math.nan, 0.001), (math.inf, 0.001), (0.0, -1.0),
                                             (1e300, 1e-300)])
    def test_invalid_step_sizes_are_usage_errors(self, t_final, dt):
        with pytest.raises(UsageError):
            evolve(smooth_data(G), t_final, dt, DispersionForm.ORIGINAL)

    def test_stride_mismatch(self):
        with pytest.raises(UsageError):
            evolve(smooth_data(G), 0.01, 1e-3, DispersionForm.ORIGINAL, sample_every=3)
        for every in (2.5, 2.0):  # refused as a stride, not by numpy's frame allocation
            with pytest.raises(UsageError, match="sample_every must be a positive integer"):
                evolve(smooth_data(G), 0.01, 1e-3, DispersionForm.ORIGINAL, sample_every=every)
        traj = evolve(smooth_data(G), 0.01, 1e-3, DispersionForm.ORIGINAL,
                      sample_every=np.int64(2))
        assert traj.num_frames == 6

    def test_blowup_reports_diagnostics(self):
        u = make_field(G, 80.0 * np.cos(G.x[:, None] + 0.0 * G.y[None, :]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError) as err:
                evolve(u, 2.0, 0.02, DispersionForm.ORIGINAL)
        assert "t =" in str(err.value)
        diag = err.value.last_diagnostics
        assert diag["steps"] >= 1 and np.isfinite(diag["l2"])

    def test_diagnostics_hook(self):
        seen = []
        evolve(smooth_data(G), 0.01, 1e-3, DispersionForm.ORIGINAL,
               sample_every=5, diagnostics=lambda state: seen.append(state.t))
        np.testing.assert_allclose(seen, [0.0, 5e-3, 1e-2], atol=1e-12)

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_diagnostics_receive_each_sampled_state(self, sample_every):
        """The callback gets the stepper's own state at each sampled frame: its
        counters, its clock and the band block the trajectory stores."""
        seen, dt = [], 1e-3
        traj = evolve(smooth_data(G), 12 * dt, dt, DispersionForm.SYMMETRIZED,
                      sample_every=sample_every, diagnostics=seen.append)
        assert len(seen) == traj.num_frames == 12 // sample_every + 1
        t = 0.0
        for k, state in enumerate(seen):
            assert isinstance(state, SolverState)
            assert state.steps == k * sample_every
            assert state.t == t
            np.testing.assert_array_equal(state.band, traj.block[k])
            for _ in range(sample_every):
                t += dt


def reference_nonlinear(grid, form, coeffs):
    """-D (u^2)^ mask on full complex FFTs, every symbol rebuilt per call."""
    n = grid.nx * grid.ny
    vals = np.real(np.fft.ifft2(coeffs)) * n
    sq = np.fft.fft2(vals * vals) / n
    return -form.nonlinear_derivative(grid) * sq * grid.dealias_mask


def full_tableau(grid, dt, form):
    """The ETDRK4 coefficients on the full lattice, from the phi functions of
    form.omega(grid): an oracle independent of the tableau under test."""
    z = 1j * dt * form.omega(grid)
    phi = zklab.dynamics._phi
    phi1, phi2, phi3 = phi(1, z), phi(2, z), phi(3, z)
    return EtdrkTableau(
        e_full=np.exp(z),
        e_half=np.exp(0.5 * z),
        q=0.5 * dt * phi(1, 0.5 * z),
        f1=dt * (phi1 - 3.0 * phi2 + 4.0 * phi3),
        f2=dt * (phi2 - 2.0 * phi3),
        f3=dt * (4.0 * phi3 - phi2),
    )


def reference_step(coeffs, grid, dt, form):
    """One ETDRK4 step written out with the symbols rebuilt inside it."""
    tab = full_tableau(grid, dt, form)
    uhat = coeffs * grid.dealias_mask

    def nonlin(v):
        return reference_nonlinear(grid, form, v)

    n0 = nonlin(uhat)
    a = tab.e_half * uhat + tab.q * n0
    na = nonlin(a)
    b = tab.e_half * uhat + tab.q * na
    nb = nonlin(b)
    c = tab.e_half * a + tab.q * (2.0 * nb - n0)
    nc = nonlin(c)
    return tab.e_full * uhat + tab.f1 * n0 + 2.0 * tab.f2 * (na + nb) + tab.f3 * nc


class TestSpectralKernel:
    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_step_matches_reference_step(self, form):
        u = smooth_data(G, amp=0.8)
        state = SolverState(u.spectral(), 0.0, 1e-3, form)
        tab = etdrk4_tableau(G, 1e-3, form)
        ref = u.coeffs
        for _ in range(20):
            state = step_etdrk4(state, tab)
            ref = reference_step(ref, G, 1e-3, form)
        gap = np.linalg.norm(G.full_spectrum(state.band) - ref) / np.linalg.norm(ref)
        assert gap <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32]), ny=st.sampled_from([8, 16, 32]),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)),
           batch=st.sampled_from([None, 3]))
    def test_nonlinear_equals_reference(self, nx, ny, seed, form, batch):
        grid = make_grid(nx, ny, 2 * np.pi, 3 * np.pi)
        rng = np.random.default_rng(seed)
        shape = (nx, ny) if batch is None else (batch, nx, ny)
        coeffs = np.fft.fft2(rng.standard_normal(shape)) / (nx * ny)
        got = grid.full_spectrum(spectral_kernel(grid, form).band_nonlinear(coeffs))
        want = np.array([reference_nonlinear(grid, form, c)
                         for c in coeffs.reshape(-1, nx, ny)]).reshape(shape)
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * scale)
        # the product of two distinct inputs, against the full-lattice product on the band
        other = np.fft.fft2(rng.standard_normal(shape)) / (nx * ny)
        got = grid.full_spectrum(grid.band_product(coeffs, other))[..., grid.dealias_mask]
        n = nx * ny
        want = (np.fft.fft2(np.real(np.fft.ifft2(coeffs)) * np.real(np.fft.ifft2(other)) * n)
                [..., grid.dealias_mask])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())

    def test_no_symbol_built_per_step(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def inner(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return inner

        for name in ("omega", "nonlinear_derivative"):
            monkeypatch.setattr(DispersionForm, name,
                                counting(name, getattr(DispersionForm, name)))

        def built(n_steps):
            spectral_kernel.cache_clear()
            counts.clear()
            evolve(smooth_data(G), n_steps * 1e-3, 1e-3, DispersionForm.SYMMETRIZED)
            return dict(counts)

        ten = built(10)
        assert ten == built(20)
        assert ten == {"omega": 1, "nonlinear_derivative": 1}

    @pytest.mark.parametrize("name", ["omega", "band_neg_dmask"])
    def test_kernel_arrays_are_read_only(self, name):
        arr = getattr(spectral_kernel(G, DispersionForm.ORIGINAL), name)
        assert arr.flags.c_contiguous  # a strided array would slow every product with it
        with pytest.raises(ValueError):
            arr[1, 1] = arr[0, 0]

    @settings(max_examples=30, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64, 128, 256]),
           ny=st.sampled_from([8, 16, 32, 64, 128, 256]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0), dt=st.floats(1e-6, 1e-2),
           form=st.sampled_from(list(DispersionForm)))
    @example(nx=8, ny=256, lx=2 * np.pi, ly=2 * np.pi, dt=1e-3, form=DispersionForm.ORIGINAL)
    @example(nx=256, ny=8, lx=3.0, ly=0.5, dt=1e-3, form=DispersionForm.SYMMETRIZED)
    def test_tableau_is_the_full_tableau_on_the_band_block(self, nx, ny, lx, ly, dt, form):
        g = make_grid(nx, ny, lx, ly)
        got, want = etdrk4_tableau(g, dt, form), full_tableau(g, dt, form)
        for f in dataclasses.fields(EtdrkTableau):
            block = getattr(got, f.name)
            assert block.shape == (nx, g.band_columns)
            np.testing.assert_array_equal(block, getattr(want, f.name)[:, :g.band_columns])

    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_max_dispersion_over_band(self, form):
        want = np.abs(form.omega(G)[G.dealias_mask]).max()
        assert max_dispersion(G, form) == want
        assert spectral_kernel(G, form) is spectral_kernel(
            make_grid(32, 32, 2 * np.pi, 2 * np.pi), form)


def hermitian_defect(coeffs: np.ndarray) -> float:
    """max |c(-zeta) - conj c(zeta)| over the lattice, relative to max |c|."""
    mirror = np.roll(np.flip(coeffs, axis=(-2, -1)), 1, axis=(-2, -1))
    return float(np.abs(mirror - np.conj(coeffs)).max() / np.abs(coeffs).max())


class TestHermitianSymmetry:
    """Real fields stay real: every lattice operator keeps c(-zeta) = conj c(zeta)
    to round-off, on the unpaired Nyquist row and column as well, where only
    the odd-symbol Nyquist rule keeps the odd multipliers Hermitian."""

    TOL = 1e-12

    @settings(max_examples=30, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0), t=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)))
    @example(nx=64, ny=8, lx=1.0, ly=1.0, t=1.0, seed=0, form=DispersionForm.ORIGINAL)
    def test_operators_keep_hermitian_coefficients(self, nx, ny, lx, ly, t, seed, form):
        g = make_grid(nx, ny, lx, ly)
        u = make_field(g, np.random.default_rng(seed).standard_normal((nx, ny)))
        assert hermitian_defect(u.coeffs) <= self.TOL
        for ax in range(4):
            for ay in range(4):
                assert hermitian_defect(derivative(u, ax, ay).coeffs) <= self.TOL, (ax, ay)
        # numpy's vectorised cube may round xi^3 and (-xi)^3 one ulp apart, so
        # omega is odd only to one ulp and exp(i t omega) to |t| ulp(max|omega|)
        kernel = spectral_kernel(g, form)
        phase_tol = self.TOL + 4.0 * np.finfo(float).eps * abs(t) * np.abs(kernel.omega).max()
        assert hermitian_defect(linear_propagator(u, t, form).coeffs) <= phase_tol
        assert hermitian_defect(g.full_spectrum(kernel.band_nonlinear(u.coeffs))) <= self.TOL
        # a small step and amplitude keep three steps far from blow-up on any box
        dt = min(1e-3, 0.5 / max_dispersion(g, form))
        state = SolverState(from_coefficients(g, 0.1 * u.coeffs), 0.0, dt, form)
        tableau = etdrk4_tableau(g, dt, form)
        for _ in range(3):
            state = step_etdrk4(state, tableau)
        assert hermitian_defect(g.full_spectrum(state.band)) <= self.TOL


def mirror(coeffs: np.ndarray) -> np.ndarray:
    """c(-zeta) on the lattice, for every zeta in FFT order."""
    return np.roll(np.flip(coeffs, axis=(-2, -1)), 1, axis=(-2, -1))


BOXES = dict(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
             lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
             seed=st.integers(0, 2 ** 32 - 1))


class TestHalfSpectrum:
    """The stepper runs on a leading block of the (nx, ny // 2 + 1) half
    spectrum; the public API converts at its boundary and must agree with the
    full spectrum."""

    @settings(max_examples=50, deadline=None)
    @given(**BOXES)
    def test_full_half_full_round_trips_hermitian_coefficients(self, nx, ny, lx, ly, seed):
        g = make_grid(nx, ny, lx, ly)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, nx, ny)) + 1j * rng.standard_normal((2, nx, ny))
        hermitian = 0.5 * (a + np.conj(mirror(a)))
        half = hermitian[..., :ny // 2 + 1]
        assert half.shape == (2, nx, ny // 2 + 1)
        np.testing.assert_array_equal(g.full_spectrum(half), hermitian)
        # the half spectrum of a real field is numpy's rfft2 layout
        x = rng.standard_normal((nx, ny))
        np.testing.assert_allclose(make_field(g, x).coeffs[:, :ny // 2 + 1],
                                   np.fft.rfft2(x, norm="forward"), rtol=0.0, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(**BOXES, form=st.sampled_from(list(DispersionForm)), k=st.integers(1, 4))
    def test_step_etdrk4_matches_evolve_frames(self, nx, ny, lx, ly, seed, form, k):
        g = make_grid(nx, ny, lx, ly)
        u = make_field(g, 0.1 * np.random.default_rng(seed).standard_normal((nx, ny)))
        dt = min(1e-3, 0.5 / max_dispersion(g, form))
        traj = evolve(u, k * dt, dt, form)
        assert traj.num_frames == k + 1
        state = SolverState(u, 0.0, dt, form)
        tableau = etdrk4_tableau(g, dt, form)
        for frame in range(1, k + 1):
            state = step_etdrk4(state, tableau)
            want = traj.frame(frame).coeffs
            gap = np.linalg.norm(g.full_spectrum(state.band) - want)
            assert gap <= 1e-14 * np.linalg.norm(want)

    @settings(max_examples=25, deadline=None)
    @given(**BOXES, form=st.sampled_from(list(DispersionForm)),
           boost=st.sampled_from([0, 150, 250]))
    def test_instability_reports_the_last_finite_l2(self, nx, ny, lx, ly, seed, form, boost):
        g = make_grid(nx, ny, lx, ly)
        # a nonlinear rate |D| u dt of order 1e5 per step breaks down in a step or two;
        # boosted data fail at once, from a state whose squares overflow
        dt = 1e3 / max_dispersion(g, form)
        amplitude = 1e5 / (dt * np.abs(spectral_kernel(g, form).band_neg_dmask).max()) * 10.0 ** boost
        u = make_field(g, amplitude * np.random.default_rng(seed).standard_normal((nx, ny)))
        seen = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError) as err:
                evolve(u, 50 * dt, dt, form, diagnostics=seen.append)
        last = seen[-1]
        # math.hypot scales internally, so a state near overflow has a finite reference
        l2 = math.sqrt(g.area) * math.hypot(*np.abs(g.full_spectrum(last.band)).ravel())
        diag = err.value.last_diagnostics
        assert diag["steps"] == len(seen) - 1
        assert diag["t"] == last.t
        assert np.isfinite(l2)
        assert diag["l2"] == pytest.approx(l2, rel=1e-14)


def half_spectrum_step(coeffs, grid, tableau, form):
    """The stepper as it was before band pruning: every stage on all
    ny // 2 + 1 half columns through numpy's 2-D real transforms, and the full
    spectrum rebuilt after the step.  ``tableau`` is a full-lattice one
    (``full_tableau``); the symbols are rebuilt here."""
    width = grid.ny // 2 + 1
    mask = grid.dealias_mask
    half_mask, half_neg_dmask = (np.ascontiguousarray(a[:, :width])
                                 for a in (mask, -form.nonlinear_derivative(grid) * mask))
    tab = EtdrkTableau(*(np.ascontiguousarray(getattr(tableau, f.name)[..., :width])
                         for f in dataclasses.fields(tableau)))

    def nonlinear(half):
        vals = np.fft.irfft2(half, s=(grid.nx, grid.ny), norm="forward")
        return half_neg_dmask * np.fft.rfft2(vals * vals, norm="forward")

    uhat = coeffs[:, :width] * half_mask
    n0 = nonlinear(uhat)
    a = tab.e_half * uhat + tab.q * n0
    na = nonlinear(a)
    b = tab.e_half * uhat + tab.q * na
    nb = nonlinear(b)
    c = tab.e_half * a + tab.q * (2.0 * nb - n0)
    nc = nonlinear(c)
    new = tab.e_full * uhat + tab.f1 * n0 + 2.0 * tab.f2 * (na + nb) + tab.f3 * nc
    tail = new[-np.arange(grid.nx) % grid.nx, grid.ny // 2 - 1:0:-1]
    return np.concatenate((new, np.conj(tail)), axis=-1)


# numpy evaluates `x * temporary` as `temporary *= x` once the temporary
# reaches 256 KiB (temporary elision), and its complex multiply need not round
# x * t and t * x alike (it may fuse a multiply-add), so two steppers with the
# same expressions round alike where their temporaries sit on the same side
# of that size
ELISION_BYTES = 256 * 1024


class TestBandStepper:
    """step_etdrk4 carries only the band block between steps and is bit-equal
    to the half-spectrum stepper it replaced, except where the half spectrum's
    temporaries are elided (nx * ny >= 2 ** 15 among these grids; the band
    stepper pins its operand order): there the two agree to round-off."""

    @settings(max_examples=12, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64, 128, 256]),
           ny=st.sampled_from([8, 16, 32, 64, 128, 256]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(nx=8, ny=64, lx=2 * np.pi, ly=2 * np.pi, seed=0)
    @example(nx=64, ny=8, lx=3.0, ly=0.5, seed=1)
    @example(nx=128, ny=256, lx=30.0, ly=11.0, seed=0)
    def test_twenty_steps_equal_the_half_spectrum_stepper(self, nx, ny, lx, ly, seed):
        g = make_grid(nx, ny, lx, ly)
        elided = 16 * nx * (ny // 2 + 1) >= ELISION_BYTES
        noise = np.random.default_rng(seed).standard_normal((nx, ny))
        u = make_field(g, 0.1 * noise).spectral()
        for form in DispersionForm:
            dt = min(1e-3, 0.5 / max_dispersion(g, form))
            tableau, full = etdrk4_tableau(g, dt, form), full_tableau(g, dt, form)
            state, want = SolverState(u, 0.0, dt, form), u.coeffs
            with pytest.MonkeyPatch.context() as patch:
                calls = Counter()
                full_spectrum = zklab.spectral.Grid2D.full_spectrum

                def counting(grid, half):
                    calls["full_spectrum"] += 1
                    return full_spectrum(grid, half)

                patch.setattr(zklab.spectral.Grid2D, "full_spectrum", counting)
                for _ in range(20):
                    state = step_etdrk4(state, tableau)
                    want = half_spectrum_step(want, g, full, form)
            assert calls["full_spectrum"] == 0
            assert state.steps == 20 and state.t == pytest.approx(20 * dt, rel=1e-14)
            assert state.band.shape == (nx, ny // 3 + 1)
            if not elided:
                np.testing.assert_array_equal(g.full_spectrum(state.band), want)
            else:
                gap = np.linalg.norm(g.full_spectrum(state.band) - want)
                assert gap <= 1e-14 * np.linalg.norm(want)


def pinned_step(band, grid, tab, neg_dmask):
    """step_etdrk4's expressions with every product an explicit np.multiply in the
    written order, which temporary elision cannot swap."""
    mul = np.multiply

    def nonlinear(c):
        vals = grid.to_physical(c)
        return mul(neg_dmask, grid.to_spectral(mul(vals, vals), grid.band_columns))

    n0 = nonlinear(band)
    a = mul(tab.e_half, band) + mul(tab.q, n0)
    na = nonlinear(a)
    b = mul(tab.e_half, band) + mul(tab.q, na)
    nb = nonlinear(b)
    c = mul(tab.e_half, a) + mul(tab.q, mul(2.0, nb) - n0)
    nc = nonlinear(c)
    return (mul(tab.e_full, band) + mul(tab.f1, n0) + mul(mul(2.0, tab.f2), na + nb)
            + mul(tab.f3, nc))


class TestPinnedOperandOrder:
    """step_etdrk4 rounds the same on every grid size: its products keep their
    written operand order where numpy would elide a temporary (ELISION_BYTES).
    Unit-amplitude noise on a wide box makes the nonlinear stages large enough
    that a swapped operand order shows in the sums at 256^2."""

    @settings(max_examples=12, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64, 128, 256]),
           ny=st.sampled_from([8, 16, 32, 64, 128, 256]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(nx=128, ny=256, lx=30.0, ly=11.0, seed=0)
    @example(nx=256, ny=128, lx=2 * np.pi, ly=2 * np.pi, seed=1)
    @example(nx=256, ny=256, lx=50.0, ly=50.0, seed=2)
    def test_twenty_steps_equal_the_pinned_reference(self, nx, ny, lx, ly, seed):
        g = make_grid(nx, ny, lx, ly)
        u = make_field(g, np.random.default_rng(seed).standard_normal((nx, ny)))
        for form in DispersionForm:
            dt = min(1e-3, 0.5 / max_dispersion(g, form))
            tableau = etdrk4_tableau(g, dt, form)
            state = SolverState(u, 0.0, dt, form)
            want = state.band
            for _ in range(20):
                state = step_etdrk4(state, tableau)
                want = pinned_step(want, g, tableau, spectral_kernel(g, form).band_neg_dmask)
            np.testing.assert_array_equal(state.band, want)


class TestStateProjection:
    """A SolverState is projected onto the 2/3 band once, when it is built;
    steps keep it there with no projection of their own."""

    @staticmethod
    def out_of_band(g, seed=0):
        u = make_field(g, 0.1 * np.random.default_rng(seed).standard_normal((g.nx, g.ny)))
        assert np.any(u.coeffs[~g.dealias_mask])
        return u

    @pytest.mark.parametrize("nx, ny", [(16, 16), (16, 32), (64, 8)])
    def test_unstepped_field_is_the_dealiased_field(self, nx, ny):
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        u = self.out_of_band(g)
        for field in (u, u.spectral()):
            state = SolverState(field, 0.0, 1e-3, DispersionForm.ORIGINAL)
            np.testing.assert_array_equal(g.full_spectrum(state.band), dealias(u).coeffs)

    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_steps_equal_those_from_the_dealiased_field(self, form):
        g = make_grid(32, 16, 2 * np.pi, 3.0)
        u = self.out_of_band(g, seed=1)
        dt = min(1e-3, 0.5 / max_dispersion(g, form))
        tableau = etdrk4_tableau(g, dt, form)
        raw, clean = SolverState(u, 0.0, dt, form), SolverState(dealias(u), 0.0, dt, form)
        for _ in range(20):
            raw, clean = step_etdrk4(raw, tableau), step_etdrk4(clean, tableau)
        np.testing.assert_array_equal(raw.band, clean.band)
        assert not np.any(g.full_spectrum(raw.band)[~g.dealias_mask])
