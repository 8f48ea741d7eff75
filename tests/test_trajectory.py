"""Trajectory container and modulation-projection tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import (
    DataError,
    DispersionForm,
    ResolutionError,
    SpaceTimeField,
    UsageError,
    from_coefficients,
    linear_propagator,
    make_grid,
    modulation_project,
)
from zklab.trajectory import hann_window

G = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
SIZES = st.sampled_from([8, 16, 32, 64])


def hermitian_frames(grid, k, seed):
    """(k, nx, ny) exactly Hermitian coefficients: random data averaged with its mirror."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, grid.nx, grid.ny)) + 1j * rng.standard_normal((k, grid.nx, grid.ny))
    return 0.5 * (a + np.conj(np.roll(a[:, ::-1, ::-1], 1, axis=(1, 2))))


def mode(jx, jy, amp=1.0):
    c = np.zeros((G.nx, G.ny), dtype=complex)
    c[jx, jy] = c[-jx, -jy] = 0.5 * amp
    return from_coefficients(G, c)


def free_trajectory(u0, form, span, frames):
    dt = span / (frames - 1)
    stack = [linear_propagator(u0, dt * i, form).coeffs for i in range(frames)]
    return SpaceTimeField(u0.grid, 0.0, dt, np.array(stack))


class TestContainer:
    def test_times_and_span(self):
        stf = SpaceTimeField(G, 1.0, 0.25, np.zeros((5, 16, 16), dtype=complex))
        np.testing.assert_allclose(stf.times, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert stf.span == 1.0
        assert stf.num_frames == 5

    def test_shape_validation(self):
        with pytest.raises(DataError):
            SpaceTimeField(G, 0.0, 0.1, np.zeros((5, 8, 16), dtype=complex))
        with pytest.raises(DataError):
            SpaceTimeField(G, 0.0, 0.0, np.zeros((5, 16, 16), dtype=complex))

    @pytest.mark.parametrize("dt", [np.inf, -np.inf, np.nan, -1.0])
    def test_dt_not_finite_and_positive_rejected(self, dt):
        """dt = inf once gave increment_identity_check non-finite integrals and a nan
        residual; a single frame has no time step and takes any dt."""
        with pytest.raises(DataError, match="finite and positive"):
            SpaceTimeField(G, 0.0, dt, np.zeros((9, 16, 16), dtype=complex))
        assert SpaceTimeField(G, 0.0, dt, np.zeros((1, 16, 16), dtype=complex)).num_frames == 1

    @settings(max_examples=40, deadline=None)
    @given(nx=SIZES, ny=SIZES, seed=st.integers(0, 2 ** 32 - 1))
    def test_half_spectrum_storage_round_trips(self, nx, ny, seed):
        """Hermitian frames come back bit for bit from the stored half spectrum, and
        values() equals to_physical of the full frames."""
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        full = hermitian_frames(g, 3, seed)
        stf = SpaceTimeField(g, 0.0, 0.1, full)
        assert stf.block.shape == (3, nx, ny // 2 + 1)
        np.testing.assert_array_equal(stf.coeffs, full)
        for i in range(3):
            np.testing.assert_array_equal(stf.frame(i).coeffs, full[i])
        np.testing.assert_array_equal(stf.values(), g.to_physical(full))

    @settings(max_examples=40, deadline=None)
    @given(nx=SIZES, ny=SIZES, seed=st.integers(0, 2 ** 32 - 1))
    def test_band_block_storage_round_trips(self, nx, ny, seed):
        """A leading block is kept as given; the full frames are zero past it."""
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        full = hermitian_frames(g, 3, seed) * g.dealias_mask
        block = np.ascontiguousarray(full[..., :g.band_columns])
        stf = SpaceTimeField(g, 0.0, 0.1, block)
        assert np.shares_memory(stf.block, block)
        np.testing.assert_array_equal(stf.coeffs, full)
        np.testing.assert_array_equal(stf.frame(-1).coeffs, full[-1])
        np.testing.assert_array_equal(stf.values(), g.to_physical(full))

    def test_full_input_is_copied_a_block_is_kept(self):
        """A trajectory built from full frames holds no view of them; a leading block,
        such as evolve's frames, is kept as given."""
        full = hermitian_frames(G, 3, 0)
        stf = SpaceTimeField(G, 0.0, 0.1, full)
        assert not np.shares_memory(stf.block, full)
        np.testing.assert_array_equal(stf.block, full[..., :G.ny // 2 + 1])
        block = np.ascontiguousarray(full[..., :G.band_columns])
        assert np.shares_memory(SpaceTimeField(G, 0.0, 0.1, block).block, block)

    def test_block_wider_than_half_spectrum_rejected(self):
        with pytest.raises(DataError):
            SpaceTimeField(G, 0.0, 0.1, np.zeros((5, 16, 10), dtype=complex))
        with pytest.raises(DataError):
            SpaceTimeField(G, 0.0, 0.1, np.zeros((5, 16, 17), dtype=complex))

    def test_from_fields_and_frame(self):
        u = mode(2, 1)
        stf = SpaceTimeField(G, 0.0, 0.5, np.stack([u.coeffs, 2.0 * u.coeffs]))
        np.testing.assert_array_equal(stf.frame(1).coeffs, 2.0 * u.coeffs)

    def test_values_matches_framewise_ifft(self):
        u = mode(3, 2)
        stf = SpaceTimeField(G, 0.0, 1.0, np.stack([u.coeffs]))
        np.testing.assert_allclose(stf.values()[0], u.values, atol=1e-13)


class TestWindow:
    def test_periodic_hann(self):
        w = hann_window(8)
        assert w[0] == 0.0
        assert w[4] == 1.0  # midpoint of the periodic window
        np.testing.assert_allclose(w[1:], w[1:][::-1], atol=1e-15)

    def test_transform_roundtrip(self):
        traj = free_trajectory(mode(2, 1), DispersionForm.ORIGINAL, 1.0, 16)
        back = traj.from_temporal_transform(traj.temporal_transform())
        np.testing.assert_allclose(back.coeffs, traj.windowed().coeffs, atol=1e-14)

    def test_too_few_frames(self):
        stf = SpaceTimeField(G, 0.0, 0.1, np.zeros((4, 16, 16), dtype=complex))
        with pytest.raises(ResolutionError):
            stf.temporal_transform()


class TestModulation:
    def test_low_high_split_is_identity(self):
        u0 = from_coefficients(G, mode(2, 1).coeffs + mode(1, 3, 0.5).coeffs)
        traj = free_trajectory(u0, DispersionForm.ORIGINAL, 2.0, 32)
        lo = modulation_project(traj, 4.0, DispersionForm.ORIGINAL, "low")
        hi = modulation_project(traj, 4.0, DispersionForm.ORIGINAL, "high")
        np.testing.assert_allclose(lo.coeffs + hi.coeffs,
                                   traj.windowed().coeffs, atol=1e-13)

    def test_free_solution_is_low_modulation(self):
        """e^{tS}u0 concentrates at tau = omega, so Q_{<M} keeps essentially
        all of it once M clears the window leakage scale."""
        traj = free_trajectory(mode(2, 1), DispersionForm.ORIGINAL, 4.0, 128)
        leakage = 2.0 * 2.0 * np.pi / (traj.num_frames * traj.dt)  # two DFT bins
        assert 16.0 > 2.0 * leakage
        total = np.linalg.norm(traj.windowed().coeffs)
        hi16 = modulation_project(traj, 16.0, DispersionForm.ORIGINAL, "high")
        hi32 = modulation_project(traj, 32.0, DispersionForm.ORIGINAL, "high")
        assert np.linalg.norm(hi16.coeffs) < 5e-3 * total
        # residual is window sidelobe leakage, falling with the cutoff
        assert np.linalg.norm(hi32.coeffs) < 0.5 * np.linalg.norm(hi16.coeffs)

    def test_projection_preserves_realness(self):
        traj = free_trajectory(mode(2, 1), DispersionForm.SYMMETRIZED, 2.0, 32)
        sh = modulation_project(traj, 8.0, DispersionForm.SYMMETRIZED, "shell")
        vals = np.fft.ifft2(sh.coeffs, axes=(1, 2)) * (G.nx * G.ny)
        assert np.abs(vals.imag).max() < 1e-12

    def test_scale_validation(self):
        traj = free_trajectory(mode(2, 1), DispersionForm.ORIGINAL, 2.0, 32)
        with pytest.raises(UsageError):
            modulation_project(traj, 3.0, DispersionForm.ORIGINAL)
        with pytest.raises(ResolutionError):
            modulation_project(traj, 2.0 ** 20, DispersionForm.ORIGINAL)
        with pytest.raises(UsageError):
            modulation_project(traj, 4.0, DispersionForm.ORIGINAL, "band")

