"""Rescaling and frame-rotation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import (
    DispersionForm,
    RotationMap,
    UsageError,
    linear_propagator,
    make_field,
    make_grid,
    mass,
    rescale,
    rotate_from_symmetrized,
    rotate_to_symmetrized,
    sobolev_norm,
)
from zklab.ic import gaussian_bump, random_band_limited

G = make_grid(32, 32, 2 * np.pi, 2 * np.pi)


class TestRescale:
    def test_mass_scaling(self):
        u = random_band_limited(G, seed=1, kmax=5.0, amplitude=0.8)
        lam = 0.37
        assert mass(rescale(u, lam)) == pytest.approx(lam ** 2 * mass(u), rel=1e-12)

    def test_homogeneous_sobolev_scaling(self):
        """||u_lambda||_{H^s homogeneous} = lambda^(s+1) ||u||."""
        u = random_band_limited(G, seed=2, kmax=5.0, amplitude=0.8)
        for s, lam in ((0.5, 0.3), (1.0, 2.0), (-0.5, 0.7)):
            got = sobolev_norm(rescale(u, lam), s, homogeneous=True)
            want = lam ** (s + 1.0) * sobolev_norm(u, s, homogeneous=True)
            assert got == pytest.approx(want, rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
           seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.05, 20.0),
           s=st.floats(-1.0, 2.0))
    def test_exact_laws_on_random_boxes(self, nx, ny, lx, ly, seed, lam, s):
        """M(u_lambda) = lambda^2 M(u) and ||u_lambda||_{H^s homogeneous} =
        lambda^(s+1) ||u|| hold on the lattice for any box and data."""
        g = make_grid(nx, ny, lx, ly)
        u = make_field(g, np.random.default_rng(seed).standard_normal((nx, ny)))
        v = rescale(u, lam)
        assert mass(v) == pytest.approx(lam ** 2 * mass(u), rel=1e-12)
        want = lam ** (s + 1.0) * sobolev_norm(u, s, homogeneous=True)
        assert sobolev_norm(v, s, homogeneous=True) == pytest.approx(want, rel=1e-11)

    def test_composition_and_identity(self):
        u = random_band_limited(G, seed=3, kmax=5.0)
        v = rescale(rescale(u, 0.5), 4.0)
        w = rescale(u, 2.0)
        np.testing.assert_allclose(v.coeffs, w.coeffs, atol=1e-15)
        assert v.grid.lx == pytest.approx(w.grid.lx, rel=1e-15)
        back = rescale(rescale(u, 3.0), 1.0 / 3.0)
        np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-15)
        assert back.grid.lx == pytest.approx(u.grid.lx, rel=1e-15)

    def test_period_change(self):
        v = rescale(random_band_limited(G, seed=1), 2.0)
        assert v.grid.lx == pytest.approx(np.pi)
        assert v.grid.nx == G.nx

    def test_positive_lambda_required(self):
        with pytest.raises(UsageError):
            rescale(random_band_limited(G, seed=1), 0.0)


class TestRotationConstants:
    def test_defining_relations(self):
        rot = RotationMap()
        assert 4.0 * rot.a ** 3 == pytest.approx(1.0, rel=1e-15)
        assert rot.b ** 2 == pytest.approx(3.0 * rot.a ** 2, rel=1e-15)
        assert rot.amplitude == rot.a

    def test_symbol_conjugation_identity(self):
        """omega_original(A zeta') = omega_symmetrized(zeta') pointwise."""
        rng = np.random.default_rng(0)
        xs, es = rng.uniform(-20, 20, 2000), rng.uniform(-20, 20, 2000)
        rot = RotationMap()
        xi, eta = rot.to_original(xs, es)
        lhs = DispersionForm.ORIGINAL.omega_scalar(xi, eta)
        rhs = DispersionForm.SYMMETRIZED.omega_scalar(xs, es)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_frequency_map_round_trip(self):
        rng = np.random.default_rng(1)
        xi, eta = rng.uniform(-9, 9, 100), rng.uniform(-9, 9, 100)
        rot = RotationMap()
        back = rot.to_original(*rot.to_symmetrized(xi, eta))
        np.testing.assert_allclose(back[0], xi, atol=1e-13)
        np.testing.assert_allclose(back[1], eta, atol=1e-13)

    def test_point_map_round_trip(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-5, 5, 100), rng.uniform(-5, 5, 100)
        rot = RotationMap()
        back = rot.point_map_to_original(*rot.point_map_to_symmetrized(x, y))
        np.testing.assert_allclose(back[0], x, atol=1e-13)
        np.testing.assert_allclose(back[1], y, atol=1e-13)


class TestRotationResampling:
    BOX = make_grid(64, 64, 12 * np.pi, 12 * np.pi)

    def bump(self):
        return gaussian_bump(self.BOX, amplitude=1.0, sigma=1.5)

    def test_round_trip_on_decaying_bump(self):
        u = self.bump()
        w = rotate_to_symmetrized(u)
        back = rotate_from_symmetrized(w)
        err = np.abs(back.values - u.values).max()
        assert err < 1e-6 * np.abs(u.values).max()

    def test_amplitude_factor(self):
        u = self.bump()
        w = rotate_to_symmetrized(u)
        rot = RotationMap()
        # the peak of a * u(M .) is a * peak(u) up to sampling offset
        assert w.values.max() == pytest.approx(rot.a * u.values.max(), rel=1e-3)

    def test_linear_flow_conjugacy(self):
        """Rotating then free-evolving in the symmetrized frame matches
        free-evolving first and rotating after."""
        u = self.bump()
        t = 0.05
        path_a = rotate_to_symmetrized(linear_propagator(u, t, DispersionForm.ORIGINAL))
        path_b = linear_propagator(rotate_to_symmetrized(u), t, DispersionForm.SYMMETRIZED)
        scale = np.abs(path_a.values).max()
        err = np.abs(path_a.values - path_b.values).max()
        assert err < 1e-4 * scale
