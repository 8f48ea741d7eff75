"""Initial-condition factory tests."""

import numpy as np
import pytest

from zklab import (
    ConfigurationError,
    DataError,
    make_grid,
    sobolev_norm,
)
from zklab.ic import (
    PRESETS,
    cosine_mode,
    gaussian_bump,
    make_initial,
    random_band_limited,
    shell_field,
    two_pulses,
)

G = make_grid(32, 32, 2 * np.pi, 2 * np.pi)


class TestPresets:
    def test_registry_dispatch(self):
        u = make_initial(G, "cosine-mode", amplitude=2.0, jx=1, jy=0)
        v = cosine_mode(G, amplitude=2.0, jx=1, jy=0)
        np.testing.assert_array_equal(u.coeffs, v.coeffs)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError) as err:
            make_initial(G, "solitons")
        assert "solitons" in str(err.value)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError) as err:
            make_initial(G, "gaussian", wobble=3.0)
        assert "gaussian" in str(err.value)

    def test_registry_is_complete(self):
        assert set(PRESETS) == {"gaussian", "cosine-mode", "two-pulses", "random"}


class TestDeterministicShapes:
    def test_cosine_mode_coefficients(self):
        u = cosine_mode(G, amplitude=2.0, jx=3, jy=1)
        assert u.coeffs[3, 1] == pytest.approx(1.0, abs=1e-13)
        assert u.coeffs[-3, -1] == pytest.approx(1.0, abs=1e-13)

    def test_cosine_phase(self):
        u = cosine_mode(G, jx=1, jy=0, phase=np.pi / 2.0)
        x = G.x[:, None] + 0.0 * G.y[None, :]
        np.testing.assert_allclose(u.values, np.cos(x + np.pi / 2.0), atol=1e-13)

    def test_gaussian_peak_location(self):
        u = gaussian_bump(G, amplitude=1.5, sigma=0.5)
        i, j = np.unravel_index(np.argmax(u.values), u.values.shape)
        # default center: box midpoint
        assert G.x[i] == pytest.approx(np.pi, abs=G.x[1])
        assert G.y[j] == pytest.approx(np.pi, abs=G.y[1])
        assert u.values[i, j] == pytest.approx(1.5, rel=1e-6)

    def test_two_pulses_sum(self):
        """Peak of the taller sech^2 pulse is 3c/2 once pulses are separated."""
        wide = make_grid(128, 32, 8 * np.pi, 2 * np.pi)
        u = two_pulses(wide, c1=4.0, c2=1.0, x1=np.pi, x2=6 * np.pi)
        assert u.values.min() >= 0.0
        assert u.values.max() == pytest.approx(6.0, rel=1e-3)
        # y-uniform: every row identical
        np.testing.assert_array_equal(u.values[:, 0], u.values[:, 5])


class TestRandomBandLimited:
    def test_band_limit(self):
        u = random_band_limited(G, seed=5, kmax=4.0)
        outside = G.abs_zeta > 4.0
        assert np.abs(u.coeffs[outside]).max() == 0.0

    def test_real_and_zero_mean(self):
        u = random_band_limited(G, seed=5, kmax=6.0)
        assert u.coeffs[0, 0] == 0.0
        assert np.abs(np.fft.ifft2(u.coeffs).imag).max() < 1e-15

    def test_sobolev_normalization(self):
        u = random_band_limited(G, seed=7, kmax=6.0, norm="sobolev",
                                norm_s=1.0, amplitude=3.0)
        assert sobolev_norm(u, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_unknown_normalization(self):
        with pytest.raises(ConfigurationError):
            random_band_limited(G, seed=7, norm="besov")

    def test_default_band_is_dealias_edge(self):
        u = random_band_limited(G, seed=2)
        np.testing.assert_array_equal(u.coeffs, u.coeffs * G.dealias_mask)

    @pytest.mark.parametrize("nx, ny", [(64, 32), (32, 64)])
    def test_default_radius_is_the_disc_inside_the_band(self, nx, ny):
        """The default cut is |zeta| <= 10 on both 64 x 32 and 32 x 64 (the
        2/3 band keeps |j| <= 21 on the long axis but only |k| <= 10 on the
        short one), so no kept mode lies outside the inscribed disc."""
        g = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
        u = random_band_limited(g, seed=3)
        radius = g.abs_zeta[u.coeffs != 0]
        assert radius.max() <= 10.0
        assert radius.max() > 9.0

    def test_seed_determinism(self):
        a = random_band_limited(G, seed=9, kmax=5.0)
        b = random_band_limited(G, seed=9, kmax=5.0)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        c = random_band_limited(G, seed=10, kmax=5.0)
        assert np.abs(a.coeffs - c.coeffs).max() > 0


class TestShellField:
    def test_unit_l2_and_support(self):
        u = shell_field(G, 4.0, seed=1)
        assert sobolev_norm(u, 0.0) == pytest.approx(1.0, rel=1e-12)
        r = G.abs_zeta
        outside = (r <= 4.0 / np.sqrt(2.0)) | (r > 4.0 * np.sqrt(2.0))
        assert np.abs(u.coeffs[outside]).max() == 0.0

    def test_empty_shell(self):
        with pytest.raises(DataError):
            shell_field(G, 64.0, seed=1)  # beyond the dealias band at 32^2
