"""Grid, field, and FFT-convention tests.

Every oracle here is evaluated independently of the library: closed-form
integrals, hand convolutions, or brute-force sums over the integer lattice.
"""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zklab import (
    DataError,
    DispersionForm,
    Field,
    Grid2D,
    UsageError,
    dealias,
    derivative,
    energy,
    from_coefficients,
    make_field,
    make_grid,
)
from zklab.ic import PRESETS, shell_field

BOXES = dict(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
             lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
             seed=st.integers(0, 2 ** 32 - 1))


def grid(nx=16, ny=16, lx=2 * np.pi, ly=2 * np.pi):
    return make_grid(nx, ny, lx, ly)


def random_band_coeffs(g, rng, width=None):
    """Hermitian coefficients supported in the 2/3 band."""
    vals = rng.standard_normal((g.nx, g.ny))
    coeffs = np.fft.fft2(vals) / (g.nx * g.ny)
    coeffs *= g.dealias_mask
    if width is not None:
        jx = np.fft.fftfreq(g.nx, 1.0 / g.nx)
        jy = np.fft.fftfreq(g.ny, 1.0 / g.ny)
        keep = (np.abs(jx)[:, None] <= width) & (np.abs(jy)[None, :] <= width)
        coeffs *= keep
    return coeffs


class TestGrid:
    def test_lattice_and_spacings(self):
        g = grid(16, 32, 2 * np.pi, 4 * np.pi)
        assert g.x[1] == pytest.approx(2 * np.pi / 16)
        assert g.y[1] == pytest.approx(4 * np.pi / 32)
        # xi_j = 2 pi j / lx; on a 2 pi box that is the integer j itself
        assert g.xi[1] == pytest.approx(1.0)
        assert g.xi[-1] == pytest.approx(-1.0)
        assert g.eta[1] == pytest.approx(0.5)
        assert g.area == pytest.approx(8 * np.pi ** 2)
        assert g.cell_area == pytest.approx(g.area / (16 * 32))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DataError):
            make_grid(12, 16, 1.0, 1.0)
        with pytest.raises(DataError):
            make_grid(16, 16, -1.0, 1.0)
        with pytest.raises(DataError):
            make_grid(4, 4, 1.0, 1.0)

    def test_same_geometry(self):
        assert grid().same_geometry(grid())
        assert not grid().same_geometry(grid(32, 16))

    @pytest.mark.parametrize("nx, ny, lx, ly", [(8, 8, 2 * np.pi, 2 * np.pi),
                                                (16, 64, 2 * np.pi, 3.0),
                                                (128, 32, 0.5, 7.0)])
    def test_lattice_members(self, nx, ny, lx, ly):
        """Mode indices, odd-order wavenumbers, Nyquist mask and band radius
        against hand-built lattices."""
        g = grid(nx, ny, lx, ly)
        jx = np.concatenate([np.arange(nx // 2), np.arange(-nx // 2, 0)])
        jy = np.concatenate([np.arange(ny // 2), np.arange(-ny // 2, 0)])
        np.testing.assert_array_equal(g.jx, jx)
        np.testing.assert_array_equal(g.jy, jy)
        assert g.jx.dtype.kind == "i"
        xi_odd, eta_odd = g.xi.copy(), g.eta.copy()
        xi_odd[nx // 2] = eta_odd[ny // 2] = 0.0
        np.testing.assert_array_equal(g.xi_odd, xi_odd)
        np.testing.assert_array_equal(g.eta_odd, eta_odd)
        keep = np.ones((nx, ny), dtype=bool)
        keep[nx // 2, :] = keep[:, ny // 2] = False
        np.testing.assert_array_equal(g.nyquist_mask, keep)
        edges = (2 * np.pi * int(nx / 3) / lx, 2 * np.pi * int(ny / 3) / ly)
        assert g.band_radius == pytest.approx(min(edges), rel=1e-15)
        inside = g.abs_zeta <= g.band_radius
        assert np.all(g.dealias_mask[inside])

    def test_every_cached_array_is_read_only(self):
        """Every operator on a grid reads its cached arrays, so one caller's in-place
        edit (g.xi_odd[1] = 0 moved the x-derivative of sin x by 0.5) must fail."""
        g = grid(16, 32, 2 * np.pi, 3.0)
        cached = [getattr(g, name) for name, member in vars(Grid2D).items()
                  if isinstance(member, cached_property)]
        arrays = [value for value in cached if isinstance(value, np.ndarray)]
        assert len(arrays) == 13
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = arr[(1,) * arr.ndim]
        u = make_field(g, np.sin(g.x)[:, None] + 0.0 * g.y[None, :])
        np.testing.assert_allclose(derivative(u, 1, 0).values, np.cos(g.x)[:, None]
                                   + 0.0 * g.y[None, :], atol=1e-13)


class TestFieldConversions:
    def test_cosine_coefficients(self):
        """u = cos x has series coefficients 1/2 at modes (1,0) and (-1,0)."""
        g = grid()
        u = make_field(g, np.cos(g.x)[:, None] * np.ones(g.ny)[None, :])
        c = u.coeffs
        assert c[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert c[-1, 0] == pytest.approx(0.5, abs=1e-14)
        mask = np.ones_like(c, dtype=bool)
        mask[1, 0] = mask[-1, 0] = False
        assert np.max(np.abs(c[mask])) < 1e-14

    def test_roundtrip(self):
        g = grid()
        rng = np.random.default_rng(3)
        u = make_field(g, rng.standard_normal((g.nx, g.ny)))
        back = u.spectral().physical()
        assert np.allclose(back.values, u.values, atol=1e-13)

    def test_parseval(self):
        """integral |u|^2 = lx ly sum |uhat|^2 for random real data."""
        g = grid(16, 32, 2 * np.pi, 5.0)
        rng = np.random.default_rng(7)
        u = make_field(g, rng.standard_normal((g.nx, g.ny)))
        phys = np.sum(u.values ** 2) * g.cell_area
        spec = g.area * np.sum(np.abs(u.coeffs) ** 2)
        assert phys == pytest.approx(spec, rel=1e-12)

    def test_integral_is_zero_mode(self):
        g = grid()
        vals = 3.0 + np.sin(g.x)[:, None] * np.ones(g.ny)[None, :]
        u = make_field(g, vals)
        assert g.area * np.real(u.coeffs[0, 0]) == pytest.approx(
            np.sum(vals) * g.cell_area, rel=1e-13)

    def test_shape_mismatch_rejected(self):
        g = grid()
        with pytest.raises(DataError):
            Field(g, np.zeros((8, 8)), "physical")
        with pytest.raises(DataError):
            Field(g, np.zeros((16, 16), dtype=complex), "physical")


class TestDerivative:
    def test_cosine_derivative_exact(self):
        g = grid()
        u = make_field(g, np.cos(g.x)[:, None] * np.ones(g.ny)[None, :])
        du = derivative(u, 1, 0)
        expected = -np.sin(g.x)[:, None] * np.ones(g.ny)[None, :]
        assert np.allclose(du.values, expected, atol=1e-13)

    def test_mixed_derivative_on_product_mode(self):
        g = grid(32, 32)
        vals = np.cos(2 * g.x)[:, None] * np.sin(3 * g.y)[None, :]
        u = make_field(g, vals)
        duxy = derivative(u, 1, 1)
        expected = (-2 * np.sin(2 * g.x))[:, None] * (3 * np.cos(3 * g.y))[None, :]
        assert np.allclose(duxy.values, expected, atol=1e-12)

    def test_odd_derivative_keeps_field_real(self):
        g = grid()
        rng = np.random.default_rng(11)
        u = make_field(g, rng.standard_normal((g.nx, g.ny)))
        du = derivative(u, 3, 0)
        # realness means the inverse transform has negligible imaginary part
        resid = np.fft.ifft2(du.coeffs) * g.nx * g.ny
        assert np.max(np.abs(resid.imag)) < 1e-10 * max(1.0, np.max(np.abs(resid.real)))

    def test_negative_order_rejected(self):
        with pytest.raises(UsageError):
            derivative(make_field(grid(), np.zeros((16, 16))), -1, 0)


class TestDealias:
    def test_band_edges(self):
        g = grid(16, 16)
        mask = g.dealias_mask
        # nx/3 = 5.33: |j| = 5 kept, |j| = 6 dropped
        assert mask[5, 0] and mask[0, 5]
        assert not mask[6, 0] and not mask[0, 6]
        assert not mask[8, 0]

    def test_band_index_is_the_mask_edge(self):
        """The mask keeps exactly |j| <= nx/3 and |k| <= ny/3, and band_index
        is the largest kept index on each axis."""
        for nx, ny in ((8, 8), (16, 64), (128, 32)):
            g = grid(nx, ny, 2 * np.pi, 3.0)
            jx = np.fft.fftfreq(nx, 1.0 / nx)
            jy = np.fft.fftfreq(ny, 1.0 / ny)
            want = (np.abs(jx)[:, None] <= nx / 3.0) & (np.abs(jy)[None, :] <= ny / 3.0)
            np.testing.assert_array_equal(g.dealias_mask, want)
            assert g.band_index == (int(np.abs(jx[want.any(axis=1)]).max()),
                                    int(np.abs(jy[want.any(axis=0)]).max()))
            # the band block is the shortest leading block of half columns holding the band
            assert want[:, g.band_columns - 1].any()
            assert not want[:, g.band_columns:ny // 2 + 1].any()

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64, 128, 256]),
           ny=st.sampled_from([8, 16, 32, 64, 128, 256]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0))
    @example(nx=8, ny=256, lx=0.5, ly=50.0)
    @example(nx=256, ny=16, lx=3.0, ly=0.5)
    def test_grid_owns_one_read_only_mask(self, nx, ny, lx, ly):
        """Grid2D.dealias_mask is built once per grid, cannot be written, and
        is the 2/3 rule |j| <= int(nx/3), |k| <= int(ny/3)."""
        g = grid(nx, ny, lx, ly)
        mask = g.dealias_mask
        assert g.dealias_mask is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False
        jx = np.fft.fftfreq(nx, 1.0 / nx).astype(np.int64)
        jy = np.fft.fftfreq(ny, 1.0 / ny).astype(np.int64)
        want = (np.abs(jx) <= int(nx / 3.0))[:, None] & (np.abs(jy) <= int(ny / 3.0))[None, :]
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, want)

    def test_idempotent(self):
        g = grid()
        rng = np.random.default_rng(2)
        u = make_field(g, rng.standard_normal((g.nx, g.ny)))
        once = dealias(u)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_product_matches_direct_convolution(self):
        """fft product of band fields = true (non-circular) convolution in band.

        The oracle runs the O(n^4) integer-lattice sum with no wraparound;
        agreement shows the 2/3 rule leaves no aliased image inside the band.
        """
        g = grid(16, 16)
        rng = np.random.default_rng(5)
        cu = random_band_coeffs(g, rng)
        cv = random_band_coeffs(g, rng)
        u, v = from_coefficients(g, cu), from_coefficients(g, cv)
        prod = make_field(g, u.values * v.values)
        got = dealias(prod).coeffs

        jx = np.fft.fftfreq(g.nx, 1.0 / g.nx).astype(int)
        jy = np.fft.fftfreq(g.ny, 1.0 / g.ny).astype(int)
        index_x = {int(j): i for i, j in enumerate(jx)}
        index_y = {int(k): i for i, k in enumerate(jy)}
        expected = np.zeros_like(cu)
        for a, ja in enumerate(jx):
            for b, kb in enumerate(jy):
                if abs(ja) > g.nx / 3.0 or abs(kb) > g.ny / 3.0:
                    continue
                acc = 0.0 + 0.0j
                for c, jc in enumerate(jx):
                    jd = int(ja - jc)
                    if jd not in index_x:
                        continue
                    for d, kd in enumerate(jy):
                        ke = int(kb - kd)
                        if ke not in index_y:
                            continue
                        acc += cu[c, d] * cv[index_x[jd], index_y[ke]]
                expected[a, b] = acc
        assert np.allclose(got, expected, atol=1e-14)



def hermitian_coeffs(g, rng, lead=()):
    """Series coefficients of real white noise, by numpy's complex fft2."""
    return np.fft.fft2(rng.standard_normal(lead + (g.nx, g.ny)), norm="forward")


class TestTransformPair:
    """Grid2D.to_physical / to_spectral against test-local complex transforms."""

    @settings(max_examples=40, deadline=None)
    @given(**BOXES, lead=st.sampled_from([(), (3,), (2, 3)]))
    def test_to_physical(self, nx, ny, lx, ly, seed, lead):
        g = make_grid(nx, ny, lx, ly)
        coeffs = hermitian_coeffs(g, np.random.default_rng(seed), lead)
        got = g.to_physical(coeffs)
        np.testing.assert_array_equal(got, g.to_physical(coeffs[..., :ny // 2 + 1].copy()))
        want = np.real(np.fft.ifft2(coeffs, norm="forward"))
        assert got.shape == want.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())

    @settings(max_examples=40, deadline=None)
    @given(**BOXES, lead=st.sampled_from([(), (3,), (2, 3)]))
    def test_to_spectral(self, nx, ny, lx, ly, seed, lead):
        g = make_grid(nx, ny, lx, ly)
        values = np.random.default_rng(seed).standard_normal(lead + (nx, ny))
        half = g.to_spectral(values)
        assert half.shape == lead + (nx, ny // 2 + 1)
        want = np.fft.fft2(values, norm="forward")
        np.testing.assert_allclose(g.full_spectrum(half), want, rtol=0.0,
                                   atol=1e-14 * np.abs(want).max())

    @settings(max_examples=40, deadline=None)
    @given(**BOXES, form=st.sampled_from(list(DispersionForm)))
    def test_energy_matches_three_transforms(self, nx, ny, lx, ly, seed, form):
        g = make_grid(nx, ny, lx, ly)
        c = hermitian_coeffs(g, np.random.default_rng(seed)) * g.dealias_mask

        def phys(a):
            return np.real(np.fft.ifft2(a, norm="forward"))

        u, ux, uy = phys(c), phys(1j * g.xi_odd[:, None] * c), phys(1j * g.eta_odd * c)
        gradient = ux ** 2 + uy ** 2 - (ux * uy if form is DispersionForm.SYMMETRIZED else 0.0)
        want = np.sum(0.5 * gradient - u ** 3 / 3.0) * g.cell_area
        scale = np.sum(0.5 * np.abs(gradient) + np.abs(u) ** 3 / 3.0) * g.cell_area
        assert abs(energy(from_coefficients(g, c), form) - want) <= 1e-14 * scale


WIDE_BOXES = dict(nx=st.sampled_from([8, 16, 32, 64, 128, 256]),
                  ny=st.sampled_from([8, 16, 32, 64, 128, 256]),
                  lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
                  seed=st.integers(0, 2 ** 32 - 1))


class TestPrunedTransforms:
    """The pair's 1-D passes skip the columns past a leading block and are
    bit-equal to numpy's 2-D real transforms of the zero-padded half spectrum."""

    @settings(max_examples=40, deadline=None)
    @given(**WIDE_BOXES, lead=st.sampled_from([(), (3,), (2, 3)]), data=st.data())
    @example(nx=8, ny=256, lx=0.5, ly=3.0, seed=0, lead=(), data=None)
    @example(nx=256, ny=8, lx=7.0, ly=0.5, seed=1, lead=(3,), data=None)
    def test_to_physical_of_a_leading_block(self, nx, ny, lx, ly, seed, lead, data):
        g = make_grid(nx, ny, lx, ly)
        width = g.band_columns if data is None else data.draw(st.integers(1, ny // 2 + 1))
        rng = np.random.default_rng(seed)
        block = (rng.standard_normal(lead + (nx, width))
                 + 1j * rng.standard_normal(lead + (nx, width)))
        half = np.zeros(lead + (nx, ny // 2 + 1), dtype=complex)
        half[..., :width] = block
        got = g.to_physical(block)
        assert got.shape == lead + (nx, ny) and got.dtype == np.float64
        np.testing.assert_array_equal(got, np.fft.irfft2(half, s=(nx, ny), norm="forward"))
        np.testing.assert_array_equal(g.full_spectrum(block), g.full_spectrum(half))

    @settings(max_examples=40, deadline=None)
    @given(**WIDE_BOXES, lead=st.sampled_from([(), (3,), (2, 3)]), data=st.data())
    @example(nx=8, ny=256, lx=0.5, ly=3.0, seed=0, lead=(2, 3), data=None)
    @example(nx=256, ny=8, lx=7.0, ly=0.5, seed=1, lead=(), data=None)
    def test_to_spectral_keeps_the_leading_columns(self, nx, ny, lx, ly, seed, lead, data):
        g = make_grid(nx, ny, lx, ly)
        columns = (g.band_columns if data is None
                   else data.draw(st.one_of(st.none(), st.integers(1, ny // 2 + 1))))
        values = np.random.default_rng(seed).standard_normal(lead + (nx, ny))
        want = np.fft.rfft2(values, norm="forward")[..., :columns]
        got = g.to_spectral(values, columns)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestHermitianContract:
    """from_coefficients accepts exactly the coefficients of real fields."""

    @settings(max_examples=40, deadline=None)
    @given(**BOXES, j=st.integers(0, 63), k=st.integers(0, 63))
    def test_non_hermitian_rejected(self, nx, ny, lx, ly, seed, j, k):
        g = make_grid(nx, ny, lx, ly)
        c = hermitian_coeffs(g, np.random.default_rng(seed))
        c[j % nx, k % ny] += 1e-9 * np.abs(c).max() * (1.0 + 1.0j)
        with pytest.raises(DataError, match="Hermitian"):
            from_coefficients(g, c)

    @settings(max_examples=20, deadline=None)
    @given(**BOXES)
    def test_every_generator_passes(self, nx, ny, lx, ly, seed):
        g = make_grid(nx, ny, lx, ly)
        fields = [PRESETS[name](g) for name in PRESETS if name != "random"]
        fields.append(PRESETS["random"](g, seed))
        try:
            fields.append(shell_field(g, 0.5 * g.band_radius, seed))
        except DataError:  # no lattice mode on the shell of this box
            pass
        for u in fields:
            from_coefficients(g, u.coeffs)
