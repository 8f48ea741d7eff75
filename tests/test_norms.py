"""Norm-layer tests: closed-form oracles and brute-force comparisons."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import (
    DispersionForm,
    LPProjector,
    ResolutionError,
    SpaceTimeField,
    UsageError,
    besov_norm_2_1,
    evolve,
    from_coefficients,
    lebesgue_norm,
    linear_propagator,
    make_field,
    make_grid,
    mixed_lebesgue_norm,
    pvariation_norm,
    random_band_limited,
    sobolev_norm,
    twisted_variation,
    xsb_norm,
    y_half_proxy,
)
from zklab.dynamics import spectral_kernel
from zklab.norms import _twisted

G = make_grid(16, 16, 2 * np.pi, 2 * np.pi)


def single_mode(g, jx, jy, amp=1.0):
    c = np.zeros((g.nx, g.ny), dtype=complex)
    c[jx, jy] = c[-jx, -jy] = 0.5 * amp
    return from_coefficients(g, c)


def free_trajectory(u0, form, span, frames):
    dt = span / (frames - 1)
    stack = [linear_propagator(u0, dt * i, form).coeffs for i in range(frames)]
    return SpaceTimeField(u0.grid, 0.0, dt, np.array(stack))


class TestSobolev:
    def test_cosine_closed_form(self):
        """||cos kx||_{H^s}^2 = area (1 + k^2)^s / 2 on the 2 pi box."""
        for k, s in ((1, 0.5), (3, 1.0), (2, -1.0)):
            u = single_mode(G, k, 0)
            expected = np.sqrt(G.area * (1.0 + k * k) ** s / 2.0)
            assert sobolev_norm(u, s) == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_weight(self):
        u = single_mode(G, 2, 0)
        expected = np.sqrt(G.area * 4.0 / 2.0)  # |zeta|^2 = 4 at s = 1
        assert sobolev_norm(u, 1.0, homogeneous=True) == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_negative_s_drops_zero_mode(self):
        c = np.zeros((G.nx, G.ny), dtype=complex)
        c[0, 0] = 3.0
        u = from_coefficients(G, c)
        assert sobolev_norm(u, -0.5, homogeneous=True) == 0.0

    def test_s_zero_is_l2(self):
        rng = np.random.default_rng(4)
        u = make_field(G, rng.standard_normal((G.nx, G.ny)))
        l2 = np.sqrt(np.sum(u.values ** 2) * G.cell_area)
        assert sobolev_norm(u, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_out_of_range_s(self):
        with pytest.raises(UsageError):
            sobolev_norm(single_mode(G, 1, 0), 7.0)


class TestBesov:
    def test_single_shell_value(self):
        """Content at |zeta| = N exactly sits in shell N alone."""
        u = single_mode(G, 4, 0)
        l2 = sobolev_norm(u, 0.0)
        assert besov_norm_2_1(u, 0.5) == pytest.approx(2.0 * l2, rel=1e-12)

    def test_embedding_constant(self):
        # H^{1/2} <= B^{1/2}_{2,1} pointwise on any field
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = make_field(G, rng.standard_normal((G.nx, G.ny)))
            assert sobolev_norm(u, 0.5) <= 1.6 * besov_norm_2_1(u, 0.5)


class TestLebesgue:
    def test_constant_field(self):
        u = make_field(G, np.full((G.nx, G.ny), 2.0))
        assert lebesgue_norm(u, 4.0) == pytest.approx(2.0 * G.area ** 0.25, rel=1e-12)
        assert lebesgue_norm(u, np.inf) == 2.0

    def test_r_below_one_rejected(self):
        with pytest.raises(UsageError):
            lebesgue_norm(make_field(G, np.zeros((16, 16))), 0.5)


class TestMixedLebesgue:
    def test_static_trajectory(self):
        """Constant-in-time field: L^q_t L^r_x = span^{1/q} ||f||_r."""
        u = single_mode(G, 1, 0)
        frames, span = 9, 2.0
        coeffs = np.repeat(u.coeffs[None], frames, axis=0)
        stf = SpaceTimeField(G, 0.0, span / (frames - 1), coeffs)
        got = mixed_lebesgue_norm(stf, 3.0, 2.0)
        assert got == pytest.approx(span ** (1 / 3) * sobolev_norm(u, 0.0), rel=1e-12)

    def test_sup_in_time(self):
        u = single_mode(G, 1, 0)
        coeffs = np.stack([u.coeffs, 2.0 * u.coeffs, 0.5 * u.coeffs])
        stf = SpaceTimeField(G, 0.0, 0.1, coeffs)
        assert mixed_lebesgue_norm(stf, np.inf, 2.0) == pytest.approx(
            2.0 * sobolev_norm(u, 0.0), rel=1e-12)

    def test_free_solution_l2_framewise_constant(self):
        traj = free_trajectory(single_mode(G, 2, 1), DispersionForm.ORIGINAL, 1.0, 17)
        got = mixed_lebesgue_norm(traj, np.inf, 2.0)
        assert got == pytest.approx(sobolev_norm(single_mode(G, 2, 1), 0.0), rel=1e-12)


class TestXsb:
    def test_s0_b0_is_windowed_l2(self):
        rng = np.random.default_rng(8)
        frames = 16
        fields = [make_field(G, rng.standard_normal((G.nx, G.ny))) for _ in range(frames)]
        stf = SpaceTimeField(G, 0.0, 0.05, np.array([f.coeffs for f in fields]))
        got = xsb_norm(stf, 0.0, 0.0, DispersionForm.ORIGINAL)
        w = stf.windowed()
        # direct periodic-rectangle space-time L2 of the windowed samples
        vals = np.abs(w.values()) ** 2
        direct = np.sqrt(np.sum(vals) * G.cell_area * stf.dt)
        assert got == pytest.approx(direct, rel=1e-10)

    def test_zero_input(self):
        stf = SpaceTimeField(G, 0.0, 0.1, np.zeros((8, G.nx, G.ny), dtype=complex))
        assert xsb_norm(stf, 0.5, 0.5, DispersionForm.ORIGINAL) == 0.0

    def test_needs_enough_frames(self):
        stf = SpaceTimeField(G, 0.0, 0.1, np.zeros((4, G.nx, G.ny), dtype=complex))
        with pytest.raises(ResolutionError):
            xsb_norm(stf, 0.0, 0.0, DispersionForm.ORIGINAL)

    def test_b_out_of_range(self):
        stf = SpaceTimeField(G, 0.0, 0.1, np.zeros((8, G.nx, G.ny), dtype=complex))
        with pytest.raises(UsageError):
            xsb_norm(stf, 0.0, 1.5, DispersionForm.ORIGINAL)

    def test_free_solution_concentrates_near_mu_zero(self):
        """For e^{tS}u0 the mass sits at tau = omega, so b-weighting at
        b = 1/2 stays within the window-bandwidth factor of the L2 value."""
        u0 = single_mode(G, 2, 1)
        traj = free_trajectory(u0, DispersionForm.ORIGINAL, 4.0, 64)
        base = xsb_norm(traj, 0.0, 0.0, DispersionForm.ORIGINAL)
        lifted = xsb_norm(traj, 0.0, 0.5, DispersionForm.ORIGINAL)
        traj2 = free_trajectory(u0, DispersionForm.ORIGINAL, 4.0, 128)
        lifted2 = xsb_norm(traj2, 0.0, 0.5, DispersionForm.ORIGINAL)
        assert lifted < 10.0 * base
        ratio = lifted2 / lifted
        assert 0.5 < ratio < 2.0


class TestPVariation:
    def exhaustive(self, vecs, p):
        k = len(vecs)
        best = 0.0
        for size in range(2, k + 1):
            for idx in itertools.combinations(range(k), size):
                total = sum(
                    np.linalg.norm(vecs[idx[i + 1]] - vecs[idx[i]]) ** p
                    for i in range(len(idx) - 1))
                best = max(best, total)
        return best ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_matches_exhaustive_search(self, p):
        """Random samples, and the same samples spread over a wider vector with
        all-zero columns at random positions and one zero entry in a kept column."""
        rng = np.random.default_rng(17)
        pad = np.random.default_rng(31)
        for _ in range(25):
            k = rng.integers(2, 9)
            vecs = rng.standard_normal((k, 3))
            width = 3 + pad.integers(1, 6)
            cols = np.sort(pad.choice(width, 3, replace=False))
            padded = np.zeros((k, width))
            padded[:, cols] = vecs
            padded[pad.integers(k), cols[0]] = 0.0
            for sample in (vecs, padded):
                got = pvariation_norm(sample, p)
                assert got == pytest.approx(self.exhaustive(sample, p), rel=1e-12)

    def test_single_jump(self):
        vecs = np.array([[0.0], [0.0], [3.0], [3.0]])
        assert pvariation_norm(vecs, 2.0) == pytest.approx(3.0)

    def test_monotone_scalar_p1_is_total_variation(self):
        vecs = np.array([[0.0], [1.0], [2.5], [7.0]])
        assert pvariation_norm(vecs, 1.0) == pytest.approx(7.0)

    def test_decreasing_in_p(self):
        rng = np.random.default_rng(23)
        vecs = rng.standard_normal((10, 4))
        v1 = pvariation_norm(vecs, 1.0)
        v2 = pvariation_norm(vecs, 2.0)
        v4 = pvariation_norm(vecs, 4.0)
        assert v1 >= v2 >= v4

    def test_short_sequences(self):
        assert pvariation_norm(np.zeros((1, 5)), 2.0) == 0.0
        with pytest.raises(UsageError):
            pvariation_norm(np.zeros((3, 2)), 0.5)
        for empty in ([], np.zeros((0, 5))):
            with pytest.raises(UsageError, match="at least one sample"):
                pvariation_norm(empty, 2.0)
        for p in (np.inf, np.nan):
            with pytest.raises(UsageError, match="finite"):
                pvariation_norm(np.array([[0.0], [1.0], [3.0]]), p)

    def test_list_samples_must_share_a_shape(self):
        """Transposed frames have the same size but are not the same vectors."""
        with pytest.raises(UsageError, match="common shape"):
            pvariation_norm([np.zeros((2, 3)), np.ones((3, 2))], 2.0)


class TestTwisted:
    def test_free_solution_gives_zero(self):
        u0 = from_coefficients(G, single_mode(G, 2, 1).coeffs
                               + single_mode(G, 1, 3, amp=0.3).coeffs)
        for form in (DispersionForm.ORIGINAL, DispersionForm.SYMMETRIZED):
            traj = free_trajectory(u0, form, 1.0, 21)
            assert twisted_variation(traj, 2.0, form) < 1e-12

    def test_static_field_is_not_free(self):
        u0 = single_mode(G, 2, 1)
        coeffs = np.repeat(u0.coeffs[None], 9, axis=0)
        stf = SpaceTimeField(G, 0.0, 0.1, coeffs)
        assert twisted_variation(stf, 2.0, DispersionForm.ORIGINAL) > 0.1

    def test_distance_scale_matches_spatial_l2(self):
        u0 = single_mode(G, 2, 1)
        coeffs = np.stack([np.zeros_like(u0.coeffs), u0.coeffs])
        stf = SpaceTimeField(G, 0.0, 0.1, coeffs)
        got = twisted_variation(stf, 2.0, DispersionForm.ORIGINAL)
        assert got == pytest.approx(sobolev_norm(u0, 0.0), rel=1e-12)

    @staticmethod
    def full_lattice(stf, p, form, coeffs=None):
        """The uncompressed reference: phase on every mode of the full (K, nx, ny)
        ``coeffs`` (default ``stf.coeffs``), DP over every column."""
        coeffs = stf.coeffs if coeffs is None else coeffs
        phases = spectral_kernel(stf.grid, form).phase(-stf.times)
        vecs = (coeffs * phases * np.sqrt(stf.grid.area)).reshape(stf.num_frames, -1)
        cum = np.zeros(stf.num_frames)
        for j in range(1, stf.num_frames):
            d = np.linalg.norm(vecs[:j] - vecs[j], axis=1)
            cum[j] = np.max(cum[:j] + d ** p)
        return cum[-1] ** (1.0 / p)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)),
           band=st.booleans())
    def test_block_storage_matches_the_full_lattice(self, nx, ny, seed, form, band):
        """Twisted V^p and the Y^(1/2) proxy of a stored block, the half spectrum with its
        Nyquist column or the band block, equal the full-lattice values of its frames."""
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, nx, ny)) + 1j * rng.standard_normal((6, nx, ny))
        full = 0.5 * (a + np.conj(np.roll(a[:, ::-1, ::-1], 1, axis=(1, 2))))
        if band:
            full *= g.dealias_mask
        width = g.band_columns if band else ny // 2 + 1
        stf = SpaceTimeField(g, 0.0, 0.05, np.ascontiguousarray(full[..., :width]))
        assert np.any(stf.block[..., -1]) and stf.block.shape[-1] == width
        for p in (2.0, 3.0):
            ref = self.full_lattice(stf, p, form, full)
            assert twisted_variation(stf, p, form) == pytest.approx(ref, rel=1e-13, abs=0.0)
        lp = LPProjector(g)
        ref = sum((1.0 if n == 0.0 else np.sqrt(n))
                  * self.full_lattice(stf, 2.0, form, full * lp.weight(n)) for n in lp.blocks())
        assert y_half_proxy(stf, form) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_shell_projections_match_the_full_lattice(self, form):
        """LP-shell pieces of a nonlinear trajectory on a non-square grid with
        unequal periods: the support-restricted value equals the full-lattice one."""
        g = make_grid(32, 16, 2 * np.pi, 3.0)
        u0 = random_band_limited(g, seed=3, kmax=8, amplitude=2.0)
        traj = evolve(u0, 0.05, 0.005, form, sample_every=1)
        lp = LPProjector(g)
        nonzero = 0
        for block in lp.blocks():
            piece = SpaceTimeField(g, 0.0, traj.dt, traj.coeffs * lp.weight(block))
            assert np.all(piece.coeffs == 0.0, axis=0).any()
            for p in (2.0, 3.0):
                ref = self.full_lattice(piece, p, form)
                nonzero += ref > 0.0
                got = twisted_variation(piece, p, form)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert nonzero >= 8

    def test_zero_trajectory_is_exactly_zero(self):
        stf = SpaceTimeField(G, 0.0, 0.1, np.zeros((5, G.nx, G.ny), dtype=complex))
        assert twisted_variation(stf, 2.0, DispersionForm.SYMMETRIZED) == 0.0


class TestGatheredKernel:
    """The proxies gather a trajectory on its support once; the kernel on any row-major
    superset of the support gives the block's values bit for bit."""

    @staticmethod
    def per_block_proxy(stf, form):
        """y_half_proxy as one weighted trajectory per LP block."""
        lp, width, total = LPProjector(stf.grid), stf.block.shape[-1], 0.0
        for block in lp.blocks():
            weighted = SpaceTimeField(stf.grid, stf.t0, stf.dt,
                                      stf.block * lp.weight(block)[:, :width])
            tv = twisted_variation(weighted, 2.0, form)
            total += tv if block == 0.0 else np.sqrt(block) * tv
        return float(total)

    @settings(max_examples=40, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32]), ny=st.sampled_from([8, 16, 32]),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)),
           density=st.sampled_from([0.05, 0.2, 0.6]))
    def test_gathered_values_match_the_block(self, nx, ny, seed, form, density):
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 9)), nx, g.band_columns)
        modes = (rng.random(shape[1:]) < density) & g.dealias_mask[:, :g.band_columns]
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = np.where(modes & (rng.random(shape) < 0.8), values, 0.0)
        stf = SpaceTimeField(g, float(rng.random()), 0.05, block)
        rows, cols = np.nonzero(np.any(block != 0, axis=0) | (rng.random(shape[1:]) < 0.3))
        for p in (2.0, 3.0):
            got = _twisted(g, stf.times, block[:, rows, cols], rows, cols, p, form)
            assert got == twisted_variation(stf, p, form)
        assert y_half_proxy(stf, form) == self.per_block_proxy(stf, form)


class TestYHalfProxy:
    def test_single_shell_reduction(self):
        """Support at |zeta| = N exactly: proxy = sqrt(N) * twisted V^p."""
        u0 = single_mode(G, 4, 0)
        coeffs = np.stack([u0.coeffs, 0.5 * u0.coeffs, 1.5 * u0.coeffs])
        stf = SpaceTimeField(G, 0.0, 0.2, coeffs)
        form = DispersionForm.ORIGINAL
        expected = 2.0 * twisted_variation(stf, 2.0, form)
        assert y_half_proxy(stf, form) == pytest.approx(expected, rel=1e-12)

    def test_free_solution_zero(self):
        traj = free_trajectory(single_mode(G, 3, 2), DispersionForm.SYMMETRIZED, 0.5, 9)
        assert y_half_proxy(traj, DispersionForm.SYMMETRIZED) < 1e-11
