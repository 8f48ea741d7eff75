"""Duhamel fixed-point iteration tests."""

import numpy as np
import pytest

from zklab import (
    DispersionForm,
    UsageError,
    besov_norm_2_1,
    chi,
    dealias,
    linear_propagator,
    make_field,
    make_grid,
    picard_horizon,
    picard_iterate,
)
from zklab.ic import random_band_limited

G = make_grid(16, 16, 2 * np.pi, 2 * np.pi)


class TestHorizonRule:
    def test_hand_values(self):
        # r = 4 ||u||, T = min(1, (4r)^-6)
        assert picard_horizon(0.0) == 1.0
        assert picard_horizon(1.0 / 16.0) == pytest.approx(1.0)
        assert picard_horizon(1.0 / 8.0) == pytest.approx(1.0 / 64.0, rel=1e-13)

    def test_c0_dependence(self):
        assert picard_horizon(0.125, c0=2.0) == pytest.approx(
            1.0 / (4.0 * 2.0 * 4.0 * 2.0 * 0.125) ** 6, rel=1e-13)

    def test_monotone_in_norm(self):
        ts = [picard_horizon(v) for v in (0.1, 0.2, 0.4, 0.8)]
        assert all(a >= b for a, b in zip(ts, ts[1:]))

    def test_negative_rejected(self):
        with pytest.raises(UsageError):
            picard_horizon(-1.0)

    @pytest.mark.parametrize("norm", [np.inf, np.nan])
    def test_non_finite_norm_rejected(self, norm):
        with pytest.raises(UsageError):
            picard_horizon(norm)


class TestIteration:
    def small_data(self, amplitude=0.05):
        return random_band_limited(G, seed=3, kmax=4.0, norm="sobolev",
                                   norm_s=0.0, amplitude=amplitude)

    def test_iterate_zero_is_free_solution(self):
        u0 = self.small_data()
        res = picard_iterate(u0, 0.05, 1, DispersionForm.SYMMETRIZED, num_nodes=17)
        idx = 5
        t = res[0].dt * idx
        free = linear_propagator(u0, t, DispersionForm.SYMMETRIZED)
        np.testing.assert_allclose(res[0].coeffs[idx], free.coeffs, atol=1e-13)

    @pytest.mark.parametrize("form", list(DispersionForm))
    def test_iterates_are_those_of_the_dealiased_data(self, form):
        """Out-of-band content of u0 never enters: on a non-square box, white
        noise and its 2/3 projection give the same iterates."""
        g = make_grid(16, 32, 2 * np.pi, 3 * np.pi)
        u0 = make_field(g, 0.01 * np.random.default_rng(4).standard_normal((16, 32)))
        noisy, clean = (picard_iterate(u, 0.05, 2, form, num_nodes=17) for u in (u0, dealias(u0)))
        for a, b in zip(noisy, clean):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
        assert np.abs(noisy[0].coeffs[:, ~g.dealias_mask]).max() == 0.0

    def test_cutoff_window_covers_support(self):
        """At t = 2T the cutoff chi(t/T) has died, so the last frame of iterate 1
        is the Duhamel tail alone, quadratic in the data, while the first frame
        is the data itself."""
        T = 0.04
        small, large = (picard_iterate(self.small_data(amplitude), T, 1,
                                       DispersionForm.ORIGINAL, num_nodes=33)[1]
                        for amplitude in (0.005, 0.05))
        assert large.span == pytest.approx(2.0 * T, rel=1e-12)
        assert chi(np.array([2.0]))[()] == 0.0
        for frame, factor in ((0, 10.0), (-1, 100.0)):
            scale = np.abs(large.coeffs[frame]).max()
            assert scale > 0.0
            assert np.abs(large.coeffs[frame] - factor * small.coeffs[frame]).max() <= 1e-9 * scale

    def test_contraction_on_small_data(self):
        u0 = self.small_data()
        T = picard_horizon(besov_norm_2_1(u0, 0.5))
        res = picard_iterate(u0, T, 5, DispersionForm.ORIGINAL)
        assert not res.contraction_failed
        assert all(r <= 0.5 for r in res.ratios)
        assert res.diffs[-1] < 1e-6 * res.diffs[0]

    def test_divergence_is_flagged(self):
        u0 = self.small_data(amplitude=40.0)
        res = picard_iterate(u0, 0.5, 4, DispersionForm.ORIGINAL)
        assert res.contraction_failed
        assert max(res.ratios) > 1.0

    def test_sequence_protocol(self):
        res = picard_iterate(self.small_data(), 0.02, 3,
                             DispersionForm.ORIGINAL, num_nodes=17)
        assert len(res) == 4
        assert len(res.diffs) == 3
        assert len(res.ratios) == 2
        assert [s for s in res][0] is res[0]

    def test_validation(self):
        u0 = self.small_data()
        with pytest.raises(UsageError):
            picard_iterate(u0, 0.0, 3, DispersionForm.ORIGINAL)
        with pytest.raises(UsageError):
            picard_iterate(u0, 0.1, 0, DispersionForm.ORIGINAL)
        with pytest.raises(UsageError):
            picard_iterate(u0, 0.1, 3, DispersionForm.ORIGINAL, num_nodes=5)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(UsageError):
            picard_iterate(self.small_data(), horizon, 3, DispersionForm.ORIGINAL, num_nodes=17)
