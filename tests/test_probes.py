"""Probe-layer unit tests: argument validation, report structure, and the
deterministic cutoff decomposition.  Drift magnitudes on the frozen parameter
sets are exercised by the acceptance suite."""

import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from zklab import (
    DispersionForm,
    ResolutionError,
    UsageError,
    bilinear_probe,
    cutoff_decompose,
    cutoff_probe,
    gh_bilinear_probe,
    l4_probe,
    make_grid,
    maximal_derivative_probe,
    strichartz_probe,
    trilinear_form_probe,
    twisted_variation,
    xsb_norm,
    y_half_proxy,
)
from hypothesis import given, settings, strategies as st

from zklab import probes
from zklab.dynamics import spectral_kernel
from zklab.ic import random_band_limited, shell_field
from zklab.norms import mixed_lebesgue_norm
from zklab.probes import _frame_times, _free_block
from zklab.spectral import Grid2D, from_coefficients
from zklab.trajectory import SpaceTimeField, modulation_project

G = make_grid(32, 32, 2 * np.pi, 2 * np.pi)


class TestValidation:
    def test_strichartz_inadmissible_pair(self):
        # the scaling relation picks out 3/q + 2/r = 1; (4, 4) violates it, NaN satisfies
        # nothing, and r = 0 must not reach the division
        for q, r in [(4.0, 4.0), (np.nan, np.nan), (np.nan, 4.0), (6.0, np.nan), (6.0, 0.0)]:
            with pytest.raises(UsageError, match="inadmissible"):
                strichartz_probe(q, r, G, samples=2)

    def test_bilinear_needs_separation(self):
        with pytest.raises(UsageError):
            bilinear_probe(16.0, 8.0, G, samples=2)  # wrong order
        with pytest.raises(UsageError):
            bilinear_probe(8.0, 8.0, G, samples=2)  # no octave gap

    def test_gh_needs_low_high(self):
        with pytest.raises(UsageError):
            gh_bilinear_probe(4.0, 8.0, G, samples=2)  # first shell must dominate

    def test_trilinear_regime_gate(self):
        with pytest.raises(UsageError):
            trilinear_form_probe(4.0, 4.0, 16.0, 0.1, G, samples=1)

    def test_shell_outside_band(self):
        with pytest.raises(Exception):
            bilinear_probe(4.0, 64.0, G, samples=2)

    @pytest.mark.parametrize("span", [0.0, -1.0, np.nan, np.inf])
    def test_span_must_be_finite_and_positive(self, span):
        with pytest.raises(UsageError, match="span"):
            l4_probe(G16, samples=1, frames=9, span=span)

    def test_samples_must_be_positive(self):
        with pytest.raises(UsageError, match="samples"):
            strichartz_probe(6.0, 4.0, G16, samples=0, frames=9)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, -1.0, np.nan])
    def test_maximal_epsilon_in_range(self, epsilon):
        # 0.3 makes |xi|^(-0.05) infinite on the xi = 0 row; -1 would probe |D_x|^{5/4}
        with pytest.raises(UsageError, match="epsilon"):
            maximal_derivative_probe(G16, samples=1, frames=9, epsilon=epsilon)


class TestReportShape:
    def test_strichartz_small_run(self):
        rep = strichartz_probe(6.0, 4.0, G, samples=4, seed=1, frames=17)
        assert rep.estimate.startswith("strichartz")
        assert rep.lhs > 0 and rep.rhs > 0
        assert rep.ratio == pytest.approx(rep.lhs / rep.rhs, rel=1e-12)
        lo, med, hi = rep.spread
        assert lo <= med <= hi
        assert rep.drift > 0
        assert rep.seed == 1

    def test_seed_determinism(self):
        a = strichartz_probe(6.0, 4.0, G, samples=3, seed=7, frames=17)
        b = strichartz_probe(6.0, 4.0, G, samples=3, seed=7, frames=17)
        assert a.lhs == b.lhs and a.drift == b.drift

    def test_maximal_probe_params(self):
        rep = maximal_derivative_probe(G, samples=3, seed=2, frames=17)
        assert "epsilon" in rep.params
        assert rep.caveat

    def test_l4_probe_runs(self):
        rep = l4_probe(G, samples=3, seed=0, frames=17)
        assert rep.ratio > 0

    def test_bilinear_companion_recorded(self):
        rep = bilinear_probe(2.0, 8.0, G, samples=3, seed=0, frames=17)
        assert rep.params["companion_n1"] in (1.0, 4.0)
        assert rep.params["companion_n2"] in (4.0, 16.0)


class TestCutoffDecomposition:
    TIMES = np.linspace(0.0, 4.0, 2048)

    def test_exact_reconstruction(self):
        dec = cutoff_decompose(1.0, 8.0, self.TIMES)
        np.testing.assert_allclose(dec.low + dec.high, dec.indicator, atol=1e-12)

    def test_indicator_support(self):
        dec = cutoff_decompose(1.0, 8.0, self.TIMES)
        inside = self.TIMES <= 1.0
        np.testing.assert_array_equal(dec.indicator[inside], 1.0)
        np.testing.assert_array_equal(dec.indicator[~inside], 0.0)

    def test_low_part_is_band_limited(self):
        dec = cutoff_decompose(1.0, 8.0, self.TIMES)
        dt = self.TIMES[1] - self.TIMES[0]
        tau = 2.0 * np.pi * np.fft.fftfreq(len(self.TIMES), d=dt)
        hat = np.fft.fft(dec.low)
        assert np.abs(hat[np.abs(tau) > 16.0]).max() < 1e-10 * np.abs(hat).max()

    def test_validation(self):
        with pytest.raises(UsageError):
            cutoff_decompose(0.0, 8.0, self.TIMES)
        with pytest.raises(UsageError):
            cutoff_decompose(1.0, 8.0, self.TIMES[:8])
        with pytest.raises(UsageError):
            cutoff_decompose(1.0, 8.0, np.sqrt(self.TIMES))
        with pytest.raises(ResolutionError):
            cutoff_decompose(3.0, 8.0, self.TIMES)  # span < 2T
        with pytest.raises(ResolutionError):
            cutoff_decompose(1.0, 1e5, self.TIMES)  # dt too coarse for L
        for t_length, l_scale in ((np.inf, 4.0), (np.nan, 4.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(UsageError):
                cutoff_probe((t_length,), (l_scale,), num_nodes=64)
        for bad in (np.nan, np.inf):
            times = self.TIMES.copy()
            times[5] = bad
            with pytest.raises(UsageError):
                cutoff_decompose(1.0, 8.0, times)
        with pytest.raises(UsageError):
            cutoff_decompose(1.0, 8.0, np.full(64, np.nan))

    @pytest.mark.parametrize("t_length, l_scale", [
        (np.inf, 4.0), (np.nan, 4.0), (0.0, 4.0), (-1.0, 4.0), (1.0, np.inf), (1.0, 0.0)])
    def test_bad_scale_is_rejected_before_the_window(self, t_length, l_scale):
        """An infinite T used to reach np.linspace and warn before the UsageError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError):
                cutoff_probe((t_length,), (l_scale,), num_nodes=64)

    @pytest.mark.parametrize("t_values, l_values", [((), (4.0,)), ((1.0,), ())])
    def test_empty_grid_is_a_usage_error(self, t_values, l_values):
        with pytest.raises(UsageError):
            cutoff_probe(t_values, l_values, num_nodes=1024)

    def test_probe_rows_and_drift(self):
        rows, rep = cutoff_probe((0.5, 1.0), (4.0, 8.0), num_nodes=1024)
        assert len(rows) == 4
        for row in rows:
            assert row["recon_error"] < 1e-12
            assert row["normalized"] > 0
        assert rep.drift >= 1.0
        assert rep.params["samples"] == 4


G16 = make_grid(16, 16, 2 * np.pi, 2 * np.pi)

# Reports at small sizes, recorded before the probes shared one ensemble
# harness; (call, estimate, expected numeric fields of to_row()).
GOLDEN = {
    "strichartz": (
        lambda: strichartz_probe(6.0, 4.0, G16, samples=2, seed=1, frames=9),
        "strichartz",
        {"lhs": 0.41602435123045123, "ratio_min": 0.41466445565715854,
         "ratio_max": 0.41738424680374386, "drift": 1.0115375543161096}),
    "maximal": (
        lambda: maximal_derivative_probe(G16, samples=2, seed=2, frames=9),
        "maximal-derivative",
        {"lhs": 0.38424089106321513, "ratio_min": 0.3505901755369728,
         "ratio_max": 0.4178916065894574, "drift": 1.004682884931281,
         "param_single_mode_baseline": 0.15215165118421253}),
    "bilinear": (
        lambda: bilinear_probe(2.0, 8.0, G, samples=2, seed=0, frames=9),
        "bilinear-lowhigh",
        {"lhs": 0.5895769524226067, "ratio_min": 0.5827501526533357,
         "ratio_max": 0.5964037521918776, "drift": 1.4021421570707655,
         "param_companion_n1": 1.0, "param_companion_n2": 4.0}),
    "gh-bilinear": (
        lambda: gh_bilinear_probe(4.0, 2.0, G, samples=2, seed=3, frames=5),
        "gh-bilinear",
        {"lhs": 0.20883209056624308, "ratio_min": 0.20110156666104415,
         "ratio_max": 0.21656261447144198, "drift": 1.444065017003545,
         "param_companion_n1": 2.0, "param_companion_n2": 1.0}),
    "l4": (
        lambda: l4_probe(G16, samples=2, seed=0, frames=9),
        "l4-riesz",
        {"lhs": 0.41794122591960237, "ratio_min": 0.40270608102688205,
         "ratio_max": 0.43317637081232263, "drift": 1.0345355479970262}),
    "cutoff": (
        lambda: cutoff_probe((0.5, 1.0), (4.0, 8.0), num_nodes=1024)[1],
        "cutoff-high",
        {"lhs": 0.5049710613921395, "ratio_min": 0.4172781575011646,
         "ratio_max": 0.6847953307372122, "drift": 1.3593344993677754}),
    "trilinear": (
        lambda: trilinear_form_probe(8.0, 2.0, 8.0, 0.125, G, samples=1, seed=0,
                                     num_steps=64),
        "trilinear-form",
        {"lhs": 2303.202041952955, "ratio_min": 2303.202041952955,
         "ratio_max": 2303.202041952955, "drift": 2.4703848855914945,
         "param_proxy_floor": 9.414054607095407e-05,
         "param_t_doubling_drift": 10.713396037664833, "param_num_steps": 64}),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_row_matches_recorded_values(self, name):
        call, estimate, expected = GOLDEN[name]
        row = call().to_row()
        assert row["estimate"] == estimate
        assert row["ratio"] == row["lhs"] and row["rhs"] == 1.0
        for key, value in expected.items():
            assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestSharedDispersion:
    def test_omega_built_once_per_grid_and_form(self, monkeypatch):
        built = Counter()
        original = DispersionForm.omega

        def counting(form, grid):
            built[(form, grid)] += 1
            return original(form, grid)

        spectral_kernel.cache_clear()
        monkeypatch.setattr(DispersionForm, "omega", counting)
        strichartz_probe(6.0, 4.0, G16, samples=2, seed=0, frames=9)
        u0 = random_band_limited(G16, seed=1, kmax=4.0)
        stf = SpaceTimeField(G16, 0.0, 0.05, np.stack([u0.coeffs] * 16))
        for form in DispersionForm:
            twisted_variation(stf, 2.0, form)
            y_half_proxy(stf, form)
            xsb_norm(stf, 0.0, 0.5, form)
            modulation_project(stf, 16.0, form)
        spectral_kernel.cache_clear()
        g32 = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        assert built == {(DispersionForm.ORIGINAL, G16): 1,
                         (DispersionForm.ORIGINAL, g32): 1,
                         (DispersionForm.SYMMETRIZED, G16): 1}

    def test_gh_bilinear_omega_built_once_on_the_base_grid(self, monkeypatch):
        built = Counter()
        original = DispersionForm.omega

        def counting(form, grid):
            built[(form, grid)] += 1
            return original(form, grid)

        spectral_kernel.cache_clear()
        monkeypatch.setattr(DispersionForm, "omega", counting)
        gh_bilinear_probe(4.0, 2.0, G, samples=1, frames=5)
        spectral_kernel.cache_clear()
        assert built == {(DispersionForm.SYMMETRIZED, G): 1}

    def test_trilinear_derivative_built_once_per_grid(self, monkeypatch):
        built = Counter()
        original = DispersionForm.nonlinear_derivative

        def counting(form, grid):
            built[(form, grid)] += 1
            return original(form, grid)

        spectral_kernel.cache_clear()
        monkeypatch.setattr(DispersionForm, "nonlinear_derivative", counting)
        trilinear_form_probe(4.0, 1.0, 4.0, 0.0625, G16, samples=2, num_steps=4)
        spectral_kernel.cache_clear()
        g32 = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
        assert built == {(DispersionForm.SYMMETRIZED, G16): 1,
                         (DispersionForm.SYMMETRIZED, g32): 1}


def test_trilinear_window_doubling_runs_on_from_the_base_rung(monkeypatch):
    """At auto step counts 2T takes 384 steps and 4T 768 at the same dt, so the base
    rung steps on into the doubled window instead of stepping it again from u0; the
    report is the one recorded with the three rungs stepped separately."""
    steps = Counter()
    original = probes.step_etdrk4

    def counting(state, tableau):
        steps[state.grid.nx] += 1
        return original(state, tableau)

    monkeypatch.setattr(probes, "step_etdrk4", counting)
    row = trilinear_form_probe(8.0, 2.0, 8.0, 0.125, G, samples=1, seed=0).to_row()
    assert steps == {32: 768, 64: 384}
    recorded = {"lhs": 1990.4415404449583, "drift": 3.1698070778460137,
                "param_proxy_floor": 9.41244775272524e-05,
                "param_t_doubling_drift": 10.42783093427986}
    for key, value in recorded.items():
        assert row[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_trilinear_window_count_comes_from_the_rung(monkeypatch):
    """A base grid that equals the caller's but is another object still runs on into
    4T: the rung carries its window count, so the report is unchanged."""
    args = (4.0, 1.0, 4.0, 1.0 / 16.0, G16)
    want = trilinear_form_probe(*args, samples=1, num_steps=64)
    original = probes._ensemble_report

    def copied_base(estimate, one, base, *rest, **kwargs):
        return original(estimate, one, (dataclasses.replace(base[0]), *base[1:]), *rest, **kwargs)

    monkeypatch.setattr(probes, "_ensemble_report", copied_base)
    assert trilinear_form_probe(*args, samples=1, num_steps=64) == want


class TestTrilinearOnePath:
    """Each sample is stepped once per grid: the base grid runs on from the 2T window
    into 4T at the 2T step size, whatever ``num_steps`` is and however the auto
    step counts round; the doubled grid steps 2T only."""

    @pytest.mark.parametrize("args, kwargs, steps", [
        ((8.0, 2.0, 8.0, 0.125, G), {"samples": 2, "num_steps": 64}, 64),
        ((4.0, 1.0, 4.0, 0.0625, G16), {"samples": 2}, 64),  # 2T and 4T both auto to 64
        ((8.0, 2.0, 8.0, 0.125, G), {"samples": 1}, 384),
    ], ids=["num_steps=64", "auto-64/64", "auto-384/768"])
    def test_one_trajectory_per_grid_per_sample(self, monkeypatch, args, kwargs, steps):
        states, tableaux, stepped = Counter(), [], Counter()
        original_state, original_tableau = probes.SolverState, probes.etdrk4_tableau
        original_step = probes.step_etdrk4

        def counting_state(u0, t, dt, form):
            states[u0.grid.nx] += 1
            return original_state(u0, t, dt, form)

        def counting_tableau(g, dt, form):
            tableaux.append((g.nx, dt))
            return original_tableau(g, dt, form)

        def counting_step(state, tableau):
            stepped[state.grid.nx] += 1
            return original_step(state, tableau)

        monkeypatch.setattr(probes, "SolverState", counting_state)
        monkeypatch.setattr(probes, "etdrk4_tableau", counting_tableau)
        monkeypatch.setattr(probes, "step_etdrk4", counting_step)
        trilinear_form_probe(*args, seed=0, **kwargs)
        samples, nx, t_length = kwargs["samples"], args[-1].nx, args[3]
        assert states == {nx: samples, 2 * nx: samples}
        assert stepped == {nx: 2 * steps * samples, 2 * nx: steps * samples}
        assert {dt for _, dt in tableaux} == {2.0 * t_length / steps}

    @pytest.mark.parametrize("shells, t_length, grid, samples, num_steps", [
        ((8.0, 2.0, 8.0), 0.125, G, 1, 64),  # the golden row's call
        ((4.0, 1.0, 4.0), 0.0625, G16, 3, None),  # auto: 2T and 4T both resolve to 64
    ], ids=["(8,2,8)-N=64", "(4,1,4)-auto"])
    def test_window_doubling_is_the_public_2t_call(self, shells, t_length, grid, samples,
                                                   num_steps):
        report = trilinear_form_probe(*shells, t_length, grid, samples=samples,
                                      num_steps=num_steps)
        n = num_steps or probes._trilinear_steps(*shells, 2.0 * t_length)
        assert n % 64 == 0
        base = trilinear_form_probe(*shells, t_length, grid, samples=samples, num_steps=n)
        doubled = trilinear_form_probe(*shells, 2.0 * t_length, grid, samples=samples,
                                       num_steps=2 * n)
        assert base.ratio == report.ratio
        assert report.params["t_doubling_drift"] == probes._drift(base.ratio, doubled.ratio)

    def test_proxies_span_their_windows(self, monkeypatch):
        """129 = 3 * 43 steps: 129 // 64 = 2 does not divide it, so the stride falls to 1
        and the proxies end on each window's end, 2T on both grids and 4T on the base."""
        spans, original = [], probes._twisted

        def recording(grid, times, *args):
            spans.append((grid.nx, times[-1] - times[0]))
            return original(grid, times, *args)

        monkeypatch.setattr(probes, "_twisted", recording)
        t_length = 0.0625
        trilinear_form_probe(4.0, 1.0, 4.0, t_length, G16, samples=1, num_steps=129)
        windows = [(16, 2.0), (16, 4.0), (32, 2.0)]
        assert [nx for nx, _ in spans] == [nx for nx, _ in windows for _ in range(3)]
        assert [span for _, span in spans] == pytest.approx(
            [w * t_length for _, w in windows for _ in range(3)], rel=1e-12, abs=0.0)


class TestFrameCount:
    @pytest.mark.parametrize("call", [
        lambda f: strichartz_probe(6.0, 4.0, G16, samples=1, frames=f),
        lambda f: maximal_derivative_probe(G16, samples=1, frames=f),
        lambda f: bilinear_probe(2.0, 8.0, G, samples=1, frames=f),
        lambda f: gh_bilinear_probe(4.0, 2.0, G, samples=1, frames=f),
        lambda f: l4_probe(G16, samples=1, frames=f),
    ], ids=["strichartz", "maximal", "bilinear", "gh-bilinear", "l4"])
    def test_single_frame_is_a_usage_error(self, call):
        with pytest.raises(UsageError, match="frames"):
            call(1)
        assert call(2).ratio >= 0


class TestFreeTrajectorySupport:
    """The free-wave block holds the half-spectrum columns up to u0's last non-zero
    one, phased on u0's support only; past it the full-lattice wave is 0."""

    @staticmethod
    def _data(g, kind, seed):
        if kind == "band":
            return random_band_limited(g, seed)
        rng = np.random.default_rng(seed)
        live = np.flatnonzero(g.dealias_mask & (g.abs_zeta > 0))
        j, k = np.unravel_index(rng.choice(live), (g.nx, g.ny))
        if kind == "shell":  # the octave annulus through one in-band mode is never empty
            return shell_field(g, g.abs_zeta[j, k], seed)
        coeffs = np.zeros((g.nx, g.ny), dtype=np.complex128)
        coeffs[j, k] = coeffs[-j, -k] = 0.5
        return from_coefficients(g, coeffs)

    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)),
           kind=st.sampled_from(["band", "shell", "mode"]),
           span=st.floats(0.01, 4.0), frames=st.integers(2, 9))
    def test_bit_equal_to_the_full_lattice_phase(self, nx, ny, lx, ly, seed, form,
                                                  kind, span, frames):
        g = make_grid(nx, ny, lx, ly)
        u0 = self._data(g, kind, seed)
        times = _frame_times(span, frames)
        block = _free_block(u0, form, times)
        full = spectral_kernel(g, form).phase(times) * u0.coeffs
        half, cols = full[..., :g.ny // 2 + 1], block.shape[-1]
        assert np.array_equal(block, half[..., :cols])
        assert np.any(half[..., cols - 1]) and not np.any(half[..., cols:])
        assert np.array_equal(g.to_physical(block), g.to_physical(full))


# The left sides as computed before the probes worked on the data's support:
# full-lattice phases, gh-bilinear pair sums scattered onto the doubled lattice
# with np.add.at, and the bilinear product taken through the spectral side.
def _full_lattice_wave(u0, form, span, frames):
    dt = span / (frames - 1)
    phase = spectral_kernel(u0.grid, form).phase(dt * np.arange(frames))
    return SpaceTimeField(u0.grid, 0.0, dt, phase * u0.coeffs[None])


def _gh_reference(n_big, n_small, grid, seed, span, frames):
    doubled = Grid2D(2 * grid.nx, 2 * grid.ny, grid.lx, grid.ly)
    u0, v0 = shell_field(grid, n_big, seed), shell_field(grid, n_small, seed + 1)
    i1, k1 = np.nonzero(u0.coeffs)
    i2, k2 = np.nonzero(v0.coeffs)
    a = _full_lattice_wave(u0, DispersionForm.SYMMETRIZED, span, frames)
    b = _full_lattice_wave(v0, DispersionForm.SYMMETRIZED, span, frames)
    xi1, xi2 = grid.xi[i1][:, None], grid.xi[i2][None, :]
    weight = np.abs(xi1 - xi2) ** 0.5 * np.abs(xi1 + xi2) ** 0.5
    jsum = (grid.jx[i1][:, None] + grid.jx[i2][None, :]) % doubled.nx
    ksum = (grid.jy[k1][:, None] + grid.jy[k2][None, :]) % doubled.ny
    flat = (jsum * doubled.ny + ksum).ravel()
    pairs = np.zeros((frames, doubled.nx * doubled.ny), dtype=np.complex128)
    for l in range(frames):
        np.add.at(pairs[l], flat, (weight * np.multiply.outer(a.coeffs[l, i1, k1],
                                                              b.coeffs[l, i2, k2])).ravel())
    stf = SpaceTimeField(doubled, 0.0, a.dt, pairs.reshape(frames, doubled.nx, doubled.ny))
    return mixed_lebesgue_norm(stf.windowed(), 2.0, 2.0) / np.sqrt(n_small)


def _bilinear_reference(n_lo, n_hi, grid, seed, span, frames):
    tu = _full_lattice_wave(shell_field(grid, n_lo, seed), DispersionForm.ORIGINAL,
                            span, frames)
    tv = _full_lattice_wave(shell_field(grid, n_hi, seed + 1), DispersionForm.ORIGINAL,
                            span, frames)
    coeffs = grid.full_spectrum(grid.to_spectral(tu.values() * tv.values()))
    stf = SpaceTimeField(grid, 0.0, tu.dt, coeffs)
    return mixed_lebesgue_norm(stf.windowed(), 2.0, 2.0) * n_hi / np.sqrt(n_lo)


REFERENCE_GRIDS = [make_grid(32, 32, 2 * np.pi, 2 * np.pi),
                   make_grid(32, 64, 2 * np.pi, 3 * np.pi),
                   make_grid(64, 16, 5.0, 2.0)]


class TestLeftSidesMatchTheReference:
    """One sample's report lhs is that sample's left side, so it must match."""

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["32x32", "32x64", "64x16"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_gh_bilinear(self, grid, seed):
        rep = gh_bilinear_probe(4.0, 2.0, grid, samples=1, seed=seed, frames=9)
        ref = _gh_reference(4.0, 2.0, grid, seed, 1.0, 9)
        assert ref > 0
        assert rep.lhs == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=["32x32", "32x64", "64x16"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_bilinear(self, grid, seed):
        rep = bilinear_probe(2.0, 8.0, grid, samples=1, seed=seed, frames=9)
        ref = _bilinear_reference(2.0, 8.0, grid, seed, 1.0, 9)
        assert rep.lhs == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestFreeWaveNormsMatchTheReference:
    """With one sample the report lhs is the free-wave norm, built on the data's
    column block; it must equal the windowed full-lattice norm bit for bit."""

    @pytest.mark.parametrize("grid", REFERENCE_GRIDS + [Grid2D(2 * g.nx, 2 * g.ny, g.lx, g.ly)
                                                        for g in REFERENCE_GRIDS],
                             ids=["32x32", "32x64", "64x16", "64x64", "64x128", "128x32"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_strichartz_l4_and_maximal(self, grid, seed):
        u0 = random_band_limited(grid, seed, kmax=grid.band_radius, norm="sobolev",
                                 norm_s=0.0, amplitude=1.0)
        mode = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
        mode[1, 0] = mode[-1, 0] = 0.5 / np.sqrt(grid.area * 0.5)
        maximal_weight = np.abs(grid.xi_grid) ** (0.25 - 0.01)
        l4_weight = (np.abs(grid.xi_grid) ** 0.125) * (np.abs(grid.eta_grid) ** 0.125)

        def reference(data, weight, form, q, r):
            wave = _full_lattice_wave(data.multiplier(weight), form, 1.0, 9)
            return mixed_lebesgue_norm(wave.windowed(), q, r)

        strichartz = strichartz_probe(6.0, 4.0, grid, samples=1, seed=seed, frames=9)
        assert strichartz.lhs == reference(u0, 1.0, DispersionForm.ORIGINAL, 6.0, 4.0)
        l4 = l4_probe(grid, samples=1, seed=seed, frames=9)
        assert l4.lhs == reference(u0, l4_weight, DispersionForm.SYMMETRIZED, 4.0, 4.0)
        maximal = maximal_derivative_probe(grid, samples=1, seed=seed, frames=9)
        assert maximal.lhs == reference(u0, maximal_weight, DispersionForm.ORIGINAL,
                                        2.5, np.inf)
        assert maximal.params["single_mode_baseline"] == reference(
            from_coefficients(grid, mode), maximal_weight, DispersionForm.ORIGINAL, 2.5, np.inf)


def test_strichartz_peak_memory_stays_on_the_column_block():
    """The doubled-grid free waves are built on the data's 22 of 65 half-spectrum
    columns and taken to L^r in place, not as full complex trajectories."""
    grid = make_grid(64, 64, 2 * np.pi, 2 * np.pi)
    tracemalloc.start()
    try:
        strichartz_probe(6.0, 4.0, grid, samples=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_trilinear_probe_keeps_its_proxy_frames_on_the_shell_support():
    """One (8, 2, 8) sample at 64^2 peaks below two (65, 128, 43) complex stacks of
    doubled-grid band-block frames (10.9 MiB) of traced memory: the kept proxy frames
    hold the three shells' modes only, and no frame stack is weighted per shell."""
    grid = make_grid(64, 64, 2 * np.pi, 2 * np.pi)
    tracemalloc.start()
    try:
        trilinear_form_probe(8.0, 2.0, 8.0, 0.125, grid, samples=1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 65 * 128 * 43 * np.dtype(np.complex128).itemsize
