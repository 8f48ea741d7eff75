"""Modified-energy machinery tests.

Closed forms used below (2 pi box, area = 4 pi^2):
  u = A cos(j x):            M(u) = A^2 area / 2,  E(u) = A^2 j^2 area / 4
  u = cos x + cos 2x:        int u^3 = 3 pi^2,  int |grad u|^2 = 10 pi^2,
                             E(u) = 5 pi^2 - pi^2 = 4 pi^2
  single-mode triple with k1 + k2 + k3 = 0 and unit symbol:
                             Lambda_3 = area / 4
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zklab.imethod
from lattice_oracle import MultilinearSymbol, direct_lambda, increment_symbols
from zklab import (
    DataError,
    IMultiplier,
    UsageError,
    energy,
    evolve,
    from_coefficients,
    i_operator,
    increment_identity_check,
    increment_scan,
    gwp_iteration,
    growth_exponent,
    horizon_exponent,
    lambda3,
    lambda4,
    lambda_exponent,
    make_field,
    make_grid,
    mass,
    modified_energy,
    regularity_threshold,
)
from zklab import DiagnosticsRecorder, DispersionForm, Grid2D, SpaceTimeField, dealias, derivative
from zklab.dynamics import SolverState, spectral_kernel
from zklab.ic import random_band_limited
from zklab.norms import sobolev_norm
from zklab.scaling import rescale

G = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
G16 = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
# (delta, dt) that are not a whole number of steps: 1.5 steps, and 0.4, which rounds to none
PARTIAL_WINDOWS = [(0.0015, 1e-3), (0.0004, 1e-3)]


def mode(g, jx, jy, amp=1.0):
    c = np.zeros((g.nx, g.ny), dtype=complex)
    c[jx, jy] = c[-jx, -jy] = 0.5 * amp
    return from_coefficients(g, c)


def symmetrize(symbol):
    """[m]_sym: the average of the symbol over all argument permutations."""
    perms = list(itertools.permutations(range(symbol.arity)))

    def sym_fn(xis, etas):
        return sum(symbol([xis[i] for i in p], [etas[i] for i in p])
                   for p in perms) / len(perms)

    return MultilinearSymbol(symbol.arity, sym_fn, name=f"sym[{symbol.name}]")


class TestMultiplier:
    def test_plateau_and_tail(self):
        m = IMultiplier(0.8, 8.0)
        r = np.array([0.0, 1.0, 7.9, 8.0])
        np.testing.assert_array_equal(m.weight(r), 1.0)
        tail = np.array([16.0, 32.0, 64.0])
        np.testing.assert_allclose(m.weight(tail), (tail / 8.0) ** (0.8 - 1.0), rtol=1e-14)

    def test_transition_midpoint(self):
        """log2 m = (s-1) h(t) with h(1/2) = 6/8 - 8/16 + 3/32 = 11/32."""
        m = IMultiplier(0.75, 4.0)
        got = m.weight(np.array([4.0 * np.sqrt(2.0)]))[0]
        assert got == pytest.approx(2.0 ** (-0.25 * 11.0 / 32.0), rel=1e-13)

    def test_scale_covariance(self):
        r = np.geomspace(0.5, 300.0, 64)
        big = IMultiplier(0.7, 16.0).weight(r)
        unit = IMultiplier(0.7, 1.0).weight(r / 16.0)
        np.testing.assert_allclose(big, unit, rtol=1e-14)

    def test_monotone_non_increasing(self):
        r = np.linspace(0.0, 200.0, 4001)
        w = IMultiplier(0.55, 4.0).weight(r)
        assert np.all(np.diff(w) <= 1e-15)

    def test_c2_joins(self):
        """Second log-log derivative vanishes at both ends of the blend."""
        m = IMultiplier(0.8, 4.0)

        def g(t):
            return np.log2(m.weight(np.array([4.0 * 2.0 ** t]))[0])

        for t0 in (0.0, 1.0):
            h = 1e-4
            second = (g(t0 + h) - 2.0 * g(t0) + g(t0 - h)) / h ** 2
            assert abs(second) < 1e-2

    def test_s_one_is_identity(self):
        w = IMultiplier(1.0, 4.0).weight(np.geomspace(0.1, 100.0, 33))
        np.testing.assert_array_equal(w, 1.0)

    def test_validation(self):
        for s, n in ((0.5, 4.0), (1.2, 4.0), (0.9, 3.0), (0.9, 0.5), (0.8, float("inf"))):
            with pytest.raises(UsageError):
                IMultiplier(s, n)


class TestConservedQuantities:
    def test_mass_cosine(self):
        assert mass(mode(G, 3, 0, amp=2.0)) == pytest.approx(2.0 * G.area, rel=1e-12)

    def test_energy_single_cosine(self):
        u = mode(G, 2, 0, amp=0.7)
        assert energy(u) == pytest.approx(0.7 ** 2 * 4.0 * G.area / 4.0, rel=1e-12)

    def test_symmetrized_energy_cross_term(self):
        """u = a cos(x + y): u_x = u_y, so the cross term halves the gradient part."""
        u = mode(G, 1, 1, amp=0.7)
        want = 0.7 ** 2 * G.area / 4.0
        assert energy(u, DispersionForm.SYMMETRIZED) == pytest.approx(want, rel=1e-12)
        assert energy(u, DispersionForm.ORIGINAL) == pytest.approx(2.0 * want, rel=1e-12)

    def test_energy_with_cubic_term(self):
        u = from_coefficients(G, mode(G, 1, 0).coeffs + mode(G, 2, 0).coeffs)
        assert energy(u) == pytest.approx(4.0 * np.pi ** 2, rel=1e-12)

    def test_modified_energy_at_s_one(self):
        u = random_band_limited(G, seed=3, kmax=6.0, amplitude=0.5)
        m = IMultiplier(1.0, 4.0)
        assert modified_energy(u, m) == energy(u)

    def test_i_operator_low_band_identity(self):
        u = mode(G, 2, 1)
        v = i_operator(u, IMultiplier(0.8, 4.0))
        np.testing.assert_array_equal(v.coeffs, u.coeffs)

    def test_i_operator_tail_damping(self):
        u = mode(G, 8, 0)
        v = i_operator(u, IMultiplier(0.8, 2.0))
        assert v.coeffs[8, 0] == pytest.approx(0.5 * 4.0 ** (-0.2), rel=1e-13)


class TestLambdaForms:
    def unit3(self):
        return MultilinearSymbol(3, lambda xis, etas: np.ones_like(xis[0] + 0.0), "one")

    def test_single_mode_hand_value(self):
        u = mode(G16, 1, 0)
        v = mode(G16, 0, 1)
        w = mode(G16, -1, -1)
        got = direct_lambda([u, v, w], self.unit3())
        assert got == pytest.approx(G16.area / 4.0, rel=1e-12)

    def test_fast_matches_direct_m3(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        mult = IMultiplier(0.8, 1.0)
        m3, _ = increment_symbols(mult, g)
        for seed in range(4):
            u = random_band_limited(g, seed=seed, amplitude=0.7)
            fast = lambda3([u, u, u], mult)
            direct = direct_lambda([u, u, u], m3)
            assert fast == pytest.approx(direct, rel=1e-10, abs=1e-13)

    def test_fast_matches_direct_m4(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        mult = IMultiplier(0.8, 1.0)
        _, m4 = increment_symbols(mult, g)
        for seed in range(4):
            u = random_band_limited(g, seed=seed, amplitude=0.7)
            fast = lambda4([u, u, u, u], mult)
            direct = direct_lambda([u, u, u, u], m4)
            assert fast == pytest.approx(direct, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("nx,n_block", [(8, 1.0), (8, 2.0), (16, 1.0), (16, 2.0)])
    def test_fast_matches_direct_on_distinct_inputs(self, nx, n_block):
        """Repeated and distinct slots, including a field that recurs in
        non-adjacent slots, give the oracle's value."""
        g = make_grid(nx, nx, 2 * np.pi, 2 * np.pi)
        mult = IMultiplier(0.8, n_block)
        m3, m4 = increment_symbols(mult, g)
        a, b, c, d = (random_band_limited(g, seed=20 + k, amplitude=0.7) for k in range(4))
        cases = [(lambda3, m3, slots) for slots in ([a, b, c], [a, b, b], [b, a, b])]
        cases += [(lambda4, m4, slots) for slots in ([a, b, c, d], [a, a, b, b], [a, b, a, b])]
        for form, symbol, slots in cases:
            fast = form(slots, mult)
            direct = direct_lambda(slots, symbol)
            assert fast == pytest.approx(direct, rel=1e-10, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(nx=st.sampled_from([8, 16]), ny=st.sampled_from([8, 16]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
           n_block=st.sampled_from([1.0, 2.0, 4.0]),
           s=st.floats(0.55, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 4))
    def test_matches_the_oracle_off_the_square_box(self, nx, ny, lx, ly, n_block, s, seed):
        """Distinct slots on any box, square or not, give the oracle's value."""
        g = make_grid(nx, ny, lx, ly)
        mult = IMultiplier(s, n_block)
        m3, m4 = increment_symbols(mult, g)
        a, b, c, d = (random_band_limited(g, seed=seed + k, amplitude=0.7) for k in range(4))
        for form, symbol, slots in ((lambda3, m3, [a, b, c]), (lambda4, m4, [a, b, c, d])):
            assert form(slots, mult) == pytest.approx(direct_lambda(slots, symbol),
                                                      rel=1e-10, abs=1e-12)

    def test_factored_rejects_out_of_band_input(self):
        mult = IMultiplier(0.8, 1.0)
        u = random_band_limited(G16, seed=1, amplitude=0.5)
        outside = from_coefficients(G16, u.coeffs + mode(G16, 7, 0).coeffs)
        with pytest.raises(DataError):
            lambda3([u, u, outside], mult)
        with pytest.raises(DataError):
            lambda4([outside, u, u, u], mult)

    def test_dispatch_errors(self):
        """lambda3 and lambda4 reject a wrong slot count the same way."""
        u = mode(G16, 1, 0)
        for form in (lambda3, lambda4):
            with pytest.raises(UsageError, match="expected"):
                form([u, u], IMultiplier(0.8, 1.0))

    def test_symmetrize_preserves_value_on_equal_fields(self):
        g = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
        m3, _ = increment_symbols(IMultiplier(0.8, 1.0), g)
        u = random_band_limited(g, seed=9, amplitude=0.5)
        plain = direct_lambda([u, u, u], m3)
        sym = direct_lambda([u, u, u], symmetrize(m3))
        assert sym == pytest.approx(plain, rel=1e-11, abs=1e-14)

    def test_huge_n_kills_lambda3(self):
        """With N beyond the band, I is the identity and M3 vanishes on the
        zero-sum set, so the cubic correction disappears."""
        mult = IMultiplier(0.8, 64.0)
        m3, _ = increment_symbols(mult, G16)
        u = random_band_limited(G16, seed=5, amplitude=1.0)
        assert abs(lambda3([u, u, u], mult)) < 1e-13
        assert abs(direct_lambda([u, u, u], m3)) < 1e-13


class TestFormsReadTheKernel:
    """Lambda3's weight is the kernel's omega and Lambda4's its nonlinear derivative D:
    doubling either symbol where the kernel is built doubles exactly one form."""

    MULT = IMultiplier(0.8, 2.0)

    @pytest.fixture(autouse=True)
    def fresh_kernels(self):
        spectral_kernel.cache_clear()
        yield
        spectral_kernel.cache_clear()

    def forms(self):
        a, b, c, d = (random_band_limited(G16, seed=30 + k, amplitude=0.7) for k in range(4))
        return lambda3([a, b, c], self.MULT), lambda4([a, b, c, d], self.MULT)

    @pytest.mark.parametrize("name, doubled", [("omega", 0), ("nonlinear_derivative", 1)])
    def test_doubled_symbol_doubles_its_form(self, monkeypatch, name, doubled):
        plain = self.forms()
        original = getattr(DispersionForm, name)
        monkeypatch.setattr(DispersionForm, name, lambda form, grid: 2.0 * original(form, grid))
        spectral_kernel.cache_clear()
        got = self.forms()
        assert got[doubled] == 2.0 * plain[doubled] and got[1 - doubled] == plain[1 - doubled]
        assert plain[doubled] != 0


class TestIncrementIdentity:
    def test_residual_small_on_short_window(self):
        u0 = random_band_limited(G16, seed=2, kmax=4.0, norm="sobolev",
                                 norm_s=1.0, amplitude=2.0)
        traj = evolve(u0, 0.02, 5e-4, DispersionForm.ORIGINAL)
        report = increment_identity_check(traj, IMultiplier(0.9, 4.0))
        assert report.num_frames == 41
        assert report.residual < 5e-3
        assert report.lhs == pytest.approx(report.rhs, rel=5e-3, abs=1e-12)

    def test_each_frame_checked_and_transformed_once(self, monkeypatch):
        """Per frame: four 2-D transforms (W and V = W / m to physical, their
        squares back); the two end-point energies add one each.  A call on
        stacked frames counts once per frame."""
        u0 = random_band_limited(G, seed=3, kmax=6.0, amplitude=0.5)
        traj = evolve(u0, 0.02, 1e-3, DispersionForm.ORIGINAL)
        calls = {"transforms": 0}

        def counting(fn):
            def inner(grid, a, *args, **kwargs):
                calls["transforms"] += int(np.prod(np.shape(a)[:-2]))
                return fn(grid, a, *args, **kwargs)
            return inner

        monkeypatch.setattr(Grid2D, "to_spectral", counting(Grid2D.to_spectral))
        monkeypatch.setattr(Grid2D, "to_physical", counting(Grid2D.to_physical))
        increment_identity_check(traj, IMultiplier(0.9, 4.0))
        assert traj.num_frames == 21
        assert 0 < calls["transforms"] <= 4 * 21 + 2

    @pytest.mark.parametrize("bad", [1, 70, 148])
    def test_out_of_band_frame_rejected(self, bad):
        """Every frame is band-checked, in whichever block it falls."""
        u = random_band_limited(G16, seed=2, kmax=4.0, amplitude=0.5)
        coeffs = np.repeat(u.coeffs[None], 150, axis=0)
        coeffs[bad, 7, 0] = coeffs[bad, -7, 0] = 1e-3
        traj = SpaceTimeField(G16, 0.0, 1e-3, coeffs)
        with pytest.raises(DataError):
            increment_identity_check(traj, IMultiplier(0.9, 4.0))
        coeffs[bad] = u.coeffs  # the trajectory holds a copy of full input: build it anew
        increment_identity_check(SpaceTimeField(G16, 0.0, 1e-3, coeffs), IMultiplier(0.9, 4.0))

    @settings(max_examples=20, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_band_block_and_full_spectrum_report_alike(self, nx, ny, seed):
        """evolve's band-block trajectory and its frames given in full give one report,
        bit for bit; content in a row outside the band, inside the block, is rejected."""
        g = make_grid(nx, ny, 2 * np.pi, 3.0)
        u0 = random_band_limited(g, seed=seed, amplitude=0.5)
        traj = evolve(u0, 6e-3, 1e-3, DispersionForm.ORIGINAL)
        assert traj.block.shape[-1] == g.band_columns
        mult = IMultiplier(0.9, 4.0)
        full = SpaceTimeField(g, 0.0, traj.dt, traj.coeffs)
        assert increment_identity_check(full, mult) == increment_identity_check(traj, mult)
        block = traj.block.copy()
        block[3, g.band_index[0] + 1, g.band_columns - 1] = 1e-3
        with pytest.raises(DataError):
            increment_identity_check(SpaceTimeField(g, 0.0, traj.dt, block), mult)

    @pytest.mark.parametrize("ny, default_blocks", [(16, 5), (32, 10)])
    def test_report_does_not_depend_on_the_block_size(self, monkeypatch, ny, default_blocks):
        """One frame per block, one block and the default budget (32 and 16 frames here,
        so 150 frames end in a partial block) give one report, bit for bit."""
        g = make_grid(16, ny, 2 * np.pi, 3.0)
        u0 = random_band_limited(g, seed=11, norm="sobolev", norm_s=1.0, amplitude=2.0)
        traj = evolve(u0, 0.149, 1e-3, DispersionForm.ORIGINAL)
        mult = IMultiplier(0.8, 2.0)
        calls = []
        to_physical = Grid2D.to_physical

        def counting(grid, coeffs):
            calls.append(coeffs.shape)
            return to_physical(grid, coeffs)

        monkeypatch.setattr(Grid2D, "to_physical", counting)
        reports = {}
        for budget, blocks in ((None, default_blocks), (1, 150), (1 << 30, 1)):
            if budget is not None:
                monkeypatch.setattr(zklab.imethod, "_BLOCK_BYTES", budget)
            calls.clear()
            reports[budget] = increment_identity_check(traj, mult)
            assert len(calls) == 2 * blocks + 1  # W and V per block, both end-point energies
        assert traj.num_frames == 150
        assert reports[1] == reports[None] and reports[1 << 30] == reports[None]
        assert np.isfinite(reports[None].residual) and reports[None].residual < 1e-2

    def test_symbol_built_at_most_twice(self, monkeypatch):
        """I's symbol is built once for the Lambda forms and once for the
        frames and both end-point energies, which still equal E(I u)."""
        u0 = random_band_limited(G, seed=3, kmax=6.0, amplitude=0.5)
        traj = evolve(u0, 0.02, 1e-3, DispersionForm.ORIGINAL)
        mult = IMultiplier(0.9, 4.0)
        lhs = modified_energy(traj.frame(-1), mult) - modified_energy(traj.frame(0), mult)
        builds = []
        symbol = IMultiplier.symbol

        def counting(self, grid):
            builds.append(grid)
            return symbol(self, grid)

        monkeypatch.setattr(IMultiplier, "symbol", counting)
        report = increment_identity_check(traj, mult)
        assert len(builds) <= 2
        assert report.lhs == lhs

    def test_needs_frames(self):
        u0 = mode(G16, 1, 0)
        traj = evolve(u0, 2e-3, 1e-3, DispersionForm.ORIGINAL)
        with pytest.raises(UsageError):
            increment_identity_check(traj, IMultiplier(0.9, 4.0))


# The evaluators as computed before the Parseval forms: energy by one stacked
# transform of (u, u_x, u_y) and quadrature of the density, and Lambda3 /
# Lambda4 of one frame from nine transforms in physical space.
def _energy_reference(field, form):
    g = field.grid
    u = field.multiplier(g.dealias_mask)
    vals, ux, uy = g.to_physical(
        np.stack([u.coeffs, derivative(u, 1, 0).coeffs, derivative(u, 0, 1).coeffs]))
    gradient = ux * ux + uy * uy
    if form is DispersionForm.SYMMETRIZED:
        gradient = gradient - ux * uy
    density = 0.5 * gradient - vals * vals * vals / 3.0
    scale = np.sum(0.5 * (ux * ux + uy * uy) + np.abs(vals) ** 3 / 3.0) * g.cell_area
    return float(np.sum(density) * g.cell_area), float(scale)


def _lambdas_reference(mult, w):
    g = w.grid
    mask = g.dealias_mask
    msym = mult.symbol(g)
    dx_lap = g.xi_grid * (g.xi_grid ** 2 + g.eta_grid ** 2)
    m_band = (msym * mask)[:, :g.ny // 2 + 1]
    m4_pair = g.xi_odd[:, None] * m_band
    c = w.coeffs
    wp, vp = g.to_physical(c), g.to_physical(c / msym)
    gp = 1j * g.to_physical(-1j * dx_lap * c)
    term_a = np.sum(gp * (wp * wp)) * g.cell_area
    pair_hat = g.to_spectral(vp * vp)
    term_b = np.sum(gp * g.to_physical(pair_hat * m_band)) * g.cell_area
    fp = 1j * g.to_physical(-1j * m4_pair * pair_hat)
    return complex(term_a - term_b), complex(np.sum(fp * (wp * wp)) * g.cell_area)


class TestParsevalForms:
    @settings(max_examples=60, deadline=None)
    @given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
           lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
           seed=st.integers(0, 2 ** 32 - 1), form=st.sampled_from(list(DispersionForm)),
           in_band=st.booleans())
    def test_energy_matches_the_quadrature(self, nx, ny, lx, ly, seed, form, in_band):
        g = make_grid(nx, ny, lx, ly)
        u = make_field(g, np.random.default_rng(seed).standard_normal((nx, ny)))
        u = dealias(u) if in_band else u
        want, scale = _energy_reference(u, form)
        assert abs(energy(u, form) - want) <= 1e-13 * scale

    def test_batched_lambdas_match_the_per_frame_forms(self, monkeypatch):
        """Three blocks of frames on a non-square box; the per-frame values
        are the ones the check integrates."""
        g = make_grid(16, 32, 2 * np.pi, 3 * np.pi)
        u0 = random_band_limited(g, seed=4, kmax=5.0, norm="sobolev",
                                 norm_s=1.0, amplitude=2.0)
        traj = evolve(u0, 0.07, 5e-4, DispersionForm.ORIGINAL)
        mult = IMultiplier(0.8, 2.0)
        integrated = []
        definite = zklab.imethod.definite_integral

        def spy(values, dt):
            integrated.append(np.array(values))
            return definite(values, dt)

        monkeypatch.setattr(zklab.imethod, "definite_integral", spy)
        report = increment_identity_check(traj, mult)
        assert traj.num_frames == 141
        ref = np.array([_lambdas_reference(mult, i_operator(traj.frame(l), mult))
                        for l in range(traj.num_frames)])
        # the integrand, its modulus, Im Lambda3 and Im Lambda4, one column each
        (columns,) = integrated
        for got, want in zip(columns.T[2:], (ref[:, 0].imag, ref[:, 1].imag)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        w = i_operator(traj.frame(90), mult)
        assert lambda3([w] * 3, mult) == pytest.approx(ref[90, 0], rel=1e-12)
        assert lambda4([w] * 4, mult) == pytest.approx(ref[90, 1], rel=1e-12)
        assert report.lambda3_integral == pytest.approx(definite(ref[:, 0].imag, traj.dt),
                                                        rel=1e-12)


def test_increment_check_traces_less_than_a_full_frame_stack():
    """evolve with diagnostics plus the increment check over 501 frames at 64^2 peak
    below one full (501, 64, 64) complex frame stack (31.3 MiB) of traced memory."""
    g = make_grid(64, 64, 2 * np.pi, 2 * np.pi)
    u0 = random_band_limited(g, seed=0, kmax=6.0, norm="sobolev", norm_s=1.0, amplitude=1.0)
    tracemalloc.start()
    try:
        traj = evolve(u0, 0.5, 1e-3, DispersionForm.ORIGINAL, diagnostics=DiagnosticsRecorder())
        increment_identity_check(traj, IMultiplier(0.9, 4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.num_frames == 501
    assert peak < 501 * 64 * 64 * np.dtype(np.complex128).itemsize


def test_increment_check_at_128_traces_less_than_its_trajectory():
    """33 band-limited frames at 128^2 (no stepping): the check's traced peak stays below
    the trajectory's own (33, 128, 65) half-spectrum block, 4.19 MiB."""
    g = make_grid(128, 128, 2 * np.pi, 2 * np.pi)
    frames = np.stack([random_band_limited(g, seed=s, amplitude=0.5).coeffs for s in range(33)])
    traj = SpaceTimeField(g, 0.0, 1e-3, frames)
    tracemalloc.start()
    try:
        report = increment_identity_check(traj, IMultiplier(0.9, 4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.residual)
    assert peak < traj.block.nbytes


class TestIncrementScan:
    def test_trivial_regime_rows_agree(self):
        """Every N beyond the band makes I the identity, so all ladder rows
        measure the same plain energy increment."""
        u0 = random_band_limited(G16, seed=4, kmax=3.0, amplitude=1.0)
        res = increment_scan(u0, 0.9, (8.0, 16.0), delta=0.01, dt=5e-4)
        (n1, v1), (n2, v2) = res.rows
        assert (n1, n2) == (8.0, 16.0)
        assert v1 == pytest.approx(v2, rel=1e-9)
        assert abs(res.slope) < 1e-6

    def test_needs_two_points(self):
        """A repeated N is one point of the fit, not two."""
        for n_list in ((4.0,), (4.0, 4.0)):
            with pytest.raises(UsageError, match="two distinct N"):
                increment_scan(mode(G16, 1, 0), 0.9, n_list, delta=0.01, dt=1e-3)

    def test_bad_multiplier_raises_before_stepping(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stepped before the multipliers were checked")

        monkeypatch.setattr(zklab.imethod, "_states", fail)
        for s, n_list in ((1.5, (4.0, 8.0)), (0.9, (0.0, 4.0))):
            with pytest.raises(UsageError):
                increment_scan(mode(G16, 1, 0), s, n_list, delta=0.01, dt=1e-3)

    def test_rows_equal_the_energies_of_evolve_s_end_frames(self):
        u0 = random_band_limited(G, seed=5, kmax=6.0, amplitude=0.5)
        res = increment_scan(u0, 0.9, (4.0, 8.0, 16.0), delta=0.02, dt=1e-3)
        traj = evolve(u0, 0.02, 1e-3, DispersionForm.ORIGINAL, sample_every=20)
        assert res.rows == tuple(
            (n, abs(modified_energy(traj.frame(-1), m) - modified_energy(traj.frame(0), m)))
            for n, m in ((n, IMultiplier(0.9, n)) for n in (4.0, 8.0, 16.0)))

    @pytest.mark.parametrize("delta, dt", PARTIAL_WINDOWS)
    def test_delta_is_a_whole_number_of_steps(self, delta, dt):
        with pytest.raises(UsageError, match=rf"delta = {delta} .* dt = {dt}"):
            increment_scan(mode(G16, 1, 0), 0.9, (4.0, 8.0), delta=delta, dt=dt)


class TestExponents:
    def test_hand_values(self):
        assert lambda_exponent(0.9) == pytest.approx(-1.0 / 19.0, rel=1e-14)
        assert horizon_exponent(11.0 / 13.0) == pytest.approx(0.0, abs=1e-15)
        assert horizon_exponent(1.0) == pytest.approx(0.25, rel=1e-14)
        assert growth_exponent(1.0) == 0.0
        assert growth_exponent(0.9) == pytest.approx(38.0 / 35.0, rel=1e-13)
        assert regularity_threshold(0.25) == pytest.approx(11.0 / 13.0, rel=1e-14)
        assert regularity_threshold(1.0) == pytest.approx(0.5, rel=1e-14)
        assert regularity_threshold(3.0) == 0.0

    def test_lambda_shrinks_below_s_one(self):
        for s in (0.87, 0.9, 0.95):
            assert lambda_exponent(s) < 0
            assert 0 < horizon_exponent(s) < horizon_exponent(1.0)


class TestGwpIteration:
    def test_completes_small_target(self):
        u0 = random_band_limited(G16, seed=6, kmax=3.0, norm="sobolev",
                                 norm_s=1.0, amplitude=0.5)
        ledger = gwp_iteration(u0, 0.95, t_target=0.05, delta=0.03,
                               dt=1e-3, max_windows=6)
        assert ledger.status == "completed"
        assert 1 <= len(ledger.windows) <= 3
        for entry in ledger.windows:
            assert {"window", "t_end", "modified_energy", "increment"} <= set(entry)
            assert entry["modified_energy"] < 0.5
        assert ledger.lam <= 1.0
        assert ledger.growth_factor == pytest.approx(
            ledger.hs_final / ledger.hs_initial, rel=1e-12)
        assert ledger.exponents["lambda"] == lambda_exponent(0.95)

    @pytest.mark.parametrize("max_windows", [0, -3])
    def test_needs_a_window(self, monkeypatch, max_windows):
        def fail(*args, **kwargs):
            raise AssertionError("rescaled before max_windows was checked")

        monkeypatch.setattr(zklab.imethod, "rescale", fail)
        with pytest.raises(UsageError, match="max_windows"):
            gwp_iteration(mode(G16, 1, 0, amp=0.1), 0.95, t_target=0.05,
                          max_windows=max_windows)

    def test_low_s_needs_explicit_n(self):
        u0 = mode(G16, 1, 0, amp=0.1)
        with pytest.raises(UsageError):
            gwp_iteration(u0, 0.8, t_target=0.01)

    def test_low_s_with_explicit_n(self):
        u0 = random_band_limited(G16, seed=6, kmax=3.0, norm="sobolev",
                                 norm_s=1.0, amplitude=0.3)
        ledger = gwp_iteration(u0, 0.8, t_target=0.02, delta=0.02,
                               dt=1e-3, n=4.0, max_windows=4)
        assert ledger.status == "completed"
        assert ledger.exponents["horizon"] is None

    @pytest.mark.parametrize("delta, dt", PARTIAL_WINDOWS)
    def test_delta_is_a_whole_number_of_steps(self, delta, dt):
        """A single stepping loop runs every window, so a partial step is refused up front
        rather than stretching each window to a whole step."""
        with pytest.raises(UsageError, match=rf"delta = {delta} .* dt = {dt}"):
            gwp_iteration(mode(G16, 1, 0, amp=0.1), 0.95, t_target=0.05, delta=delta, dt=dt,
                          max_windows=4)

    def test_one_solver_state_and_tableau_per_run(self, monkeypatch):
        """The windows are read off one stepping loop, not restarted per window."""
        built = {"tableau": 0, "state": 0}
        tableau, state_init = zklab.dynamics.etdrk4_tableau, SolverState.__init__

        def counting_tableau(*args):
            built["tableau"] += 1
            return tableau(*args)

        def counting_state(self, *args, **kwargs):
            built["state"] += 1
            state_init(self, *args, **kwargs)

        monkeypatch.setattr(zklab.dynamics, "etdrk4_tableau", counting_tableau)
        monkeypatch.setattr(SolverState, "__init__", counting_state)
        u0 = random_band_limited(G16, seed=0, amplitude=0.3)
        ledger = gwp_iteration(u0, 0.95, t_target=0.02, delta=0.01, dt=1e-3, max_windows=3)
        assert ledger.status == "exhausted" and len(ledger.windows) == 3
        assert built == {"tableau": 1, "state": 1}

    def test_ledger_equals_a_restart_per_window(self):
        """Windows read off one loop give, value for value, the ledger of restarting
        evolve from each window's last frame."""
        u0 = random_band_limited(G16, seed=6, kmax=3.0, norm="sobolev",
                                 norm_s=1.0, amplitude=0.5)
        ledger = gwp_iteration(u0, 0.95, t_target=0.05, delta=0.01, dt=1e-3, max_windows=4)
        mult = IMultiplier(0.95, ledger.n)
        current = dealias(rescale(u0, ledger.lam))
        e_now, t_now, windows = modified_energy(current, mult), 0.0, []
        for k in range(len(ledger.windows)):
            current = evolve(current, 0.01, 1e-3, DispersionForm.ORIGINAL,
                             sample_every=10).frame(-1)
            t_now += 0.01
            e_next = modified_energy(current, mult)
            windows.append({"window": k, "t_end": t_now, "modified_energy": e_next,
                            "increment": e_next - e_now})
            e_now = e_next
        assert len(windows) >= 2
        assert ledger.windows == windows
        assert ledger.hs_final == sobolev_norm(rescale(current, 1.0 / ledger.lam), 0.95)
        assert ledger.hs_initial == sobolev_norm(u0, 0.95)
