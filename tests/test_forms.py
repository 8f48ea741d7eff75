"""Dispersion-form tests: symbol values pinned by hand."""

import numpy as np
import pytest

from zklab import ConfigurationError, DispersionForm, make_grid

G = make_grid(16, 16, 2 * np.pi, 2 * np.pi)


def test_parse():
    assert DispersionForm.parse("original") is DispersionForm.ORIGINAL
    assert DispersionForm.parse("SYMMETRIZED") is DispersionForm.SYMMETRIZED
    with pytest.raises(ConfigurationError):
        DispersionForm.parse("rotated")


def test_omega_hand_values():
    # original: xi^3 + xi eta^2 at (2, 1) -> 8 + 2 = 10
    w = DispersionForm.ORIGINAL.omega(G)
    assert w[2, 1] == 10.0
    assert w[-2, -1] == -10.0
    # symmetrized: xi^3 + eta^3 at (1, 2) -> 1 + 8 = 9
    ws = DispersionForm.SYMMETRIZED.omega(G)
    assert ws[1, 2] == 9.0
    assert ws[0, 0] == 0.0


def test_omega_is_odd_and_nyquist_free():
    for form in DispersionForm:
        w = form.omega(G)
        assert np.all(w[G.nx // 2, :] == 0.0)
        assert np.all(w[:, G.ny // 2] == 0.0)
        flipped = w[(-np.arange(G.nx)) % G.nx][:, (-np.arange(G.ny)) % G.ny]
        np.testing.assert_array_equal(flipped, -w)


@pytest.mark.parametrize("form", list(DispersionForm))
def test_omega_is_exactly_odd_on_a_unit_box(form):
    """omega(-zeta) == -omega(zeta) bit for bit off the Nyquist lines, on the
    64 x 8 unit box where a vectorised x ** 3 rounds j = 31 and -31 apart."""
    g = make_grid(64, 8, 1.0, 1.0)
    w = form.omega(g)
    mirror = w[(-np.arange(g.nx)) % g.nx][:, (-np.arange(g.ny)) % g.ny]
    paired = g.nyquist_mask
    np.testing.assert_array_equal(mirror[paired], -w[paired])


def test_omega_scalar_unmasked():
    assert DispersionForm.ORIGINAL.omega_scalar(2.0, 3.0) == pytest.approx(8 + 18)
    assert DispersionForm.SYMMETRIZED.omega_scalar(2.0, 3.0) == pytest.approx(8 + 27)
    pts = DispersionForm.ORIGINAL.omega_scalar([1.0, 0.0], [0.0, 2.0])
    np.testing.assert_allclose(pts, [1.0, 0.0])


def test_nonlinear_derivative_symbols():
    d_orig = DispersionForm.ORIGINAL.nonlinear_derivative(G)
    assert d_orig[3, 5] == 3j
    assert d_orig[3, 0] == 3j  # original form differentiates in x only
    d_sym = DispersionForm.SYMMETRIZED.nonlinear_derivative(G)
    assert d_sym[3, 5] == 1j * (3 + 5)
    assert d_sym[-2, 4] == 1j * (-2 + 4)
    # each axis zeroes its own Nyquist component, not the whole line
    assert np.all(d_orig[G.nx // 2, :] == 0.0)
    assert d_sym[G.nx // 2, 5] == 5j
    assert d_sym[G.nx // 2, G.ny // 2] == 0.0
