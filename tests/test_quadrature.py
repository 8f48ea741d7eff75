import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import UsageError, cumulative_integral, definite_integral, trapezoid_weights


def test_trapezoid_weights_sum_to_span():
    w = trapezoid_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == w[-1] == pytest.approx(0.05)
    with pytest.raises(UsageError):
        trapezoid_weights(0, 0.1)


def test_single_sample_integral_is_zero():
    assert definite_integral(np.array([3.0]), 0.5) == 0.0


@pytest.mark.parametrize("k", [4, 5, 64, 65])
def test_cubics_integrated_exactly(k):
    """Simpson / 3-8 composites are exact on polynomials of degree 3."""
    dt = 0.37
    t = dt * np.arange(k)
    vals = 2.0 - t + 4.0 * t ** 2 - 0.5 * t ** 3
    exact = 2.0 * t - t ** 2 / 2 + 4.0 * t ** 3 / 3 - t ** 4 / 8
    got = cumulative_integral(vals, dt)
    assert np.allclose(got, exact, rtol=1e-12, atol=1e-12)


def test_fourth_order_convergence():
    exact = 1.0 - np.cos(2.0)
    errs = []
    for k in (33, 65, 129):
        dt = 2.0 / (k - 1)
        t = dt * np.arange(k)
        errs.append(abs(definite_integral(np.sin(t), dt) - exact))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 10.0 < r1 < 25.0
    assert 10.0 < r2 < 25.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fourth_order_at_every_node_on_random_smooth_integrands(seed):
    """Three random cosines on [0, 2]: the largest error over all nodes falls
    by 2^4 per halving of dt (the increment check integrates such data)."""
    rng = np.random.default_rng(seed)
    a, w, phase = (rng.uniform(lo, hi, (3, 1)) for lo, hi in ((-1, 1), (0.5, 3), (0, 2 * np.pi)))
    errs = []
    for k in (33, 65, 129):
        dt = 2.0 / (k - 1)
        t = dt * np.arange(k)
        exact = np.sum(a / w * (np.sin(w * t + phase) - np.sin(phase)), axis=0)
        got = cumulative_integral(np.sum(a * np.cos(w * t + phase), axis=0), dt)
        errs.append(np.max(np.abs(got - exact)))
    assert np.log2(errs[0] / errs[1]) > 3.7
    assert np.log2(errs[1] / errs[2]) > 3.7


def test_opening_rule_accuracy():
    """The first cumulative node is 4th order too, not just the endpoint."""
    errs = []
    for dt in (0.1, 0.05):
        t = dt * np.arange(8)
        got = cumulative_integral(np.exp(t), dt)
        errs.append(abs(got[1] - (np.exp(dt) - 1.0)))
    assert errs[0] / errs[1] > 12.0


def test_vectorized_trailing_axes():
    dt = 0.02
    t = dt * np.arange(51)
    stacked = np.stack([t, t ** 2], axis=1)
    got = cumulative_integral(stacked, dt)
    assert np.allclose(got[:, 0], t ** 2 / 2, atol=1e-12)
    assert np.allclose(got[:, 1], t ** 3 / 3, atol=1e-12)


def test_complex_values_supported():
    dt = 0.01
    t = dt * np.arange(101)
    got = definite_integral(np.exp(1j * t), dt)
    exact = (np.exp(1j) - 1.0) / 1j
    assert abs(got - exact) < 1e-10
