import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zklab import (
    LPProjector,
    UsageError,
    chi,
    dyadic_shells,
    is_dyadic,
    lp_project,
    make_field,
    make_grid,
    partition_values,
    shell_weight,
)


def test_is_dyadic():
    assert is_dyadic(1) and is_dyadic(2) and is_dyadic(64) and is_dyadic(0.5)
    assert not is_dyadic(3) and not is_dyadic(0) and not is_dyadic(-2)
    assert not any(is_dyadic(x) for x in (float("inf"), float("-inf"), float("nan")))


def test_shell_weight_rejects_bad_block():
    with pytest.raises(UsageError):
        shell_weight(np.array([1.0]), 3.0)


def test_partition_of_unity_pointwise():
    """Core + all shells = 1 on every lattice point, to near machine precision."""
    g = make_grid(64, 64, 2 * np.pi, 2 * np.pi)
    total = partition_values(g)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_partition_truncated_equals_chi():
    # telescoping: P_0 + sum_{N <= M} P_N = chi(|zeta| / M) exactly
    g = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    total = partition_values(g, top=4.0)
    np.testing.assert_array_equal(total, chi(g.abs_zeta / 4.0))


@settings(max_examples=60, deadline=None)
@given(nx=st.sampled_from([8, 16, 32, 64]), ny=st.sampled_from([8, 16, 32, 64]),
       lx=st.floats(0.5, 50.0), ly=st.floats(0.5, 50.0),
       top=st.integers(0, 7).map(lambda k: 2.0 ** k))
def test_partition_is_exact_on_random_grids(nx, ny, lx, ly, top):
    """The full partition is exactly 1 and the truncated one exactly
    chi(|zeta| / M)."""
    g = make_grid(nx, ny, lx, ly)
    np.testing.assert_array_equal(partition_values(g), 1.0)
    np.testing.assert_array_equal(partition_values(g, top=top), chi(g.abs_zeta / top))


def lattice_radius(g):
    """Largest |zeta| on the lattice."""
    return float(np.hypot(np.abs(g.xi).max(), np.abs(g.eta).max()))


def test_shells_cover_lattice():
    g = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    shells = dyadic_shells(g)
    assert shells[0] == 1.0
    assert shells[-1] >= lattice_radius(g)


def test_projection_telescopes_to_identity():
    g = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(9)
    u = make_field(g, rng.standard_normal((g.nx, g.ny)))
    proj = LPProjector(g)
    acc = np.zeros_like(u.coeffs)
    for block in proj.blocks():
        acc = acc + proj.apply(u, block).coeffs
    assert np.allclose(acc, u.coeffs, atol=1e-15)


def single_mode(g, jx, jy):
    from zklab import from_coefficients
    c = np.zeros((g.nx, g.ny), dtype=complex)
    c[jx, jy] = c[-jx, -jy] = 0.5
    return from_coefficients(g, c)


def test_single_mode_lands_in_its_shell():
    g = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    u = single_mode(g, 4, 0)
    # |zeta| = 4: profile chi(4/N) - chi(8/N) is 1 at N = 4, 0 at N = 1, 16
    assert np.array_equal(lp_project(u, 4.0).coeffs, u.coeffs)
    assert np.max(np.abs(lp_project(u, 1.0).coeffs)) == 0.0
    assert np.max(np.abs(lp_project(u, 16.0).coeffs)) == 0.0


def test_projector_grid_mismatch():
    proj = LPProjector(make_grid(16, 16, 2 * np.pi, 2 * np.pi))
    other = make_field(make_grid(32, 32, 2 * np.pi, 2 * np.pi), np.zeros((32, 32)))
    with pytest.raises(UsageError):
        proj.apply(other, 1.0)
