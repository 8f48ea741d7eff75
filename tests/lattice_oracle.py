"""Direct lattice-sum oracle for the increment forms Lambda3 and Lambda4.

The oracle sums m * prod uhat(zeta_j) over the zero-sum lattice hyperplane,
O(n^(2(k-1))), with the pointwise M3 and M4 of ``zklab.imethod`` and their 2/3
pair gate.  It reads only the lattice indices, the band index and the
multiplier's weight, none of the factored Parseval path it checks.  Tests
import it by module name; without the ``test_`` prefix pytest does not collect
it.
"""

from dataclasses import dataclass

import numpy as np

from zklab import Field, Grid2D, IMultiplier
from zklab.imethod import _as_field_list


@dataclass(frozen=True)
class MultilinearSymbol:
    """Pointwise symbol m(zeta_1, ..., zeta_k).

    ``fn(xis, etas)`` receives k broadcastable arrays per coordinate and
    returns the symbol values.
    """

    arity: int
    fn: object
    name: str = ""

    def __call__(self, xis, etas):
        return self.fn(xis, etas)


def direct_lambda(fields, symbol: MultilinearSymbol) -> complex:
    """Lambda_k(m; u1, ..., uk) = lx*ly * sum_{z1+...+zk=0} m * prod uhat, k the
    symbol's arity; one Field fills every slot."""
    return _direct_lambda(_as_field_list(fields, symbol.arity), symbol)


def _direct_lambda(fields: list[Field], symbol: MultilinearSymbol) -> complex:
    """Direct zero-sum hyperplane summation (no wraparound; off-lattice
    index combinations are dropped).  Cost O(n^(2(k-1))): the last three slots
    are summed as arrays, for arity 4 once per non-zero mode of the first."""
    grid = fields[0].grid
    nx, ny = grid.nx, grid.ny
    jj, kk = np.repeat(grid.jx, ny), np.tile(grid.jy, nx)
    flats = [f.coeffs.reshape(-1) for f in fields]
    sx, sy = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
    ja, jb, ka, kb = jj[:, None], jj[None, :], kk[:, None], kk[None, :]
    total = 0.0 + 0.0j
    for lead in [()] if symbol.arity == 3 else [(i,) for i in np.flatnonzero(flats[0])]:
        jl = -(sum(jj[i] for i in lead) + ja + jb)
        kl = -(sum(kk[i] for i in lead) + ka + kb)
        valid = (jl >= -nx // 2) & (jl <= nx // 2 - 1) & (kl >= -ny // 2) & (kl <= ny // 2 - 1)
        vals = symbol([sx * jj[i] for i in lead] + [sx * ja, sx * jb, sx * jl],
                      [sy * kk[i] for i in lead] + [sy * ka, sy * kb, sy * kl])
        prod = flats[-3][:, None] * flats[-2][None, :] * flats[-1][(jl % nx) * ny + kl % ny]
        total += np.prod([flats[0][i] for i in lead]) * np.sum(np.where(valid, vals * prod, 0.0))
    return grid.area * complex(total)


def increment_symbols(mult: IMultiplier, grid: Grid2D):
    """The (M3, M4) pair of the modified-energy increment identity.

    Pair frequencies outside the 2/3 band, the unpaired Nyquist line among
    them, are gated to zero.
    """
    jmax_x, jmax_y = grid.band_index
    sx, sy = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly

    def pair_gate(xi_sum, eta_sum):
        j = np.rint(np.asarray(xi_sum) / sx)
        k = np.rint(np.asarray(eta_sum) / sy)
        return ((np.abs(j) <= jmax_x) & (np.abs(k) <= jmax_y)).astype(np.float64)

    def m(xis, etas):
        return mult.weight(np.hypot(xis, etas))

    def m3_fn(xis, etas):
        ratio = m(xis[1] + xis[2], etas[1] + etas[2]) / (m(xis[1], etas[1]) * m(xis[2], etas[2]))
        gate = pair_gate(xis[1] + xis[2], etas[1] + etas[2])
        r1sq = xis[0] ** 2 + etas[0] ** 2
        return xis[0] * r1sq * (1.0 - gate * ratio)

    def m4_fn(xis, etas):
        xs, es = xis[0] + xis[1], etas[0] + etas[1]
        gate = pair_gate(xs, es)
        return xs * m(xs, es) * gate / (m(xis[0], etas[0]) * m(xis[1], etas[1]))

    return (MultilinearSymbol(3, m3_fn, name="increment-M3"),
            MultilinearSymbol(4, m4_fn, name="increment-M4"))
