"""Acceptance battery: one test per release criterion, frozen parameters.

Each test prints a single machine-greppable verdict line before asserting,
so the log shows every criterion's outcome and margin even on failure.
Slow-but-bounded pieces (the 128^2 ensemble scan, the probe battery) keep
their budgets far below the documented runtime caps.
"""

import itertools

import numpy as np
import pytest

from lattice_oracle import direct_lambda, increment_symbols
from zklab import (
    DiagnosticsRecorder,
    DispersionForm,
    IMultiplier,
    RotationMap,
    bilinear_probe,
    besov_norm_2_1,
    cutoff_probe,
    energy,
    evolve,
    from_coefficients,
    gh_bilinear_probe,
    increment_identity_check,
    increment_scan,
    l4_probe,
    lambda3,
    lambda4,
    linear_propagator,
    make_grid,
    mass,
    partition_values,
    picard_horizon,
    picard_iterate,
    pvariation_norm,
    rescale,
    rotate_to_symmetrized,
    sobolev_norm,
    strichartz_probe,
    trilinear_form_probe,
    twisted_variation,
)
from zklab.cli import main
from zklab.ic import gaussian_bump, random_band_limited
from zklab.spectral import Field
from zklab.trajectory import SpaceTimeField

BOX = 2.0 * np.pi


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_increment_identity():
    g = make_grid(32, 32, BOX, BOX)
    u0 = random_band_limited(g, seed=11, kmax=6.0, norm="sobolev",
                             norm_s=1.0, amplitude=1.0)
    mult = IMultiplier(0.9, 4.0)
    residuals = {}
    for dt in (1e-4, 5e-5):
        traj = evolve(u0, 0.1, dt, DispersionForm.ORIGINAL)
        rep = increment_identity_check(traj, mult)
        residuals[dt] = abs(rep.lhs - rep.rhs) / (abs(rep.lhs) + abs(rep.rhs) + 1e-14)
    shrink = residuals[1e-4] / residuals[5e-5]
    ok = residuals[1e-4] <= 1e-3 and shrink >= 4.0
    verdict(1, "increment identity", ok,
            f"residual {residuals[1e-4]:.3e} (<= 1e-3), dt-halving shrink "
            f"{shrink:.1f}x (>= 4x)")


def test_criterion_02_conservation():
    g = make_grid(128, 128, BOX, BOX)
    u0 = random_band_limited(g, seed=7, kmax=10.0, envelope=3.0, amplitude=0.3)
    traj = evolve(u0, 1.0, 1e-3, DispersionForm.ORIGINAL, sample_every=1000)
    first, last = traj.frame(0), traj.frame(-1)
    mass_drift = abs(mass(last) - mass(first)) / abs(mass(first))
    energy_drift = abs(energy(last) - energy(first)) / abs(energy(first))
    ok = mass_drift <= 1e-8 and energy_drift <= 1e-6
    verdict(2, "conservation", ok,
            f"mass drift {mass_drift:.2e} (<= 1e-8), "
            f"energy drift {energy_drift:.2e} (<= 1e-6) over T=1")


def test_criterion_02_symmetrized_energy():
    """The criterion-2 run in the symmetrized form: the diagnostics record its
    own invariant, with the u_x u_y cross term, within the same budget."""
    g = make_grid(128, 128, BOX, BOX)
    u0 = random_band_limited(g, seed=7, kmax=10.0, envelope=3.0, amplitude=0.3)
    recorder = DiagnosticsRecorder(DispersionForm.SYMMETRIZED)
    evolve(u0, 1.0, 1e-3, DispersionForm.SYMMETRIZED, sample_every=1000,
           diagnostics=recorder)
    (_, mass0, energy0, *_), (_, mass1, energy1, *_) = recorder.rows
    energy_drift = abs(energy1 - energy0) / abs(energy0)
    mass_drift = abs(mass1 - mass0) / abs(mass0)
    verdict(2, "symmetrized energy", energy_drift <= 1e-6,
            f"energy drift {energy_drift:.2e} (<= 1e-6) over T=1; "
            f"mass drift {mass_drift:.2e} (not gated here)")


def test_criterion_03_scaling_symmetry():
    g = make_grid(32, 32, BOX, BOX)
    u0 = random_band_limited(g, seed=5, kmax=6.0, amplitude=0.5)
    lam, t_final, dt = 2.0, 0.1, 1e-3
    stride = int(t_final / dt)
    evolved_then_scaled = rescale(
        evolve(u0, t_final, dt, DispersionForm.ORIGINAL, sample_every=stride).frame(-1), lam)
    scaled_then_evolved = evolve(
        rescale(u0, lam), t_final / lam ** 3, dt / lam ** 3,
        DispersionForm.ORIGINAL, sample_every=stride).frame(-1)
    diff = Field(evolved_then_scaled.grid,
                 evolved_then_scaled.coeffs - scaled_then_evolved.coeffs, "spectral")
    commute = sobolev_norm(diff, 0.0) / sobolev_norm(scaled_then_evolved, 0.0)

    mass_err = abs(mass(rescale(u0, lam)) / (lam ** 2 * mass(u0)) - 1.0)
    hs_err = 0.0
    for s in (0.5, 0.9):
        ratio = sobolev_norm(rescale(u0, lam), s, homogeneous=True) ** 2 \
            / (lam ** (2.0 * (s + 1.0)) * sobolev_norm(u0, s, homogeneous=True) ** 2)
        hs_err = max(hs_err, abs(ratio - 1.0))
    ok = commute <= 1e-6 and mass_err <= 1e-10 and hs_err <= 1e-10
    verdict(3, "scaling symmetry", ok,
            f"commutation {commute:.2e} (<= 1e-6), mass ratio err {mass_err:.1e}, "
            f"Hdot^s ratio err {hs_err:.1e} (<= 1e-10)")


def test_criterion_04_rotation():
    rng = np.random.default_rng(0)
    xs, es = rng.uniform(-20.0, 20.0, 10_000), rng.uniform(-20.0, 20.0, 10_000)
    rot = RotationMap()
    xi, eta = rot.to_original(xs, es)
    lhs = DispersionForm.ORIGINAL.omega_scalar(xi, eta)
    rhs = DispersionForm.SYMMETRIZED.omega_scalar(xs, es)
    scale = np.maximum(np.abs(rhs), 1.0)
    symbol_err = float(np.max(np.abs(lhs - rhs) / scale))

    g = make_grid(128, 128, 16.0 * np.pi, 16.0 * np.pi)
    u0 = gaussian_bump(g, amplitude=0.05, sigma=1.8)
    t_final, dt = 0.25, 1e-3
    stride = int(t_final / dt)
    path_a = rotate_to_symmetrized(
        evolve(u0, t_final, dt, DispersionForm.ORIGINAL, sample_every=stride).frame(-1))
    path_b = evolve(rotate_to_symmetrized(u0), t_final, dt,
                    DispersionForm.SYMMETRIZED, sample_every=stride).frame(-1)
    diff = Field(g, path_a.coeffs - path_b.coeffs, "spectral")
    flow_err = sobolev_norm(diff, 0.0) / sobolev_norm(path_b, 0.0)
    ok = symbol_err <= 1e-12 and flow_err <= 1e-5
    verdict(4, "rotation conjugacy", ok,
            f"symbol identity {symbol_err:.2e} (<= 1e-12) at 10^4 points, "
            f"flow discrepancy {flow_err:.2e} (<= 1e-5)")


def test_criterion_05_lambda_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for case in range(100):
        nx = int(rng.choice([8, 16]))
        g = make_grid(nx, nx, BOX, BOX)
        s = float(rng.uniform(0.55, 1.0))
        n_block = float(rng.choice([1.0, 2.0] if nx == 16 else [1.0]))
        mult = IMultiplier(s, n_block)
        m3, m4 = increment_symbols(mult, g)
        u = random_band_limited(g, seed=1000 + case,
                                amplitude=float(rng.uniform(0.3, 1.0)))
        if case % 5 < 3:
            fast = lambda3([u, u, u], mult)
            direct = direct_lambda([u, u, u], m3)
        else:
            fast = lambda4([u, u, u, u], mult)
            direct = direct_lambda([u, u, u, u], m4)
        denom = max(abs(direct), 1e-14)
        worst = max(worst, abs(fast - direct) / denom)
    ok = worst <= 1e-10
    verdict(5, "multilinear-form oracle", ok,
            f"worst relative gap {worst:.2e} (<= 1e-10) over 100 cases")


def _exhaustive_pvariation(vecs: np.ndarray, p: float) -> float:
    k = len(vecs)
    dist = np.sqrt(np.sum((vecs[:, None, :] - vecs[None, :, :]) ** 2, axis=2)) ** p
    best = 0.0
    for size in range(2, k + 1):
        for idx in itertools.combinations(range(k), size):
            total = 0.0
            for a, b in zip(idx, idx[1:]):
                total += dist[a, b]
            best = max(best, total)
    return best ** (1.0 / p)


def test_criterion_06_pvariation_and_twisting():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 4))
        vecs = rng.standard_normal((k, dim))
        p = float(rng.choice([1.0, 1.7, 2.0, 3.0]))
        got = pvariation_norm(vecs, p)
        want = _exhaustive_pvariation(vecs, p)
        worst = max(worst, abs(got - want) / max(want, 1e-300))

    g = make_grid(16, 16, BOX, BOX)
    tv_max = 0.0
    for seed, form in ((1, DispersionForm.ORIGINAL), (2, DispersionForm.SYMMETRIZED)):
        u0 = random_band_limited(g, seed=seed, kmax=4.0, amplitude=1.0)
        dt = 0.05
        frames = np.array([linear_propagator(u0, dt * i, form).coeffs
                           for i in range(21)])
        stf = SpaceTimeField(g, 0.0, dt, frames)
        tv_max = max(tv_max, twisted_variation(stf, 2.0, form))
    ok = worst <= 1e-12 and tv_max <= 1e-12
    verdict(6, "p-variation machinery", ok,
            f"DP vs exhaustive gap {worst:.2e} over 1000 cases, "
            f"free-solution twisted variation {tv_max:.2e} (both <= 1e-12)")


def test_criterion_07_lp_partition():
    g = make_grid(256, 256, BOX, BOX)
    total = partition_values(g)
    err = float(np.max(np.abs(total - 1.0)))
    ok = err <= 1e-12
    verdict(7, "dyadic partition of unity", ok,
            f"max |sum - 1| = {err:.2e} (<= 1e-12) at 256^2")


def test_criterion_08_almost_conservation_trend():
    g = make_grid(128, 128, BOX, BOX)
    slopes = []
    for seed in range(100, 108):
        u0 = random_band_limited(g, seed=seed, kmax=12.0, norm="sobolev",
                                 norm_s=1.0, amplitude=3.0)
        res = increment_scan(u0, 0.9, (4.0, 8.0, 16.0, 32.0),
                             delta=0.1, dt=5e-4)
        slopes.append(res.slope)
    median = float(np.median(slopes))
    assert "surrogate" in res.caveat
    ok = median <= -0.2
    verdict(8, "almost-conservation trend", ok,
            f"median log-log slope {median:.2f} (<= -0.2) over 8 seeds, "
            f"worst {max(slopes):.2f}")


def test_criterion_09_contraction():
    g = make_grid(32, 32, BOX, BOX)
    raw = random_band_limited(g, seed=11, kmax=4.0, amplitude=1.0)
    u0 = from_coefficients(g, raw.coeffs * (0.1 / besov_norm_2_1(raw, 0.5)))
    horizon = picard_horizon(besov_norm_2_1(u0, 0.5))
    res = picard_iterate(u0, horizon, 7, DispersionForm.ORIGINAL, num_nodes=129)

    contracting = sum(1 for r in res.ratios if r <= 0.5)

    # reference flow sampled exactly on the iteration's node grid, where the
    # time cutoff is identically 1 (t <= horizon: the first 65 of 129 nodes)
    dt_nodes = 2.0 * horizon / 128
    refine = 4
    ref = evolve(u0, horizon, dt_nodes / refine, DispersionForm.ORIGINAL,
                 sample_every=refine)
    half = 65
    diff = res[-1].coeffs[:half] - ref.coeffs[:half]
    num = np.sqrt(np.sum(np.abs(diff) ** 2) * g.area * dt_nodes)
    den = np.sqrt(np.sum(np.abs(ref.coeffs[:half]) ** 2) * g.area * dt_nodes)
    mismatch = num / den
    ok = (not res.contraction_failed and contracting >= 5
          and len(res.ratios) >= 5 and mismatch <= 1e-4)
    verdict(9, "Picard contraction", ok,
            f"{contracting}/{len(res.ratios)} ratios <= 1/2 (need >= 5), "
            f"final vs time-stepped {mismatch:.2e} (<= 1e-4)")


def test_criterion_09_contraction_where_the_duhamel_term_matters():
    """Criterion 9's data at ||u0|| = 3 and T = 0.2, where the free wave is visibly off
    the flow: the iterates still contract, and the last one reaches the stepped flow."""
    g = make_grid(32, 32, BOX, BOX)
    raw = random_band_limited(g, seed=11, kmax=4.0, amplitude=1.0)
    u0 = from_coefficients(g, raw.coeffs * (3.0 / besov_norm_2_1(raw, 0.5)))
    horizon = 0.2
    res = picard_iterate(u0, horizon, 7, DispersionForm.ORIGINAL, num_nodes=129)

    # criterion 9's reference flow and mismatch, on the first 65 of 129 nodes
    dt_nodes = 2.0 * horizon / 128
    refine = 4
    ref = evolve(u0, horizon, dt_nodes / refine, DispersionForm.ORIGINAL,
                 sample_every=refine)
    half = 65
    den = np.sqrt(np.sum(np.abs(ref.coeffs[:half]) ** 2) * g.area * dt_nodes)

    def mismatch(iterate):
        diff = iterate.coeffs[:half] - ref.coeffs[:half]
        return np.sqrt(np.sum(np.abs(diff) ** 2) * g.area * dt_nodes) / den

    last, free = mismatch(res[-1]), mismatch(res[0])
    ok = (not res.contraction_failed and len(res.ratios) == 6
          and max(res.ratios) <= 0.5 and last <= 1e-4 and free > 1e-2)
    verdict(9, "Picard contraction at ||u0|| = 3", ok,
            f"largest of {len(res.ratios)} ratios {max(res.ratios):.3f} (<= 1/2), "
            f"final vs time-stepped {last:.2e} (<= 1e-4), free wave {free:.2e} (> 1e-2)")


def test_criterion_10_probe_stability():
    g64 = make_grid(64, 64, BOX, BOX)
    g128 = make_grid(128, 128, BOX, BOX)
    drifts = {
        "strichartz(6,4)": strichartz_probe(6.0, 4.0, g64, samples=8, seed=0).drift,
        "strichartz(4,8)": strichartz_probe(4.0, 8.0, g64, samples=8, seed=0).drift,
        "bilinear(4,16)": bilinear_probe(4.0, 16.0, g128, samples=8, seed=0).drift,
        "bilinear(4,32)": bilinear_probe(4.0, 32.0, g128, samples=8, seed=0).drift,
        "gh-bilinear(8,8)": gh_bilinear_probe(8.0, 8.0, g128, samples=8, seed=0).drift,
        "l4": l4_probe(g64, samples=8, seed=0).drift,
    }
    ladder = (0.25, 0.5, 1.0, 2.0, 4.0)
    rows, cutoff_report = cutoff_probe(ladder, ladder)
    drifts["cutoff"] = cutoff_report.drift
    recon = max(r["recon_error"] for r in rows)

    tri = {
        "trilinear(8,2,8)": trilinear_form_probe(8.0, 2.0, 8.0, 0.125, g64,
                                                 samples=8, seed=0).drift,
        "trilinear(8,8,4)": trilinear_form_probe(8.0, 8.0, 4.0, 0.125, g64,
                                                 samples=8, seed=0).drift,
    }
    worst2 = max(drifts.values())
    worst3 = max(tri.values())
    ok = worst2 <= 2.0 and worst3 <= 3.0 and recon <= 1e-12
    detail = ", ".join(f"{k} {v:.2f}" for k, v in {**drifts, **tri}.items())
    verdict(10, "probe drift stability", ok,
            f"{detail}; recon {recon:.1e} (limits: 2.0 / trilinear 3.0 / 1e-12)")


def test_criterion_11_determinism(tmp_path):
    argv = ["simulate", "--nx", "32", "--preset", "random", "--seed", "3",
            "--kmax", "6", "--amplitude", "0.3", "--T", "0.02", "--dt", "0.001",
            "--sample-every", "10", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    names = ("diagnostics.csv", "frame_final.csv")
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert main(argv) == 0
    identical = all((tmp_path / n).read_bytes() == first[n] for n in names)

    probe_argv = ["probe", "--estimate", "strichartz", "--nx", "16",
                  "--q", "6", "--r", "4", "--samples", "2", "--frames", "17",
                  "--seed", "5", "--output-dir", str(tmp_path)]
    assert main(probe_argv) == 0
    probe_first = (tmp_path / "probe.csv").read_bytes()
    assert main(probe_argv) == 0
    identical = identical and (tmp_path / "probe.csv").read_bytes() == probe_first
    verdict(11, "deterministic artifacts", identical,
            "CSV bodies byte-identical across reruns (simulate and probe)")
