"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is desk scale (minutes).
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from dipolelab import (bounds, cook, fields, gauge, harness,
                       hamiltonians as ham, propagate as prop, spatial)
from dipolelab.bounds import probe_ensemble


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def cw_sweep():
    return harness.run_convergence_sweep(harness.preset_config("cw-1d"))


@pytest.fixture(scope="module")
def pulse_sweep():
    return harness.run_convergence_sweep(harness.preset_config("pulse-1d"))


@pytest.fixture(scope="module")
def two_body_sweep():
    return harness.run_convergence_sweep(harness.preset_config("two-body-1d"))


# -- criterion 1: unitarity ------------------------------------------------


def test_criterion_1_unitarity():
    g = spatial.make_grid(1, 256, 40.0)
    pot = ham.soft_core_coulomb(1.0, 1.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    _, psi0 = prop.ground_state_imaginary_time(pot, g, tol=1e-8)

    steps = 10_000
    dt = 5e-4
    cfg = prop.StepperConfig(dt=dt, t0=dt, t_final=dt + steps * dt, method="split")
    traj_split = prop.evolve(ham.dipole_velocity(fld, pot), psi0, cfg)
    assert traj_split.nsteps == steps
    assert traj_split.max_step_drift <= 1e-10
    assert abs(traj_split.terminal_norm - 1.0) <= 1e-8

    dt = 1e-3
    cfg = prop.StepperConfig(dt=dt, t0=dt, t_final=dt + steps * dt,
                             method="krylov", krylov_tol=1e-10)
    traj_kry = prop.evolve(ham.full_coupling(fld, pot), psi0, cfg)
    assert traj_kry.max_step_drift <= 1e-8
    assert abs(traj_kry.terminal_norm - 1.0) <= 1e-8
    report("criterion 1 (unitarity)",
           f"split drift {traj_split.max_step_drift:.1e}, krylov drift "
           f"{traj_kry.max_step_drift:.1e} over {steps} steps")


# -- criterion 2: dense-oracle equivalence ---------------------------------


def test_criterion_2_dense_oracle_equivalence():
    pot = ham.soft_core_coulomb(1.0, 1.0)
    worst = 0.0

    # Krylov against the dense exponential on every generator kind, cw and
    # pulse envelopes, 1D and 2D (the 2D in-plane case drives the gradient
    # coupling); matched midpoint discretization, dt = 1e-3 over unit time.
    cases = []
    g1 = spatial.make_grid(1, 16, 20.0)
    for kind in ("cw", "pulse"):
        env = fields.transverse_envelope(kind, 0.5, 1)
        fld = fields.ScaledField(env, fields.snap_lambda(20.0, 2), 1.0)
        cases.append((ham.full_coupling(fld, pot), g1))
        if kind == "cw":
            cases.append((ham.dipole_velocity(fld, pot), g1))
            cases.append((ham.dipole_length(fld, pot), g1))
    g2 = spatial.make_grid(2, [8, 8], [16.0, 16.0])
    env2 = fields.in_plane_envelope("cw", 0.5)
    fld2 = fields.ScaledField(env2, 8.0, 1.0)
    cases.append((ham.full_coupling(fld2, pot), g2))

    t0, t1, dt = 0.1, 1.1, 1e-3
    steps = int(round((t1 - t0) / dt))
    for spec, grid in cases:
        psi = probe_ensemble(grid, 1, seed=5)[0]
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="krylov")
        out = prop.evolve(spec, psi, cfg).terminal_state
        ref = prop.dense_oracle_evolve(spec, psi, t0, t1, steps)
        err = spatial.norm(spatial.WaveFunction(grid, out.values - ref.values))
        worst = max(worst, err / (t1 - t0))
        assert err <= 1e-9 * (t1 - t0)

    # Split stepper (dipole kinds): splitting error pushed below the bar by a
    # small dt; dense composition over the same midpoint lattice.
    env = fields.transverse_envelope("cw", 0.5, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    t0, t1, dt = 0.1, 0.35, 1e-5
    steps = int(round((t1 - t0) / dt))
    for spec in (ham.dipole_velocity(fld, pot), ham.dipole_length(fld, pot)):
        psi = probe_ensemble(g1, 1, seed=6)[0]
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
        out = prop.evolve(spec, psi, cfg).terminal_state
        ref = prop.dense_oracle_evolve(spec, psi, t0, t1, steps)
        err = spatial.norm(spatial.WaveFunction(g1, out.values - ref.values))
        worst = max(worst, err / (t1 - t0))
        assert err <= 1e-9 * (t1 - t0)
    report("criterion 2 (dense oracle)",
           f"worst stepper-vs-exact error {worst:.2e} per unit time (bar 1e-9)")


# -- criterion 3: analytic momentum-phase oracle ----------------------------


def test_criterion_3_volkov_phase_oracle():
    E, om = 0.25, 1.0
    t0, dt = 1e-3, 1e-3
    steps = int(round(2 * np.pi / om / dt))
    t1 = t0 + steps * dt

    def bfun(s):
        return (E / om) * np.sin(-om * s)

    i_b, _ = quad(bfun, t0, t1, epsabs=1e-13)
    i_b2, _ = quad(lambda s: bfun(s) ** 2, t0, t1, epsabs=1e-13)

    worst = 0.0
    # transverse 1D: off-grid polarization enters through |b|^2 alone
    g = spatial.make_grid(1, 256, 40.0)
    env = fields.transverse_envelope("cw", E, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, om),
                               ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 2.0, 0.5)
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
    out = prop.evolve(spec, psi, cfg).terminal_state
    phase = g.k_square * (t1 - t0) + i_b2
    ref = np.fft.ifftn(np.exp(-1j * phase) * np.fft.fftn(psi.values))
    err = spatial.norm(spatial.WaveFunction(g, out.values - ref))
    worst = max(worst, err)
    assert err <= 1e-6

    # in-plane 2D: the literal shifted symbol (k - b(s))^2
    g2 = spatial.make_grid(2, [64, 64], [32.0, 32.0])
    env2 = fields.in_plane_envelope("cw", E)
    spec2 = ham.dipole_velocity(fields.ScaledField(env2, 16.0, om),
                                ham.zero_potential())
    psi2 = spatial.gaussian_packet(g2, 0.0, 2.0, [0.5, -0.3])
    cfg2 = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
    out2 = prop.evolve(spec2, psi2, cfg2).terminal_state
    phase2 = g2.k_square * (t1 - t0) - 2.0 * g2.k_mesh(1) * i_b + i_b2
    ref2 = np.fft.ifftn(np.exp(-1j * phase2) * np.fft.fftn(psi2.values))
    err2 = spatial.norm(spatial.WaveFunction(g2, out2.values - ref2))
    worst = max(worst, err2)
    assert err2 <= 1e-6
    report("criterion 3 (analytic oracle)",
           f"V=0 dipole vs exp(-i int (k-b)^2) error {worst:.2e} (bar 1e-6)")


# -- criteria 4-6 on the 1D presets -----------------------------------------


@pytest.mark.parametrize("preset", ["cw-1d", "pulse-1d"])
def test_criterion_4_gauge_equivalence(preset):
    rep = harness.run_gauge_check(harness.preset_config(preset))
    assert rep["min_fidelity"] >= 1 - 1e-6
    report("criterion 4 (gauge equivalence)",
           f"{preset}: min cross-gauge fidelity 1 - {1 - rep['min_fidelity']:.1e}")


def _check_decay(sweep, name):
    errs = [r.error for r in sweep.records]
    assert all(e is not None for e in errs)
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)), \
        f"{name}: e(lambda) not strictly decreasing: {errs}"
    assert sweep.slope is not None and 0.7 <= sweep.slope <= 1.3, \
        f"{name}: decay slope {sweep.slope} outside [0.7, 1.3]"


def test_criterion_5_dipole_convergence(cw_sweep, pulse_sweep):
    _check_decay(cw_sweep, "cw-1d")
    _check_decay(pulse_sweep, "pulse-1d")
    report("criterion 5 (dipole convergence)",
           f"slopes cw {cw_sweep.slope:.3f}, pulse {pulse_sweep.slope:.3f} "
           f"(window [0.7, 1.3])")


def test_criterion_6_cook_certificate(cw_sweep, pulse_sweep):
    worst_ratio = 0.0
    for sweep, name in ((cw_sweep, "cw-1d"), (pulse_sweep, "pulse-1d")):
        for rec in sweep.records:
            assert rec.error <= 1.05 * rec.bound + 1e-6, \
                f"{name} lambda={rec.lam}: e={rec.error} exceeds B={rec.bound}"
            worst_ratio = max(worst_ratio, rec.error / rec.bound)
        bs = [r.bound for r in sweep.records]
        assert all(bs[i] > bs[i + 1] for i in range(len(bs) - 1)), \
            f"{name}: B(lambda) not decreasing: {bs}"
    report("criterion 6 (certificate)",
           f"measured e <= 1.05 B + 1e-6 everywhere; worst e/B {worst_ratio:.3f}")


# -- criterion 7: two-body coverage -----------------------------------------


def test_criterion_7_two_body(two_body_sweep):
    config = harness.preset_config("two-body-1d")
    _check_decay(two_body_sweep, "two-body-1d")

    # unitarity on the product grid: re-run the dipole trajectory and check
    # its recorded drift (the sweep's own runs enforce the same bound)
    grid = config.build_grid()
    pot = config.build_potential()
    _, psi0 = prop.ground_state_imaginary_time(pot, grid, tol=config.ground_tol)
    env = config.build_envelope()
    fld = fields.ScaledField(env, config.lambdas[0], config.omega)
    t0, t1 = config.start_time, config.final_time
    cfg = prop.StepperConfig(dt=config.dt, t0=t0, t_final=t1, method="split")
    traj = prop.evolve(ham.dipole_velocity(fld, pot), psi0, cfg)
    assert traj.max_step_drift <= 1e-10
    assert abs(traj.terminal_norm - 1.0) <= 1e-8

    gauge_rep = harness.run_gauge_check(config)
    assert gauge_rep["min_fidelity"] >= 1 - 1e-6

    # exchange symmetry of the interaction survives into the reports
    v = ham.potential_on_grid(pot, grid)
    np.testing.assert_array_equal(v, v.T)
    report("criterion 7 (two-body)",
           f"slope {two_body_sweep.slope:.3f}, drift {traj.max_step_drift:.1e}, "
           f"fidelity 1 - {1 - gauge_rep['min_fidelity']:.1e}")


# -- criterion 8: bounds suite ----------------------------------------------


def test_criterion_8_bounds_suite():
    # free-case contraction against the exact lattice symbol
    g = spatial.make_grid(1, 256, 20.0)
    w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    alphas = [1.0, 5.0, 20.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=11)
    k = g.k_axis(0)
    worst = 0.0
    for a, qa in zip(alphas, q):
        oracle = np.max(np.abs(1.0 - 2.0 * k) / (k ** 2 + a))
        worst = max(worst, abs(qa - oracle) / oracle)
    assert worst <= 1e-3

    # graph-norm constants against the symbol ratio, plane-wave probes
    spec_free = ham.dipole_velocity(
        fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0), ham.zero_potential())
    modes = [(0,), (1,), (3,), (9,), (27,), (80,)]
    probes = bounds.plane_wave_probes(g, modes)
    cmin, cmax = bounds.graph_norm_constants(spec_free, 0.0, 10.0, probes)
    ks = [2 * np.pi * m[0] / 20.0 for m in modes]
    ratios = [np.sqrt(1 + kk ** 2 + kk ** 4) / (1 + kk ** 2 + 10.0) for kk in ks]
    assert abs(cmin - min(ratios)) <= 1e-6 and abs(cmax - max(ratios)) <= 1e-6

    # preset generator: q(alpha) falls >= 5x per decade and C_eps is monotone
    env = fields.transverse_envelope("cw", 0.25, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    g80 = spatial.make_grid(1, 512, 80.0)
    wp = bounds.CouplingOperator.from_spec(spec, 0.7, g80)
    _, qp, _ = bounds.contraction_scan(wp, [10.0, 100.0], seed=11)
    assert qp[0] / qp[1] >= 5.0
    mix = bounds.probe_ensemble(g80, 64, seed=7)
    c = bounds.infinitesimal_bound_scan(wp, [0.0, 0.02, 0.1, 0.3, 1.0], mix)
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))
    report("criterion 8 (bounds suite)",
           f"symbol match {worst:.1e} (bar 1e-3), decade drop {qp[0]/qp[1]:.1f}x")


# -- criterion 9: field models ----------------------------------------------


def test_criterion_9_field_models():
    # spectral divergence on a commensurate grid, including the diagonal
    # configuration where cancellation is nontrivial
    s = 1 / np.sqrt(2.0)
    env = fields.plane_wave_cw(1.0, [s, s], [s, -s])
    grid = spatial.make_grid(2, [64, 64], [4.0 * np.sqrt(2.0)] * 2)
    rep = fields.check_divergence_free(env, grid, lam=1.0)
    assert rep.commensurate and rep.max_defect <= 1e-10

    for preset in ("cw-1d", "pulse-1d", "two-body-1d"):
        frep = harness.run_field_check(harness.preset_config(preset))
        assert frep["transversality_pass"]
        assert frep["divergence_defect"] <= 1e-10

    # pulse asymptote against the frozen quadrature value, amplitude folded in
    amp = 0.7
    env_p = fields.gaussian_pulse(amp, [1, 0], [0, 1])
    val = fields.eval_envelope(env_p, 0.0, 1e4)
    target = -np.sqrt(np.pi) * np.exp(-0.25) * amp
    assert abs(val[1] - target) <= 1e-10
    report("criterion 9 (field models)",
           f"divergence defect {rep.max_defect:.1e}, asymptote error "
           f"{abs(val[1] - target):.1e}")


# -- criterion 10: determinism ----------------------------------------------


def test_criterion_10_determinism(tmp_path):
    cfg = harness.StudyConfig(
        preset="determinism-probe", grid_dim=1, grid_points=(256,),
        grid_lengths=(80.0,), potential_kind="soft_core", envelope_kind="cw",
        amplitude=0.25, omega=1.0, lambdas=(20.0, 40.0),
        t_final=np.pi / 512 + np.pi / 2, dt=np.pi / 512, panels=16,
        ground_tol=1e-7, seed=4242)
    t1 = harness.run_study(replace(cfg, threads=1), tmp_path / "t1")
    t4 = harness.run_study(replace(cfg, threads=4), tmp_path / "t4")
    for name in ("sweep.csv", "cook.csv", "gauge.json"):
        assert (t1 / name).read_bytes() == (t4 / name).read_bytes(), name
    m1 = json.loads((t1 / "manifest.json").read_text())
    m4 = json.loads((t4 / "manifest.json").read_text())
    for volatile in ("timestamp", "runtimes_s", "threads"):
        m1.pop(volatile), m4.pop(volatile)
    assert m1 == m4
    report("criterion 10 (determinism)",
           "sweep.csv, cook.csv, gauge.json bit-identical for 1 vs 4 workers")
