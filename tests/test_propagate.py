import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh, expm

from dipolelab import fields, hamiltonians as ham, harness, propagate as prop, spatial
from dipolelab.bounds import probe_ensemble
from dipolelab.errors import ConfigError, NumericalError

from conftest import traced_peak


def zero_spec(potential=None):
    fld = fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)
    return ham.dipole_velocity(fld, potential or ham.zero_potential())


def cw_dipole_spec(amplitude=0.5, lam=10.0, potential=None, grid_dim=1):
    env = fields.transverse_envelope("cw", amplitude, grid_dim)
    fld = fields.ScaledField(env, lam, 1.0)
    return ham.dipole_velocity(fld, potential or ham.soft_core_coulomb(1.0, 1.0))


def one_step(spec, psi, t, dt, method):
    """The state after one evolve step from t to t + dt."""
    cfg = prop.StepperConfig(dt=dt, t0=t, t_final=t + dt, method=method)
    return prop.evolve(spec, psi, cfg).terminal_state


def test_split_free_step_is_exact():
    g = spatial.make_grid(1, 256, 40.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 2.0)
    out = one_step(zero_spec(), psi, 0.0, 1e-2, "split")
    phase = np.exp(-1j * 1e-2 * g.k_square)
    ref = np.fft.ifftn(phase * np.fft.fftn(psi.values))
    assert np.max(np.abs(out.values - ref)) < 1e-13


def test_split_rejects_full_coupling():
    # in-plane polarization gives the full coupling gradient terms, which do
    # not split into a momentum factor and a position factor
    g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
    env = fields.in_plane_envelope("cw", 0.5)
    spec = ham.full_coupling(fields.ScaledField(env, 8.0, 1.0), ham.zero_potential())
    psi = probe_ensemble(g, 1, seed=3)[0]
    with pytest.raises(ConfigError, match="gradient"):
        one_step(spec, psi, 0.0, 1e-2, "split")


@pytest.mark.parametrize("kind", ["cw", "pulse"])
def test_split_full_transverse_matches_dense_oracle(kind):
    # with off-grid polarization the full generator is -Lap + V + |b(x,t)|^2,
    # which the Strang step splits; criterion 2's split setup and bar
    g = spatial.make_grid(1, 16, 20.0)
    env = fields.transverse_envelope(kind, 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, 10.0, 1.0), ham.soft_core_coulomb(1.0, 1.0))
    t0, t1, dt = 0.1, 0.35, 1e-5
    psi = probe_ensemble(g, 1, seed=6)[0]
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
    out = prop.evolve(spec, psi, cfg).terminal_state
    ref = prop.dense_oracle_evolve(spec, psi, t0, t1, int(round((t1 - t0) / dt)))
    err = spatial.norm(spatial.WaveFunction(g, out.values - ref.values))
    assert err <= 1e-9 * (t1 - t0)


def test_split_momentum_phase_oracle():
    # N steps against exp(-i int (k - b)^2 ds) with the integral by quadrature
    g = spatial.make_grid(1, 256, 40.0)
    E, om, lam = 0.25, 1.0, 10.0
    spec = cw_dipole_spec(E, lam, ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 2.0, 0.5)
    t0, dt, steps = 0.1, 1e-3, 700
    t1 = t0 + steps * dt
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
    traj = prop.evolve(spec, psi, cfg)
    b_sq, _ = quad(lambda s: (E / om * np.sin(-om * s)) ** 2, t0, t1, epsabs=1e-13)
    phase = g.k_square * (t1 - t0) + b_sq   # polarization off-grid: b.k term absent
    ref = np.fft.ifftn(np.exp(-1j * phase) * np.fft.fftn(psi.values))
    err = np.linalg.norm((traj.terminal_state.values - ref).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-6


def test_split_norm_preservation_long_run():
    g = spatial.make_grid(1, 256, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    E0, psi = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-8)
    cfg = prop.StepperConfig(dt=5e-4, t0=5e-4, t_final=5e-4 + 5.0, method="split")
    traj = prop.evolve(spec, psi, cfg)
    assert traj.nsteps == 10_000
    assert traj.max_step_drift <= 1e-10
    assert abs(traj.terminal_norm - 1.0) <= 1e-9


def test_krylov_matches_split_on_dipole():
    g = spatial.make_grid(1, 256, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    a = one_step(spec, psi, 0.2, 1e-3, "split")
    b = one_step(spec, psi, 0.2, 1e-3, "krylov")
    err = np.linalg.norm((a.values - b.values).ravel()) * np.sqrt(g.cell_volume)
    assert err <= 1e-8


def test_two_method_agreement_over_unit_time():
    # the gap is the Strang splitting error (Krylov is near-exact per frozen
    # step); dt = 5e-4 puts it under the 1e-7 agreement bar
    g = spatial.make_grid(1, 256, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    _, psi = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-8)
    t0, t1, dt = 0.01, 1.01, 5e-4
    outs = {}
    for method in ("split", "krylov"):
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method=method)
        outs[method] = prop.evolve(spec, psi, cfg).terminal_state
    err = np.linalg.norm((outs["split"].values - outs["krylov"].values).ravel()) \
        * np.sqrt(g.cell_volume)
    assert err <= 1e-7


def test_krylov_free_matches_analytic():
    g = spatial.make_grid(1, 64, 20.0)
    psi = probe_ensemble(g, 1, seed=9)[0]
    out = one_step(zero_spec(), psi, 0.0, 1e-2, "krylov")
    phase = np.exp(-1j * 1e-2 * g.k_square)
    ref = np.fft.ifftn(phase * np.fft.fftn(psi.values))
    err = np.linalg.norm((out.values - ref).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-9


@pytest.mark.parametrize("maker", [
    lambda fld, pot: ham.full_coupling(fld, pot),
    lambda fld, pot: ham.dipole_velocity(fld, pot),
    lambda fld, pot: ham.dipole_length(fld, pot),
])
def test_krylov_agrees_with_dense_oracle_single_step(maker):
    g = spatial.make_grid(1, 16, 20.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    fld = fields.ScaledField(env, fields.snap_lambda(20.0, 2), 1.0)
    spec = maker(fld, ham.soft_core_coulomb(1.0, 1.0))
    psi = probe_ensemble(g, 1, seed=5)[0]
    out = one_step(spec, psi, 0.1, 1e-3, "krylov")
    ref = prop.dense_oracle_evolve(spec, psi, 0.1, 0.101, 1)
    err = np.linalg.norm((out.values - ref.values).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-9


def test_krylov_guard_trips_on_non_hermitian_fixture():
    g = spatial.make_grid(1, 128, 40.0)
    env = fields.LaserEnvelope("cw", 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    fld = fields.ScaledField(env, 20.0, 1.0)
    spec = ham.HamiltonianSpec("full", fld, ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    with pytest.raises(NumericalError, match="hermiticity"):
        one_step(spec, psi, 0.0, 1e-2, "krylov")


def test_krylov_guard_rejects_a_non_finite_generator():
    # a NaN amplitude, built directly past the factories, makes H and its
    # hermiticity defect NaN, which `defect > KRYLOV_GUARD` alone lets through
    g = spatial.make_grid(1, 64, 20.0)
    env = fields.LaserEnvelope("cw", np.nan, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    spec = ham.full_coupling(fields.ScaledField(env, 10.0, 1.0), ham.zero_potential())
    with pytest.raises(NumericalError, match="hermiticity"):
        prop._check_hermiticity_guard(spec, 0.1, g)


def test_krylov_evolve_releases_its_spec():
    g = spatial.make_grid(1, 64, 20.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, 10.0, 1.0), ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.0, t_final=0.05, method="krylov")
    prop.evolve(spec, psi, cfg)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_evolve_rejects_non_finite_state():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.1, t_final=0.2)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
        prop.evolve(cw_dipole_spec(amplitude=1e200), psi, cfg)


def test_evolve_identity_when_span_is_zero():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.5, t_final=0.5, method="split")
    traj = prop.evolve(cw_dipole_spec(0.5, 10.0), psi, cfg)
    np.testing.assert_array_equal(traj.terminal_state.values, psi.values)


def test_evolve_requires_normalized_state():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.WaveFunction(g, 2.0 * spatial.gaussian_packet(g, 0, 1.5, 0).values)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.1, t_final=0.2)
    with pytest.raises(ConfigError):
        prop.evolve(cw_dipole_spec(), psi, cfg)


def test_evolve_rejects_misaligned_sample_times():
    # a hook stride that does not divide the 10 steps, and a dt that does not
    # divide the span, are configuration errors before any step
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.0, t_final=0.1)
    assert cfg.nsteps == 10
    for every in (3, 4, 20, 0, -5):
        with pytest.raises(ConfigError, match="stride"):
            prop.evolve(cw_dipole_spec(), psi, cfg, on_sample=lambda k, p: None, every=every)
    cfg2 = prop.StepperConfig(dt=3e-2, t0=0.0, t_final=0.1)
    with pytest.raises(ConfigError, match="dt must divide"):
        cfg2.nsteps
    with pytest.raises(ConfigError, match="dt must divide"):
        prop.evolve(cw_dipole_spec(), psi, cfg2)


def test_evolve_records_states_at_sample_times():
    g = spatial.make_grid(1, 128, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    _, psi = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-7)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.01, t_final=0.01 + 20 * 1e-2)
    marks = []
    traj = prop.evolve(spec, psi, cfg, on_sample=lambda k, p: marks.append((k, p.copy())),
                       every=5)
    assert [k for k, _ in marks] == [0, 5, 10, 15, 20]
    # the first mark is the initial state and the last the final state,
    # which the trajectory holds
    np.testing.assert_array_equal(marks[0][1].values, psi.values)
    np.testing.assert_array_equal(marks[-1][1].values, traj.terminal_state.values)


def test_on_sample_hook_sees_each_sample_once_in_step_order():
    g = spatial.make_grid(1, 128, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.5)
    t0, dt = 0.01, 1e-2
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t0 + 20 * dt)
    plain = prop.evolve(spec, psi, cfg)
    seen = []
    hooked = prop.evolve(spec, psi, cfg,
                         on_sample=lambda k, p: seen.append((k, p.values.copy())), every=5)
    assert [k for k, _ in seen] == [0, 5, 10, 15, 20]
    # each mark is the final state of a run that stops there
    for k, values in seen:
        upto = prop.StepperConfig(dt=dt, t0=t0, t_final=t0 + k * dt)
        assert upto.nsteps == k
        np.testing.assert_array_equal(values, prop.evolve(spec, psi, upto).terminal_state.values)
    np.testing.assert_array_equal(hooked.terminal_state.values, plain.terminal_state.values)
    assert ((hooked.nsteps, hooked.max_step_drift, hooked.terminal_norm)
            == (plain.nsteps, plain.max_step_drift, plain.terminal_norm))


@pytest.mark.parametrize("plane", [False, True], ids=["off-grid", "in-plane"])
def test_length_split_step_matches_per_step_exponential(plane):
    # with off-grid polarization the step exponentiates v once; either way it
    # is bit-identical to exponentiating v + E.r at the step midpoint
    if plane:
        g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
        env = fields.in_plane_envelope("cw", 0.5)
    else:
        g = spatial.make_grid(1, 128, 40.0)
        env = fields.transverse_envelope("cw", 0.5, 1)
    spec = ham.dipole_length(fields.ScaledField(env, 8.0, 1.0), ham.soft_core_coulomb(1.0, 1.0))
    dt = 1e-2
    rng = np.random.default_rng(5)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    forward, inverse = spatial.fourier_pair(g)
    step = prop._split_stepper(spec, g, dt)
    for t_mid in (0.37, 1.21):
        v = ham.potential_on_grid(spec.potential, g)
        term = fields.length_gauge_term(spec.field, t_mid, g)
        half_v = np.exp(-0.5j * dt * (v if term is None else v + term))
        ref = inverse(np.exp(-1j * dt * g.k_square) * forward(half_v * values))
        ref *= half_v
        np.testing.assert_array_equal(step(values, t_mid), ref)


@pytest.mark.parametrize("kind,plane,per_step", [
    (ham.DIPOLE_LENGTH, False, 0),
    (ham.DIPOLE_VELOCITY, False, 1),
    (ham.DIPOLE_LENGTH, True, 1),
    (ham.FULL, False, 1),
], ids=["length-off-grid", "velocity-off-grid", "length-in-plane", "full-off-grid"])
def test_split_step_exponentiates_only_changing_factors(monkeypatch, kind, plane, per_step):
    # the kinetic and potential factors are formed on the first step; after
    # that only a factor whose term depends on t is exponentiated again
    if plane:
        g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
        env = fields.in_plane_envelope("cw", 0.5)
    else:
        g = spatial.make_grid(1, 64, 16.0)
        env = fields.transverse_envelope("cw", 0.5, 1)
    spec = ham.HamiltonianSpec(kind, fields.ScaledField(env, 8.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    calls = []

    def counted(x, *args, _original=np.exp, **kwargs):
        if np.size(x) == g.npoints:
            calls.append(1)
        return _original(x, *args, **kwargs)

    step = prop._split_stepper(spec, g, 1e-2)
    values = probe_ensemble(g, 1, seed=4)[0].values
    monkeypatch.setattr(np, "exp", counted)
    n = 7
    for j in range(n):
        values = step(values, 0.1 + 1e-2 * (j + 0.5))
    assert len(calls) == 2 + (n - 1) * per_step


@pytest.mark.parametrize("method", ["split", "krylov"])
def test_self_convergence_is_second_order(method):
    g = spatial.make_grid(1, 128, 40.0)
    pot = ham.soft_core_coulomb(1.0, 1.0)
    spec = (cw_dipole_spec(0.5, 10.0, pot) if method == "split"
            else ham.full_coupling(
                fields.ScaledField(fields.transverse_envelope("cw", 0.5, 1), 10.0, 1.0), pot))
    _, psi = prop.ground_state_imaginary_time(pot, g, tol=1e-7)
    t0, t1 = 0.02, 0.66
    terminal = {}
    for dt in (0.016, 0.008, 0.002):   # the finest run serves as reference
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method=method)
        terminal[dt] = prop.evolve(spec, psi, cfg).terminal_state.values
    e_coarse = np.linalg.norm((terminal[0.016] - terminal[0.002]).ravel())
    e_fine = np.linalg.norm((terminal[0.008] - terminal[0.002]).ravel())
    slope = np.log2(e_coarse / e_fine)
    assert 1.8 <= slope <= 2.2


def test_reversibility_exact_inverse_steps():
    g = spatial.make_grid(1, 256, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    _, psi0 = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-8)
    dt, t0, steps = 5e-3, 0.01, 200
    forward = prop._split_stepper(spec, g, dt)
    backward = prop._split_stepper(spec, g, -dt)
    values = psi0.values
    for j in range(steps):
        values = forward(values, t0 + (j + 0.5) * dt)
    for j in reversed(range(steps)):
        values = backward(values, t0 + (j + 0.5) * dt)
    err = np.linalg.norm((values - psi0.values).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-7


def test_reversibility_conjugation_time_independent():
    # for a real static Hamiltonian, conjugation reverses the flow
    g = spatial.make_grid(1, 256, 40.0)
    spec = zero_spec(ham.soft_core_coulomb(1.0, 1.0))
    _, psi0 = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-8)
    boosted = spatial.normalize(spatial.WaveFunction(
        g, psi0.values * np.exp(1j * 0.8 * g.mesh(0))))
    cfg = prop.StepperConfig(dt=5e-3, t0=0.01, t_final=1.01, method="split")
    fwd = prop.evolve(spec, boosted, cfg).terminal_state
    back = prop.evolve(spec, spatial.WaveFunction(g, np.conj(fwd.values)), cfg).terminal_state
    err = np.linalg.norm((np.conj(back.values) - boosted.values).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-7


def test_ground_state_against_dense_oracle():
    g = spatial.make_grid(1, 256, 40.0)
    for pot, tol in ((ham.soft_core_coulomb(1.0, 1.0), 1e-6),
                     (ham.gaussian_well(5.0, 2.0), 1e-4)):
        energy, psi = prop.ground_state_imaginary_time(pot, g, tol=1e-8)
        spec = zero_spec(pot)
        h = prop.dense_hamiltonian(spec, 0.0, g, cap=4096)
        w = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
        assert abs(energy - w[0]) < tol
        assert spatial.norm(psi) == pytest.approx(1.0, abs=1e-10)
        hpsi = ham.hamiltonian_apply_fn(spec, 0.0, g)(psi.values)
        resid = spatial.norm(spatial.WaveFunction(g, hpsi - energy * psi.values))
        assert resid <= 1e-8


def test_ground_state_restart_cap_raises_one_line(monkeypatch):
    # one cycle of LANCZOS_M vectors does not reach the residual target
    monkeypatch.setattr(prop, "LANCZOS_MAX_RESTARTS", 0)
    g = spatial.make_grid(1, 256, 40.0)
    with pytest.raises(NumericalError, match="restarts") as info:
        prop.ground_state_imaginary_time(ham.soft_core_coulomb(1.0, 1.0), g, tol=1e-8)
    assert "\n" not in str(info.value)


def test_ground_state_final_residual_check(monkeypatch):
    top = prop._top_eigenpair

    def shifted(*args, **kwargs):
        theta, v = top(*args, **kwargs)
        return theta + 1e-3, v

    monkeypatch.setattr(prop, "_top_eigenpair", shifted)
    g = spatial.make_grid(1, 128, 40.0)
    with pytest.raises(NumericalError, match="residual") as info:
        prop.ground_state_imaginary_time(ham.soft_core_coulomb(1.0, 1.0), g, tol=1e-8)
    assert "\n" not in str(info.value)


def test_ground_solve_fft_budget(monkeypatch):
    # Lanczos from the Gaussian seed; an imaginary-time relaxation followed by
    # a Lanczos polish took 1,510 FFTs on this grid.  The solve runs on real
    # transforms and its residual check on complex ones; both are counted.
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    g = spatial.make_grid(1, 256, 40.0)
    prop.ground_state_imaginary_time(ham.soft_core_coulomb(1.0, 1.0), g, tol=1e-8)
    assert len(calls) <= 600


def test_ground_solve_holds_less_than_one_complex_basis():
    cfg = harness.preset_config("two-body-1d")
    grid, pot = cfg.build_grid(), cfg.build_potential()
    prop.ground_state_imaginary_time(pot, grid, tol=cfg.ground_tol)   # warm the caches
    _, peak = traced_peak(prop.ground_state_imaginary_time, pot, grid, tol=cfg.ground_tol)
    # a complex basis of LANCZOS_M states alone is 6 MiB on this grid
    assert peak < prop.LANCZOS_M * 16 * grid.npoints


def test_ground_state_rejects_free_particle():
    g = spatial.make_grid(1, 64, 20.0)
    with pytest.raises(ConfigError):
        prop.ground_state_imaginary_time(ham.zero_potential(), g)


def test_dense_oracle_unitary_and_free_case():
    g = spatial.make_grid(1, 32, 16.0)
    psi = probe_ensemble(g, 1, seed=2)[0]
    out = prop.dense_oracle_evolve(zero_spec(), psi, 0.0, 0.3, 7)
    assert abs(spatial.norm(out) - spatial.norm(psi)) < 1e-12
    ref = np.fft.ifftn(np.exp(-1j * 0.3 * g.k_square) * np.fft.fftn(psi.values))
    assert np.max(np.abs(out.values - ref)) < 1e-10


def test_dense_oracle_size_cap():
    g = spatial.make_grid(1, 128, 16.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        prop.dense_oracle_evolve(zero_spec(), psi, 0.0, 0.1, 2)


def test_stepper_config_validation():
    with pytest.raises(ConfigError):
        prop.StepperConfig(dt=-1e-2, t0=0.0, t_final=1.0)
    with pytest.raises(ConfigError):
        prop.StepperConfig(dt=1e-2, t0=2.0, t_final=1.0)
    with pytest.raises(ConfigError):
        prop.StepperConfig(dt=1e-2, t0=0.0, t_final=1.0, krylov_m=4)
    with pytest.raises(ConfigError):
        prop.StepperConfig(dt=1e-2, t0=0.0, t_final=1.0, method="euler")
    with pytest.raises(ConfigError):
        prop.StepperConfig(dt=1e-2, t0=0.0, t_final=1.0, krylov_tol=np.inf)


@pytest.mark.parametrize("name, value", [("dt", np.inf), ("dt", np.nan), ("t0", np.nan),
                                         ("t_final", np.inf), ("t_final", np.nan)])
def test_stepper_config_rejects_non_finite_times(name, value):
    # dt = inf would give a zero-step run that returns psi0 as the final state
    times = {"dt": 1e-2, "t0": 0.0, "t_final": 1.0, name: value}
    with pytest.raises(ConfigError):
        prop.StepperConfig(**times)


def _random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def _unit(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_lanczos_expm_matches_dense_expm():
    h = _random_hermitian(40, 21)
    v = 3.0 * _unit(22, 40)
    out, est = prop._lanczos_expm(lambda x: h @ x, v, 0.05, 40, 1e-14)
    assert est <= 1e-14
    np.testing.assert_allclose(out, expm(-0.05j * h) @ v, rtol=0, atol=1e-12)


def test_lanczos_expm_stops_at_dimension_one_on_an_eigenvector():
    h = _random_hermitian(40, 23)
    _, q = eigh(h)
    calls = []

    def apply(x):
        calls.append(1)
        return h @ x

    out, _ = prop._lanczos_expm(apply, q[:, 3], 0.05, 24, 1e-10)
    assert len(calls) == 1
    ratio = out / q[:, 3]
    np.testing.assert_allclose(ratio, ratio[0], rtol=0, atol=1e-12)
    assert abs(abs(ratio[0]) - 1.0) < 1e-12


def test_lanczos_expm_returns_none_when_m_is_too_small():
    h = _random_hermitian(40, 24)
    out, est = prop._lanczos_expm(lambda x: h @ x, _unit(25, 40), 1.0, 3, 1e-10)
    assert out is None and est > 1e-10


def _expm_estimate_at_every_vector(apply_fn, values, dt, m, tol):
    """_lanczos_expm with its residual estimate formed after every vector."""
    beta0 = np.sqrt(np.vdot(values, values).real)
    for V, alphas, betas, b in prop._lanczos(apply_fn, values / beta0, m, local=True):
        lam, q = prop._tridiagonal_eigh(alphas, betas)
        u = q @ (np.exp(-1j * dt * lam) * q[0, :])
        if abs(dt) * b * abs(u[-1]) <= tol or b <= 1e-14 * beta0:
            return ((beta0 * u) @ V).reshape(values.shape)
    return None


@pytest.mark.parametrize("preset", ["pulse-1d", "two-body-1d"])
def test_lanczos_expm_gate_stops_where_the_estimate_at_every_vector_does(preset,
                                                                        monkeypatch):
    # _lanczos_expm forms its estimate only once the leading Taylor term is
    # below tol; on the presets' full generators it must still stop at the
    # same vector, with the same output, while solving fewer eigenproblems
    cfg = harness.preset_config(preset)
    grid = cfg.build_grid()
    psi0, _ = cfg.build_initial_state(grid)
    env, potential = cfg.build_envelope(), cfg.build_potential()
    solves = {"gated": 0, "every": 0}
    calls = {"gated": 0, "every": 0}
    side = []
    tridiagonal_eigh = prop._tridiagonal_eigh

    def counted_eigh(alphas, betas):
        solves[side[-1]] += 1
        return tridiagonal_eigh(alphas, betas)

    monkeypatch.setattr(prop, "_tridiagonal_eigh", counted_eigh)
    span = cfg.final_time - cfg.start_time
    for lam in (cfg.lambdas[0], cfg.lambdas[-1]):
        spec = ham.full_coupling(fields.ScaledField(env, lam, cfg.omega), potential)
        for frac in (0.1, 0.5, 0.8):
            fn = ham.hamiltonian_apply_fn(spec, cfg.start_time + frac * span, grid)

            def apply(x):
                calls[side[-1]] += 1
                return fn(x)

            side.append("gated")
            out, est = prop._lanczos_expm(apply, psi0.values, cfg.dt, cfg.krylov_m,
                                          cfg.krylov_tol)
            side.append("every")
            ref = _expm_estimate_at_every_vector(apply, psi0.values, cfg.dt,
                                                 cfg.krylov_m, cfg.krylov_tol)
            assert calls["gated"] == calls["every"]
            assert est <= cfg.krylov_tol
            np.testing.assert_array_equal(out, ref)
    assert solves["gated"] < solves["every"]


def test_krylov_local_recurrence_matches_dense_expm(monkeypatch):
    # the Krylov step orthogonalises against the previous two vectors only;
    # its long subspaces and a halved step must still match the dense exponential
    g = spatial.make_grid(1, 64, 20.0)
    env = fields.transverse_envelope("pulse", 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, fields.snap_lambda(20.0, 2), 1.0),
                             ham.soft_core_coulomb(1.0, 1.0))
    psi = probe_ensemble(g, 1, seed=3)[0].values
    t, tol = 0.3, 1e-13

    def dense_step(values, t_mid, dt):
        h = prop.dense_hamiltonian(spec, t_mid, g)
        return expm(-1j * dt * 0.5 * (h + h.conj().T)) @ values

    for dt in (0.01, 0.05, 0.1):
        fn = ham.hamiltonian_apply_fn(spec, t + 0.5 * dt, g)
        calls = []

        def apply(x):
            calls.append(1)
            return fn(x)

        out, _ = prop._lanczos_expm(apply, psi, dt, 24, tol)
        np.testing.assert_allclose(out, dense_step(psi, t + 0.5 * dt, dt),
                                   rtol=0, atol=1e-12)
    assert len(calls) >= 12

    builds = []
    build = prop.hamiltonian_apply_fn
    monkeypatch.setattr(prop, "hamiltonian_apply_fn",
                        lambda *a: (builds.append(a[1]), build(*a))[1])
    dt = 0.3   # 24 vectors do not reach tol, so the step is taken as two halves
    out = prop._krylov_step_values(spec, g, psi, t, dt, 24, tol)
    assert builds == [t + 0.5 * dt, t + 0.25 * dt, t + 0.75 * dt]
    ref = dense_step(dense_step(psi, t + 0.25 * dt, 0.5 * dt), t + 0.75 * dt, 0.5 * dt)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


def test_krylov_basis_grows_past_its_first_block_only_when_a_step_needs_it(monkeypatch):
    # a step allocates LOCAL_ROWS rows and grows them to m by one copy; a step
    # that needs more rows matches the dense exponential and, row for row, a
    # basis of m rows allocated up front
    g = spatial.make_grid(1, 64, 20.0)
    env = fields.transverse_envelope("pulse", 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, fields.snap_lambda(20.0, 2), 1.0),
                             ham.soft_core_coulomb(1.0, 1.0))
    psi = probe_ensemble(g, 1, seed=3)[0].values
    t, dt, m, tol = 0.3, 0.1, 24, 1e-13
    fn = ham.hamiltonian_apply_fn(spec, t + 0.5 * dt, g)
    rows = [V.base.shape[0] for V, *_ in prop._lanczos(fn, psi / np.linalg.norm(psi), m,
                                                        local=True)]
    assert rows == [prop.LOCAL_ROWS] * prop.LOCAL_ROWS + [m] * (m - prop.LOCAL_ROWS)

    calls = []

    def apply(x):
        calls.append(1)
        return fn(x)

    out, est = prop._lanczos_expm(apply, psi, dt, m, tol)
    assert est <= tol and len(calls) > prop.LOCAL_ROWS
    h = prop.dense_hamiltonian(spec, t + 0.5 * dt, g)
    np.testing.assert_allclose(out, expm(-1j * dt * 0.5 * (h + h.conj().T)) @ psi,
                               rtol=0, atol=1e-12)
    monkeypatch.setattr(prop, "LOCAL_ROWS", m)
    np.testing.assert_array_equal(prop._lanczos_expm(fn, psi, dt, m, tol)[0], out)


@pytest.fixture(scope="module")
def two_body_start():
    """The two-body preset's clock, field at its shortest lambda, potential and psi0."""
    cfg = harness.preset_config("two-body-1d")
    grid, env, potential, clock = cfg.validate()
    psi0, _ = cfg.build_initial_state(grid)
    return clock, fields.ScaledField(env, cfg.lambdas[0], cfg.omega), potential, psi0


def test_krylov_evolve_reserves_only_the_lanczos_rows_it_fills(two_body_start):
    # the two-body steps fill 4 or 5 rows; with krylov_m = 24 rows reserved
    # per step the peak was 29.5 states
    clock, fld, potential, psi0 = two_body_start
    spec = ham.full_coupling(fld, potential)
    short = replace(clock, method=prop.KRYLOV, t_final=clock.t0 + 20 * clock.dt)
    prop.evolve(spec, psi0, short)   # fills the module caches
    _, peak = traced_peak(prop.evolve, spec, psi0, short)
    assert peak < 14 * psi0.grid.npoints * 16


def test_two_body_states_stay_exchange_symmetric(two_body_start):
    # psi(x1, x2) = psi(x2, x1) for the ground state and every state of a
    # Krylov full-coupling run and a split dipole run
    clock, fld, potential, psi0 = two_body_start

    def asymmetry(values):
        return np.max(np.abs(values - values.T)) / np.max(np.abs(values))

    assert asymmetry(psi0.values) <= 1e-12
    seen = []
    for spec, method in ((ham.full_coupling(fld, potential), prop.KRYLOV),
                         (ham.dipole_velocity(fld, potential), prop.SPLIT)):
        run = replace(clock, method=method, t_final=clock.t0 + 40 * clock.dt)
        prop.evolve(spec, psi0, run,
                    on_sample=lambda k, psi: seen.append(asymmetry(psi.values)))
    assert len(seen) == 2 * 41
    assert max(seen) <= 1e-12


def test_top_eigenpair_of_minus_h_matches_eigh():
    h = _random_hermitian(20, 26)
    w, q = eigh(h)
    theta, v = prop._top_eigenpair(lambda x: -(h @ x), _unit(27, 20), "-h", atol=1e-12)
    assert abs(-theta - w[0]) < 1e-10
    assert abs(abs(np.vdot(q[:, 0], v)) - 1.0) < 1e-10


def test_top_eigenpair_keeps_a_real_operator_real():
    h = np.random.default_rng(28).standard_normal((20, 20))
    h = h + h.T
    w, q = eigh(h)
    start = np.random.default_rng(29).standard_normal(20)
    theta, v = prop._top_eigenpair(lambda x: h @ x, start / np.linalg.norm(start), "h",
                                   atol=1e-12)
    assert v.dtype == np.float64
    assert abs(theta - w[-1]) < 1e-10
    assert abs(abs(q[:, -1] @ v) - 1.0) < 1e-10


def test_tridiagonal_eigh_size_one_agreement_and_failure():
    lam, q = prop._tridiagonal_eigh(np.array([2.5]), np.empty(0))
    assert lam.tolist() == [2.5] and q.tolist() == [[1.0]]
    alphas, betas = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.3, 1.1, -0.7])
    lam, q = prop._tridiagonal_eigh(alphas, betas)
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(t), rtol=0, atol=1e-13)
    np.testing.assert_allclose(t @ q, q * lam, rtol=0, atol=1e-13)
    with pytest.raises(NumericalError, match="non-finite"):
        prop._tridiagonal_eigh(np.array([1.0, np.nan, 2.0]), np.array([1.0, 1.0]))


def test_dense_hamiltonian_columns_are_single_applies():
    g = spatial.make_grid(1, 16, 20.0)
    env = fields.transverse_envelope("pulse", 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, fields.snap_lambda(20.0, 2), 1.0),
                             ham.soft_core_coulomb(1.0, 1.0))
    h = prop.dense_hamiltonian(spec, 0.3, g)
    fn = ham.hamiltonian_apply_fn(spec, 0.3, g)
    for j in range(g.npoints):
        e = np.zeros(g.npoints, dtype=complex)
        e[j] = 1.0
        np.testing.assert_array_equal(h[:, j], fn(e))
