import gc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh, expm

from dipolelab import fields, hamiltonians as ham, propagate as prop, spatial
from dipolelab.bounds import probe_ensemble
from dipolelab.errors import ConfigError, NumericalError


def zero_spec(potential=None):
    fld = fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)
    return ham.dipole_velocity(fld, potential or ham.zero_potential())


def cw_dipole_spec(amplitude=0.5, lam=10.0, potential=None, grid_dim=1):
    env = fields.transverse_envelope("cw", amplitude, grid_dim)
    fld = fields.ScaledField(env, lam, 1.0)
    return ham.dipole_velocity(fld, potential or ham.soft_core_coulomb(1.0, 1.0))


def test_split_free_step_is_exact():
    g = spatial.make_grid(1, 256, 40.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 2.0)
    out = prop.step_split(zero_spec(), psi, 0.0, 1e-2)
    phase = np.exp(-1j * 1e-2 * g.k_square)
    ref = np.fft.ifftn(phase * np.fft.fftn(psi.values))
    assert np.max(np.abs(out.values - ref)) < 1e-13


def test_split_rejects_full_coupling():
    g = spatial.make_grid(1, 64, 16.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    spec = ham.full_coupling(fields.ScaledField(env, 8.0, 1.0), ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        prop.step_split(spec, psi, 0.0, 1e-2)


def test_split_momentum_phase_oracle():
    # N steps against exp(-i int (k - b)^2 ds) with the integral by quadrature
    g = spatial.make_grid(1, 256, 40.0)
    E, om, lam = 0.25, 1.0, 10.0
    spec = cw_dipole_spec(E, lam, ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 2.0, 0.5)
    t0, dt, steps = 0.1, 1e-3, 700
    t1 = t0 + steps * dt
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split",
                             store_states=True, sample_times=(t1,))
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
    a = prop.step_split(spec, psi, 0.2, 1e-3)
    b = prop.step_krylov(spec, psi, 0.2, 1e-3)
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
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method=method,
                                 store_states=True, sample_times=(t1,))
        outs[method] = prop.evolve(spec, psi, cfg).terminal_state
    err = np.linalg.norm((outs["split"].values - outs["krylov"].values).ravel()) \
        * np.sqrt(g.cell_volume)
    assert err <= 1e-7


def test_krylov_free_matches_analytic():
    g = spatial.make_grid(1, 64, 20.0)
    psi = probe_ensemble(g, 1, seed=9)[0]
    out = prop.step_krylov(zero_spec(), psi, 0.0, 1e-2)
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
    out = prop.step_krylov(spec, psi, 0.1, 1e-3)
    ref = prop.dense_oracle_evolve(spec, psi, 0.1, 0.101, 1)
    err = np.linalg.norm((out.values - ref.values).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-9


def test_krylov_guard_trips_on_non_hermitian_fixture():
    g = spatial.make_grid(1, 128, 40.0)
    env = fields.LaserEnvelope("cw", 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    fld = fields.ScaledField(env, 20.0, 1.0)
    spec = ham.HamiltonianSpec("full", fld, ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    with pytest.raises(NumericalError):
        prop.step_krylov(spec, psi, 0.0, 1e-2)


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
    cfg = prop.StepperConfig(dt=1e-2, t0=0.5, t_final=0.5, method="split",
                             store_states=True)
    traj = prop.evolve(cw_dipole_spec(0.5, 10.0), psi, cfg)
    np.testing.assert_array_equal(traj.terminal_state.values, psi.values)


def test_evolve_requires_normalized_state():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.WaveFunction(g, 2.0 * spatial.gaussian_packet(g, 0, 1.5, 0).values)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.1, t_final=0.2)
    with pytest.raises(ConfigError):
        prop.evolve(cw_dipole_spec(), psi, cfg)


def test_evolve_rejects_misaligned_sample_times():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    cfg = prop.StepperConfig(dt=1e-2, t0=0.0, t_final=0.1,
                             sample_times=(0.055,))
    with pytest.raises(ConfigError):
        prop.evolve(cw_dipole_spec(), psi, cfg)
    cfg2 = prop.StepperConfig(dt=3e-2, t0=0.0, t_final=0.1)
    with pytest.raises(ConfigError):
        prop.evolve(cw_dipole_spec(), psi, cfg2)


def test_evolve_records_states_at_sample_times():
    g = spatial.make_grid(1, 128, 40.0)
    spec = cw_dipole_spec(0.5, 10.0)
    _, psi = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-7)
    times = tuple(0.01 + j * 0.05 for j in range(5))
    cfg = prop.StepperConfig(dt=1e-2, t0=0.01, t_final=times[-1],
                             sample_times=times, store_states=True)
    traj = prop.evolve(spec, psi, cfg)
    assert traj.times == list(times)
    assert len(traj.states) == 5


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
        cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method=method,
                                 store_states=True, sample_times=(t1,))
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
    psi = psi0
    for j in range(steps):
        psi = prop.step_split(spec, psi, t0 + j * dt, dt)
    for j in reversed(range(steps)):
        psi = prop.step_split(spec, psi, t0 + (j + 1) * dt, -dt)
    err = np.linalg.norm((psi.values - psi0.values).ravel()) * np.sqrt(g.cell_volume)
    assert err < 1e-7


def test_reversibility_conjugation_time_independent():
    # for a real static Hamiltonian, conjugation reverses the flow
    g = spatial.make_grid(1, 256, 40.0)
    spec = zero_spec(ham.soft_core_coulomb(1.0, 1.0))
    _, psi0 = prop.ground_state_imaginary_time(spec.potential, g, tol=1e-8)
    boosted = spatial.normalize(spatial.WaveFunction(
        g, psi0.values * np.exp(1j * 0.8 * g.mesh(0))))
    cfg = prop.StepperConfig(dt=5e-3, t0=0.01, t_final=1.01, method="split",
                             store_states=True, sample_times=(1.01,))
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
        hpsi = ham.apply_hamiltonian(spec, 0.0, psi)
        resid = spatial.norm(spatial.WaveFunction(g, hpsi.values - energy * psi.values))
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
    # a Lanczos polish took 1,510 FFTs on this grid
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _original=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    g = spatial.make_grid(1, 256, 40.0)
    prop.ground_state_imaginary_time(ham.soft_core_coulomb(1.0, 1.0), g, tol=1e-8)
    assert len(calls) <= 600


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


def test_top_eigenpair_of_minus_h_matches_eigh():
    h = _random_hermitian(20, 26)
    w, q = eigh(h)
    theta, v = prop._top_eigenpair(lambda x: -(h @ x), _unit(27, 20), "-h", atol=1e-12)
    assert abs(-theta - w[0]) < 1e-10
    assert abs(abs(np.vdot(q[:, 0], v)) - 1.0) < 1e-10


def test_tridiagonal_eigh_size_one_agreement_and_failure():
    lam, q = prop._tridiagonal_eigh(np.array([2.5]), np.empty(0))
    assert lam.tolist() == [2.5] and q.tolist() == [[1.0]]
    alphas, betas = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.3, 1.1, -0.7])
    lam, q = prop._tridiagonal_eigh(alphas, betas)
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(t), rtol=0, atol=1e-13)
    np.testing.assert_allclose(t @ q, q * lam, rtol=0, atol=1e-13)
    with pytest.raises(NumericalError, match="dstev"):
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
