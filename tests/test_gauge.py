import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolelab import fields, gauge, hamiltonians as ham, propagate as prop, spatial
from dipolelab.errors import ConfigError


def cw_field(amplitude=0.5, lam=10.0, grid_dim=1, in_plane=False):
    env = (fields.in_plane_envelope("cw", amplitude) if in_plane
           else fields.transverse_envelope("cw", amplitude, grid_dim))
    return fields.ScaledField(env, lam, 1.0)


def test_identity_at_field_zero():
    # cw envelope vanishes at the origin at t = 0
    g = spatial.make_grid(2, [32, 32], [16.0, 16.0])
    fld = cw_field(in_plane=True)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    out = gauge.velocity_to_length(psi, fld, 0.0)
    np.testing.assert_array_equal(out.values, psi.values)


def test_norm_preserved_on_random_state():
    g = spatial.make_grid(2, [32, 32], [16.0, 16.0])
    rng = np.random.default_rng(0)
    psi = spatial.WaveFunction(
        g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    out = gauge.velocity_to_length(psi, cw_field(in_plane=True), 0.8)
    assert abs(spatial.norm(out) - spatial.norm(psi)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(t=st.floats(-5, 5))
def test_roundtrip_is_identity(t):
    g = spatial.make_grid(2, [16, 16], [8.0, 8.0])
    fld = cw_field(in_plane=True)
    rng = np.random.default_rng(4)
    psi = spatial.WaveFunction(
        g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    back = gauge.length_to_velocity(gauge.velocity_to_length(psi, fld, t), fld, t)
    assert np.max(np.abs(back.values - psi.values)) < 1e-13


def _cross_gauge_min_fidelity(grid, fld, potential, dt, t0, t1, n_marks=8):
    spec_v = ham.dipole_velocity(fld, potential)
    spec_l = ham.dipole_length(fld, potential)
    _, psi0 = prop.ground_state_imaginary_time(potential, grid, tol=1e-7)
    sample = tuple(t0 + (t1 - t0) * j / n_marks for j in range(n_marks + 1))
    cfg = prop.StepperConfig(dt=dt, t0=t0, t_final=t1, method="split")
    every = cfg.nsteps // n_marks
    marks_v, marks_l = [], []
    prop.evolve(spec_v, psi0, cfg, on_sample=lambda k, p: marks_v.append(p.copy()),
                every=every)
    prop.evolve(spec_l, gauge.velocity_to_length(psi0, fld, t0), cfg,
                on_sample=lambda k, p: marks_l.append(p.copy()), every=every)
    assert len(marks_v) == len(marks_l) == len(sample)
    fids = [gauge.phase_fidelity(gauge.velocity_to_length(sv, fld, t), sl)
            for t, sv, sl in zip(sample, marks_v, marks_l)]
    rev = [gauge.phase_fidelity(gauge.length_to_velocity(sl, fld, t), sv)
           for t, sv, sl in zip(sample, marks_v, marks_l)]
    return min(min(fids), min(rev))


def test_cross_gauge_pipeline_1d():
    g = spatial.make_grid(1, 256, 40.0)
    fid = _cross_gauge_min_fidelity(
        g, cw_field(0.5, 10.0), ham.soft_core_coulomb(1.0, 1.0),
        dt=np.pi / 320, t0=np.pi / 320, t1=np.pi / 320 + 2 * np.pi)
    assert fid >= 1 - 1e-6


def test_cross_gauge_pipeline_2d_in_plane():
    # in-plane polarization makes the multiplier and the E.r term nontrivial
    g = spatial.make_grid(2, [64, 64], [32.0, 32.0])
    fid = _cross_gauge_min_fidelity(
        g, cw_field(0.3, 16.0, in_plane=True), ham.soft_core_coulomb(1.0, 1.0),
        dt=1e-3, t0=1e-3, t1=1e-3 + 1.0)
    assert fid >= 1 - 1e-6


def test_cross_gauge_pipeline_mid_pulse_start():
    # pulse envelope is nonzero at t0: the map must be applied to the initial
    # state as well, which the pipeline does by construction
    g = spatial.make_grid(1, 256, 40.0)
    env = fields.transverse_envelope("pulse", 0.5, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    fid = _cross_gauge_min_fidelity(
        g, fld, ham.soft_core_coulomb(1.0, 1.0),
        dt=np.pi / 320, t0=np.pi / 320, t1=np.pi / 320 + 2 * np.pi)
    assert fid >= 1 - 1e-6


def test_phase_fidelity_global_phase_invariance():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    for theta in (0.0, 0.3, np.pi, 4.4):
        rotated = spatial.WaveFunction(g, np.exp(1j * theta) * psi.values)
        assert gauge.phase_fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-14)


def test_phase_fidelity_orthogonal_states():
    g = spatial.make_grid(1, 64, 20.0)
    x = g.mesh(0)
    even = spatial.normalize(spatial.WaveFunction(g, np.exp(-x ** 2)))
    odd = spatial.normalize(spatial.WaveFunction(g, x * np.exp(-x ** 2)))
    assert gauge.phase_fidelity(even, odd) < 1e-12


def test_phase_fidelity_perturbed_state():
    g = spatial.make_grid(1, 64, 20.0)
    x = g.mesh(0)
    psi = spatial.normalize(spatial.WaveFunction(g, np.exp(-x ** 2)))
    phi = spatial.normalize(spatial.WaveFunction(g, x * np.exp(-x ** 2)))
    eps = 1e-3
    mixed = spatial.WaveFunction(g, psi.values + eps * phi.values)
    expected = 1.0 / np.sqrt(1.0 + eps ** 2)
    assert gauge.phase_fidelity(psi, mixed) == pytest.approx(expected, abs=1e-9)


def test_phase_fidelity_zero_state_rejected():
    g = spatial.make_grid(1, 64, 20.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    zero = spatial.WaveFunction(g, np.zeros(64, dtype=complex))
    with pytest.raises(ConfigError):
        gauge.phase_fidelity(psi, zero)
