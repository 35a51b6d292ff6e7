import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf

import dipolelab
from dipolelab import fields
from dipolelab.errors import ConfigError
from dipolelab.spatial import make_grid

# Frozen before the build: adaptive quadrature of exp(-s^2) cos(s) over R.
FULL_LINE_INTEGRAL = 1.380388447043143

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def cw3():
    return fields.plane_wave_cw(1.0, EX, EY)


def pulse_primitive_erf(u):
    """Independent closed form: F(u) = Re[(sqrt(pi)/2) e^{-1/4} (erf(u - i/2) - 1)]."""
    return ((np.sqrt(np.pi) / 2.0) * np.exp(-0.25) * (erf(u - 0.5j) - 1.0)).real


def test_cw_envelope_zero_phase():
    assert np.allclose(fields.eval_envelope(cw3(), np.zeros(3), 0.0), 0.0, atol=1e-15)


def test_cw_envelope_quarter_period():
    # a(0, pi/2) = E sin(-pi/2) eps = -eps
    val = fields.eval_envelope(cw3(), np.zeros(3), np.pi / 2)
    np.testing.assert_allclose(val, -EY, atol=1e-15)


def test_pulse_asymptote_matches_quadrature():
    env = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    val = fields.eval_envelope(env, 0.0, 1e3)
    np.testing.assert_allclose(val, [0.0, -FULL_LINE_INTEGRAL], atol=1e-10)
    # verify the frozen constant itself against a live quadrature
    live, _ = quad(lambda s: np.exp(-s * s) * np.cos(s), -np.inf, np.inf)
    assert abs(live - FULL_LINE_INTEGRAL) < 1e-12


def test_pulse_table_against_erf_closed_form():
    env = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    for u in np.linspace(-7.5, 7.5, 201):
        table = fields.profile_value(fields.PULSE, u)
        assert abs(table - pulse_primitive_erf(u)) < 1e-10
    # constant extension beyond the window
    assert fields.profile_value(fields.PULSE, -50.0) == fields.profile_value(
        fields.PULSE, -fields.PULSE_WINDOW)


PULSE_NODES = -fields.PULSE_WINDOW + np.arange(8193) / 512.0


def test_pulse_table_nodes_and_midpoints_against_closed_form():
    nodes = fields.profile_value(fields.PULSE, PULSE_NODES)
    assert np.max(np.abs(nodes - pulse_primitive_erf(PULSE_NODES))) < 1e-14
    mids = PULSE_NODES[:-1] + 0.5 / 512.0
    table = fields.profile_value(fields.PULSE, mids)
    assert np.max(np.abs(table - pulse_primitive_erf(mids))) < 1e-12


def test_pulse_table_nan_stays_nan():
    with np.errstate(invalid="raise"):
        assert np.isnan(fields.profile_value(fields.PULSE, np.nan))
        assert np.isnan(fields.profile_value(fields.PULSE, np.array(np.nan)))
        out = fields.profile_value(fields.PULSE, np.array([np.nan, 0.5, -np.nan]))
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == fields.profile_value(fields.PULSE, 0.5)


def test_pulse_table_window_edges():
    w = fields.PULSE_WINDOW
    right = fields.profile_value(fields.PULSE, w)
    left = fields.profile_value(fields.PULSE, -w)
    assert abs(right) < 1e-15
    assert left == pytest.approx(-FULL_LINE_INTEGRAL, abs=1e-12)
    assert fields.profile_value(fields.PULSE, np.inf) == right
    assert fields.profile_value(fields.PULSE, -np.inf) == left
    out = fields.profile_value(fields.PULSE, np.array([-np.inf, -w, w, np.inf]))
    np.testing.assert_array_equal(out, [left, left, right, right])


@pytest.mark.parametrize("shape", [(), (7,), (7, 1), (1, 7)])
def test_pulse_table_keeps_shape(shape):
    u = np.linspace(-9.0, 9.0, int(np.prod(shape))).reshape(shape)
    out = fields.profile_value(fields.PULSE, u)
    assert np.shape(out) == shape
    np.testing.assert_array_equal(
        np.ravel(out), fields.profile_value(fields.PULSE, u.ravel()))


def test_pulse_table_continuous_at_cell_boundaries():
    inner = PULSE_NODES[1:-1]
    below = fields.profile_value(fields.PULSE, np.nextafter(inner, -np.inf))
    above = fields.profile_value(fields.PULSE, np.nextafter(inner, np.inf))
    at = fields.profile_value(fields.PULSE, inner)
    assert np.max(np.abs(below - above)) < 1e-15
    assert np.max(np.abs(below - at)) < 1e-15


def test_pulse_table_built_once(monkeypatch):
    builds = []
    build = fields._build_pulse_table

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(fields, "_pulse_coeffs", None)
    monkeypatch.setattr(fields, "_build_pulse_table", counted)
    env = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    first = fields.profile_value(fields.PULSE, 0.3)
    table = fields._pulse_coeffs
    fields.profile_value(fields.PULSE, np.linspace(-9, 9, 11))
    fields.eval_envelope(env, 0.2, 1.0)
    assert len(builds) == 1
    assert fields._pulse_coeffs is table
    assert fields.profile_value(fields.PULSE, 0.3) == first


def test_cli_import_graph_leaves_out_heavy_scipy(tmp_path):
    # numpy is the only runtime dependency: no scipy module loads in a CLI
    # process that evaluates the pulse profile, takes a Krylov step on the full
    # generator, runs a study, the bounds probe and the field check (scipy
    # stays a test oracle); nor do concurrent.futures and the logging it pulls
    # in, which only a threaded sweep needs, nor numpy.polynomial, whose
    # Gauss-Legendre rule the pulse table writes out as literals; nor OpenSSL
    # (the config hash takes the builtin sha256) or numpy.random and the
    # secrets module it imports (every draw comes from the stdlib generator)
    code = (
        "import dataclasses, json, sys\n"
        "import numpy as np\n"
        "import dipolelab.cli\n"
        "from dipolelab import fields, hamiltonians, harness, propagate\n"
        "fields.profile_value(fields.PULSE, 0.0)\n"
        "cfg = harness.StudyConfig(\n"
        "    preset='custom', grid_dim=1, grid_points=(256,), grid_lengths=(80.0,),\n"
        "    potential_kind='soft_core', envelope_kind='cw', amplitude=0.25,\n"
        "    omega=1.0, lambdas=(20.0, 40.0), t0=None,\n"
        "    t_final=np.pi / 512 + np.pi / 2, dt=np.pi / 512, panels=16,\n"
        "    initial_state='ground', ground_tol=1e-7, seed=11)\n"
        "grid = cfg.build_grid()\n"
        "psi0, _ = cfg.build_initial_state(grid)\n"
        "field = fields.ScaledField(cfg.build_envelope(), cfg.lambdas[0], cfg.omega)\n"
        "spec = hamiltonians.full_coupling(field, cfg.build_potential())\n"
        "propagate.evolve(spec, psi0, propagate.StepperConfig(\n"
        "    dt=cfg.dt, t0=cfg.start_time, t_final=cfg.start_time + cfg.dt,\n"
        "    method='krylov'))\n"
        "harness.run_study(dataclasses.replace(cfg, t_final=np.pi / 512 + np.pi / 8,\n"
        "                                      panels=4), sys.argv[1])\n"
        "harness.run_bounds_check(cfg)\n"
        "harness.run_field_check(cfg)\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('scipy')),\n"
        "                  [m for m in ('concurrent.futures', 'logging', 'numpy.polynomial',\n"
        "                               '_hashlib', 'hashlib', 'secrets', 'numpy.random')\n"
        "                   if m in sys.modules]]))\n")
    src = str(Path(dipolelab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [[], []]
    assert (tmp_path / "custom").is_dir()


def test_gauss_rule_literals_equal_leggauss():
    x, w = np.polynomial.legendre.leggauss(6)
    assert np.array(fields._GAUSS_NODES).tobytes() == x.tobytes()
    assert np.array(fields._GAUSS_WEIGHTS).tobytes() == w.tobytes()


def test_pulse_table_equals_the_leggauss_build(monkeypatch):
    table = fields._build_pulse_table()
    x, w = np.polynomial.legendre.leggauss(6)
    monkeypatch.setattr(fields, "_GAUSS_NODES", tuple(x))
    monkeypatch.setattr(fields, "_GAUSS_WEIGHTS", tuple(w))
    assert fields._build_pulse_table().tobytes() == table.tobytes()


def test_envelope_dt_cw_at_origin():
    # d/dt [E sin(-t)] = -E cos(t) -> -E at t=0
    assert fields.profile_derivative(fields.CW, 0.0) == 1.0


def test_envelope_dt_zero_envelope():
    u = np.linspace(-3.0, 3.0, 7)
    assert np.all(fields.profile_derivative(fields.ZERO, u) == 0.0)


def test_envelope_dt_pulse_at_origin():
    # F'(u) = exp(-u^2) cos(u)
    assert fields.profile_derivative(fields.PULSE, 0.0) == 1.0


@pytest.mark.parametrize("kind,make", [
    ("cw", lambda: cw3()),
    ("pulse", lambda: fields.gaussian_pulse(0.7, EX, EY)),
])
def test_derivatives_match_finite_differences(kind, make):
    # a(x, t) = E f(u) eps with u = 2 pi k.x - t, so d/dt a = -E f'(u) eps
    env = make()
    h = 1e-5
    for x in (np.zeros(3), np.array([0.13, -0.5, 0.02])):
        for t in (0.0, 0.41, 2.9):
            u = fields.ray_coordinate(env, x, t)
            fd1 = (fields.eval_envelope(env, x, t + h)
                   - fields.eval_envelope(env, x, t - h)) / (2 * h)
            an1 = -env.amplitude * fields.profile_derivative(kind, u) * env.eps_hat
            np.testing.assert_allclose(an1, fd1, rtol=1e-6, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-3, 3), t=st.floats(-4, 4))
def test_derivative_consistency_property(x, t):
    env = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    h = 1e-5
    fd = (fields.eval_envelope(env, x, t + h)
          - fields.eval_envelope(env, x, t - h)) / (2 * h)
    an = -fields.profile_derivative(fields.PULSE, 2 * np.pi * x - t) * env.eps_hat
    np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_pulse_antiderivative_identity():
    # d/dt a(x,t) + E exp(-u^2) cos(u) eps = 0 with u = 2 pi k.x - t
    env = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    h = 1e-5
    for x, t in ((0.0, 0.0), (0.4, 1.2), (-0.3, -0.8)):
        u = 2 * np.pi * x - t
        fd = (fields.eval_envelope(env, x, t + h)
              - fields.eval_envelope(env, x, t - h)) / (2 * h)
        residual = fd + np.exp(-u * u) * np.cos(u) * np.array([0.0, 1.0])
        assert np.max(np.abs(residual)) < 1e-8


def test_scaled_field_construction():
    fld = fields.ScaledField(cw3(), lam=40.0, omega=1.0)
    assert (fld.lam, fld.omega) == (40.0, 1.0)
    for lam, omega in ((-1.0, 1.0), (40.0, 0.0)):
        with pytest.raises(ConfigError):
            fields.ScaledField(cw3(), lam=lam, omega=omega)


def test_scaled_A_taylor_decay():
    # sup over |r| <= R of |a(r/lam, s) - a(0, s)| <= 2 pi E R / lam * 1.1
    env = cw3()
    E, R = 1.0, 3.0
    rs = np.linspace(-R, R, 41)
    for lam in (40.0, 80.0, 160.0):
        for s in (0.0, 0.9, 2.2):
            worst = max(
                np.max(np.abs(fields.eval_envelope(env, np.array([r, 0, 0]) / lam, s)
                              - fields.eval_envelope(env, np.zeros(3), s)))
                for r in rs)
            assert worst <= 2 * np.pi * E * R / lam * 1.1


def test_transversality_reports():
    ok = fields.check_transversality(cw3())
    assert ok.passed and ok.defect == 0.0
    broken = fields.LaserEnvelope("cw", 1.0, EX, EX)
    rep = fields.check_transversality(broken)
    assert not rep.passed and rep.defect == pytest.approx(1.0)
    theta = 1e-3
    tilted = fields.LaserEnvelope(
        "cw", 1.0, EX, np.array([np.sin(theta), np.cos(theta), 0.0]))
    rep = fields.check_transversality(tilted)
    assert not rep.passed
    assert rep.defect == pytest.approx(theta, rel=1e-5)


def test_envelope_factory_validation():
    with pytest.raises(ConfigError):
        fields.plane_wave_cw(1.0, [1, 0, 0], [0, 2, 0])  # not unit
    with pytest.raises(ConfigError):
        fields.plane_wave_cw(1.0, [1, 0, 0], [1, 0, 0])  # not transversal
    with pytest.raises(ConfigError):
        fields.in_plane_envelope("nope", 1.0)


def test_divergence_zero_envelope():
    grid = make_grid(2, [32, 32], [4.0, 4.0])
    rep = fields.check_divergence_free(fields.zero_envelope(2), grid)
    assert rep.max_defect == 0.0


SAMPLER_OMEGA = 1.7


def sampler_case(name):
    """(grid, envelope, lam) for the coupling-sampler tests."""
    if name == "pulse-1d-transverse":
        return make_grid(1, 64, 40.0), fields.transverse_envelope("pulse", 0.3, 1), 20.0
    if name == "cw-2d-in-plane":
        return make_grid(2, [16, 16], [16.0, 16.0]), fields.in_plane_envelope("cw", 0.5), 8.0
    return (make_grid(2, [16, 16], [16.0, 16.0], particles=2),
            fields.transverse_envelope("cw", 0.4, 1), 8.0)


def test_sampling_geometry_cache_is_bounded():
    grid, env, _ = sampler_case("two-particle-1d")
    for m in range(1, 41):
        fields.coupling_arrays(fields.ScaledField(env, 16.0 / m, 1.0), 0.3, grid)
    assert len(fields._geometry_cache) <= fields.GEOMETRY_CACHE_SIZE == 16
    # omega and the time are no part of the geometry
    first = fields._sampling_geometry(fields.ScaledField(env, 8.0, 1.0), grid)
    assert fields._sampling_geometry(fields.ScaledField(env, 8.0, 2.0), grid) is first
    rays, _, _ = first
    assert not any(u.flags.writeable for u in rays)


@pytest.mark.parametrize("dipole", [False, True], ids=["full", "dipole"])
@pytest.mark.parametrize("case", ["pulse-1d-transverse", "cw-2d-in-plane",
                                  "two-particle-1d"])
def test_coupling_arrays_match_envelope_pointwise(case, dipole):
    grid, env, lam = sampler_case(case)
    w, t = SAMPLER_OMEGA, 0.9
    fld = fields.ScaledField(env, lam, w)
    b_axes, b_sq = fields.coupling_arrays(fld, t, grid, dipole=dipole)

    d = grid.per_particle_dim
    coords = [grid.axis_coordinates(a) for a in range(grid.dim)]
    ref_sq = np.zeros(grid.shape)
    ref_axes = {p * d + i: np.zeros(grid.shape)
                for p in range(grid.particles)
                for i in range(min(d, env.field_dim)) if env.eps_hat[i] != 0.0}
    for idx in np.ndindex(*grid.shape):
        for p in range(grid.particles):
            x = np.array([coords[p * d + i][idx[p * d + i]] for i in range(d)])
            if dipole:
                x = np.zeros(d)
            b = fields.eval_envelope(env, x / lam, w * t) / w
            ref_sq[idx] += b @ b
            for i in range(d):
                if p * d + i in ref_axes:
                    ref_axes[p * d + i][idx] = b[i]

    assert [axis for axis, _ in b_axes] == sorted(ref_axes)
    if dipole:
        assert np.ndim(b_sq) == 0
        assert all(np.ndim(b) == 0 for _, b in b_axes)
    assert np.max(ref_sq) > 1e-3  # the sample time is not a node of the field
    np.testing.assert_allclose(np.broadcast_to(b_sq, grid.shape), ref_sq,
                               rtol=1e-12, atol=1e-15)
    for axis, b in b_axes:
        np.testing.assert_allclose(np.broadcast_to(b, grid.shape), ref_axes[axis],
                                   rtol=1e-12, atol=1e-15)


def test_divergence_diagonal_cw_commensurate():
    # k and eps both in-plane at 45 degrees: the two derivative terms cancel
    # spectrally only because the grid is commensurate.
    s = 1 / np.sqrt(2.0)
    env = fields.plane_wave_cw(1.0, [s, s], [s, -s])
    lengths = [4.0 * np.sqrt(2.0)] * 2   # L k_i / lam = 4 per axis at lam=1
    grid = make_grid(2, [64, 64], lengths)
    assert fields.is_commensurate(env, grid, 1.0)
    rep = fields.check_divergence_free(env, grid, lam=1.0)
    assert rep.commensurate
    assert rep.max_defect <= 1e-10


def test_divergence_non_transversal_fixture():
    env = fields.LaserEnvelope("cw", 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    grid = make_grid(2, [64, 64], [4.0, 4.0])
    rep = fields.check_divergence_free(env, grid, lam=1.0)
    assert rep.max_defect >= 0.1 * env.amplitude


def test_divergence_non_commensurate_warns_not_fails():
    env = fields.plane_wave_cw(1.0, [1, 0], [0, 1])
    grid = make_grid(1, 64, 4.3)
    rep = fields.check_divergence_free(env, grid, lam=1.0)
    assert not rep.commensurate
    assert rep.warning


def test_commensurability_and_snapping():
    env = fields.plane_wave_cw(1.0, [1, 0], [0, 1])
    grid = make_grid(1, 64, 80.0)
    assert fields.is_commensurate(env, grid, fields.snap_lambda(80.0, 4))
    assert not fields.is_commensurate(env, grid, 33.0)
    penv = fields.gaussian_pulse(1.0, [1, 0], [0, 1])
    assert fields.is_commensurate(penv, grid, 33.0)  # pulses carry no period
    with pytest.raises(ConfigError):
        fields.snap_lambda(80.0, 0)


def test_pulse_extremum_matches_quadrature_oracle():
    # deepest excursion of the pulse primitive, located on a dense scan and
    # certified by direct quadrature at the located argmin
    us = np.linspace(-fields.PULSE_WINDOW, fields.PULSE_WINDOW, 20001)
    vals = fields.profile_value(fields.PULSE, us)
    i_min = int(np.argmin(vals))
    u_star = us[i_min]
    direct, _ = quad(lambda s: np.exp(-s * s) * np.cos(s), u_star, np.inf,
                     epsabs=1e-14)
    assert vals[i_min] == pytest.approx(-direct, abs=1e-10)
    # the extremum sits just past the first sign change of the integrand
    assert -np.pi / 2 - 0.05 <= u_star <= -np.pi / 2 + 0.05


def test_time_derivatives_uniformly_bounded():
    # hypothesis of the long-wavelength limit: sup |d^j/dt^j a^i| finite for
    # j = 0, 1 over a dense sample of (x, t)
    xs = np.linspace(-5, 5, 31)
    ts = np.linspace(-10, 10, 61)
    for env in (cw3(), fields.gaussian_pulse(1.0, EX, EY)):
        sup = 0.0
        for x in xs:
            pos = np.array([x, 0.0, 0.0])
            u = fields.ray_coordinate(env, pos, ts[:, None])
            sup = max(sup, np.max(np.abs(fields.eval_envelope(env, pos, ts[:, None]))))
            sup = max(sup, env.amplitude * np.max(np.abs(
                fields.profile_derivative(env.kind, u))))
        assert np.isfinite(sup)
        assert sup <= 3.0 * env.amplitude


def test_unknown_kind_rejected():
    env = fields.LaserEnvelope("warble", 1.0, EX, EY)
    with pytest.raises(ConfigError):
        fields.validate_envelope(env)
    with pytest.raises(ConfigError):
        fields.profile_value("warble", 0.0)
