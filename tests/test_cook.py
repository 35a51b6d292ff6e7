import json

import numpy as np
import pytest
from scipy.integrate import simpson
from test_harness import trimmed_config

from dipolelab import (cli, cook, fields, harness, hamiltonians as ham,
                       propagate as prop, spatial)
from dipolelab.errors import ConfigError


def transverse_setup(amplitude=0.25, lam=40.0):
    g = spatial.make_grid(1, 256, 80.0)
    env = fields.transverse_envelope("cw", amplitude, 1)
    fld = fields.ScaledField(env, lam, 1.0)
    pot = ham.soft_core_coulomb(1.0, 1.0)
    return g, env, fld, pot


def test_integrand_zero_field():
    g = spatial.make_grid(1, 128, 40.0)
    fld = fields.ScaledField(fields.zero_envelope(2), 10.0, 1.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    assert cook.cook_integrand(fld, 0.7, psi) == 0.0


def _integrand_pointwise_oracle(fld, s, psi):
    """Assemble g(s) point by point from the raw envelope evaluations."""
    g = psi.grid
    env = fld.envelope
    d = g.per_particle_dim
    w = fld.omega
    a0 = fields.eval_envelope(env, np.zeros(env.field_dim), w * s)
    grads = [spatial.spectral_axis_derivative(psi.values, g, axis) for axis in range(g.dim)]
    sq = np.zeros(g.shape)
    it = np.ndindex(*g.shape)
    coords = [g.axis_coordinates(a) for a in range(g.dim)]
    first_arr = np.zeros(g.shape, dtype=complex)
    for idx in it:
        for p in range(g.particles):
            x = np.array([coords[p * d + i][idx[p * d + i]] for i in range(d)])
            a_here = fields.eval_envelope(env, x / fld.lam, w * s)
            sq[idx] += float(a_here @ a_here - a0 @ a0)
            for i in range(d):
                first_arr[idx] += (a_here[i] - a0[i]) * grads[p * d + i][idx]
    scale = np.sqrt(g.cell_volume)
    t1 = (2.0 / w) * np.linalg.norm(first_arr.ravel()) * scale
    t2 = (1.0 / w ** 2) * np.linalg.norm((sq * psi.values).ravel()) * scale
    return t1 + t2


# omega != 1 catches a lost 1/omega between the a and b units
OMEGAS = (1.0, 1.7)


def random_state(g, seed):
    rng = np.random.default_rng(seed)
    return spatial.normalize(spatial.WaveFunction(
        g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)))


def test_integrand_matches_pointwise_assembly_1d():
    g, env, _, pot = transverse_setup()
    _, psi = prop.ground_state_imaginary_time(pot, g, tol=1e-7)
    s = 0.9
    for omega in OMEGAS:
        fld = fields.ScaledField(env, 40.0, omega)
        direct = cook.cook_integrand(fld, s, psi)
        oracle = _integrand_pointwise_oracle(fld, s, psi)
        assert direct == pytest.approx(oracle, abs=1e-12)


def test_integrand_matches_pointwise_assembly_2d_in_plane():
    g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
    env = fields.in_plane_envelope("cw", 0.5)
    psi = random_state(g, 12)
    s = 1.3
    for omega in OMEGAS:
        fld = fields.ScaledField(env, 8.0, omega)
        direct = cook.cook_integrand(fld, s, psi)
        oracle = _integrand_pointwise_oracle(fld, s, psi)
        assert direct == pytest.approx(oracle, abs=1e-12)


def test_integrand_matches_pointwise_assembly_two_particle():
    g = spatial.make_grid(2, [16, 16], [16.0, 16.0], particles=2)
    env = fields.transverse_envelope("cw", 0.4, 1)
    psi = random_state(g, 13)
    s = 1.3
    for omega in OMEGAS:
        fld = fields.ScaledField(env, 8.0, omega)
        direct = cook.cook_integrand(fld, s, psi)
        oracle = _integrand_pointwise_oracle(fld, s, psi)
        assert direct > 1e-3
        assert direct == pytest.approx(oracle, abs=1e-12)


def test_integrand_taylor_bound_large_lambda():
    g = spatial.make_grid(2, [32, 32], [16.0, 16.0])
    env = fields.in_plane_envelope("cw", 1.0)
    pot = ham.soft_core_coulomb(1.0, 1.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.2, 0.0)
    grad_norm = np.sqrt(g.cell_volume) * np.linalg.norm(np.stack(
        [spatial.spectral_axis_derivative(psi.values, g, a) for a in range(g.dim)]))
    radius = np.sqrt(2.0) * 8.0   # half-diagonal bounds |r| on the grid
    for lam in (200.0, 2000.0):
        fld = fields.ScaledField(env, lam, 1.0)
        for s in (0.3, 1.1):
            sup_diff = 2 * np.pi * 1.0 * radius / lam
            quadratic = (2.0 * 1.0 * sup_diff * 1.1)  # |a^2 - a0^2| <= 2 E |da|
            bound = 2.0 * sup_diff * 1.1 * grad_norm + quadratic
            assert cook.cook_integrand(fld, s, psi) <= bound


def test_simpson_weights_match_scipy():
    nodes, weights = cook.simpson_weights(8, 0.3, 2.1)
    f = np.cos(nodes) + 0.2 * nodes ** 2
    mine = float(weights @ f)
    ref = float(simpson(f, x=nodes))
    assert mine == pytest.approx(ref, abs=1e-12)
    with pytest.raises(ConfigError):
        cook.simpson_weights(0, 0.0, 1.0)


def test_streamed_g_table_matches_stored_node_states():
    # the dipole run evaluates g at each node as it passes; the table, B and
    # the final state equal those of a run that stores every node state
    g, env, _, pot = transverse_setup()
    psi0 = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    flds = [fields.ScaledField(env, lam, 1.0) for lam in (20.0, 40.0)]
    spec = ham.dipole_velocity(flds[0], pot)
    t0, dt, panels = 0.1, 0.01, 4
    clock = prop.StepperConfig(dt=dt, t0=t0, t_final=t0 + 32 * dt)
    nodes, g_table, final = cook.dipole_node_trajectory(spec, flds, psi0, clock, panels)
    states = []
    traj = prop.evolve(spec, psi0, clock, on_sample=lambda k, psi: states.append(psi.copy()),
                       every=2)
    np.testing.assert_array_equal(final.values, traj.terminal_state.values)
    assert g_table.shape == (2, nodes.size) == (2, len(states))
    _, w_fine = cook.simpson_weights(2 * panels, nodes[0], nodes[-1])
    for fld, row in zip(flds, g_table):
        ref = np.array([cook.cook_integrand(fld, s, psi)
                        for s, psi in zip(nodes, states)])
        np.testing.assert_array_equal(row, ref)
        assert cook._bound_from_samples(nodes, row, panels)[0] == float(w_fine @ ref)


def test_node_run_hands_the_integrand_the_simpson_node_times(monkeypatch):
    # with this clock t0 + k dt differs from the Simpson nodes t0 + h j in
    # the last bits at two of the five nodes; g must see the Simpson nodes
    g, env, _, pot = transverse_setup()
    psi0 = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    fld = fields.ScaledField(env, 20.0, 1.0)
    t0, dt, panels = 0.1, 2 * np.pi / 640, 1
    clock = prop.StepperConfig(dt=dt, t0=t0, t_final=t0 + 20 * dt)
    nodes, _ = cook.simpson_weights(2 * panels, clock.t0, clock.t_final)
    assert sum(t0 + k * dt != s for k, s in zip(range(0, 21, 5), nodes)) == 2
    seen = []
    monkeypatch.setattr(cook, "cook_integrand", lambda f, s, psi: seen.append(s) or 0.0)
    got, _, _ = cook.dipole_node_trajectory(ham.dipole_velocity(fld, pot), [fld], psi0,
                                            clock, panels)
    assert seen == list(nodes) and list(got) == list(nodes)


def test_node_run_rejects_steps_that_miss_a_node():
    # 20 steps cannot be cut into the 16 intervals of 4 panels
    g, env, fld, pot = transverse_setup()
    psi0 = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    clock = prop.StepperConfig(dt=0.01, t0=0.1, t_final=0.1 + 20 * 0.01)
    with pytest.raises(ConfigError, match="4 \\* panels = 16 must divide"):
        cook.dipole_node_trajectory(ham.dipole_velocity(fld, pot), [fld], psi0, clock, 4)


@pytest.fixture(scope="module")
def trimmed_reports():
    return harness.run_cook_comparison(trimmed_config())


def test_cook_bound_certifies_measured_error(trimmed_reports):
    for rep in trimmed_reports:
        assert rep.measured_error <= 1.05 * rep.bound + 1e-6
        assert rep.slack == pytest.approx(rep.bound - rep.measured_error)
        assert not rep.quad_flag
        assert np.all(rep.g_values >= 0.0)


def test_cook_bound_halves_per_lambda_doubling(trimmed_reports):
    bounds = {rep.lam: rep.bound for rep in trimmed_reports}
    ratio = bounds[40.0] / bounds[20.0]
    assert 0.4 <= ratio <= 0.6


def test_integrand_depends_on_c_only_through_omega():
    # two fields with equal (lam, omega) are bit-identical inputs; the speed
    # of light c = omega lam / (2 pi) is implied and never enters
    g, env, _, pot = transverse_setup()
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    f1 = fields.ScaledField(env, 40.0, 2.0)
    f2 = fields.ScaledField(env, 40.0, 2.0)
    assert cook.cook_integrand(f1, 0.8, psi) == cook.cook_integrand(f2, 0.8, psi)


def test_report_serialization(tmp_path):
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)
    assert cli.main(["cook", "--config", str(ini), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "cook_reports.json").read_text())
    assert [r["lambda"] for r in payload["reports"]] == [20.0, 40.0]
    for rep in payload["reports"]:
        assert len(rep["g_values"]) == len(rep["nodes"]) == len(rep["weights"])
        assert rep["slack"] == pytest.approx(rep["bound"] - rep["measured_error"])
