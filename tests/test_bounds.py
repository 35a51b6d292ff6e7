import hashlib
import json
import random
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from dipolelab import bounds, fields, hamiltonians as ham, harness, propagate, spatial
from dipolelab.errors import ConfigError, NumericalError

from conftest import traced_peak


def free_spec():
    fld = fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)
    return ham.dipole_velocity(fld, ham.zero_potential())


def preset_w_operator():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 512, 80.0)
    return bounds.CouplingOperator.from_spec(spec, 0.7, g), g


def test_zero_operator_norms_vanish():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator.explicit(g)
    with np.errstate(all="raise"):
        alphas, q, alpha_star = bounds.contraction_scan(w, [1.0, 10.0])
    assert np.all(q == 0.0)
    assert alpha_star == 1.0
    probes = bounds.probe_ensemble(g, 64, seed=1)
    c = bounds.infinitesimal_bound_scan(w, [0.0, 0.1, 1.0], probes)
    assert np.all(c == 0.0)
    with pytest.raises(ConfigError):
        bounds.infinitesimal_bound_scan(w, [0.0], probes[:8])


def test_contraction_matches_symbol_oracle():
    # constant drift along the grid: W = 2i b d/dx + b^2, exact symbol
    # (b^2 - 2 k b) / (k^2 + alpha), maximized over the discrete lattice
    g = spatial.make_grid(1, 256, 20.0)
    w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    alphas = [1.0, 5.0, 20.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=11)
    k = g.k_axis(0)
    for a, qa in zip(alphas, q):
        oracle = np.max(np.abs(1.0 - 2.0 * k) / (k ** 2 + a))
        assert abs(qa - oracle) <= 1e-3 * oracle


def dense_contraction(w, alpha):
    """sqrt of the top eigenvalue of the dense matrix (W R)^dag (W R)."""
    g = w.grid
    n = g.npoints
    basis = np.eye(n, dtype=complex).reshape((n,) + g.shape)
    axes = tuple(range(1, g.dim + 1))
    r = np.fft.ifftn(np.fft.fftn(basis, axes=axes) / (g.k_square + alpha), axes=axes)
    r = r.reshape(n, n).T
    wm = np.array([w.apply(e).ravel() for e in basis]).T
    wr = wm @ r
    return np.sqrt(np.linalg.eigvalsh(wr.conj().T @ wr)[-1])


def dense_oracle_operators():
    env = fields.transverse_envelope("cw", 0.25, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    g1 = spatial.make_grid(1, 64, 16.0)
    yield bounds.CouplingOperator.from_spec(spec, 0.7, g1)
    # in-plane drift that varies in x: W is not normal
    g2 = spatial.make_grid(2, [16, 8], [8.0, 6.0])
    x, y = g2.mesh(0), g2.mesh(1)
    bx = 0.6 * np.sin(2 * np.pi * x / 8.0) + 0.2 * np.cos(2 * np.pi * y / 6.0)
    by = 0.3 * np.cos(2 * np.pi * x / 8.0)
    yield bounds.CouplingOperator(g2, 0.0, bx ** 2 + by ** 2 - 1.0 / np.sqrt(1.0 + x ** 2 + y ** 2),
                                  [(2j * bx, 1j * g2.k_mesh(0)), (2j * by, 1j * g2.k_mesh(1))])


@pytest.mark.parametrize("index", [0, 1], ids=["soft-core-1d", "in-plane-2d"])
def test_contraction_matches_dense_oracle(index):
    w = list(dense_oracle_operators())[index]
    alphas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=4)
    for a, qa in zip(alphas, q):
        oracle = dense_contraction(w, a)
        assert abs(qa - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("drift", [False, True], ids=["soft-core", "constant-drift"])
def test_warm_started_scan_matches_cold_solves(drift):
    # constant drift: W R is diagonal in k, so each top eigenvector is an
    # exact eigenvector of the next shift's operator
    if drift:
        g = spatial.make_grid(1, 256, 20.0)
        w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    else:
        w, _ = preset_w_operator()
    alphas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=11)
    for a, qa in zip(alphas, q):
        _, cold, _ = bounds.contraction_scan(w, [a], seed=11)
        assert abs(qa - cold[0]) <= 1e-9 * cold[0]


def test_contraction_restart_cap_raises(monkeypatch):
    # the constant-drift symbol has a flat top at alpha = 100: one cycle of
    # LANCZOS_M vectors does not reach the residual target
    g = spatial.make_grid(1, 256, 20.0)
    w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    monkeypatch.setattr(propagate, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(NumericalError, match="restarts"):
        bounds.contraction_scan(w, [100.0], seed=11)


def test_contraction_overflow_is_a_numerical_error():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator(g, 0.0, np.full(g.shape, 1e200), [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="non-finite") as info:
            bounds.contraction_scan(w, [1.0])
    assert "\n" not in str(info.value)


def test_contraction_scan_on_soft_core_spec():
    w, _ = preset_w_operator()
    alphas = [1.0, 3.0, 10.0, 30.0, 100.0]
    _, q, alpha_star = bounds.contraction_scan(w, alphas, seed=11)
    assert all(q[i] >= q[i + 1] for i in range(len(q) - 1))
    assert alpha_star is not None
    assert all(qa < 1.0 for a, qa in zip(alphas, q) if a >= alpha_star)
    # one decade of alpha shrinks q by at least 5x
    assert q[2] / q[4] >= 5.0


def test_contraction_requires_increasing_alphas():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator.explicit(g)
    with pytest.raises(ConfigError):
        bounds.contraction_scan(w, [10.0, 1.0])
    with pytest.raises(ConfigError):
        bounds.resolvent_apply(np.zeros(64, complex), g, -1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_resolvent_rejects_a_non_finite_shift(alpha):
    g = spatial.make_grid(1, 64, 10.0)
    for x in (np.zeros(64), np.zeros(64, complex)):
        with pytest.raises(ConfigError):
            bounds.resolvent_apply(x, g, alpha)


def test_contraction_scan_rejects_a_nan_shift():
    # a NaN shift would run the scan on NaN states and end in NumericalError
    w, _ = preset_w_operator()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            bounds.contraction_scan(w, [np.nan])


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_graph_norm_rejects_a_non_finite_shift(alpha):
    probes = bounds.probe_ensemble(spatial.make_grid(1, 64, 20.0), 8, seed=1)
    with pytest.raises(ConfigError):
        bounds.graph_norm_constants(free_spec(), 0.0, alpha, probes)


@pytest.mark.parametrize("eps", [np.nan, -1.0, np.inf])
def test_relative_bound_scan_rejects_a_bad_weight(eps):
    # a NaN weight read C = 0 and -1 read 212.4, neither a bound
    w, g = preset_w_operator()
    probes = bounds.probe_ensemble(g, 64, seed=1)
    with pytest.raises(ConfigError, match="relative-bound weights"):
        bounds.infinitesimal_bound_scan(w, [0.1, eps], probes)


def adjoint_identity_operators():
    g = spatial.make_grid(1, 128, 16.0)
    x = g.mesh(0)
    b_var = 0.5 * np.sin(2 * np.pi * x / 16.0)   # x-dependent drift, div != 0
    yield bounds.CouplingOperator(g, 0.0, 0.3 + 0.1 * np.cos(2 * np.pi * x / 16.0),
                                  [(2j * b_var, 1j * g.k_mesh(0))])
    spec, g2 = in_plane_spec_and_grid()
    # an array shift: the in-plane dipole velocity coupling
    w = bounds.CouplingOperator.from_spec(ham.dipole_velocity(spec.field, spec.potential),
                                          0.3, g2)
    assert np.ndim(w.symbol) == 2 and not w.grads
    yield w
    # gradient terms: the in-plane full coupling
    w = bounds.CouplingOperator.from_spec(spec, 0.3, g2)
    assert np.ndim(w.symbol) == 0 and w.grads
    yield w


def test_adjoint_identity():
    # <phi, W psi> == <W^dag phi, psi> for an arbitrary (non-Hermitian) W and
    # for the from_spec operators with an array shift and with gradient terms
    for w in adjoint_identity_operators():
        rng = np.random.default_rng(5)
        shape = w.grid.shape
        phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lhs = np.vdot(phi, w.apply(psi))
        rhs = np.vdot(w.adjoint_apply(phi), psi)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_a_constant_symbol_joins_the_diagonal():
    # a scalar symbol is the multiplication by it; it once was dropped
    g = spatial.make_grid(1, 128, 16.0)
    v = -0.7 * np.exp(-g.mesh(0) ** 2 / 8.0)
    w = bounds.CouplingOperator(g, 0.5, v, [])
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    assert w.is_real
    for method in (w.apply, w.adjoint_apply):
        np.testing.assert_array_equal(method(psi), (v + 0.5) * psi)
        np.testing.assert_array_equal(method(psi.real), (v + 0.5) * psi.real)


def test_infinitesimal_bound_bounded_multiplication():
    g = spatial.make_grid(1, 256, 20.0)
    x = g.mesh(0)
    v = -0.7 * np.exp(-x ** 2 / 8.0)   # ||V||_inf = 0.7
    w = bounds.CouplingOperator(g, 0.0, v, [])
    probes = bounds.probe_ensemble(g, 64, seed=3)
    eps = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
    c = bounds.infinitesimal_bound_scan(w, eps, probes)
    assert c[0] <= 0.7 ** 2 + 1e-12
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))
    assert np.all(c >= 0.0)


def test_infinitesimal_bound_nonincreasing_on_preset():
    w, g = preset_w_operator()
    probes = bounds.probe_ensemble(g, 64, seed=7)
    eps = [0.0, 0.02, 0.1, 0.3, 1.0]
    c = bounds.infinitesimal_bound_scan(w, eps, probes)
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def test_graph_norm_free_case_symbol_oracle():
    g = spatial.make_grid(1, 256, 20.0)
    modes = [(0,), (1,), (3,), (9,), (27,), (80,)]
    probes = bounds.plane_wave_probes(g, modes)
    alpha = 10.0
    cmin, cmax = bounds.graph_norm_constants(free_spec(), 0.0, alpha, probes)
    ks = [2 * np.pi * m[0] / 20.0 for m in modes]
    ratios = [np.sqrt(1 + k ** 2 + k ** 4) / (1 + k ** 2 + alpha) for k in ks]
    assert cmin == pytest.approx(min(ratios), abs=1e-6)
    assert cmax == pytest.approx(max(ratios), abs=1e-6)


def test_graph_norm_shift_consistency():
    g = spatial.make_grid(1, 256, 20.0)
    modes = [(0,), (2,), (10,), (60,)]
    probes = bounds.plane_wave_probes(g, modes)
    ks = [2 * np.pi * m[0] / 20.0 for m in modes]
    for alpha in (10.0, 100.0):
        cmin, cmax = bounds.graph_norm_constants(free_spec(), 0.0, alpha, probes)
        ratios = [np.sqrt(1 + k ** 2 + k ** 4) / (1 + k ** 2 + alpha) for k in ks]
        assert cmin == pytest.approx(min(ratios), abs=1e-6)
        assert cmax == pytest.approx(max(ratios), abs=1e-6)


def test_graph_norm_interval_positive_on_preset():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 256, 40.0)
    probes = bounds.probe_ensemble(g, 32, seed=9)
    cmin, cmax = bounds.graph_norm_constants(spec, 0.3, 10.0, probes)
    assert 0.0 < cmin <= cmax < np.inf


def test_sobolev_norm_reduces_to_l2():
    g = spatial.make_grid(1, 128, 16.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    flat = spatial.normalize(spatial.WaveFunction(g, np.ones(128, complex)))
    vhat = np.fft.fft(np.stack([psi.values, flat.values]))
    sob = bounds._sobolev_norms(vhat, g, bounds._sobolev_weight(g))
    # unit weight bound: ||psi||_{W^{2,2}} >= ||psi||, equality iff k = 0 only
    assert sob[0] >= spatial.norm(psi)
    assert sob[1] == pytest.approx(spatial.norm(flat), abs=1e-12)


def test_bounds_suite_reproducible():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 256, 40.0)
    rep1 = bounds.run_bounds_suite(spec, 0.1, g, seed=33)
    rep2 = bounds.run_bounds_suite(spec, 0.1, g, seed=33)
    assert asdict(rep1) == asdict(rep2)
    payload = json.loads(json.dumps(asdict(rep1)))
    assert payload["seed"] == 33
    table = rep1.format_table()
    assert "alpha" in table and "C_eps" in table.replace("C_eps", "C_eps")


@pytest.mark.parametrize("preset, seed", [
    ("pulse-1d", 1), ("pulse-1d", 77), ("pulse-1d", 5), ("pulse-1d", 2024),
    ("two-body-1d", 1), ("two-body-1d", 77), ("two-body-1d", 5), ("two-body-1d", 2024)])
def test_streamed_suite_equals_the_list_api_report(monkeypatch, preset, seed):
    # the spec, time and grid are the ones run_bounds_check hands the suite
    calls = []

    def suite(*args):
        calls.append(args)
        return bounds.run_bounds_suite(*args)

    monkeypatch.setattr(harness, "run_bounds_suite", suite)
    got = harness.run_bounds_check(replace(harness.preset_config(preset), seed=seed))
    (spec, t, grid, seed_passed), = calls
    w = bounds.CouplingOperator.from_spec(spec, t, grid)
    alphas, q, alpha_star = bounds.contraction_scan(w, bounds.SUITE_ALPHAS, seed=seed)
    probes = bounds.probe_ensemble(grid, bounds.SUITE_PROBES, seed)
    want = bounds.BoundsReport(
        alphas=list(alphas), q_values=list(q), alpha_star=alpha_star,
        epsilons=list(bounds.SUITE_EPSILONS),
        c_eps=list(bounds.infinitesimal_bound_scan(w, bounds.SUITE_EPSILONS, probes)),
        graph_alpha=bounds.SUITE_GRAPH_ALPHA,
        graph_interval=bounds.graph_norm_constants(spec, t, bounds.SUITE_GRAPH_ALPHA, probes),
        probe_description=got.probe_description, seed=seed,
        grid_shape=grid.shape, grid_lengths=grid.lengths)
    assert seed_passed == seed
    # json text compares floats by their shortest round-trip repr: bit for bit
    assert json.dumps(asdict(got)) == json.dumps(asdict(want))


def test_bounds_suite_holds_one_probe_block_not_the_ensemble(monkeypatch):
    # a 64x64 probe is 64 KiB, one per block; the ensemble is 64 of them
    env = fields.transverse_envelope("cw", 0.25, 2)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(2, 64, 40.0)
    state_bytes = g.npoints * 16
    assert bounds.PROBE_BLOCK_POINTS // g.npoints <= 1
    fixed = (np.array(bounds.SUITE_ALPHAS), np.ones(len(bounds.SUITE_ALPHAS)), None)
    monkeypatch.setattr(bounds, "contraction_scan", lambda *args, **kwargs: fixed)
    # a first run fills the grid's caches and the FFT plan cache
    bounds.run_bounds_suite(spec, 0.1, g, seed=4)
    _, peak = traced_peak(bounds.run_bounds_suite, spec, 0.1, g, seed=3)
    assert peak < 8 * state_bytes


# -- batched probe kernels against per-probe reference loops ------------------


def pulse_spec_and_grid():
    env = fields.transverse_envelope("pulse", 0.25, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    return spec, spatial.make_grid(1, 512, 80.0)


def in_plane_spec_and_grid():
    # propagation along x, polarization along y: b_y varies with x
    env = fields.in_plane_envelope("cw", 0.5)
    spec = ham.full_coupling(fields.ScaledField(env, 8.0, 1.0),
                             ham.soft_core_coulomb(1.0, 1.0))
    return spec, spatial.make_grid(2, [16, 8], [8.0, 6.0])


BATCH_CASES = {"pulse-1d": pulse_spec_and_grid, "in-plane-16x8": in_plane_spec_and_grid}


def reference_relative_bound(w, epsilons, probes):
    """The per-probe loop: one apply and one transform per probe."""
    grid = probes[0].grid
    w_n = np.array([np.linalg.norm(w.apply(p.values).ravel()) ** 2 for p in probes])
    lap_n = np.array([np.linalg.norm((grid.k_square * np.fft.fftn(p.values)).ravel()) ** 2
                      / grid.npoints for p in probes])
    n = np.array([np.linalg.norm(p.values.ravel()) ** 2 for p in probes])
    return np.array([max(0.0, float(np.max((w_n - e * lap_n) / n))) for e in epsilons])


def reference_graph_interval(spec, t, alpha, probes):
    grid = probes[0].grid
    fn = ham.hamiltonian_apply_fn(spec, t, grid)
    scale = np.sqrt(grid.cell_volume)
    weight = 1.0 + grid.k_square + grid.k_square ** 2
    ratios = []
    for p in probes:
        n = np.linalg.norm(p.values.ravel()) * scale
        graph = n + np.linalg.norm((fn(p.values) + alpha * p.values).ravel()) * scale
        total = np.sum(weight * np.abs(np.fft.fftn(p.values)) ** 2)
        ratios.append(np.sqrt(total * grid.cell_volume / grid.npoints) / graph)
    return min(ratios), max(ratios)


@pytest.mark.parametrize("case", list(BATCH_CASES))
@pytest.mark.parametrize("count", [64, 70])
def test_batched_relative_bound_matches_per_probe_loop(case, count):
    spec, g = BATCH_CASES[case]()
    w = bounds.CouplingOperator.from_spec(spec, 0.3, g)
    # the constant plane wave has ||Lap psi|| = 0 < ||W psi||, so every C_eps > 0
    probes = [*bounds.probe_ensemble(g, count - 1, seed=5),
              *bounds.plane_wave_probes(g, [(0,) * g.dim])]
    eps = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
    got = bounds.infinitesimal_bound_scan(w, eps, probes)
    want = reference_relative_bound(w, eps, probes)
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case", list(BATCH_CASES))
@pytest.mark.parametrize("count", [64, 70])
def test_batched_graph_interval_matches_per_probe_loop(case, count):
    spec, g = BATCH_CASES[case]()
    probes = bounds.probe_ensemble(g, count, seed=5)
    got = bounds.graph_norm_constants(spec, 0.3, 10.0, probes)
    want = reference_graph_interval(spec, 0.3, 10.0, probes)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_coupling_operator_applies_a_stack_row_by_row():
    # the x-dependent in-plane drift differentiates along a grid axis, which
    # sits one place further right in a stack
    w = list(dense_oracle_operators())[1]
    stack = np.stack([p.values for p in bounds.probe_ensemble(w.grid, 6, seed=2)])
    for method in (w.apply, w.adjoint_apply):
        batched = method(stack)
        for row, got in zip(stack, batched):
            np.testing.assert_array_equal(got, method(row))


def kind_cases():
    """(spec, grid) per generator kind and geometry, keyed by name."""
    pot = ham.soft_core_coulomb(1.0, 1.0)
    line = spatial.make_grid(1, 256, 40.0)
    plane = spatial.make_grid(2, [16, 8], [8.0, 6.0])
    transverse = fields.ScaledField(fields.transverse_envelope("pulse", 0.5, 1), 8.0, 1.0)
    in_plane = fields.ScaledField(fields.in_plane_envelope("cw", 0.5), 8.0, 1.0)
    return {
        "full-transverse": (ham.full_coupling(transverse, pot), line),
        "full-in-plane": (ham.full_coupling(in_plane, pot), plane),
        "dipole-velocity-off-grid": (ham.dipole_velocity(transverse, pot), line),
        "dipole-velocity-in-plane": (ham.dipole_velocity(in_plane, pot), plane),
        "dipole-length-off-grid": (ham.dipole_length(transverse, pot), line),
        "dipole-length-on-grid": (ham.dipole_length(in_plane, pot), plane),
    }


@pytest.mark.parametrize("case", list(kind_cases()))
def test_hamiltonian_is_minus_laplacian_plus_coupling(case):
    # H and W read the same coupling_terms, so H = -Lap + W for every kind
    spec, g = kind_cases()[case]
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    minus_lap = np.fft.ifftn(g.k_square * np.fft.fftn(psi))
    h_psi = ham.hamiltonian_apply_fn(spec, 0.3, g)(psi)
    w_psi = bounds.CouplingOperator.from_spec(spec, 0.3, g).apply(psi)
    assert np.max(np.abs(h_psi - (minus_lap + w_psi))) <= 1e-12 * np.max(np.abs(h_psi))


def test_probe_blocks_stay_within_the_point_budget():
    for shape, lengths in [((512,), (80.0,)), ((16, 8), (8.0, 6.0)), ((128, 128), (80.0, 80.0))]:
        g = spatial.make_grid(len(shape), list(shape), list(lengths))
        probes = bounds.probe_ensemble(g, 70, seed=3)
        blocks = list(bounds.probe_blocks(probes))
        per_block = max(1, bounds.PROBE_BLOCK_POINTS // g.npoints)
        assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        for block in blocks:
            assert block.shape[1:] == g.shape
            assert len(block) == 1 or block.size <= bounds.PROBE_BLOCK_POINTS
        np.testing.assert_array_equal(np.concatenate(blocks),
                                      np.stack([p.values for p in probes]))


@pytest.mark.parametrize("shape, lengths, digest", [
    # 8 probes per block, the last block partial
    ((512,), (80.0,), "15271d7303097f8f3b3fc05d46b291697016246c7871df2e91aa93874403f2d8"),
    # 4 probes per block
    ((32, 32), (40.0, 40.0), "e92644a901dc7d538a2b03adfe5ee563903935b161b00c2e8aed526d48b5b4f2"),
    # one probe per block, so half the blocks start at an odd index
    ((64, 64), (40.0, 40.0), "d2e85f1e23e927542810ca67c8f7fec9fc04eb96309982988b7ac22f660b257f"),
], ids=["1d-512", "2d-32x32", "2d-64x64"])
def test_probe_ensemble_bytes_are_pinned(shape, lengths, digest):
    # every bounds.json reads these probes: their bytes must not move
    g = spatial.make_grid(len(shape), list(shape), list(lengths))
    values = np.stack([p.values for p in bounds.probe_ensemble(g, 70, seed=3)])
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_bounds_suite_reads_the_blocks_of_the_probe_ensemble(monkeypatch, case):
    spec, g = BATCH_CASES[case]()
    fixed = (np.array(bounds.SUITE_ALPHAS), np.ones(len(bounds.SUITE_ALPHAS)), None)
    monkeypatch.setattr(bounds, "contraction_scan", lambda *args, **kwargs: fixed)
    read = []

    def spy(w_op, block, lap_norms):
        read.append(block.copy())
        return relative_rows(w_op, block, lap_norms)

    relative_rows = bounds._relative_rows
    monkeypatch.setattr(bounds, "_relative_rows", spy)
    bounds.run_bounds_suite(spec, 0.3, g, seed=11)
    want = list(bounds.probe_blocks(bounds.probe_ensemble(g, bounds.SUITE_PROBES, seed=11)))
    assert len(read) == len(want)
    for got, block in zip(read, want):
        assert got.tobytes() == block.tobytes() and got.shape == block.shape


def test_resolvent_power_two_is_two_applications():
    spec, g = in_plane_spec_and_grid()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    for alpha in (0.5, 10.0):
        twice = bounds.resolvent_apply(bounds.resolvent_apply(x, g, alpha), g, alpha)
        once = bounds.resolvent_apply(x, g, alpha, power=2)
        assert np.max(np.abs(once - twice)) <= 1e-14 * np.max(np.abs(twice))
    # the input is left as it was
    y = x.copy()
    bounds.resolvent_apply(y, g, 1.0, power=2)
    np.testing.assert_array_equal(x, y)


# -- a real coupling W runs the contraction scan in real arithmetic ------------


def test_real_coupling_applies_keep_a_real_input_real():
    w, g = preset_w_operator()
    assert w.is_real
    x = np.random.default_rng(6).standard_normal((3,) + g.shape)
    for method in (w.apply, w.adjoint_apply):
        got = method(x)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, method(x.astype(complex)).real)


@pytest.mark.parametrize("shape, lengths", [((256,), (40.0,)), ((16, 32), (8.0, 12.0))],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("power", [1, 2])
def test_real_resolvent_matches_the_complex_one(shape, lengths, power):
    g = spatial.make_grid(len(shape), list(shape), list(lengths))
    x = np.random.default_rng(7).standard_normal((2,) + g.shape)
    y = x.copy()
    for alpha in (0.5, 10.0):
        got = bounds.resolvent_apply(y, g, alpha, power=power)
        want = bounds.resolvent_apply(x.astype(complex), g, alpha, power=power)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    np.testing.assert_array_equal(x, y)


def two_body_w_operator():
    env = fields.transverse_envelope("cw", 0.2, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0), ham.n_body_soft_core(2, 1.0))
    g = spatial.make_grid(2, 32, 40.0, particles=2)
    return bounds.CouplingOperator.from_spec(spec, 0.1, g)


@pytest.mark.parametrize("make", [lambda: preset_w_operator()[0], two_body_w_operator],
                         ids=["soft-core-1d", "two-body-32x32"])
def test_real_and_complex_scans_agree(make):
    # a complex-typed diagonal takes the complex path on the same operator
    w = make()
    w_complex = replace(w, diagonal=w.diagonal.astype(complex))
    assert w.is_real and not w_complex.is_real
    _, q_real, star_real = bounds.contraction_scan(w, bounds.SUITE_ALPHAS, seed=9)
    _, q_complex, star_complex = bounds.contraction_scan(w_complex, bounds.SUITE_ALPHAS, seed=9)
    np.testing.assert_allclose(q_real, q_complex, rtol=1e-12, atol=0.0)
    assert star_real == star_complex


@pytest.mark.parametrize("preset", harness.PRESETS)
def test_presets_scan_on_real_start_vectors(monkeypatch, preset):
    starts = []

    def spy(apply_fn, v0, *args, **kwargs):
        starts.append(v0.dtype)
        return propagate._top_eigenpair(apply_fn, v0, *args, **kwargs)

    monkeypatch.setattr(bounds, "_top_eigenpair", spy)
    harness.run_bounds_check(harness.preset_config(preset))
    assert starts == [np.dtype(np.float64)] * len(bounds.SUITE_ALPHAS)


def test_standard_normal_is_reproducible_per_seed():
    a = bounds._standard_normal(random.Random(17), (3, 50))
    b = bounds._standard_normal(random.Random(17), (3, 50))
    assert a.shape == (3, 50) and a.dtype == np.float64
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != bounds._standard_normal(random.Random(18), (3, 50)).tobytes()


def test_standard_normal_has_unit_normal_moments():
    x = bounds._standard_normal(random.Random(2024), (200_000,))
    assert np.all(np.isfinite(x))
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


def test_real_scan_starts_from_the_real_part_of_the_complex_draw(monkeypatch):
    starts = []

    def spy(apply_fn, v0, *args, **kwargs):
        starts.append(v0)
        return propagate._top_eigenpair(apply_fn, v0, *args, **kwargs)

    monkeypatch.setattr(bounds, "_top_eigenpair", spy)
    w, _ = preset_w_operator()
    w_complex = replace(w, diagonal=w.diagonal.astype(complex))
    bounds.contraction_scan(w, [1.0], seed=31)
    bounds.contraction_scan(w_complex, [1.0], seed=31)
    real, cplx = starts
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    np.testing.assert_allclose(real, cplx.real / np.linalg.norm(cplx.real),
                               rtol=1e-13, atol=0.0)


def test_real_contraction_scan_holds_a_real_basis():
    # a 24-vector complex basis of a 64x64 grid is 24 complex states alone;
    # the real basis is the size of 12
    env = fields.transverse_envelope("cw", 0.25, 2)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(2, 64, 40.0)
    w = bounds.CouplingOperator.from_spec(spec, 0.1, g)
    state_bytes = g.npoints * 16
    # a first run fills the grid's caches and the FFT plan cache
    bounds.contraction_scan(w, [1.0], seed=4)
    _, peak = traced_peak(bounds.contraction_scan, w, bounds.SUITE_ALPHAS, seed=3)
    assert peak < 20 * state_bytes
